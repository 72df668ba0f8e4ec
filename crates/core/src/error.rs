//! Typed errors and per-run fault accounting for the sampling runtime.
//!
//! Every public `run_*` entry point returns `Result<_, NextDoorError>`:
//! user-input problems (empty or ragged initial samples, out-of-range roots,
//! zero-step applications) are caught by [`validate_run`] before any device
//! work, and runtime conditions (device-memory exhaustion, kernel faults,
//! device loss) surface as typed errors instead of panics. Panics remain
//! only for internal invariants.
//!
//! A [`FaultReport`] travels with every successful run and records what the
//! runtime survived: injected or real faults observed, step retries,
//! degradation to the out-of-core engine, and multi-GPU failovers.

use crate::api::{SamplingApp, Steps};
use nextdoor_gpu::{FaultEvent, FaultKind, OutOfMemory};
use nextdoor_graph::{Csr, VertexId};

/// Why a sampling run could not produce results.
#[derive(Debug, Clone, PartialEq)]
pub enum NextDoorError {
    /// The initial sample set was empty, or its samples hold no vertices.
    EmptyInit,
    /// The graph has no vertices to sample from.
    EmptyGraph,
    /// Initial samples must all hold the same number of vertices.
    UnequalInitSizes {
        /// Size of sample 0.
        expected: usize,
        /// Size of the offending sample.
        got: usize,
        /// Index of the offending sample.
        sample: usize,
    },
    /// An initial root vertex does not exist in the graph.
    RootOutOfRange {
        /// Index of the offending sample.
        sample: usize,
        /// The offending vertex.
        vertex: VertexId,
        /// Vertices in the graph.
        num_vertices: usize,
    },
    /// The application declares `Steps::Fixed(0)`, so no step could run.
    ZeroSteps,
    /// A multi-GPU run was requested with zero devices.
    NoGpus,
    /// More devices than samples: some devices would receive no work.
    TooManyGpus {
        /// Devices requested.
        gpus: usize,
        /// Initial samples available.
        samples: usize,
    },
    /// Device memory was exhausted and no degradation path applied.
    OutOfMemory(OutOfMemory),
    /// A single vertex's adjacency exceeds the out-of-core partition budget.
    PartitionBudgetTooSmall {
        /// The offending vertex.
        vertex: VertexId,
        /// Bytes its CSR slice needs.
        bytes: usize,
        /// The configured budget.
        budget: usize,
    },
    /// A step kept faulting after exhausting its retry budget.
    KernelFault {
        /// The step that could not complete.
        step: usize,
        /// Retries attempted before giving up.
        retries: usize,
    },
    /// The device was lost mid-run.
    DeviceLost {
        /// Device index (0 for single-GPU runs).
        device: usize,
    },
    /// The sharded engine cannot run this configuration and no degradation
    /// path applies (collective apps, per-step uniqueness, apps that read
    /// other vertices' rows, degenerate partitions).
    ShardUnsupported {
        /// Human-readable reason the configuration cannot be sharded.
        reason: String,
    },
    /// Every device of a multi-GPU run was lost before the work finished.
    AllDevicesLost,
}

impl std::fmt::Display for NextDoorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NextDoorError::EmptyInit => {
                write!(f, "need at least one initial sample of at least one vertex")
            }
            NextDoorError::EmptyGraph => write!(f, "the graph has no vertices"),
            NextDoorError::UnequalInitSizes {
                expected,
                got,
                sample,
            } => write!(
                f,
                "initial samples must have equal sizes: sample {sample} has {got} vertices, \
                 expected {expected}"
            ),
            NextDoorError::RootOutOfRange {
                sample,
                vertex,
                num_vertices,
            } => write!(
                f,
                "initial sample {sample} names vertex {vertex}, but the graph has only \
                 {num_vertices} vertices"
            ),
            NextDoorError::ZeroSteps => write!(f, "application declares zero steps"),
            NextDoorError::NoGpus => write!(f, "need at least one GPU"),
            NextDoorError::TooManyGpus { gpus, samples } => {
                write!(
                    f,
                    "more GPUs ({gpus}) than samples ({samples}) to distribute"
                )
            }
            NextDoorError::OutOfMemory(oom) => write!(f, "{oom}"),
            NextDoorError::PartitionBudgetTooSmall {
                vertex,
                bytes,
                budget,
            } => write!(
                f,
                "vertex {vertex} alone needs {bytes} bytes, exceeding the {budget}-byte \
                 partition budget"
            ),
            NextDoorError::KernelFault { step, retries } => {
                write!(f, "step {step} still faulting after {retries} retries")
            }
            NextDoorError::DeviceLost { device } => write!(f, "device {device} was lost"),
            NextDoorError::ShardUnsupported { reason } => {
                write!(f, "sharded execution unsupported: {reason}")
            }
            NextDoorError::AllDevicesLost => write!(f, "all devices were lost"),
        }
    }
}

impl std::error::Error for NextDoorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NextDoorError::OutOfMemory(oom) => Some(oom),
            _ => None,
        }
    }
}

impl From<OutOfMemory> for NextDoorError {
    fn from(oom: OutOfMemory) -> Self {
        NextDoorError::OutOfMemory(oom)
    }
}

/// What a run survived: every fault observed plus the recovery actions the
/// runtime took. All zeros/false for an undisturbed run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Allocation faults observed (injected OOM events, including
    /// correctable ones on infallible paths).
    pub alloc_faults: usize,
    /// Transient memory faults observed during kernel launches.
    pub transient_faults: usize,
    /// Launches killed by the kernel watchdog.
    pub watchdog_faults: usize,
    /// Steps that were discarded and re-executed.
    pub step_retries: usize,
    /// Whether the run degraded from the in-core engine to the out-of-core
    /// engine after an upload OOM.
    pub degraded_to_out_of_core: bool,
    /// Devices lost during the run.
    pub devices_lost: usize,
    /// Sample shards re-run on a surviving device after a loss.
    pub failovers: usize,
}

impl FaultReport {
    /// Whether nothing at all went wrong.
    pub fn is_clean(&self) -> bool {
        *self == FaultReport::default()
    }

    /// Folds another report into this one (multi-GPU aggregation).
    pub fn merge(&mut self, other: &FaultReport) {
        self.alloc_faults += other.alloc_faults;
        self.transient_faults += other.transient_faults;
        self.watchdog_faults += other.watchdog_faults;
        self.step_retries += other.step_retries;
        self.degraded_to_out_of_core |= other.degraded_to_out_of_core;
        self.devices_lost += other.devices_lost;
        self.failovers += other.failovers;
    }

    /// Counts drained device fault events into the report.
    pub(crate) fn absorb(&mut self, events: &[FaultEvent]) {
        for e in events {
            match e.kind {
                FaultKind::AllocOom => self.alloc_faults += 1,
                FaultKind::TransientMemory => self.transient_faults += 1,
                FaultKind::WatchdogTimeout => self.watchdog_faults += 1,
                FaultKind::DeviceLost => self.devices_lost += 1,
            }
        }
    }
}

impl std::fmt::Display for FaultReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_clean() {
            return write!(f, "no faults");
        }
        write!(
            f,
            "{} alloc / {} transient / {} watchdog faults, {} retries, degraded: {}, \
             {} devices lost, {} failovers",
            self.alloc_faults,
            self.transient_faults,
            self.watchdog_faults,
            self.step_retries,
            self.degraded_to_out_of_core,
            self.devices_lost,
            self.failovers
        )
    }
}

/// Validates user inputs shared by every engine. Runs before any device
/// work so that no `run_*` entry point can panic on user input.
pub fn validate_run(
    graph: &Csr,
    app: &dyn SamplingApp,
    init: &[Vec<VertexId>],
) -> Result<(), NextDoorError> {
    let expected = match init.first() {
        Some(s) if !s.is_empty() => s.len(),
        _ => return Err(NextDoorError::EmptyInit),
    };
    let n = graph.num_vertices();
    for (sample, s) in init.iter().enumerate() {
        if s.len() != expected {
            return Err(NextDoorError::UnequalInitSizes {
                expected,
                got: s.len(),
                sample,
            });
        }
        for &v in s {
            if v as usize >= n {
                return Err(NextDoorError::RootOutOfRange {
                    sample,
                    vertex: v,
                    num_vertices: n,
                });
            }
        }
    }
    if app.steps() == Steps::Fixed(0) {
        return Err(NextDoorError::ZeroSteps);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{NextCtx, NULL_VERTEX};
    use nextdoor_graph::gen::ring_lattice;

    struct App(Steps);
    impl SamplingApp for App {
        fn name(&self) -> &'static str {
            "t"
        }
        fn steps(&self) -> Steps {
            self.0
        }
        fn sample_size(&self, _: usize) -> usize {
            1
        }
        fn next(&self, _: &mut NextCtx<'_>) -> Option<VertexId> {
            None
        }
    }

    #[test]
    fn validate_catches_bad_inputs() {
        let g = ring_lattice(8, 1, 0);
        let app = App(Steps::Fixed(2));
        assert_eq!(validate_run(&g, &app, &[]), Err(NextDoorError::EmptyInit));
        assert_eq!(
            validate_run(&g, &app, &[vec![]]),
            Err(NextDoorError::EmptyInit)
        );
        assert!(matches!(
            validate_run(&g, &app, &[vec![0], vec![1, 2]]),
            Err(NextDoorError::UnequalInitSizes {
                expected: 1,
                got: 2,
                sample: 1
            })
        ));
        assert!(matches!(
            validate_run(&g, &app, &[vec![0], vec![8]]),
            Err(NextDoorError::RootOutOfRange {
                sample: 1,
                vertex: 8,
                ..
            })
        ));
        assert!(matches!(
            validate_run(&g, &app, &[vec![NULL_VERTEX]]),
            Err(NextDoorError::RootOutOfRange { .. })
        ));
        assert_eq!(
            validate_run(&g, &App(Steps::Fixed(0)), &[vec![0]]),
            Err(NextDoorError::ZeroSteps)
        );
        assert_eq!(validate_run(&g, &app, &[vec![0], vec![7]]), Ok(()));
        assert_eq!(validate_run(&g, &App(Steps::Infinite), &[vec![0]]), Ok(()));
    }

    #[test]
    fn report_merge_and_display() {
        let mut a = FaultReport {
            alloc_faults: 1,
            step_retries: 2,
            ..Default::default()
        };
        assert!(!a.is_clean());
        assert!(FaultReport::default().is_clean());
        let b = FaultReport {
            transient_faults: 3,
            degraded_to_out_of_core: true,
            failovers: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.alloc_faults, 1);
        assert_eq!(a.transient_faults, 3);
        assert_eq!(a.step_retries, 2);
        assert!(a.degraded_to_out_of_core);
        assert_eq!(a.failovers, 1);
        assert!(a.to_string().contains("degraded: true"));
        assert_eq!(FaultReport::default().to_string(), "no faults");
    }

    #[test]
    fn errors_display_and_convert() {
        let e: NextDoorError = OutOfMemory {
            requested: 10,
            available: 5,
        }
        .into();
        assert!(e.to_string().contains("out of memory"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(NextDoorError::KernelFault {
            step: 3,
            retries: 3
        }
        .to_string()
        .contains("step 3"));
        assert!(NextDoorError::AllDevicesLost
            .to_string()
            .contains("all devices"));
        assert!(NextDoorError::ShardUnsupported {
            reason: "collective app".into()
        }
        .to_string()
        .contains("sharded execution unsupported: collective app"));
    }
}

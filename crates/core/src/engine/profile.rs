//! Engine-level cost attribution built from the device profile.
//!
//! The device records a raw [`KernelRecord`] per launch (see
//! [`nextdoor_gpu::profile`]); this module lifts that stream to the
//! engine's vocabulary: every kernel name is classified into a
//! [`KernelPhase`] (scheduling-index construction, the three Table 2
//! sampling classes, the SP baseline, transit computation, collective
//! builds, post-processing), and a [`RunProfile`] aggregates the records
//! per kernel for the whole run and per executed step. The per-kernel
//! counter deltas sum exactly to the run's global
//! [`Counters`] — tests assert this conservation
//! property for every engine.

use nextdoor_gpu::profile::KernelRecord;
use nextdoor_gpu::{summarize_kernels, Counters, Gpu, GpuSpec};

/// Which stage of the sampling pipeline a kernel implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelPhase {
    /// Scheduling-index construction: radix sort, scans, compaction and
    /// the class partition (Figure 6's second component).
    Scheduling,
    /// The `stepTransits` kernel reading the previous step's vertices.
    Transit,
    /// The sub-warp sampling kernel (Table 2, row 3).
    SubWarp,
    /// Thread-block sampling kernels (Table 2, row 2; also vanilla TP).
    Block,
    /// The grid sampling kernel (Table 2, row 1).
    Grid,
    /// The fine-grained sample-parallel baseline kernel (§5.1).
    SampleParallel,
    /// Collective-neighbourhood builds and the collective `next` kernel.
    Collective,
    /// Post-processing (unique-neighbour deduplication).
    PostProcess,
    /// Any kernel the engines do not launch themselves.
    #[default]
    Other,
}

impl KernelPhase {
    /// Stable display label.
    pub fn label(self) -> &'static str {
        match self {
            KernelPhase::Scheduling => "scheduling",
            KernelPhase::Transit => "transit",
            KernelPhase::SubWarp => "sub-warp",
            KernelPhase::Block => "block",
            KernelPhase::Grid => "grid",
            KernelPhase::SampleParallel => "sample-parallel",
            KernelPhase::Collective => "collective",
            KernelPhase::PostProcess => "post-process",
            KernelPhase::Other => "other",
        }
    }

    /// Whether the phase runs user `next` code (as opposed to scheduling
    /// or bookkeeping).
    pub fn is_sampling(self) -> bool {
        matches!(
            self,
            KernelPhase::SubWarp
                | KernelPhase::Block
                | KernelPhase::Grid
                | KernelPhase::SampleParallel
                | KernelPhase::Collective
        )
    }
}

/// Classifies a kernel launch name into its pipeline phase.
pub fn classify_kernel(name: &str) -> KernelPhase {
    match name {
        "radix_histogram" | "radix_scatter" | "scan_blocks" | "scan_uniform_add" | "histogram"
        | "compact_scatter" | "segment_flags" | "partition_transits" => KernelPhase::Scheduling,
        "step_transits" => KernelPhase::Transit,
        "nextdoor_subwarp" => KernelPhase::SubWarp,
        "nextdoor_block" | "tp_block" => KernelPhase::Block,
        "nextdoor_grid" => KernelPhase::Grid,
        "sp_sample" => KernelPhase::SampleParallel,
        "collective_next" | "nd_combined_build" | "sp_combined_build" => KernelPhase::Collective,
        "unique_dedup" | "cache_install" => KernelPhase::PostProcess,
        _ => KernelPhase::Other,
    }
}

/// Aggregate of one kernel name within a run (or one step of it).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelBreakdown {
    /// Kernel name as launched.
    pub name: String,
    /// Pipeline phase of the kernel.
    pub phase: KernelPhase,
    /// Number of launches.
    pub launches: u64,
    /// Total simulated cycles.
    pub cycles: f64,
    /// Total simulated milliseconds.
    pub ms: f64,
    /// Summed counter deltas of the launches.
    pub counters: Counters,
    /// Launch-averaged achieved occupancy, in `[0, 1]`.
    pub avg_occupancy: f64,
}

/// Per-kernel aggregates of one executed step.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StepProfile {
    /// Step index.
    pub step: usize,
    /// Per-kernel aggregates, ordered by cycles (descending).
    pub kernels: Vec<KernelBreakdown>,
    /// Total kernel cycles of the step.
    pub cycles: f64,
}

/// The per-kernel, per-step breakdown of one engine run.
///
/// Empty for the CPU reference engine. When the device's bounded profile
/// buffer evicted records mid-run ([`evicted_events`](Self::in_run_evicted)
/// is non-zero) the breakdown covers only the surviving records; the
/// evicted cost is still present in the run's global counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunProfile {
    /// Whole-run per-kernel aggregates, ordered by cycles (descending).
    pub kernels: Vec<KernelBreakdown>,
    /// Per-step aggregates, in execution order (one entry per executed
    /// step, including the retried attempts of that step).
    pub steps: Vec<StepProfile>,
    /// Profile-buffer evictions observed on the device while this run was
    /// in flight (0 means the breakdown is complete).
    pub in_run_evicted: u64,
}

impl RunProfile {
    /// Total simulated milliseconds attributed to `phase`.
    pub fn phase_ms(&self, phase: KernelPhase) -> f64 {
        self.kernels
            .iter()
            .filter(|k| k.phase == phase)
            .map(|k| k.ms)
            .sum()
    }

    /// Total kernel launches in the breakdown.
    pub fn total_launches(&self) -> u64 {
        self.kernels.iter().map(|k| k.launches).sum()
    }

    /// Summed counter deltas of every kernel in the breakdown.
    pub fn total_counters(&self) -> Counters {
        let mut c = Counters::default();
        for k in &self.kernels {
            c.merge(&k.counters);
        }
        c
    }

    /// Builds the breakdown from the device profile.
    ///
    /// `launch0` is [`Gpu::launches_issued`] sampled when the run started;
    /// only records with `launch_idx >= launch0` belong to this run.
    /// `step_marks[i]` brackets step `i`'s launches as a half-open
    /// `[start, end)` range of launch indices.
    pub(crate) fn from_device(gpu: &Gpu, launch0: u64, step_marks: &[(usize, u64, u64)]) -> Self {
        let spec = gpu.spec();
        let records: Vec<&KernelRecord> = gpu
            .profile()
            .kernels()
            .filter(|k| k.launch_idx >= launch0)
            .collect();
        let kernels = breakdown(records.iter().copied(), spec);
        let steps = step_marks
            .iter()
            .map(|&(step, start, end)| {
                let ks = breakdown(
                    records
                        .iter()
                        .copied()
                        .filter(|k| k.launch_idx >= start && k.launch_idx < end),
                    spec,
                );
                let cycles = ks.iter().map(|k| k.cycles).sum();
                StepProfile {
                    step,
                    kernels: ks,
                    cycles,
                }
            })
            .collect();
        // Records evicted before the run started were already evicted when
        // we sampled launch0; only newly evicted ones can hide this run's
        // launches. The caller cannot distinguish which run they belonged
        // to, so report the device total — 0 still certifies completeness.
        RunProfile {
            kernels,
            steps,
            in_run_evicted: gpu.profile().evicted_events(),
        }
    }
}

/// The per-kernel aggregates of [`summarize_kernels`] (by name, first-launch
/// order for ties, total cycles descending), labelled with their phase and
/// simulated milliseconds.
fn breakdown<'a>(
    records: impl Iterator<Item = &'a KernelRecord>,
    spec: &GpuSpec,
) -> Vec<KernelBreakdown> {
    summarize_kernels(records)
        .into_iter()
        .map(|s| KernelBreakdown {
            phase: classify_kernel(&s.name),
            ms: spec.cycles_to_ms(s.cycles),
            name: s.name,
            launches: s.launches,
            cycles: s.cycles,
            counters: s.counters,
            avg_occupancy: s.avg_occupancy,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_engine_kernels() {
        assert_eq!(classify_kernel("radix_scatter"), KernelPhase::Scheduling);
        assert_eq!(classify_kernel("segment_flags"), KernelPhase::Scheduling);
        assert_eq!(classify_kernel("step_transits"), KernelPhase::Transit);
        assert_eq!(classify_kernel("nextdoor_subwarp"), KernelPhase::SubWarp);
        assert_eq!(classify_kernel("nextdoor_block"), KernelPhase::Block);
        assert_eq!(classify_kernel("tp_block"), KernelPhase::Block);
        assert_eq!(classify_kernel("nextdoor_grid"), KernelPhase::Grid);
        assert_eq!(classify_kernel("sp_sample"), KernelPhase::SampleParallel);
        assert_eq!(classify_kernel("collective_next"), KernelPhase::Collective);
        assert_eq!(classify_kernel("unique_dedup"), KernelPhase::PostProcess);
        assert_eq!(classify_kernel("mystery"), KernelPhase::Other);
        assert!(KernelPhase::SubWarp.is_sampling());
        assert!(!KernelPhase::Scheduling.is_sampling());
        assert_eq!(KernelPhase::SampleParallel.label(), "sample-parallel");
    }
}

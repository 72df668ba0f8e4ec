//! Multi-GPU sampling (paper §6.4, Figure 10) with device-loss failover.
//!
//! Graph sampling is embarrassingly parallel across samples, so NextDoor's
//! multi-GPU mode simply partitions the samples into contiguous shards —
//! one per device — runs load balancing, scheduling and the sampling
//! kernels on each device independently, and collects the outputs. The
//! replicated graph and the per-device sample partition are exactly what
//! the paper describes; the multi-GPU wall time is the slowest device's
//! accumulated time.
//!
//! Shard seeds are keyed by the *shard* index, not the physical device, so
//! when a device is lost its shard can be re-run on any survivor and
//! produce byte-identical samples. Failover re-runs the whole shard: steps
//! completed on the lost device are unrecoverable (its memory is gone), and
//! the counter-based RNG makes the re-run deterministic.

use crate::api::SamplingApp;
use crate::engine::nextdoor::run_nextdoor;
use crate::engine::{EngineStats, RunResult};
use crate::error::{validate_run, FaultReport, NextDoorError};
use nextdoor_gpu::{FaultPlan, Gpu, GpuSpec, Profile};
use nextdoor_graph::{Csr, VertexId};

/// Result of a multi-GPU sampling run.
pub struct MultiGpuResult {
    /// One result per sample shard, in shard order (concatenating the
    /// stores reconstructs the full sample set). Without failover, shard
    /// `i` ran on device `i`.
    pub per_gpu: Vec<RunResult>,
    /// Wall time of the run: the slowest device's accumulated total time.
    pub makespan_ms: f64,
    /// Aggregated fault report: per-shard faults plus device losses and
    /// failovers handled by this layer.
    pub report: FaultReport,
    /// Raw per-device kernel profiles (index = physical device), for
    /// multi-device trace export via
    /// [`write_chrome_trace`](nextdoor_gpu::write_chrome_trace). A lost
    /// device keeps the records it produced before dying.
    pub device_profiles: Vec<Profile>,
}

impl MultiGpuResult {
    /// Per-shard statistics.
    pub fn stats(&self) -> Vec<&EngineStats> {
        self.per_gpu.iter().map(|r| &r.stats).collect()
    }

    /// Total samples across all shards.
    pub fn total_samples(&self) -> usize {
        self.per_gpu.iter().map(|r| r.store.num_samples()).sum()
    }
}

/// Picks the least-loaded live device: among indices where `alive` is
/// `true`, the one with the smallest accumulated `load_ms`, ties broken
/// towards the lowest index. Returns `None` when nothing is alive.
///
/// This is the failover routing rule shared by the multi-GPU shard layer
/// (re-running a lost device's shard on a survivor) and the serving tier's
/// replica pool (routing a micro-batch around unhealthy replicas) — both
/// need the same deterministic "cheapest survivor" choice.
pub fn least_loaded_alive(alive: &[bool], load_ms: &[f64]) -> Option<usize> {
    (0..alive.len())
        .filter(|&d| alive[d])
        .min_by(|&a, &b| load_ms[a].total_cmp(&load_ms[b]).then(a.cmp(&b)))
}

/// Runs `app` across `num_gpus` simulated devices of identical `spec`,
/// partitioning `init` contiguously.
///
/// Each shard receives its own seed stream (`seed ^ shard`), so the union
/// of outputs is a valid sample set but not bit-identical to a single-GPU
/// run — the paper's scheme has the same property, since each GPU draws
/// from its own generator.
///
/// `fault_plans[d]` scripts device `d` (missing entries mean no faults;
/// pass `&[]` for a fault-free run): scripted device losses exercise the
/// failover path, and per-device allocation or launch faults flow into
/// the aggregated [`FaultReport`].
///
/// # Errors
///
/// Returns [`NextDoorError`] if `num_gpus` is zero or exceeds the number of
/// initial samples, on invalid initial samples, or when a shard fails for a
/// reason failover cannot mask (including [`NextDoorError::AllDevicesLost`]
/// once no survivor remains).
pub fn run_nextdoor_multi_gpu(
    spec: &GpuSpec,
    num_gpus: usize,
    graph: &Csr,
    app: &dyn SamplingApp,
    init: &[Vec<VertexId>],
    seed: u64,
    fault_plans: &[FaultPlan],
) -> Result<MultiGpuResult, NextDoorError> {
    if num_gpus == 0 {
        return Err(NextDoorError::NoGpus);
    }
    if num_gpus > init.len() {
        return Err(NextDoorError::TooManyGpus {
            gpus: num_gpus,
            samples: init.len(),
        });
    }
    validate_run(graph, app, init)?;
    let mut gpus: Vec<Gpu> = (0..num_gpus)
        .map(|d| {
            let mut gpu = Gpu::new(spec.clone());
            if let Some(plan) = fault_plans.get(d) {
                if !plan.is_empty() {
                    gpu.inject_faults(plan.clone());
                }
            }
            gpu
        })
        .collect();
    let mut alive = vec![true; num_gpus];
    let mut device_ms = vec![0.0f64; num_gpus];
    let mut report = FaultReport::default();
    let per = init.len().div_ceil(num_gpus);
    let mut per_gpu = Vec::with_capacity(num_gpus);
    // First wave: shard `i` runs on device `i`, and real hardware runs the
    // devices concurrently — so do we, one host thread per device (each
    // device's launches may additionally use the intra-launch worker pool).
    // With a single host worker thread the wave runs inline in shard order
    // instead. Either way each device executes exactly its own shard during
    // the wave — failover re-runs happen strictly afterwards — so every
    // device profile, counter and sample is bit-identical at any thread
    // count: shard seeds are device-independent and all accounting is
    // folded in shard order below.
    let concurrent = gpus.first().is_some_and(|g| g.host_threads() > 1);
    let mut first_wave: Vec<Option<Result<RunResult, NextDoorError>>> =
        (0..num_gpus).map(|_| None).collect();
    if concurrent {
        std::thread::scope(|s| {
            for (shard, (gpu, slot)) in gpus.iter_mut().zip(first_wave.iter_mut()).enumerate() {
                let lo = shard * per;
                let hi = ((shard + 1) * per).min(init.len());
                if lo >= hi {
                    continue;
                }
                let shard_seed = seed ^ shard as u64;
                s.spawn(move || {
                    *slot = Some(run_nextdoor(gpu, graph, app, &init[lo..hi], shard_seed));
                });
            }
        });
    } else {
        for (shard, (gpu, slot)) in gpus.iter_mut().zip(first_wave.iter_mut()).enumerate() {
            let lo = shard * per;
            let hi = ((shard + 1) * per).min(init.len());
            if lo >= hi {
                continue;
            }
            let shard_seed = seed ^ shard as u64;
            *slot = Some(run_nextdoor(gpu, graph, app, &init[lo..hi], shard_seed));
        }
    }
    // Reduction wave, strictly in shard order: fold each shard's result
    // into the accounting, running failovers (and, in the sequential path,
    // the shards themselves) inline.
    for shard in 0..num_gpus {
        let lo = shard * per;
        let hi = ((shard + 1) * per).min(init.len());
        if lo >= hi {
            break;
        }
        let shard_seed = seed ^ shard as u64;
        // Prefer the shard's own device; if it is already gone (or dies
        // mid-shard), re-run on the least-loaded survivor. The shard seed
        // is device-independent, so the survivor reproduces exactly the
        // samples the lost device would have produced.
        let pick_survivor = least_loaded_alive;
        let mut dev = if alive[shard] {
            shard
        } else {
            pick_survivor(&alive, &device_ms).ok_or(NextDoorError::AllDevicesLost)?
        };
        // The concurrent first wave already ran this shard on its own
        // device; reuse that result for the first loop iteration.
        let mut pending = if dev == shard {
            first_wave[shard].take()
        } else {
            None
        };
        loop {
            let attempt = match pending.take() {
                Some(r) => r,
                None => run_nextdoor(&mut gpus[dev], graph, app, &init[lo..hi], shard_seed),
            };
            match attempt {
                Ok(res) => {
                    device_ms[dev] += res.stats.total_ms;
                    report.merge(&res.report);
                    per_gpu.push(res);
                    break;
                }
                Err(NextDoorError::DeviceLost { .. }) => {
                    alive[dev] = false;
                    report.devices_lost += 1;
                    let next =
                        pick_survivor(&alive, &device_ms).ok_or(NextDoorError::AllDevicesLost)?;
                    report.failovers += 1;
                    dev = next;
                }
                Err(e) => return Err(e),
            }
        }
    }
    let makespan_ms = device_ms.iter().cloned().fold(0.0f64, f64::max);
    let device_profiles = gpus.iter().map(|g| g.profile().clone()).collect();
    Ok(MultiGpuResult {
        per_gpu,
        makespan_ms,
        report,
        device_profiles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{NextCtx, Steps};
    use nextdoor_graph::gen::{rmat, RmatParams};

    struct Walk(usize);
    impl SamplingApp for Walk {
        fn name(&self) -> &'static str {
            "walk"
        }
        fn steps(&self) -> Steps {
            Steps::Fixed(self.0)
        }
        fn sample_size(&self, _: usize) -> usize {
            1
        }
        fn next(&self, ctx: &mut NextCtx<'_>) -> Option<u32> {
            let d = ctx.num_edges();
            if d == 0 {
                return None;
            }
            let i = ctx.rand_range(d);
            Some(ctx.src_edge(i))
        }
    }

    #[test]
    fn partitions_cover_all_samples() {
        let g = rmat(8, 2000, RmatParams::SKEWED, 1);
        let init: Vec<Vec<u32>> = (0..100).map(|i| vec![i as u32 % 256]).collect();
        let spec = GpuSpec::small();
        let res = run_nextdoor_multi_gpu(&spec, 4, &g, &Walk(4), &init, 5, &[]).unwrap();
        assert_eq!(res.per_gpu.len(), 4);
        assert_eq!(res.total_samples(), 100);
        assert!(res.makespan_ms > 0.0);
        assert!(res.report.is_clean());
        for r in &res.per_gpu {
            assert!(r.stats.total_ms <= res.makespan_ms + 1e-12);
        }
    }

    #[test]
    fn four_gpus_speed_up_large_workloads() {
        // Figure 10's claim: with enough samples to saturate one device,
        // four devices finish close to 4x faster.
        let g = rmat(10, 20_000, RmatParams::SKEWED, 2);
        let init: Vec<Vec<u32>> = (0..16_384).map(|i| vec![(i % 1024) as u32]).collect();
        // A small device with modest launch overhead keeps the test fast
        // while leaving enough per-step work to amortise fixed costs, as
        // the paper's full-scale workloads do on the V100.
        let mut spec = GpuSpec::small();
        spec.num_sms = 4;
        spec.cost.launch_overhead = 100.0;
        let single = run_nextdoor_multi_gpu(&spec, 1, &g, &Walk(6), &init, 3, &[]).unwrap();
        let quad = run_nextdoor_multi_gpu(&spec, 4, &g, &Walk(6), &init, 3, &[]).unwrap();
        let speedup = single.makespan_ms / quad.makespan_ms;
        assert!(
            speedup > 2.0,
            "4-GPU speedup {speedup:.2} should be substantial"
        );
    }

    #[test]
    fn too_many_gpus_rejected() {
        let g = rmat(6, 100, RmatParams::SKEWED, 1);
        let res = run_nextdoor_multi_gpu(&GpuSpec::small(), 8, &g, &Walk(1), &[vec![0]], 0, &[]);
        assert_eq!(
            res.err().map(|e| e.to_string()).unwrap_or_default(),
            "more GPUs (8) than samples (1) to distribute"
        );
        let res = run_nextdoor_multi_gpu(&GpuSpec::small(), 0, &g, &Walk(1), &[vec![0]], 0, &[]);
        assert!(matches!(res, Err(NextDoorError::NoGpus)));
    }

    #[test]
    fn lost_device_fails_over_with_identical_samples() {
        let g = rmat(8, 2000, RmatParams::SKEWED, 1);
        let init: Vec<Vec<u32>> = (0..60).map(|i| vec![i as u32 % 256]).collect();
        let spec = GpuSpec::small();
        let clean = run_nextdoor_multi_gpu(&spec, 3, &g, &Walk(4), &init, 9, &[]).unwrap();
        // Device 1 dies early in its shard; the shard must re-run elsewhere.
        let plans = vec![
            FaultPlan::new(),
            FaultPlan::new().lose_device_at_launch(2),
            FaultPlan::new(),
        ];
        let faulty = run_nextdoor_multi_gpu(&spec, 3, &g, &Walk(4), &init, 9, &plans).unwrap();
        assert_eq!(faulty.report.devices_lost, 1);
        assert_eq!(faulty.report.failovers, 1);
        assert_eq!(faulty.per_gpu.len(), 3);
        for (c, f) in clean.per_gpu.iter().zip(&faulty.per_gpu) {
            assert_eq!(c.store.final_samples(), f.store.final_samples());
        }
    }

    #[test]
    fn losing_every_device_is_a_typed_error() {
        let g = rmat(8, 2000, RmatParams::SKEWED, 1);
        let init: Vec<Vec<u32>> = (0..20).map(|i| vec![i as u32 % 256]).collect();
        let plans = vec![
            FaultPlan::new().lose_device_at_launch(0),
            FaultPlan::new().lose_device_at_launch(0),
        ];
        let res = run_nextdoor_multi_gpu(&GpuSpec::small(), 2, &g, &Walk(3), &init, 1, &plans);
        assert!(matches!(res, Err(NextDoorError::AllDevicesLost)));
    }
}

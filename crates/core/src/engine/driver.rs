//! The shared step loop of the GPU engines, and the one device step every
//! placement runs.
//!
//! The engines differ only in how each step's `next` invocations are
//! scheduled onto the GPU; everything else — transit planning, collective
//! neighbourhood semantics, uniqueness, termination, fault recovery — is
//! common and lives in [`run_step_loop`], so that the engines are directly
//! comparable (and provably produce identical samples). The out-of-GPU-memory
//! mode (§8.4) reuses the same loop with a residency descriptor that charges
//! per-step sub-graph transfers.
//!
//! Every placement runs the same per-device step, [`run_device_step`]: stage
//! the step's transits, allocate the outputs, run the engine's kernels over
//! a pair list, dedup, and retry on faults. A single device runs it over
//! all live pairs of a step; a graph shard
//! ([`ShardedSampler`](crate::sharded::ShardedSampler)) runs it over the
//! pairs whose transit it owns. So this module alone decides how a device
//! runs a step and when it gives up.
//!
//! # Fault recovery
//!
//! Device faults (injected via [`nextdoor_gpu::FaultPlan`] or real) surface
//! through two channels: fallible allocations return `Err(OutOfMemory)`, and
//! kernel launches record [`nextdoor_gpu::FaultEvent`]s drained with
//! `take_faults()`. The device step drains events at step granularity: an
//! attempt that observed any fault discards its outputs and re-executes —
//! sound because the sampling RNG is counter-based, keyed by
//! `(seed, sample, step, slot)`, so a re-run is bit-identical. A step still
//! faulting after [`MAX_STEP_RETRIES`] retries fails the run with
//! [`NextDoorError::KernelFault`]. Device loss is never retried locally: it
//! comes back as `None` and each placement maps it — a single device fails
//! with [`NextDoorError::DeviceLost`] for the multi-GPU layer to fail over,
//! a shard leaves the fleet. An upload that does not fit degrades the
//! NextDoor engine to the out-of-core engine instead of failing.

use crate::api::{SamplingApp, SamplingType, NULL_VERTEX};
use crate::engine::collective::{
    build_combined_sample_parallel, build_combined_transit_parallel, prepare_combined,
    run_collective_next_kernel,
};
use crate::engine::kernels::{
    block_class_work, charge_step_transits, grid_class_work, run_sample_parallel_kernel,
    run_subwarp_kernel, run_transit_block_kernel, BlockWork, StepExec, StepOut, BLOCK_THREADS,
};
use crate::engine::profile::RunProfile;
use crate::engine::scheduling::{build_scheduling_index, partition_kernel_classes};
use crate::engine::{
    finish_step, plan_step, step_budget, unique, EngineStats, RunResult, SampleKeys, StepPlan,
};
use crate::error::{FaultReport, NextDoorError};
use crate::gpu_graph::GpuGraph;
use crate::large_graph::GraphPartitions;
use crate::store::SampleStore;
use crate::tuning::{HotTransitCache, TuningPlan};
use nextdoor_gpu::{Counters, DeviceBuffer, FaultEvent, Gpu, OutOfMemory};
use nextdoor_graph::{Csr, VertexId};

/// How many times a faulted step is re-executed before the run fails with
/// [`NextDoorError::KernelFault`].
const MAX_STEP_RETRIES: usize = 3;

/// Which parallelisation strategy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GpuEngineKind {
    /// Transit-parallel with scheduling index and three kernel classes.
    NextDoor,
    /// Fine-grained sample-parallel (the paper's SP baseline).
    SampleParallel,
    /// Vanilla transit-parallel: map inversion but one block per transit
    /// (the paper's TP baseline).
    VanillaTp,
}

/// Collects the live `(transit, pair_id)` pairs of a step.
pub(crate) fn live_pairs(plan: &StepPlan, num_samples: usize) -> Vec<(VertexId, u32)> {
    let mut pairs = Vec::with_capacity(num_samples * plan.tps);
    for s in 0..num_samples {
        for t in 0..plan.tps {
            let tv = plan.transits[s * plan.tps + t];
            if tv != NULL_VERTEX {
                pairs.push((tv, (s * plan.tps + t) as u32));
            }
        }
    }
    pairs
}

/// The scheduling index's radix-sort key bound for a step: the graph's
/// vertex count, or under the tuner's `tight_key_range` one past the step's
/// largest live transit.
fn key_bound(pairs: &[(VertexId, u32)], tuning: &TuningPlan, num_vertices: usize) -> usize {
    if !tuning.tight_key_range {
        return num_vertices;
    }
    pairs
        .iter()
        .map(|&(t, _)| t as usize + 1)
        .max()
        .unwrap_or(num_vertices)
}

/// Executes one step's `next` invocations over `pairs` under `kind`,
/// filling `out`. Returns the cycles spent building the scheduling index.
///
/// `tuning` supplies the session's [`TuningPlan`] (the default plan
/// reproduces the untuned engine byte-identically) and `cache` the
/// session's [`HotTransitCache`], if any: the NextDoor engine consults it
/// for memoised scheduling indices and resident adjacency slices, and
/// feeds its transit frequencies. Samples are identical either way — the
/// knobs move cost, never RNG draws.
///
/// # Errors
///
/// Returns [`OutOfMemory`] when a device allocation fails (genuinely or
/// through a scripted fault); [`run_device_step`] retries the step when the
/// fault was injected.
#[allow(clippy::too_many_arguments)]
fn exec_step(
    gpu: &mut Gpu,
    ex: &StepExec<'_>,
    kind: GpuEngineKind,
    pairs: &[(VertexId, u32)],
    transit_buf: &DeviceBuffer<u32>,
    tuning: &TuningPlan,
    mut cache: Option<&mut HotTransitCache>,
    out: &mut StepOut,
) -> Result<f64, OutOfMemory> {
    let plan = ex.plan;
    let mut sched_cycles = 0.0;
    match ex.app.sampling_type() {
        SamplingType::Individual => match kind {
            GpuEngineKind::NextDoor => {
                let c0 = gpu.counters().cycles;
                let memo = cache
                    .as_deref_mut()
                    .and_then(|c| c.lookup_sched(pairs, plan.m));
                let (index, classes) = match memo {
                    Some(hit) => hit,
                    None => {
                        let index = build_scheduling_index(
                            gpu,
                            pairs,
                            key_bound(pairs, tuning, ex.graph.num_vertices()),
                        )?;
                        let classes = partition_kernel_classes(gpu, &index, plan.m, BLOCK_THREADS)?;
                        if let Some(c) = cache.as_deref_mut() {
                            c.store_sched(pairs, plan.m, &index, &classes);
                        }
                        (index, classes)
                    }
                };
                if let Some(c) = cache.as_deref_mut() {
                    c.note_index(&index);
                }
                sched_cycles += gpu.counters().cycles - c0;
                let resident = cache.as_deref().map_or(&[][..], |c| c.resident());
                run_subwarp_kernel(gpu, ex, &index, &classes.sub_warp, resident, out);
                for (name, work) in [
                    ("nextdoor_block", block_class_work(&index, &classes.block)),
                    (
                        "nextdoor_grid",
                        grid_class_work(&index, &classes.grid, plan.m),
                    ),
                ] {
                    run_transit_block_kernel(gpu, name, ex, &index, &work, resident, out);
                }
            }
            GpuEngineKind::SampleParallel => {
                run_sample_parallel_kernel(gpu, ex, transit_buf, out);
            }
            GpuEngineKind::VanillaTp => {
                let c0 = gpu.counters().cycles;
                let index = build_scheduling_index(
                    gpu,
                    pairs,
                    key_bound(pairs, tuning, ex.graph.num_vertices()),
                )?;
                sched_cycles += gpu.counters().cycles - c0;
                let bw: Vec<BlockWork> = (0..index.segments.len())
                    .map(|si| BlockWork {
                        seg: si,
                        pair_start: 0,
                        pair_count: index.segments[si].count,
                    })
                    .collect();
                run_transit_block_kernel(gpu, "tp_block", ex, &index, &bw, &[], out);
            }
        },
        SamplingType::Collective => {
            let mut comb = prepare_combined(gpu, ex)?;
            match kind {
                GpuEngineKind::NextDoor | GpuEngineKind::VanillaTp => {
                    let c0 = gpu.counters().cycles;
                    let index = build_scheduling_index(
                        gpu,
                        pairs,
                        key_bound(pairs, tuning, ex.graph.num_vertices()),
                    )?;
                    sched_cycles += gpu.counters().cycles - c0;
                    build_combined_transit_parallel(gpu, ex, &index, &mut comb);
                }
                GpuEngineKind::SampleParallel => {
                    build_combined_sample_parallel(gpu, ex, &mut comb);
                }
            }
            run_collective_next_kernel(gpu, ex, &comb, out);
        }
    }
    Ok(sched_cycles)
}

/// Why one attempt at a device operation did not come back clean.
enum Fault {
    /// A fallible allocation failed: injected when it left a fault event
    /// behind, genuine memory exhaustion otherwise.
    Alloc(OutOfMemory),
    /// The attempt ran, but its launches recorded these fault events.
    Launch(Vec<FaultEvent>),
}

impl From<OutOfMemory> for Fault {
    fn from(oom: OutOfMemory) -> Self {
        Fault::Alloc(oom)
    }
}

/// Runs `attempt` until it comes back clean, absorbing every injected
/// fault into `report` and re-running it (see the module docs).
///
/// Returns `Ok(None)` when the device is lost; each placement maps that
/// itself. Genuine memory exhaustion propagates, and an operation still
/// faulting after [`MAX_STEP_RETRIES`] retries fails with
/// [`NextDoorError::KernelFault`] for `step`.
fn retry_faults<T>(
    gpu: &mut Gpu,
    report: &mut FaultReport,
    step: usize,
    mut attempt: impl FnMut(&mut Gpu) -> Result<T, Fault>,
) -> Result<Option<T>, NextDoorError> {
    if gpu.device_lost() {
        return Ok(None);
    }
    let mut retries = 0usize;
    loop {
        let events = match attempt(gpu) {
            Ok(v) => return Ok(Some(v)),
            Err(Fault::Launch(events)) => events,
            Err(Fault::Alloc(oom)) => {
                let events = gpu.take_faults();
                if events.is_empty() {
                    // No fault event means the device is genuinely full.
                    return Err(oom.into());
                }
                events
            }
        };
        report.absorb(&events);
        if gpu.device_lost() {
            return Ok(None);
        }
        if retries >= MAX_STEP_RETRIES {
            return Err(NextDoorError::KernelFault { step, retries });
        }
        retries += 1;
        report.step_retries += 1;
    }
}

/// Uploads the initial frontier (every sample's seed vertices) before
/// step 0, retried like a step. `Ok(None)` means the device is lost.
pub(crate) fn upload_frontier(
    gpu: &mut Gpu,
    report: &mut FaultReport,
    init: &[Vec<VertexId>],
) -> Result<Option<DeviceBuffer<u32>>, NextDoorError> {
    let flat: Vec<u32> = init.iter().flatten().copied().collect();
    retry_faults(gpu, report, 0, |gpu| Ok(gpu.try_to_device(&flat)?))
}

/// The fault-tolerant device step every placement runs.
///
/// Stages the step's transits (`stage`: the transit values and the slots
/// per sample they are charged with) from the previous frontier
/// `prev_buf`, allocates the outputs, runs `kind`'s kernels over `pairs`,
/// deduplicates, and re-runs a faulted attempt under the retry budget.
/// Returns the outputs plus the cycles every attempt spent building
/// scheduling indices, or `None` when the device is lost.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_device_step(
    gpu: &mut Gpu,
    ex: &StepExec<'_>,
    kind: GpuEngineKind,
    stage: (&[VertexId], usize),
    pairs: &[(VertexId, u32)],
    prev_buf: &DeviceBuffer<u32>,
    tuning: &TuningPlan,
    mut cache: Option<&mut HotTransitCache>,
    report: &mut FaultReport,
) -> Result<Option<(StepOut, f64)>, NextDoorError> {
    let (transits, tps) = stage;
    let (ns, slots, step) = (ex.store.num_samples(), ex.plan.slots, ex.plan.step);
    let mut sched_cycles = 0.0;
    let out = retry_faults(gpu, report, step, |gpu| {
        let transit_buf = gpu.try_alloc::<u32>(transits.len())?;
        charge_step_transits(gpu, prev_buf, &transit_buf, transits, tps);
        let mut out = StepOut::try_new(gpu, ns, slots)?;
        let cache = cache.as_deref_mut();
        sched_cycles += exec_step(gpu, ex, kind, pairs, &transit_buf, tuning, cache, &mut out)?;
        if ex.app.unique(step) {
            unique::dedup_values_gpu(gpu, &mut out.values, slots, ns)?;
        }
        let events = gpu.take_faults();
        if events.is_empty() {
            Ok(out)
        } else {
            Err(Fault::Launch(events))
        }
    })?;
    Ok(out.map(|out| (out, sched_cycles)))
}

/// Per-run accounting of the step loop, folded into [`EngineStats`] by
/// [`engine_stats`].
#[derive(Default)]
pub(crate) struct StepTally {
    pub sched_cycles: f64,
    pub transfer_cycles: f64,
    pub transfers: usize,
    pub steps_run: usize,
}

impl StepTally {
    /// Adds a later run on the same device (a fused batch's next width
    /// class).
    pub(crate) fn merge(&mut self, other: StepTally) {
        self.sched_cycles += other.sched_cycles;
        self.transfer_cycles += other.transfer_cycles;
        self.transfers += other.transfers;
        self.steps_run += other.steps_run;
    }
}

/// Everything [`run_step_loop`] produces besides what the caller derives
/// from the GPU counters.
pub(crate) struct StepLoopOut {
    pub store: SampleStore,
    pub report: FaultReport,
    pub tally: StepTally,
}

/// The engine-independent, fault-tolerant step loop of one device: every
/// step runs [`run_device_step`] over all live pairs and the full transit
/// array.
///
/// With `residency` set, the graph is assumed host-staged and each step
/// first transfers the sub-graphs holding live transits (out-of-core mode;
/// the caller must have enabled transfer charging). Transfers are charged
/// once per step: a retried attempt reuses the already-resident sub-graphs.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_step_loop(
    gpu: &mut Gpu,
    graph: &Csr,
    gg: &GpuGraph,
    app: &dyn SamplingApp,
    init: &[Vec<VertexId>],
    keys: &SampleKeys,
    kind: GpuEngineKind,
    residency: Option<&GraphPartitions>,
    tuning: &TuningPlan,
    mut cache: Option<&mut HotTransitCache>,
) -> Result<StepLoopOut, NextDoorError> {
    let lost = || NextDoorError::DeviceLost { device: 0 };
    let mut report = FaultReport::default();
    let mut store = SampleStore::new(init.to_vec());
    let mut tally = StepTally::default();
    let mut prev_buf = upload_frontier(gpu, &mut report, init)?.ok_or_else(lost)?;
    for step in 0..step_budget(app) {
        let plan = plan_step(app, &store, step, keys);
        // Only a step without live transits ends the run. A step whose
        // draws all came back NULL does not: MultiRW picks a fresh root
        // next step, and stopping there would make a sample's length
        // depend on the other samples of its batch.
        if plan.live == 0 {
            break;
        }
        if let Some(parts) = residency {
            // Which sub-graphs hold this step's transits?
            let mut needed: Vec<bool> = vec![false; parts.len()];
            for &t in &plan.transits {
                if t != NULL_VERTEX {
                    needed[parts.partition_of(t)] = true;
                }
            }
            let c0 = gpu.counters().cycles;
            for (p, used) in needed.iter().enumerate() {
                if *used {
                    gpu.charge_htod(parts.bytes_of(p));
                    tally.transfers += 1;
                }
            }
            tally.transfer_cycles += gpu.counters().cycles - c0;
        }
        let pairs = live_pairs(&plan, store.num_samples());
        let ex = StepExec {
            graph,
            gg,
            app,
            store: &store,
            plan: &plan,
            keys,
        };
        let (out, cycles) = run_device_step(
            gpu,
            &ex,
            kind,
            (&plan.transits, plan.tps),
            &pairs,
            &prev_buf,
            tuning,
            cache.as_deref_mut(),
            &mut report,
        )?
        .ok_or_else(lost)?;
        tally.sched_cycles += cycles;
        finish_step(app, &mut store, &plan, out.values, out.edges);
        tally.steps_run += 1;
        prev_buf = out.step_buf;
    }
    Ok(StepLoopOut {
        store,
        report,
        tally,
    })
}

/// The one counter → [`EngineStats`] fold: counter deltas since
/// `counters0`, the per-kernel profile of launches since `launch0`, and
/// the simulated-time split. Transfer time (out-of-core runs only) is
/// neither scheduling nor sampling.
pub(crate) fn engine_stats(
    gpu: &Gpu,
    counters0: &Counters,
    launch0: u64,
    tally: &StepTally,
) -> EngineStats {
    let counters = gpu.counters().diff(counters0);
    let profile = RunProfile::from_device(gpu, launch0);
    let spec = gpu.spec();
    let total_ms = spec.cycles_to_ms(counters.cycles);
    let scheduling_ms = spec.cycles_to_ms(tally.sched_cycles);
    let transfer_ms = spec.cycles_to_ms(tally.transfer_cycles);
    EngineStats {
        total_ms,
        sampling_ms: total_ms - scheduling_ms - transfer_ms,
        scheduling_ms,
        counters,
        steps_run: tally.steps_run,
        profile,
    }
}

/// Folds a finished step loop into a [`RunResult`] (see [`engine_stats`]).
/// Shared by the one-shot entry points and the out-of-core engine.
pub(crate) fn finish_run(
    gpu: &Gpu,
    counters0: &Counters,
    launch0: u64,
    out: StepLoopOut,
) -> RunResult {
    RunResult {
        stats: engine_stats(gpu, counters0, launch0, &out.tally),
        store: out.store,
        report: out.report,
    }
}

/// Runs `app` to completion with the chosen engine on `gpu`.
///
/// Validates inputs up front, recovers from transient faults by retrying
/// steps, and — for the NextDoor engine only — degrades to the out-of-core
/// engine when the graph upload does not fit in device memory. The samples
/// of a degraded run are byte-identical to an in-core run's.
pub(crate) fn run_gpu_engine(
    gpu: &mut Gpu,
    graph: &Csr,
    app: &dyn SamplingApp,
    init: &[Vec<VertexId>],
    seed: u64,
    kind: GpuEngineKind,
) -> Result<RunResult, NextDoorError> {
    crate::error::validate_run(graph, app, init)?;
    if gpu.device_lost() {
        return Err(NextDoorError::DeviceLost { device: 0 });
    }
    let counters0 = *gpu.counters();
    let launch0 = gpu.launches_issued();
    match GpuGraph::upload(gpu, graph) {
        Ok(gg) => {
            let keys = SampleKeys::uniform(seed);
            let out = run_step_loop(
                gpu,
                graph,
                &gg,
                app,
                init,
                &keys,
                kind,
                None,
                &TuningPlan::default(),
                None,
            )?;
            Ok(finish_run(gpu, &counters0, launch0, out))
        }
        Err(oom) => {
            let mut report = FaultReport::default();
            report.absorb(&gpu.take_faults());
            if gpu.device_lost() {
                return Err(NextDoorError::DeviceLost { device: 0 });
            }
            if kind != GpuEngineKind::NextDoor {
                // The SP/TP baselines have no degraded mode.
                return Err(oom.into());
            }
            // Degrade to the out-of-core engine: stage the graph host-side
            // and keep half the device for graph residency, the rest for
            // sample buffers. Samples are unchanged; only time differs.
            report.degraded_to_out_of_core = true;
            let budget = (gpu.mem_capacity() / 2).max(1);
            let (mut res, _ooc) =
                crate::large_graph::out_of_core_run(gpu, graph, app, init, seed, budget)?;
            res.report.merge(&report);
            Ok(res)
        }
    }
}

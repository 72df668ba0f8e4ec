//! Sharded execution: one sampling query spread over several simulated
//! devices with cross-shard walker hand-off.
//!
//! The paper's multi-GPU mode (§6.4) splits the *samples* across devices;
//! a sharded deployment instead splits the *graph*: each device holds one
//! partition (shard) of the adjacency structure and every walker executes
//! its next step on whichever device owns its current transit vertex. The
//! partition comes from the same deterministic clustering pass ClusterGCN
//! sampling uses ([`cluster_vertices`]), so shard `s` owns exactly the rows
//! of cluster `s` and the clustering's [`PartitionStats`] bound how often
//! walkers cross shards.
//!
//! Execution proceeds in **super-steps** on a shared fleet clock: at each
//! step the engine plans the global transit array, routes every live
//! `(transit, pair)` onto the transit's owner shard, runs the driver's
//! device step — the same fault-tolerant step a single device runs, under
//! the default tuning plan — over each shard's owned pairs against its
//! row-masked sub-graph, and merges the outputs back into one global store
//! before the next step is planned. Walkers whose next transit lives on
//! another shard are *handed off* during the exchange phase between
//! super-steps, in canonical shard order; the simulated clock advances by
//! the slowest shard's step time plus the exchange cost.
//!
//! **Determinism.** Every RNG draw is keyed by the walker's global
//! `(seed, sample, step, slot)` identity via [`SampleKeys`] — never by the
//! shard it happens to execute on — and a shard's kernels see exactly the
//! global step plan restricted to the pairs it owns. A sharded run is
//! therefore bit-identical to the single-device run of the same query, for
//! any shard count, placement seed or host thread count. Shard faults are
//! retried bit-identically by that same device step; a *lost* shard is not
//! an error: its walkers' slots stay `NULL_VERTEX`, which
//! deterministically terminates them at the next plan, and the batch
//! reports them as [`ShardedFusedResult::walkers_lost`].
//!
//! Sharding supports individual-transit applications that neither require
//! per-step unique neighbours nor read adjacency of vertices other than
//! the current transit. Collective apps need the combined neighbourhood of
//! transits that may span shards, `unique` needs cross-shard
//! deduplication, and an app that reads other rows
//! ([`SamplingApp::reads_other_rows`], such as node2vec's `has_edge` probe
//! on the previous transit) would find them missing on its shard — all
//! three are rejected at construction with
//! [`NextDoorError::ShardUnsupported`].
//!
//! ```
//! use nextdoor_core::api::{NextCtx, SamplingApp, Steps};
//! use nextdoor_core::session::SessionQuery;
//! use nextdoor_core::sharded::ShardedSampler;
//! use nextdoor_core::run_nextdoor;
//! use nextdoor_gpu::{Gpu, GpuSpec};
//! use nextdoor_graph::gen::{rmat, RmatParams};
//!
//! struct Walk;
//! impl SamplingApp for Walk {
//!     fn name(&self) -> &'static str { "walk" }
//!     fn steps(&self) -> Steps { Steps::Fixed(3) }
//!     fn sample_size(&self, _step: usize) -> usize { 1 }
//!     fn next(&self, ctx: &mut NextCtx<'_>) -> Option<u32> {
//!         let d = ctx.num_edges();
//!         if d == 0 { return None; }
//!         let i = ctx.rand_range(d);
//!         Some(ctx.src_edge(i))
//!     }
//! }
//!
//! let graph = rmat(8, 1200, RmatParams::SKEWED, 1);
//! let init: Vec<Vec<u32>> = (0..12).map(|i| vec![i * 17 % 256]).collect();
//! let mut sharded = ShardedSampler::new(GpuSpec::small(), graph.clone(),
//!     Box::new(Walk), 3, 0xC0FFEE).expect("valid sharded config");
//! let query = SessionQuery { init: init.clone(), seed: 42 };
//! let out = sharded.query_fused(&[query]).expect("valid query");
//!
//! // Bit-identical to the single-device run of the same query.
//! let mut gpu = Gpu::new(GpuSpec::small());
//! let solo = run_nextdoor(&mut gpu, &graph, &Walk, &init, 42).unwrap();
//! assert_eq!(out.per_query[0].final_samples(), solo.store.final_samples());
//! ```

use crate::api::{SamplingApp, SamplingType, NULL_VERTEX};
use crate::engine::driver::{live_pairs, run_device_step, upload_frontier, GpuEngineKind};
use crate::engine::kernels::StepExec;
use crate::engine::{finish_step, plan_step, step_budget, SampleKeys};
use crate::error::{FaultReport, NextDoorError};
use crate::gpu_graph::GpuGraph;
use crate::session::{unfuse, width_classes, SessionQuery};
use crate::store::SampleStore;
use crate::tuning::TuningPlan;
use nextdoor_gpu::{DeviceBuffer, Gpu, GpuSpec};
use nextdoor_graph::{cluster_vertices, Clustering, Csr, PartitionStats, VertexId};

/// Simulated bytes a hand-off transfers per walker: the walker's global
/// identity (sample id, transit index) plus its current transit vertex and
/// RNG key material — 16 bytes, matching KnightKing-style walker messages.
pub const HANDOFF_BYTES_PER_WALKER: u64 = 16;

/// Simulated inter-shard link bandwidth in bytes per millisecond
/// (~12 GB/s, a PCIe-3 x16-class interconnect).
pub const LINK_BYTES_PER_MS: f64 = 12.0e6;

/// Fixed super-step barrier cost in milliseconds when more than one shard
/// participates (all shards synchronise before the exchange phase).
pub const SUPER_STEP_BARRIER_MS: f64 = 0.002;

/// Walkers handed from one shard to another during one super-step's
/// exchange phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardHandoff {
    /// Shard that owned the walker's previous transit.
    pub from: usize,
    /// Shard that owns the walker's next transit.
    pub to: usize,
    /// Walkers moved along this edge of the shard graph.
    pub walkers: u64,
}

/// What one super-step did on each shard, for the serving tier's tracer
/// and the scaling benchmarks.
#[derive(Debug, Clone, PartialEq)]
pub struct SuperStepMark {
    /// Step index of the global plan.
    pub step: usize,
    /// Live `(transit, pair)` pairs routed to each shard (dead shards keep
    /// their routed count; those walkers are the step's losses).
    pub shard_pairs: Vec<usize>,
    /// Simulated milliseconds each shard spent on its slice of the step.
    pub shard_ms: Vec<f64>,
    /// The super-step's critical path: the slowest shard's time.
    pub step_ms: f64,
    /// Exchange-phase cost: hand-off transfer time plus the barrier.
    pub exchange_ms: f64,
    /// Hand-offs charged during the exchange, in canonical
    /// `(from, to)` order.
    pub handoffs: Vec<ShardHandoff>,
}

/// Result of a sharded batch of one or more queries: per-query stores
/// (bit-identical to single-device runs) plus the batch-level sharding
/// telemetry aggregated over all width classes.
#[derive(Debug)]
pub struct ShardedFusedResult {
    /// Per-query sample stores, in submission order.
    pub per_query: Vec<SampleStore>,
    /// Width classes the batch split into (one fused launch sequence each).
    pub launches: usize,
    /// Fleet-clock milliseconds of the whole batch.
    pub elapsed_ms: f64,
    /// Faults observed across all classes and shards.
    pub report: FaultReport,
    /// Per-shard fault reports, merged across the batch's width classes.
    pub shard_reports: Vec<FaultReport>,
    /// Walkers handed between shards across the whole batch.
    pub handoffs: u64,
    /// Walkers terminated by shard loss across the whole batch.
    pub walkers_lost: u64,
    /// Super-step breakdowns of every class, concatenated in class order.
    pub super_steps: Vec<SuperStepMark>,
}

/// One simulated device holding one graph partition.
struct Shard {
    gpu: Gpu,
    csr: Csr,
    gg: GpuGraph,
}

/// A graph-sharded sampler: the graph partitioned over `num_shards`
/// simulated devices, answering queries by routing walkers to the shard
/// owning their current transit and handing them off between shards in
/// deterministic super-steps.
///
/// Construction partitions the vertices with [`cluster_vertices`] keyed by
/// `placement_seed`, row-masks the CSR per shard and uploads each
/// sub-graph to its device. The partition's quality statistics
/// ([`ShardedSampler::partition_stats`]) bound the hand-off rate.
pub struct ShardedSampler {
    spec: GpuSpec,
    graph: Csr,
    app: Box<dyn SamplingApp + Send>,
    clustering: Clustering,
    stats: PartitionStats,
    shards: Vec<Shard>,
    clock_ms: f64,
    queries_served: u64,
}

impl ShardedSampler {
    /// Creates a sharded sampler: partitions `graph` into `num_shards`
    /// clusters keyed by `placement_seed` and uploads each shard's
    /// row-masked sub-graph to a fresh device of `spec`.
    ///
    /// # Errors
    ///
    /// [`NextDoorError::EmptyGraph`] for a vertex-less graph,
    /// [`NextDoorError::NoGpus`] for zero shards,
    /// [`NextDoorError::ShardUnsupported`] when the partition is degenerate
    /// (more shards than vertices) or the app needs collective
    /// neighbourhoods, per-step uniqueness or adjacency rows other than
    /// its transits', and
    /// [`NextDoorError::OutOfMemory`] when a shard's sub-graph does not fit
    /// on its device.
    pub fn new(
        spec: GpuSpec,
        graph: Csr,
        app: Box<dyn SamplingApp + Send>,
        num_shards: usize,
        placement_seed: u64,
    ) -> Result<Self, NextDoorError> {
        if graph.num_vertices() == 0 {
            return Err(NextDoorError::EmptyGraph);
        }
        if num_shards == 0 {
            return Err(NextDoorError::NoGpus);
        }
        if app.sampling_type() != SamplingType::Individual {
            return Err(NextDoorError::ShardUnsupported {
                reason: format!(
                    "{} samples collectively; a combined neighbourhood can span shards",
                    app.name()
                ),
            });
        }
        if app.reads_other_rows() {
            return Err(NextDoorError::ShardUnsupported {
                reason: format!(
                    "{} reads adjacency rows other than its transits', which another shard \
                     may own",
                    app.name()
                ),
            });
        }
        if (0..step_budget(app.as_ref())).any(|s| app.unique(s)) {
            return Err(NextDoorError::ShardUnsupported {
                reason: format!(
                    "{} requires per-step unique neighbours, which needs cross-shard \
                     deduplication",
                    app.name()
                ),
            });
        }
        let clustering = cluster_vertices(&graph, num_shards, placement_seed).map_err(|e| {
            NextDoorError::ShardUnsupported {
                reason: e.to_string(),
            }
        })?;
        let stats = clustering.partition_stats(&graph);
        let n = graph.num_vertices();
        let mut shards = Vec::with_capacity(num_shards);
        for s in 0..num_shards {
            let keep: Vec<bool> = (0..n)
                .map(|v| clustering.cluster_of(v as VertexId) == s as u32)
                .collect();
            let csr = graph.row_masked(&keep);
            let mut gpu = Gpu::new(spec.clone());
            let gg = GpuGraph::upload(&mut gpu, &csr)?;
            shards.push(Shard { gpu, csr, gg });
        }
        Ok(ShardedSampler {
            spec,
            graph,
            app,
            clustering,
            stats,
            shards,
            clock_ms: 0.0,
            queries_served: 0,
        })
    }

    /// Number of shards (devices) in the fleet, dead ones included.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Whether shard `s` has lost its device. A lost shard's walkers
    /// terminate at the boundary; queries whose seeds it owns should be
    /// shed by the serving layer.
    pub fn shard_lost(&self, s: usize) -> bool {
        self.shards[s].gpu.device_lost()
    }

    /// Shards still alive.
    pub fn shards_alive(&self) -> usize {
        (0..self.num_shards())
            .filter(|&s| !self.shard_lost(s))
            .count()
    }

    /// The shard owning vertex `v`'s adjacency row.
    pub fn owner_of(&self, v: VertexId) -> usize {
        self.clustering.cluster_of(v) as usize
    }

    /// The home shard of a query seed set: the owner of its first seed
    /// vertex, which is where the query's step-0 routing concentrates.
    pub fn home_shard(&self, seeds: &[VertexId]) -> usize {
        self.owner_of(seeds[0])
    }

    /// The placement clustering (shard `s` owns cluster `s`).
    pub fn clustering(&self) -> &Clustering {
        &self.clustering
    }

    /// Partition-quality statistics of the placement: the edge-cut
    /// fraction bounds the per-step hand-off probability.
    pub fn partition_stats(&self) -> &PartitionStats {
        &self.stats
    }

    /// The full (unsharded) graph.
    pub fn graph(&self) -> &Csr {
        &self.graph
    }

    /// The application this fleet serves.
    pub fn app(&self) -> &dyn SamplingApp {
        self.app.as_ref()
    }

    /// The fleet clock: super-step critical paths plus exchange costs,
    /// accumulated across all queries served so far.
    pub fn clock_ms(&self) -> f64 {
        self.clock_ms
    }

    /// Queries answered so far (each fused query counts individually).
    pub fn queries_served(&self) -> u64 {
        self.queries_served
    }

    /// Shard `s`'s simulated device, for profile export.
    pub fn shard_gpu(&self, s: usize) -> &Gpu {
        &self.shards[s].gpu
    }

    /// Schedules faults on shard `s` **relative to now**, shifting the
    /// plan's allocation and launch indices by the shard device's current
    /// monotonic counters (the chaos-harness entry point, mirroring
    /// [`SamplerSession::schedule_faults`](crate::session::SamplerSession::schedule_faults)).
    pub fn schedule_faults(&mut self, s: usize, plan: nextdoor_gpu::FaultPlan) {
        let gpu = &mut self.shards[s].gpu;
        let shifted = plan.shifted(gpu.allocs_issued(), gpu.launches_issued());
        gpu.extend_faults(shifted);
    }

    /// Answers a batch of queries across the fleet, split into width
    /// classes exactly like
    /// [`SamplerSession::query_fused`](crate::session::SamplerSession::query_fused),
    /// and slices the stores back per query.
    ///
    /// Per-sample RNG keying makes every query's store bit-identical to the
    /// single-device [`run_nextdoor`](crate::run_nextdoor) of the same
    /// `(graph, app, init, seed)` as long as no shard is lost; with losses,
    /// the affected walkers terminate deterministically at the shard
    /// boundary and are counted in [`ShardedFusedResult::walkers_lost`].
    ///
    /// # Errors
    ///
    /// [`NextDoorError::EmptyInit`] for an empty batch and any
    /// [`validate_run`](crate::error::validate_run) error for an individual
    /// query; genuine device-memory exhaustion and steps exceeding the
    /// retry budget propagate as for the single-device engines. Shard
    /// *loss* is not an error.
    pub fn query_fused(
        &mut self,
        queries: &[SessionQuery],
    ) -> Result<ShardedFusedResult, NextDoorError> {
        let classes = width_classes(&self.graph, self.app.as_ref(), queries)?;
        let mut res = ShardedFusedResult {
            per_query: Vec::new(),
            launches: classes.len(),
            elapsed_ms: 0.0,
            report: FaultReport::default(),
            shard_reports: vec![FaultReport::default(); self.shards.len()],
            handoffs: 0,
            walkers_lost: 0,
            super_steps: Vec::new(),
        };
        let mut stores = Vec::with_capacity(classes.len());
        for class in &classes {
            stores.push(self.run_class(&class.init, &class.keys, &mut res)?);
        }
        for r in &res.shard_reports {
            res.report.merge(r);
        }
        res.per_query = unfuse(&classes, &stores);
        self.queries_served += queries.len() as u64;
        Ok(res)
    }

    /// The super-step loop of one width class: adds the class's fleet
    /// time, per-shard fault reports, hand-offs, losses and super-steps to
    /// `res` and returns its store.
    fn run_class(
        &mut self,
        init: &[Vec<VertexId>],
        keys: &SampleKeys,
        res: &mut ShardedFusedResult,
    ) -> Result<SampleStore, NextDoorError> {
        let app = self.app.as_ref();
        let num_shards = self.shards.len();
        let shard_reports = &mut res.shard_reports;
        let mut store = SampleStore::new(init.to_vec());
        let ns = store.num_samples();
        let baseline = TuningPlan::default();

        // Seed broadcast: every shard stages the initial frontier (walkers
        // start on their seed's owner, but the charge model uploads the
        // frontier once per device, like the single-device engine does).
        // A shard's frontier is `None` exactly while the shard is dead:
        // device loss is sticky, and a lost device uploads nothing.
        let mut prev_bufs: Vec<Option<DeviceBuffer<u32>>> = Vec::with_capacity(num_shards);
        let mut elapsed_ms = 0.0f64;
        let mut init_ms = 0.0f64;
        for (shard, report) in self.shards.iter_mut().zip(shard_reports.iter_mut()) {
            let c0 = shard.gpu.counters().cycles;
            let buf = upload_frontier(&mut shard.gpu, report, init)?;
            init_ms = init_ms.max(self.spec.cycles_to_ms(shard.gpu.counters().cycles - c0));
            prev_bufs.push(buf);
        }
        elapsed_ms += init_ms;

        let mut total_handoffs = 0u64;
        let mut walkers_lost = 0u64;
        let mut super_steps: Vec<SuperStepMark> = Vec::new();
        // Previous executed step's transit array, for hand-off lineage.
        let mut prev_transits: Option<(Vec<VertexId>, usize)> = None;

        for step in 0..step_budget(app) {
            let plan = plan_step(app, &store, step, keys);
            if plan.live == 0 {
                break;
            }
            let pairs = live_pairs(&plan, ns);

            // Route every live pair to the shard owning its transit's row,
            // preserving the canonical (sample-major) order within a shard.
            let mut shard_pairs: Vec<Vec<(VertexId, u32)>> = vec![Vec::new(); num_shards];
            for &p in &pairs {
                shard_pairs[self.clustering.cluster_of(p.0) as usize].push(p);
            }

            // Exchange accounting: a walker is handed off when the shard
            // owning its transit differs from the one owning its parent's
            // transit at the previous step (step 0 walkers start at their
            // owner, so the first step never hands off).
            let mut matrix: Vec<Vec<u64>> = vec![vec![0; num_shards]; num_shards];
            if let Some((ref pt, ptps)) = prev_transits {
                for &(tv, pair_id) in &pairs {
                    let (sample, tidx) = (pair_id as usize / plan.tps, pair_id as usize % plan.tps);
                    let parent_tidx = if plan.tps == ptps {
                        tidx
                    } else {
                        tidx * ptps / plan.tps
                    };
                    let parent = pt[sample * ptps + parent_tidx];
                    if parent == NULL_VERTEX {
                        continue;
                    }
                    let from = self.clustering.cluster_of(parent) as usize;
                    let to = self.clustering.cluster_of(tv) as usize;
                    if from != to {
                        matrix[from][to] += 1;
                    }
                }
            }
            let mut step_handoffs: Vec<ShardHandoff> = Vec::new();
            let mut step_handoff_walkers = 0u64;
            for (from, row) in matrix.iter().enumerate() {
                for (to, &w) in row.iter().enumerate() {
                    if w > 0 {
                        step_handoffs.push(ShardHandoff {
                            from,
                            to,
                            walkers: w,
                        });
                        step_handoff_walkers += w;
                    }
                }
            }

            // Per-shard execution in canonical shard order: each live shard
            // runs the driver's device step over its owned pairs against
            // its row-masked sub-graph, staging one transit slot per owned
            // pair, then its outputs merge back into the global step arrays
            // at their global sample-slot indices. A shard that owns no
            // pairs still allocates its frontier, so the next step's charge
            // has a correctly-sized previous frontier.
            let mut merged_values = vec![NULL_VERTEX; ns * plan.slots];
            let mut merged_edges: Vec<Vec<(VertexId, VertexId)>> = vec![Vec::new(); ns];
            let mut shard_ms = vec![0.0f64; num_shards];
            for s in 0..num_shards {
                let owned = &shard_pairs[s];
                let Some(prev_buf) = prev_bufs[s].as_ref() else {
                    walkers_lost += owned.len() as u64;
                    continue;
                };
                let shard = &mut self.shards[s];
                let c0 = shard.gpu.counters().cycles;
                let transits: Vec<VertexId> = owned.iter().map(|&(t, _)| t).collect();
                let ex = StepExec {
                    graph: &shard.csr,
                    gg: &shard.gg,
                    app,
                    store: &store,
                    plan: &plan,
                    keys,
                };
                let outcome = run_device_step(
                    &mut shard.gpu,
                    &ex,
                    GpuEngineKind::NextDoor,
                    (&transits, 1),
                    owned,
                    prev_buf,
                    &baseline,
                    None,
                    &mut shard_reports[s],
                )?;
                shard_ms[s] = self.spec.cycles_to_ms(shard.gpu.counters().cycles - c0);
                match outcome {
                    Some((out, _)) => {
                        for &(_, pair_id) in owned {
                            let (sample, tidx) =
                                (pair_id as usize / plan.tps, pair_id as usize % plan.tps);
                            for j in 0..plan.m {
                                let idx = sample * plan.slots + tidx * plan.m + j;
                                merged_values[idx] = out.values[idx];
                            }
                        }
                        // Supported apps never record application edges
                        // (that is a collective-app feature), but merging
                        // in canonical shard order keeps the invariant
                        // explicit.
                        for (sample, es) in out.edges.into_iter().enumerate() {
                            merged_edges[sample].extend(es);
                        }
                        prev_bufs[s] = Some(out.step_buf);
                    }
                    None => {
                        // The shard died mid-step: its attempt's outputs
                        // are discarded, its walkers end at the boundary.
                        prev_bufs[s] = None;
                        walkers_lost += owned.len() as u64;
                    }
                }
            }

            let step_ms = shard_ms.iter().cloned().fold(0.0f64, f64::max);
            let step_bytes = step_handoff_walkers * HANDOFF_BYTES_PER_WALKER;
            let barrier = if num_shards > 1 {
                SUPER_STEP_BARRIER_MS
            } else {
                0.0
            };
            let exchange_ms = step_bytes as f64 / LINK_BYTES_PER_MS + barrier;
            elapsed_ms += step_ms + exchange_ms;
            total_handoffs += step_handoff_walkers;
            super_steps.push(SuperStepMark {
                step,
                shard_pairs: shard_pairs.iter().map(Vec::len).collect(),
                shard_ms,
                step_ms,
                exchange_ms,
                handoffs: step_handoffs,
            });

            finish_step(app, &mut store, &plan, merged_values, merged_edges);
            prev_transits = Some((plan.transits, plan.tps));
        }

        self.clock_ms += elapsed_ms;
        res.elapsed_ms += elapsed_ms;
        res.handoffs += total_handoffs;
        res.walkers_lost += walkers_lost;
        res.super_steps.extend(super_steps);
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{NextCtx, Steps};
    use crate::engine::nextdoor::run_nextdoor;
    use crate::session::SessionQuery;
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

    struct Fanout;
    impl SamplingApp for Fanout {
        fn name(&self) -> &'static str {
            "fanout"
        }
        fn steps(&self) -> Steps {
            Steps::Fixed(2)
        }
        fn sample_size(&self, step: usize) -> usize {
            [3, 2][step]
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

    /// One query as a batch of one.
    fn one(init: &[Vec<u32>], seed: u64) -> [SessionQuery; 1] {
        [SessionQuery {
            init: init.to_vec(),
            seed,
        }]
    }

    fn workload() -> (Csr, Vec<Vec<u32>>) {
        let g = rmat(8, 2000, RmatParams::SKEWED, 3);
        let init: Vec<Vec<u32>> = (0..24).map(|i| vec![i * 5 % 256]).collect();
        (g, init)
    }

    #[test]
    fn sharded_walk_matches_single_device() {
        let (g, init) = workload();
        for shards in [1usize, 2, 3, 4] {
            let mut sharded =
                ShardedSampler::new(GpuSpec::small(), g.clone(), Box::new(Walk(6)), shards, 7)
                    .unwrap();
            let out = sharded.query_fused(&one(&init, 42)).unwrap();
            let mut gpu = Gpu::new(GpuSpec::small());
            let solo = run_nextdoor(&mut gpu, &g, &Walk(6), &init, 42).unwrap();
            assert_eq!(
                out.per_query[0].final_samples(),
                solo.store.final_samples(),
                "{shards} shards diverged from single-device"
            );
            assert_eq!(out.walkers_lost, 0);
            assert!(out.report.is_clean());
            if shards == 1 {
                assert_eq!(out.handoffs, 0, "one shard cannot hand off");
            }
        }
    }

    #[test]
    fn sharded_fanout_matches_single_device() {
        let (g, init) = workload();
        let mut sharded =
            ShardedSampler::new(GpuSpec::small(), g.clone(), Box::new(Fanout), 3, 11).unwrap();
        let out = sharded.query_fused(&one(&init, 9)).unwrap();
        let mut gpu = Gpu::new(GpuSpec::small());
        let solo = run_nextdoor(&mut gpu, &g, &Fanout, &init, 9).unwrap();
        assert_eq!(out.per_query[0].final_samples(), solo.store.final_samples());
        for (a, b) in out.per_query[0]
            .final_samples()
            .iter()
            .zip(solo.store.final_samples().iter())
        {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn handoffs_are_conserved_in_marks() {
        let (g, init) = workload();
        let mut sharded =
            ShardedSampler::new(GpuSpec::small(), g.clone(), Box::new(Walk(6)), 4, 7).unwrap();
        let out = sharded.query_fused(&one(&init, 42)).unwrap();
        let from_marks: u64 = out
            .super_steps
            .iter()
            .flat_map(|m| m.handoffs.iter().map(|h| h.walkers))
            .sum();
        assert_eq!(from_marks, out.handoffs);
        assert!(out.handoffs > 0, "4 hash-partitioned shards must hand off");
        assert!(out.elapsed_ms > 0.0);
        assert_eq!(sharded.clock_ms(), out.elapsed_ms);
    }

    #[test]
    fn fused_batch_slices_match_standalone() {
        let (g, init) = workload();
        let mut sharded =
            ShardedSampler::new(GpuSpec::small(), g.clone(), Box::new(Walk(5)), 3, 7).unwrap();
        let queries: Vec<SessionQuery> = (0..3)
            .map(|i| SessionQuery {
                init: init[i * 8..(i + 1) * 8].to_vec(),
                seed: 100 + i as u64,
            })
            .collect();
        let fused = sharded.query_fused(&queries).unwrap();
        assert_eq!(fused.per_query.len(), 3);
        assert_eq!(fused.launches, 1);
        for (q, sliced) in queries.iter().zip(&fused.per_query) {
            let solo = sharded.query_fused(&one(&q.init, q.seed)).unwrap();
            assert_eq!(sliced.final_samples(), solo.per_query[0].final_samples());
        }
        assert_eq!(sharded.queries_served(), 6);
    }

    #[test]
    fn lost_shard_terminates_its_walkers_deterministically() {
        let (g, init) = workload();
        let mut sharded =
            ShardedSampler::new(GpuSpec::small(), g.clone(), Box::new(Walk(6)), 3, 7).unwrap();
        sharded.schedule_faults(1, nextdoor_gpu::FaultPlan::new().lose_device_at_launch(2));
        let a = sharded.query_fused(&one(&init, 42)).unwrap();
        assert!(sharded.shard_lost(1));
        assert_eq!(sharded.shards_alive(), 2);
        assert!(a.walkers_lost > 0, "shard 1 owned walkers mid-run");
        assert_eq!(a.report.devices_lost, 1);
        // The degraded result is itself deterministic: replaying the same
        // fault script on a fresh fleet reproduces it bit-for-bit.
        let mut replay =
            ShardedSampler::new(GpuSpec::small(), g.clone(), Box::new(Walk(6)), 3, 7).unwrap();
        replay.schedule_faults(1, nextdoor_gpu::FaultPlan::new().lose_device_at_launch(2));
        let b = replay.query_fused(&one(&init, 42)).unwrap();
        assert_eq!(
            a.per_query[0].final_samples(),
            b.per_query[0].final_samples()
        );
        assert_eq!(a.walkers_lost, b.walkers_lost);
        // Surviving shards keep answering; lost walkers stay terminated.
        let c = sharded.query_fused(&one(&init, 43)).unwrap();
        assert!(!c.super_steps.is_empty());
    }

    #[test]
    fn transient_shard_faults_retry_bit_identically() {
        let (g, init) = workload();
        let mut sharded =
            ShardedSampler::new(GpuSpec::small(), g.clone(), Box::new(Walk(6)), 2, 7).unwrap();
        sharded.schedule_faults(0, nextdoor_gpu::FaultPlan::new().transient_at_launch(3));
        let out = sharded.query_fused(&one(&init, 42)).unwrap();
        assert!(out.report.transient_faults > 0);
        assert!(out.report.step_retries > 0);
        let mut gpu = Gpu::new(GpuSpec::small());
        let solo = run_nextdoor(&mut gpu, &g, &Walk(6), &init, 42).unwrap();
        assert_eq!(out.per_query[0].final_samples(), solo.store.final_samples());
    }

    #[test]
    fn construction_rejects_degenerate_configs() {
        let (g, _) = workload();
        assert!(matches!(
            ShardedSampler::new(GpuSpec::small(), Csr::empty(0), Box::new(Walk(2)), 2, 0).err(),
            Some(NextDoorError::EmptyGraph)
        ));
        assert!(matches!(
            ShardedSampler::new(GpuSpec::small(), g.clone(), Box::new(Walk(2)), 0, 0).err(),
            Some(NextDoorError::NoGpus)
        ));
        let too_many = g.num_vertices() + 1;
        assert!(matches!(
            ShardedSampler::new(GpuSpec::small(), g, Box::new(Walk(2)), too_many, 0).err(),
            Some(NextDoorError::ShardUnsupported { .. })
        ));
    }

    #[test]
    fn routing_metadata_is_exposed() {
        let (g, init) = workload();
        let sharded =
            ShardedSampler::new(GpuSpec::small(), g.clone(), Box::new(Walk(3)), 3, 7).unwrap();
        assert_eq!(sharded.num_shards(), 3);
        let home = sharded.home_shard(&init[0]);
        assert_eq!(home, sharded.owner_of(init[0][0]));
        assert!(home < 3);
        assert!(sharded.partition_stats().edge_cut_fraction > 0.0);
        assert_eq!(sharded.clustering().num_clusters(), 3);
        assert_eq!(sharded.graph().num_vertices(), g.num_vertices());
        assert_eq!(sharded.app().name(), "walk");
    }
}

//! Persistent sampling sessions: upload once, query many times.
//!
//! The paper's end-to-end win comes from amortising GPU state across
//! sampling invocations — NextDoor keeps the graph resident on the device
//! and answers sampling requests from a training loop rather than paying
//! setup per call (§8, Table 1). The one-shot `run_*` entry points re-upload
//! the graph and rebuild everything per call; a [`SamplerSession`] uploads
//! the graph and the per-app constant state once and then answers many
//! *queries* (caller-supplied seed sets) against the resident graph.
//!
//! Sessions also support **fused** execution: several queries are
//! concatenated into one store and run as a single transit-parallel batch,
//! which is how the micro-batching scheduler of `nextdoor-serve` coalesces
//! concurrent requests. Fused execution is bit-identical to running each
//! query alone because the engines key every RNG draw through a
//! [`SampleKeys`] table mapping each fused sample back to the
//! `(seed, local id)` pair of its standalone run.
//!
//! ```
//! use nextdoor_core::api::{NextCtx, SamplingApp, Steps};
//! use nextdoor_core::session::{SamplerSession, SessionQuery};
//! use nextdoor_core::{initial_samples_random, run_nextdoor};
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
//! let init = initial_samples_random(&graph, 16, 1, 3).expect("non-empty graph");
//!
//! // Warm session: the graph is uploaded once...
//! let mut session = SamplerSession::new(GpuSpec::small(), graph.clone(), Box::new(Walk))
//!     .expect("graph fits on the device");
//! let warm = session.query(&init, 42).expect("valid query");
//!
//! // ...and produces exactly the samples a cold one-shot run produces.
//! let mut gpu = Gpu::new(GpuSpec::small());
//! let cold = run_nextdoor(&mut gpu, &graph, &Walk, &init, 42).unwrap();
//! assert_eq!(warm.store.final_samples(), cold.store.final_samples());
//!
//! // Fused: two queries in one launch, sliced back per request.
//! let q = |seed| SessionQuery { init: init.clone(), seed };
//! let fused = session.query_fused(&[q(42), q(43)]).expect("compatible queries");
//! assert_eq!(fused.per_query[0].final_samples(), cold.store.final_samples());
//! ```

use crate::api::SamplingApp;
use crate::engine::driver::{engine_stats, finish_run, run_step_loop, GpuEngineKind, StepTally};
use crate::engine::profile::RunProfile;
use crate::engine::{EngineStats, RunResult, SampleKeys};
use crate::error::{validate_run, FaultReport, NextDoorError};
use crate::gpu_graph::GpuGraph;
use crate::store::SampleStore;
use crate::tuning::{AutoTuner, CacheConfig, CacheStats, HotTransitCache, TunerConfig, TuningPlan};
use nextdoor_gpu::{Gpu, GpuSpec};
use nextdoor_graph::{Csr, VertexId};

/// One sampling request against a session: the initial samples (seed sets)
/// to grow and the RNG seed keying every draw of the query.
#[derive(Debug, Clone)]
pub struct SessionQuery {
    /// Initial vertices of each sample (all samples must have equal width).
    pub init: Vec<Vec<VertexId>>,
    /// Seed of the query's RNG streams. Two queries with the same
    /// `(init, seed)` produce identical samples, fused or not.
    pub seed: u64,
}

/// Where one width class of a fused batch landed on the device: its launch
/// indices and simulated-cycle interval. Surfaced so the serving tier's
/// tracer can record a span per class launch sequence and link it to the
/// kernel records the device profiler retained (kernels are addressed by
/// [`launch_idx`](nextdoor_gpu::KernelRecord::launch_idx)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassMark {
    /// Initial vertices per sample shared by the class's queries.
    pub width: usize,
    /// Queries fused into this class.
    pub queries: usize,
    /// First device launch index of the class (inclusive).
    pub launch_start: u64,
    /// One past the class's last device launch index.
    pub launch_end: u64,
    /// Device-clock cycles at which the class's launch sequence began.
    pub start_cycles: f64,
    /// Device-clock cycles at which the class's launch sequence ended.
    pub end_cycles: f64,
}

/// One width class of a fused batch: the concatenated seed sets of its
/// queries and the [`SampleKeys`] mapping each fused sample back to its
/// query's standalone `(seed, local id)`.
pub(crate) struct WidthClass {
    /// Initial vertices per sample shared by the class's queries.
    pub width: usize,
    pub init: Vec<Vec<VertexId>>,
    pub keys: SampleKeys,
    /// `(query index, first fused sample, samples)` of each member query.
    members: Vec<(usize, usize, usize)>,
}

impl WidthClass {
    /// Queries fused into this class.
    pub(crate) fn queries(&self) -> usize {
        self.members.len()
    }
}

/// The width-class fuser behind every `query_fused`: rejects an empty
/// batch, validates each query, and groups the queries by initial width in
/// order of first appearance. Run each class as one batch, then hand the
/// class stores to [`unfuse`].
pub(crate) fn width_classes(
    graph: &Csr,
    app: &dyn SamplingApp,
    queries: &[SessionQuery],
) -> Result<Vec<WidthClass>, NextDoorError> {
    if queries.is_empty() {
        return Err(NextDoorError::EmptyInit);
    }
    for q in queries {
        validate_run(graph, app, &q.init)?;
    }
    let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
    for (qi, q) in queries.iter().enumerate() {
        let w = q.init[0].len();
        match groups.iter_mut().find(|(gw, _)| *gw == w) {
            Some((_, members)) => members.push(qi),
            None => groups.push((w, vec![qi])),
        }
    }
    Ok(groups
        .into_iter()
        .map(|(width, qis)| {
            let mut init = Vec::new();
            let mut map = Vec::new();
            let mut members = Vec::with_capacity(qis.len());
            for qi in qis {
                let q = &queries[qi];
                members.push((qi, init.len(), q.init.len()));
                for (local, s) in q.init.iter().enumerate() {
                    init.push(s.clone());
                    map.push((q.seed, local as u64));
                }
            }
            WidthClass {
                width,
                init,
                keys: SampleKeys::fused(map),
                members,
            }
        })
        .collect())
}

/// Slices each class's store (one per class, in class order) back into one
/// store per query, in submission order.
pub(crate) fn unfuse(classes: &[WidthClass], stores: &[SampleStore]) -> Vec<SampleStore> {
    let mut tagged: Vec<(usize, SampleStore)> = classes
        .iter()
        .zip(stores)
        .flat_map(|(class, store)| {
            class
                .members
                .iter()
                .map(move |&(qi, start, len)| (qi, store.slice(start, len)))
        })
        .collect();
    tagged.sort_by_key(|(qi, _)| *qi);
    tagged.into_iter().map(|(_, s)| s).collect()
}

/// Result of a fused batch: one sliced store per query, in submission
/// order, plus the batch-level statistics and fault report shared by all
/// of them (the batch ran as one dispatch, so its cost cannot be
/// attributed to a single query).
pub struct FusedResult {
    /// Per-query sample stores, bit-identical to each query's standalone
    /// run.
    pub per_query: Vec<SampleStore>,
    /// Fused launch sequences the batch needed: one per *width class*
    /// (distinct initial-vertices-per-sample count among the queries). An
    /// equal-width batch runs as a single sequence.
    pub launches: usize,
    /// Launch-index and cycle bracket of each width class's launch
    /// sequence, in the same first-appearance order the classes ran.
    pub class_marks: Vec<ClassMark>,
    /// Statistics of the fused batch as a whole (all width classes
    /// combined).
    pub stats: EngineStats,
    /// Faults the fused batch observed and survived.
    pub report: FaultReport,
}

/// A persistent sampling session: a device with the graph resident, bound
/// to one sampling application, answering many queries without re-upload.
///
/// Created with [`SamplerSession::new`] (fresh device) or
/// [`SamplerSession::with_gpu`] (caller-configured device, e.g. with an
/// injected [`FaultPlan`](nextdoor_gpu::FaultPlan)). Queries run the
/// NextDoor transit-parallel engine against the uploaded graph; the
/// session's simulated clock ([`SamplerSession::sim_ms`]) accumulates
/// across queries, which is what the serving layer's per-request deadlines
/// are measured against.
pub struct SamplerSession {
    gpu: Gpu,
    graph: Csr,
    gg: GpuGraph,
    app: Box<dyn SamplingApp + Send>,
    queries_served: u64,
    tuner: Option<AutoTuner>,
    plan: TuningPlan,
    plan_updates: u64,
    cache: Option<HotTransitCache>,
}

impl SamplerSession {
    /// Creates a session on a fresh device of `spec`, uploading `graph`.
    ///
    /// # Errors
    ///
    /// Returns [`NextDoorError::EmptyGraph`] for a vertex-less graph and
    /// [`NextDoorError::OutOfMemory`] when the graph does not fit in device
    /// memory (a session keeps the graph resident, so unlike the one-shot
    /// [`run_nextdoor`](crate::run_nextdoor) it does not degrade to the
    /// out-of-core engine).
    pub fn new(
        spec: GpuSpec,
        graph: Csr,
        app: Box<dyn SamplingApp + Send>,
    ) -> Result<Self, NextDoorError> {
        Self::with_gpu(Gpu::new(spec), graph, app)
    }

    /// Creates a session on a caller-configured device (fault plans,
    /// profile capacity and thread counts are all set on the `Gpu` before
    /// it is handed over).
    ///
    /// # Errors
    ///
    /// Same conditions as [`SamplerSession::new`].
    pub fn with_gpu(
        mut gpu: Gpu,
        graph: Csr,
        app: Box<dyn SamplingApp + Send>,
    ) -> Result<Self, NextDoorError> {
        if graph.num_vertices() == 0 {
            return Err(NextDoorError::EmptyGraph);
        }
        if gpu.device_lost() {
            return Err(NextDoorError::DeviceLost { device: 0 });
        }
        let gg = GpuGraph::upload(&mut gpu, &graph)?;
        Ok(SamplerSession {
            gpu,
            graph,
            gg,
            app,
            queries_served: 0,
            tuner: None,
            plan: TuningPlan::default(),
            plan_updates: 0,
            cache: None,
        })
    }

    /// Enables profile-guided autotuning: the session observes each
    /// completed query's [`RunProfile`] and, once `cfg.warmup_queries`
    /// queries have been seen, derives a [`TuningPlan`] that subsequent
    /// queries run under. Plans change only **at query boundaries** and the
    /// knob only moves cost, so the samples of every query are
    /// bit-identical to an untuned session's (see
    /// [`crate::tuning`]).
    pub fn enable_autotune(&mut self, cfg: TunerConfig) {
        self.tuner = Some(AutoTuner::new(cfg));
    }

    /// Enables the cross-query [`HotTransitCache`]: frequently-hit
    /// transits' adjacency slices stay resident on the device between
    /// queries (their kernels skip the preload traffic), and repeated
    /// steps' scheduling indices are memoised. Maintenance runs at query
    /// boundaries; samples are unaffected.
    pub fn enable_hot_cache(&mut self, cfg: CacheConfig) {
        self.cache = Some(HotTransitCache::new(cfg));
    }

    /// Sets the plan the next queries run under. If autotuning is
    /// enabled, the tuner replaces it at the first query boundary, once
    /// warm, where the plan it derives differs (and counts a
    /// [`plan_update`](SamplerSession::plan_updates)).
    pub fn set_tuning_plan(&mut self, plan: TuningPlan) {
        self.plan = plan;
    }

    /// The plan the next query will run under.
    pub fn tuning_plan(&self) -> TuningPlan {
        self.plan
    }

    /// How many times the autotuner changed the active plan.
    pub fn plan_updates(&self) -> u64 {
        self.plan_updates
    }

    /// The autotuner's state, if autotuning is enabled.
    pub fn tuner(&self) -> Option<&AutoTuner> {
        self.tuner.as_ref()
    }

    /// The hot-transit cache's counters, if the cache is enabled.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| *c.stats())
    }

    /// How many transits are currently resident in the hot-transit cache's
    /// device arena (0 when the cache is disabled or empty).
    pub fn cache_resident_len(&self) -> usize {
        self.cache.as_ref().map_or(0, |c| c.resident().len())
    }

    /// Query-boundary bookkeeping: feed the tuner, refresh the plan, and
    /// let the cache promote/evict. Runs with no query in flight, so the
    /// next query sees one fixed `(plan, cache)` state throughout.
    fn after_query(&mut self, profile: &RunProfile) {
        if let Some(t) = self.tuner.as_mut() {
            t.observe(profile);
            if t.ready() {
                let new_plan = t.plan();
                if new_plan != self.plan {
                    self.plan = new_plan;
                    self.plan_updates += 1;
                }
            }
        }
        if let Some(c) = self.cache.as_mut() {
            c.maintain(&mut self.gpu, &self.graph, &self.gg);
        }
    }

    /// Answers one query against the resident graph.
    ///
    /// Produces exactly the samples a cold one-shot
    /// [`run_nextdoor`](crate::run_nextdoor) call with the same
    /// `(graph, app, init, seed)` produces — the session only removes the
    /// per-call upload, it never changes the samples.
    ///
    /// # Errors
    ///
    /// Same conditions as [`run_nextdoor`](crate::run_nextdoor), minus the
    /// upload paths (the graph is already resident).
    pub fn query(&mut self, init: &[Vec<VertexId>], seed: u64) -> Result<RunResult, NextDoorError> {
        validate_run(&self.graph, self.app.as_ref(), init)?;
        let keys = SampleKeys::uniform(seed);
        let res = self.run_batch(init, &keys)?;
        self.queries_served += 1;
        self.after_query(&res.stats.profile);
        Ok(res)
    }

    /// Runs several queries as **one fused transit-parallel batch** and
    /// slices the results back per query.
    ///
    /// The fused batch produces, for every query, samples bit-identical to
    /// running that query alone via [`SamplerSession::query`] — the engines
    /// key each fused sample's RNG by its query's `(seed, local id)` (see
    /// [`SampleKeys`]). Fusing amortises the per-launch fixed costs
    /// (scheduling index, kernel launch overhead) across queries, which is
    /// the serving layer's throughput lever.
    ///
    /// Queries need **not** share one initial width: the step planner sizes
    /// the shared transit array from a single vertices-per-sample count, so
    /// the batch is partitioned into *width classes* (in order of first
    /// appearance) and each class runs as its own fused launch sequence
    /// ([`FusedResult::launches`] counts them). Per-sample RNG keying makes
    /// every class bit-identical to standalone runs regardless of how the
    /// classes are packed; [`FusedResult::stats`] and the fault report
    /// cover all classes combined.
    ///
    /// # Errors
    ///
    /// Returns [`NextDoorError::EmptyInit`] for an empty batch and any
    /// [`validate_run`] error for an individual query. Runtime errors are
    /// as for [`SamplerSession::query`]; a runtime error in any width
    /// class fails the whole batch.
    pub fn query_fused(&mut self, queries: &[SessionQuery]) -> Result<FusedResult, NextDoorError> {
        let classes = width_classes(&self.graph, self.app.as_ref(), queries)?;
        // One counter/launch snapshot brackets *all* classes, so the
        // aggregate stats and profile account for the whole batch exactly.
        let counters0 = *self.gpu.counters();
        let launch0 = self.gpu.launches_issued();
        let mut report = FaultReport::default();
        let mut tally = StepTally::default();
        let mut stores = Vec::with_capacity(classes.len());
        let mut class_marks = Vec::with_capacity(classes.len());
        for class in &classes {
            // Bracket the class's launch sequence so the serving tracer can
            // address its kernel records by launch index.
            let class_launch0 = self.gpu.launches_issued();
            let class_cycles0 = self.gpu.counters().cycles;
            let out = run_step_loop(
                &mut self.gpu,
                &self.graph,
                &self.gg,
                self.app.as_ref(),
                &class.init,
                &class.keys,
                GpuEngineKind::NextDoor,
                None,
                &self.plan,
                self.cache.as_mut(),
            )?;
            class_marks.push(ClassMark {
                width: class.width,
                queries: class.queries(),
                launch_start: class_launch0,
                launch_end: self.gpu.launches_issued(),
                start_cycles: class_cycles0,
                end_cycles: self.gpu.counters().cycles,
            });
            report.merge(&out.report);
            tally.merge(out.tally);
            stores.push(out.store);
        }
        self.queries_served += queries.len() as u64;
        let stats = engine_stats(&self.gpu, &counters0, launch0, &tally);
        self.after_query(&stats.profile);
        Ok(FusedResult {
            per_query: unfuse(&classes, &stores),
            launches: classes.len(),
            class_marks,
            stats,
            report,
        })
    }

    /// The shared body of single and fused queries: snapshot the device,
    /// run the fault-tolerant step loop against the resident graph, and
    /// fold counters and profile into a result.
    fn run_batch(
        &mut self,
        init: &[Vec<VertexId>],
        keys: &SampleKeys,
    ) -> Result<RunResult, NextDoorError> {
        let counters0 = *self.gpu.counters();
        let launch0 = self.gpu.launches_issued();
        let out = run_step_loop(
            &mut self.gpu,
            &self.graph,
            &self.gg,
            self.app.as_ref(),
            init,
            keys,
            GpuEngineKind::NextDoor,
            None,
            &self.plan,
            self.cache.as_mut(),
        )?;
        Ok(finish_run(&self.gpu, &counters0, launch0, out))
    }

    /// Simulated milliseconds the session's device has accumulated across
    /// all queries so far. The serving layer measures per-request latency
    /// and deadlines on this clock.
    pub fn sim_ms(&self) -> f64 {
        self.gpu.spec().cycles_to_ms(self.gpu.counters().cycles)
    }

    /// Queries answered so far (each fused query counts individually).
    pub fn queries_served(&self) -> u64 {
        self.queries_served
    }

    /// The resident graph.
    pub fn graph(&self) -> &Csr {
        &self.graph
    }

    /// The application this session serves.
    pub fn app(&self) -> &dyn SamplingApp {
        self.app.as_ref()
    }

    /// Device bytes occupied by the resident graph.
    pub fn graph_bytes(&self) -> usize {
        self.gg.size_bytes()
    }

    /// Schedules additional faults **relative to now**: every allocation
    /// and launch index in `plan` is shifted by the device's current
    /// monotonic counters and merged into the installed plan, so a script
    /// like "lose the device on the 3rd launch from here" lands mid-stream
    /// regardless of how much traffic the session has already served. This
    /// is the chaos-harness entry point for per-replica fault scheduling.
    pub fn schedule_faults(&mut self, plan: nextdoor_gpu::FaultPlan) {
        let shifted = plan.shifted(self.gpu.allocs_issued(), self.gpu.launches_issued());
        self.gpu.extend_faults(shifted);
    }

    /// Whether the session's device has been lost. A lost session can no
    /// longer answer queries ([`SamplerSession::query`] returns
    /// [`NextDoorError::DeviceLost`]); a replica pool routes around it.
    pub fn device_lost(&self) -> bool {
        self.gpu.device_lost()
    }

    /// The session's device (counters, profile ring, launch index).
    pub fn gpu(&self) -> &Gpu {
        &self.gpu
    }

    /// Mutable access to the session's device, e.g. to inject a
    /// [`FaultPlan`](nextdoor_gpu::FaultPlan) between queries.
    pub fn gpu_mut(&mut self) -> &mut Gpu {
        &mut self.gpu
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{NextCtx, Steps};
    use crate::engine::nextdoor::run_nextdoor;
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

    fn workload() -> (Csr, Vec<Vec<u32>>) {
        let g = rmat(8, 2000, RmatParams::SKEWED, 3);
        let init: Vec<Vec<u32>> = (0..24).map(|i| vec![i * 5 % 256]).collect();
        (g, init)
    }

    #[test]
    fn warm_queries_match_cold_runs() {
        let (g, init) = workload();
        let mut session =
            SamplerSession::new(GpuSpec::small(), g.clone(), Box::new(Walk(6))).unwrap();
        for seed in [7u64, 8, 9] {
            let warm = session.query(&init, seed).unwrap();
            let mut gpu = Gpu::new(GpuSpec::small());
            let cold = run_nextdoor(&mut gpu, &g, &Walk(6), &init, seed).unwrap();
            assert_eq!(warm.store.final_samples(), cold.store.final_samples());
        }
        assert_eq!(session.queries_served(), 3);
        assert!(session.sim_ms() > 0.0);
        assert!(session.graph_bytes() > 0);
    }

    #[test]
    fn fused_batch_matches_per_query_runs() {
        let (g, init) = workload();
        let mut session =
            SamplerSession::new(GpuSpec::small(), g.clone(), Box::new(Walk(5))).unwrap();
        let queries: Vec<SessionQuery> = (0..3)
            .map(|i| SessionQuery {
                init: init[i * 8..(i + 1) * 8].to_vec(),
                seed: 100 + i as u64,
            })
            .collect();
        let fused = session.query_fused(&queries).unwrap();
        assert_eq!(fused.per_query.len(), 3);
        assert_eq!(fused.launches, 1, "equal widths fuse into one sequence");
        for (q, sliced) in queries.iter().zip(&fused.per_query) {
            let solo = session.query(&q.init, q.seed).unwrap();
            assert_eq!(sliced.final_samples(), solo.store.final_samples());
        }
        assert!(fused.report.is_clean());
    }

    #[test]
    fn mixed_width_fused_batch_matches_per_query_runs() {
        // Queries of different initial widths share one fused dispatch:
        // the session splits them into width classes (one launch sequence
        // each) and every query still reproduces its standalone samples.
        let (g, _) = workload();
        let mut session =
            SamplerSession::new(GpuSpec::small(), g.clone(), Box::new(Walk(4))).unwrap();
        let queries: Vec<SessionQuery> = [1usize, 2, 1, 3, 2]
            .iter()
            .enumerate()
            .map(|(i, &w)| SessionQuery {
                init: (0..6).map(|s| vec![(s * 7 + i as u32) % 200; w]).collect(),
                seed: 500 + i as u64,
            })
            .collect();
        let fused = session.query_fused(&queries).unwrap();
        assert_eq!(fused.per_query.len(), queries.len());
        assert_eq!(fused.launches, 3, "widths {{1,2,3}} form three classes");
        for (q, sliced) in queries.iter().zip(&fused.per_query) {
            let solo = SamplerSession::new(GpuSpec::small(), g.clone(), Box::new(Walk(4)))
                .unwrap()
                .query(&q.init, q.seed)
                .unwrap();
            assert_eq!(sliced.final_samples(), solo.store.final_samples());
            for s in 0..sliced.num_samples() {
                assert_eq!(sliced.edges_of(s), solo.store.edges_of(s));
            }
        }
        assert!(fused.stats.total_ms > 0.0);
        assert!(fused.report.is_clean());
        assert!(matches!(
            session.query_fused(&[]).err(),
            Some(NextDoorError::EmptyInit)
        ));
    }

    #[test]
    fn scheduled_faults_land_relative_to_current_traffic() {
        let (g, init) = workload();
        let mut session = SamplerSession::new(GpuSpec::small(), g, Box::new(Walk(4))).unwrap();
        session.query(&init, 1).unwrap(); // traffic behind us
        assert!(!session.device_lost());
        // "Lose the device at the next launch", scheduled after the fact.
        session.schedule_faults(nextdoor_gpu::FaultPlan::new().lose_device_at_launch(0));
        assert!(matches!(
            session.query(&init, 2),
            Err(NextDoorError::DeviceLost { .. })
        ));
        assert!(session.device_lost());
    }

    #[test]
    fn session_rejects_oversized_graph() {
        let mut spec = GpuSpec::small();
        spec.device_memory = 64;
        let (g, _) = workload();
        assert!(matches!(
            SamplerSession::new(spec, g, Box::new(Walk(1))).err(),
            Some(NextDoorError::OutOfMemory(_))
        ));
    }
}

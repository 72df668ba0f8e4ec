//! The integration suites' one shared harness: golden files, digests,
//! generators, and the differential oracle. The oracle runs one
//! `(graph, app, init, seed)` on every placement and compares each result
//! with `run_cpu_keyed` byte for byte (DESIGN.md, "Unified determinism
//! invariant").
//!
//! Every suite compiles the whole module but uses only part of it, hence
//! the `dead_code` allowance.
#![allow(dead_code)]

use std::collections::BTreeSet;
use std::ops::Range;
use std::path::Path;

use proptest::prelude::*;

use nextdoor::apps::{
    ClusterGcn, DeepWalk, FastGcn, KHop, Ladies, Layer, MultiRw, Mvs, Node2Vec, Ppr,
};
use nextdoor::core::large_graph::run_nextdoor_out_of_core;
use nextdoor::core::multi_gpu::run_nextdoor_multi_gpu;
use nextdoor::core::tuning::{CacheConfig, TunerConfig};
use nextdoor::core::{
    classify_kernel, initial_samples_random, run_cpu, run_cpu_keyed, run_nextdoor,
    run_sample_parallel, run_vanilla_tp, KernelPhase, NextDoorError, RunResult, SampleKeys,
    SampleStore, SamplerSession, SamplingApp, SamplingType, SessionQuery, ShardedSampler, Steps,
};
use nextdoor::gpu::{FaultPlan, Gpu, GpuSpec, Profile};
use nextdoor::graph::{Csr, Dataset, GraphBuilder, VertexId};
use nextdoor::serve::{
    Backend, Batcher, FleetBatcher, MicroBatcher, PoolConfig, ReplicaPool, Request, ServeConfig,
    ServeError,
};

/// Host worker counts the thread-invariance checks run at.
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The small test device with `threads` host worker threads.
pub fn spec_with_threads(threads: usize) -> GpuSpec {
    let mut spec = GpuSpec::small();
    spec.host_threads = threads;
    spec
}

/// Runs `f` at every worker count of [`THREAD_COUNTS`], asserts each
/// result equals the sequential one, and returns it.
pub fn thread_invariant<T: PartialEq + std::fmt::Debug>(name: &str, f: impl Fn(GpuSpec) -> T) -> T {
    let baseline = f(spec_with_threads(1));
    for t in &THREAD_COUNTS[1..] {
        assert_eq!(
            baseline,
            f(spec_with_threads(*t)),
            "{name}: output at {t} worker threads differs from sequential"
        );
    }
    baseline
}

/// Compares `got` against the golden digest at `tests/golden/<name>.txt`,
/// or rewrites it when `NEXTDOOR_BLESS=1`.
pub fn check_golden(name: &str, got: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"));
    if std::env::var("NEXTDOOR_BLESS").is_ok_and(|v| v == "1") {
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); bless with NEXTDOOR_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "{name}: output diverged from the golden digest; if the change is \
         intentional, regenerate with NEXTDOOR_BLESS=1"
    );
}

/// Everything a caller observes of its own samples: the samples and each
/// sample's recorded edges.
pub fn digest(store: &SampleStore) -> String {
    let edges: Vec<_> = (0..store.num_samples())
        .map(|s| store.edges_of(s).to_vec())
        .collect();
    format!("samples: {:?}\nedges: {edges:?}\n", store.final_samples())
}

/// The CPU oracle's [`digest`] of `(graph, app, init, seed)`.
pub fn cpu_digest(graph: &Csr, app: &dyn SamplingApp, init: &[Vec<VertexId>], seed: u64) -> String {
    let res = run_cpu(graph, app, init, seed).expect("valid oracle inputs");
    digest(&res.store)
}

/// The PPI stand-in at 2% scale with `n` one-root samples: the workload of
/// the golden-file suites.
pub fn ppi_workload(n: usize) -> (Csr, Vec<Vec<VertexId>>) {
    let graph = Dataset::Ppi.generate(0.02, 5);
    let init = initial_samples_random(&graph, n, 1, 11).expect("non-empty graph");
    (graph, init)
}

/// An arbitrary small undirected graph over 64 vertices, some possibly
/// isolated, weighted half the time.
pub fn arb_graph() -> impl Strategy<Value = Csr> {
    (
        proptest::collection::vec((0u32..64, 0u32..64), 1..256),
        proptest::option::weighted(0.5, 0u64..1000),
    )
        .prop_map(|(edges, weights)| {
            let mut b = GraphBuilder::new(64).undirected(true);
            for (s, d) in edges {
                b.push_edge(s, d);
            }
            let g = b.build().expect("endpoints in range");
            weights.map_or(g.clone(), |seed| g.with_random_weights(1.0, 5.0, seed))
        })
}

/// An arbitrary fault script: any combination of a failed allocation, a
/// transient kernel fault and a whole-device loss, at arbitrary points.
/// Allocation indices reach past the graph upload into the steps, where a
/// fault is retried on every engine; SP and TP cannot survive a faulted
/// upload, so indices confined to it would rarely let them return samples.
pub fn arb_fault_plan() -> impl Strategy<Value = FaultPlan> {
    (
        proptest::option::weighted(0.5, 0u64..12),
        proptest::option::weighted(0.5, 0u64..12),
        proptest::option::weighted(0.3, 0u64..12),
    )
        .prop_map(|(alloc, transient, lose)| {
            let mut plan = FaultPlan::new();
            plan.alloc_oom.extend(alloc);
            plan.transient_launches.extend(transient);
            plan.device_lost_at_launch = lose;
            plan
        })
}

/// Builds a fresh instance of a case's app (placements need one per device).
pub type MakeApp = fn() -> Box<dyn SamplingApp + Send>;

/// A single-device engine entry point.
pub type Engine =
    fn(&mut Gpu, &Csr, &dyn SamplingApp, &[Vec<VertexId>], u64) -> Result<RunResult, NextDoorError>;

/// The three single-device engines.
pub const ENGINES: [(&str, Engine); 3] = [
    ("nextdoor", run_nextdoor),
    ("sp", run_sample_parallel),
    ("tp", run_vanilla_tp),
];

/// Every kernel phase the engines launch: all but `Other`.
const PHASES: [KernelPhase; 8] = [
    KernelPhase::Scheduling,
    KernelPhase::Transit,
    KernelPhase::SubWarp,
    KernelPhase::Block,
    KernelPhase::Grid,
    KernelPhase::SampleParallel,
    KernelPhase::Collective,
    KernelPhase::PostProcess,
];

/// The ten paper apps at test scale, each with the roots per sample it
/// starts from.
pub const PAPER_APPS: [(MakeApp, usize); 10] = [
    (|| Box::new(DeepWalk::new(5)), 1),
    (|| Box::new(Ppr::new(0.2)), 1),
    (|| Box::new(Node2Vec::new(5, 2.0, 0.5)), 1),
    (|| Box::new(MultiRw::new(6)), 3),
    (|| Box::new(KHop::new(vec![25, 2])), 1),
    (|| Box::new(Mvs::new(2)), 4),
    (|| Box::new(Layer::new(4, 12)), 1),
    (|| Box::new(FastGcn::new(2, 8)), 4),
    (|| Box::new(Ladies::new(2, 8)), 4),
    (|| Box::new(ClusterGcn::new(8)), 4),
];

/// One sampling query plus how to disturb it: the fault plan lands on one
/// device of each placement, `threads` host workers drive every device,
/// and `shards` sizes the multi-GPU and sharded placements.
pub struct Case {
    pub graph: Csr,
    pub app: MakeApp,
    pub init: Vec<Vec<VertexId>>,
    pub seed: u64,
    pub faults: FaultPlan,
    pub threads: usize,
    pub shards: usize,
}

impl Case {
    /// A fault-free case on two host threads and three shards.
    pub fn new(graph: Csr, app: MakeApp, init: Vec<Vec<VertexId>>, seed: u64) -> Self {
        Case {
            graph,
            app,
            init,
            seed,
            faults: FaultPlan::new(),
            threads: 2,
            shards: 3,
        }
    }
}

/// `n` samples of `width` roots: 3/4 of them on the graph's top-degree
/// vertex and 1/8 on the next, so their transits need the block and grid
/// kernel classes; the rest spread over the graph.
pub fn hub_rooted(graph: &Csr, n: usize, width: usize) -> Vec<Vec<VertexId>> {
    let mut hubs: Vec<VertexId> = (0..graph.num_vertices() as VertexId).collect();
    hubs.sort_by_key(|&v| std::cmp::Reverse(graph.degree(v)));
    (0..n)
        .map(|i| {
            let v = match i * 8 / n {
                0..=5 => hubs[0],
                6 => hubs[1],
                _ => hubs[i % hubs.len()],
            };
            vec![v; width]
        })
        .collect()
}

/// An arbitrary case: any paper app on an [`arb_graph`], 1–12 spread
/// samples or 64 hub-rooted ones, any seed and [`arb_fault_plan`], 1, 2
/// or 4 host threads and 1–4 shards.
pub fn arb_case() -> impl Strategy<Value = Case> {
    let query = (
        0..PAPER_APPS.len(),
        0u8..8,
        proptest::collection::vec(0u32..64, 1..13),
    );
    let disturbance = (0u64..1000, arb_fault_plan(), 0usize..3, 1usize..=4);
    (arb_graph(), query, disturbance).prop_map(|(graph, (app, shape, roots), disturbance)| {
        let (seed, faults, t, shards) = disturbance;
        let (app, width) = PAPER_APPS[app];
        let init = match shape {
            0 => hub_rooted(&graph, 64, width),
            _ => (roots.iter())
                .map(|&r| (0..width as u32).map(|k| (r + 11 * k) % 64).collect())
                .collect(),
        };
        let mut case = Case::new(graph, app, init, seed);
        (case.faults, case.threads, case.shards) = (faults, [1, 2, 4][t], shards);
        case
    })
}

/// One way to run a query. Placements that serve requests split the
/// samples into up to three requests; request `r` is keyed `seed + r`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Placement {
    /// `run_nextdoor` on one device.
    NextDoor,
    /// The sample-parallel engine on one device.
    SampleParallel,
    /// The vanilla transit-parallel engine on one device.
    VanillaTp,
    /// `run_nextdoor_multi_gpu` on `shards` devices with failover; shard
    /// `i` is keyed `seed ^ i`.
    MultiGpu,
    /// `run_nextdoor_out_of_core` with a third of the graph resident.
    OutOfCore,
    /// `run_nextdoor` degraded to out-of-core by an upload OOM.
    DegradedOutOfCore,
    /// A `ShardedSampler` over `shards` graph partitions.
    Sharded,
    /// The requests fused into one `MicroBatcher` drain.
    MicroBatcher,
    /// The requests through a two-replica `FleetBatcher`.
    Fleet,
    /// The requests, then the first one again, on an autotuned session
    /// with the hot-transit cache.
    TunedSession,
}

/// Every placement, in the order the oracle runs them.
pub const PLACEMENTS: [Placement; 10] = [
    Placement::NextDoor,
    Placement::SampleParallel,
    Placement::VanillaTp,
    Placement::MultiGpu,
    Placement::OutOfCore,
    Placement::DegradedOutOfCore,
    Placement::Sharded,
    Placement::MicroBatcher,
    Placement::Fleet,
    Placement::TunedSession,
];

impl Placement {
    /// Whether the placement runs `app`. A shard holds only its own
    /// adjacency rows, so it runs individual-transit apps that read no
    /// other row and need no cross-shard deduplication.
    pub fn supports(self, app: &dyn SamplingApp) -> bool {
        let steps = match app.steps() {
            Steps::Fixed(k) => k,
            Steps::Infinite => app.max_steps_cap(),
        };
        self != Placement::Sharded
            || (app.sampling_type() == SamplingType::Individual
                && !app.reads_other_rows()
                && !(0..steps).any(|s| app.unique(s)))
    }
}

/// Why a placement returned no samples for some of the query's samples.
#[derive(Debug)]
enum Failure {
    Engine(NextDoorError),
    Serve(ServeError),
    /// A sharded query finished, but walkers on a lost shard ended early.
    WalkersLost(u64),
}

/// Whether `plan` can make `p` fail with `failure`: a device loss may fail
/// a run or end a shard's walkers, but the fleet fails over to its other
/// replica; an allocation fault may hit the graph upload of SP or TP, which
/// cannot degrade to out-of-core.
fn allowed(p: Placement, plan: &FaultPlan, failure: &Failure) -> bool {
    let loses = plan.device_lost_at_launch.is_some() && p != Placement::Fleet;
    match failure {
        Failure::Engine(e) | Failure::Serve(ServeError::Sampling(e)) => match e {
            NextDoorError::DeviceLost { .. } | NextDoorError::AllDevicesLost => loses,
            NextDoorError::OutOfMemory(_) => {
                !plan.alloc_oom.is_empty()
                    && matches!(p, Placement::SampleParallel | Placement::VanillaTp)
            }
            _ => false,
        },
        Failure::WalkersLost(_) => loses,
        Failure::Serve(_) => false,
    }
}

/// What the oracle runs reached: the `(placement, app)` pairs with at
/// least one result compared, the phases of the kernels launched (`Other`
/// included), and the host thread counts.
#[derive(Debug, Default)]
pub struct Reach {
    pub ran: BTreeSet<(Placement, &'static str)>,
    pub phases: BTreeSet<&'static str>,
    pub threads: BTreeSet<usize>,
}

impl Reach {
    fn saw(&mut self, profile: &Profile) {
        for k in profile.kernels() {
            self.phases.insert(classify_kernel(&k.name).label());
        }
    }

    /// Asserts that the runs launched a kernel of every phase and none
    /// that `classify_kernel` does not know.
    pub fn assert_every_phase(&self) {
        for label in PHASES.map(KernelPhase::label) {
            assert!(self.phases.contains(label), "no {label} kernel ran");
        }
        let other = KernelPhase::Other.label();
        assert!(!self.phases.contains(other), "a kernel has no phase");
    }
}

/// Runs `case` on every placement (see [`check_placement`]) and panics on
/// the first mismatch.
pub fn check(case: &Case, reach: &mut Reach) {
    for p in PLACEMENTS {
        check_placement(p, case, reach).unwrap_or_else(|e| panic!("{e}"));
    }
}

/// Runs `case` on `p` and compares each returned store with
/// `run_cpu_keyed` of the same samples under the keys `p` must use, byte
/// for byte; every failure must be one the case's fault plan allows, and
/// every sample must get an outcome. A placement that does not support the
/// app must reject it. Returns one line per outcome.
pub fn check_placement(p: Placement, case: &Case, reach: &mut Reach) -> Result<String, String> {
    let (app, n) = ((case.app)(), case.init.len());
    let (seed, threads, shards, faults) = (case.seed, case.threads, case.shards, &case.faults);
    let context = format!(
        "{p:?} on {} ({n} samples of {} roots, seed {seed}, {threads} threads, {shards} shards, \
         {faults:?})",
        app.name(),
        case.init[0].len(),
    );
    let (keys, outcomes) = run_placement(p, case, reach).map_err(|e| format!("{context}: {e}"))?;
    let Some(keys) = keys else {
        return Ok("unsupported".into());
    };
    let want = run_cpu_keyed(&case.graph, app.as_ref(), &case.init, &keys)
        .map_err(|e| format!("{context}: oracle failed: {e}"))?
        .store;
    let mut answered = vec![false; n];
    let mut log = String::new();
    for (range, outcome) in outcomes {
        answered[range.clone()].fill(true);
        match outcome {
            Ok(store) if digest(&store) == digest(&want.slice(range.start, range.len())) => {
                reach.ran.insert((p, app.name()));
                log.push_str(&format!("{range:?} ok\n"));
            }
            Ok(_) => return Err(format!("{context}: samples {range:?} diverged")),
            Err(f) if allowed(p, faults, &f) => log.push_str(&format!("{range:?} {f:?}\n")),
            Err(f) => return Err(format!("{context}: {f:?} is not a failure its plan allows")),
        }
    }
    if answered.contains(&false) {
        return Err(format!("{context}: some samples got no outcome"));
    }
    reach.threads.insert(case.threads);
    Ok(log)
}

/// Samples `range` of a query, and what the placement returned for them.
type Outcome = (Range<usize>, Result<SampleStore, Failure>);

/// Keys sample `s` as `(seed_of(s / per), s % per)`: the layout of
/// consecutive runs of `per` samples, each keyed by its own seed.
fn chunk_keys(n: usize, per: usize, seed_of: impl Fn(u64) -> u64) -> SampleKeys {
    SampleKeys::fused(
        (0..n)
            .map(|s| (seed_of((s / per) as u64), (s % per) as u64))
            .collect(),
    )
}

/// Submits `requests` (sample range and seed each) to `batcher` and
/// drains it once; request ids count up from 0 in submission order.
fn serve<B: Backend>(
    batcher: &mut Batcher<B>,
    init: &[Vec<VertexId>],
    requests: &[(Range<usize>, u64)],
) -> Vec<Outcome> {
    for (r, seed) in requests {
        let req = Request::new(init[r.clone()].to_vec(), *seed);
        batcher.submit(req).expect("the queue holds every request");
    }
    (batcher.drain().into_iter())
        .map(|(id, o)| {
            (
                requests[id.0 as usize].0.clone(),
                o.map(|r| r.store).map_err(Failure::Serve),
            )
        })
        .collect()
}

/// Runs `case` on `p`: the keys its samples must follow and its outcomes,
/// or no keys when `p` rightly rejected the app.
fn run_placement(
    p: Placement,
    case: &Case,
    reach: &mut Reach,
) -> Result<(Option<SampleKeys>, Vec<Outcome>), String> {
    let (graph, init, seed, n) = (&case.graph, &case.init[..], case.seed, case.init.len());
    let (app, spec) = ((case.app)(), spec_with_threads(case.threads));
    // Serving placements split the samples into up to three requests;
    // request `r` is keyed `seed + r`.
    let per = n.div_ceil(n.min(3));
    let requests: Vec<(Range<usize>, u64)> = (0..n.div_ceil(per))
        .map(|r| (r * per..((r + 1) * per).min(n), seed + r as u64))
        .collect();
    let session = || {
        let mut s = SamplerSession::new(spec.clone(), graph.clone(), (case.app)()).expect("fits");
        s.schedule_faults(case.faults.clone());
        s
    };
    let uniform = || Some(SampleKeys::uniform(seed));
    let by_request = || Some(chunk_keys(n, per, |r| seed + r));
    Ok(match p {
        Placement::NextDoor
        | Placement::SampleParallel
        | Placement::VanillaTp
        | Placement::OutOfCore
        | Placement::DegradedOutOfCore => {
            let mut gpu = Gpu::new(spec);
            let mut faults = case.faults.clone();
            if p == Placement::DegradedOutOfCore {
                faults.merge(&FaultPlan::new().fail_alloc(0));
            }
            gpu.inject_faults(faults);
            let res = if p == Placement::OutOfCore {
                let max_row = (0..graph.num_vertices() as VertexId)
                    .map(|v| graph.degree(v))
                    .max();
                let budget = (graph.size_bytes() / 3).max(8 + 4 * max_row.unwrap_or(0));
                run_nextdoor_out_of_core(&mut gpu, graph, &*app, init, seed, budget).map(|r| r.0)
            } else {
                let engine: Engine = match p {
                    Placement::SampleParallel => run_sample_parallel,
                    Placement::VanillaTp => run_vanilla_tp,
                    _ => run_nextdoor,
                };
                engine(&mut gpu, graph, &*app, init, seed)
            };
            if p == Placement::DegradedOutOfCore
                && res
                    .as_ref()
                    .is_ok_and(|r| !r.report.degraded_to_out_of_core)
            {
                return Err("the upload OOM did not degrade the run".into());
            }
            reach.saw(gpu.profile());
            (
                uniform(),
                vec![(0..n, res.map(|r| r.store).map_err(Failure::Engine))],
            )
        }
        Placement::MultiGpu => {
            let gpus = case.shards.min(n);
            let shard = n.div_ceil(gpus);
            let mut plans = vec![FaultPlan::new(); gpus];
            plans[seed as usize % gpus] = case.faults.clone();
            let outcomes =
                match run_nextdoor_multi_gpu(&spec, gpus, graph, &*app, init, seed, &plans) {
                    Ok(res) => {
                        res.device_profiles.iter().for_each(|p| reach.saw(p));
                        (res.per_gpu.into_iter().enumerate())
                            .map(|(i, r)| (i * shard..((i + 1) * shard).min(n), Ok(r.store)))
                            .collect()
                    }
                    Err(e) => vec![(0..n, Err(Failure::Engine(e)))],
                };
            (Some(chunk_keys(n, shard, |i| seed ^ i)), outcomes)
        }
        Placement::Sharded => {
            let supported = p.supports(&*app);
            let mut sharded = match ShardedSampler::new(spec, graph.clone(), app, case.shards, seed)
            {
                Ok(s) if supported => s,
                Err(NextDoorError::ShardUnsupported { .. }) if !supported => {
                    return Ok((None, vec![]))
                }
                Ok(_) => return Err("an unsupported app was accepted".into()),
                Err(e) => return Err(format!("construction failed: {e}")),
            };
            sharded.schedule_faults(seed as usize % case.shards, case.faults.clone());
            let query = SessionQuery {
                init: init.to_vec(),
                seed,
            };
            let res = sharded.query_fused(&[query]);
            (0..case.shards).for_each(|s| reach.saw(sharded.shard_gpu(s).profile()));
            let outcome = match res {
                Ok(out) if out.walkers_lost > 0 => Err(Failure::WalkersLost(out.walkers_lost)),
                Ok(mut out) => Ok(out.per_query.swap_remove(0)),
                Err(e) => Err(Failure::Engine(e)),
            };
            (uniform(), vec![(0..n, outcome)])
        }
        Placement::MicroBatcher => {
            let mut batcher = MicroBatcher::new(session(), ServeConfig::default()).expect("valid");
            let outcomes = serve(&mut batcher, init, &requests);
            reach.saw(batcher.session().gpu().profile());
            (by_request(), outcomes)
        }
        Placement::Fleet => {
            let pool = ReplicaPool::replicate(&spec, 2, graph, case.app, PoolConfig::default());
            let mut fleet =
                FleetBatcher::new(pool.expect("fits"), ServeConfig::default()).expect("valid");
            (fleet.pool_mut()).schedule_faults(seed as usize % 2, case.faults.clone());
            let outcomes = serve(&mut fleet, init, &requests);
            (0..2).for_each(|i| reach.saw(fleet.pool().session(i).gpu().profile()));
            (by_request(), outcomes)
        }
        Placement::TunedSession => {
            let mut session = session();
            session.enable_autotune(TunerConfig { warmup_queries: 1 });
            session.enable_hot_cache(CacheConfig { min_hits: 1 });
            // The repeated first request replays the cached scheduling index.
            let outcomes = (requests.iter().chain(&requests[..1]))
                .map(|(r, seed)| {
                    let res = session.query(&init[r.clone()], *seed);
                    (r.clone(), res.map(|r| r.store).map_err(Failure::Engine))
                })
                .collect();
            reach.saw(session.gpu().profile());
            (by_request(), outcomes)
        }
    })
}

//! Shard-equivalence suite: the sharded engine must be a pure
//! re-scheduling of the single-device engine.
//!
//! The contract under test, end to end:
//!
//! * **bit-identity**: for any graph, shard count, individual-transit app
//!   and non-loss fault script on any shard, `ShardedSampler::query`
//!   produces a store bit-identical to `run_nextdoor` of the same
//!   `(graph, app, init, seed)` — partitioning, cross-shard hand-off and
//!   fault retries may change *where* and *how often* a draw executes,
//!   never its value (property-based, below);
//! * **conservation**: every walker hand-off is visible exactly once in
//!   the super-step marks, the serving-tier `Handoff` spans, the metrics
//!   registry and the `FleetReport`, and each view matches an independent
//!   replay of the same queries to the walker;
//! * **typed degradation**: queries homed on a lost shard are shed with
//!   `ServeError::ShardLost` while survivors keep serving, and a shard that
//!   absorbs and retries faults keeps serving the queries homed on it.

use proptest::prelude::*;

use nextdoor::apps::{DeepWalk, KHop};
use nextdoor::core::session::SessionQuery;
use nextdoor::core::{run_nextdoor, SampleStore, SamplingApp, ShardedSampler};
use nextdoor::gpu::{FaultPlan, Gpu, GpuSpec};
use nextdoor::graph::gen::{rmat, RmatParams};
use nextdoor::graph::{Csr, GraphBuilder, VertexId};
use nextdoor::serve::{ServeError, ShardPoolConfig, ShardedPool, SpanKind};

/// Everything a query observes of its own samples.
fn digest(store: &SampleStore) -> String {
    let edges: Vec<_> = (0..store.num_samples())
        .map(|s| store.edges_of(s).to_vec())
        .collect();
    format!("samples: {:?}\nedges: {edges:?}\n", store.final_samples())
}

/// An arbitrary small undirected graph over 64 vertices.
fn arb_graph() -> impl Strategy<Value = Csr> {
    proptest::collection::vec((0u32..64, 0u32..64), 1..256).prop_map(|edges| {
        let mut b = GraphBuilder::new(64).undirected(true);
        for (s, d) in edges {
            b.push_edge(s, d);
        }
        b.build().expect("endpoints in range")
    })
}

/// An arbitrary non-loss fault script, as in `tests/tuning.rs`: an
/// optional failed allocation and an optional transient kernel fault.
fn arb_fault_plan() -> impl Strategy<Value = FaultPlan> {
    (
        proptest::option::weighted(0.5, 0u64..5),
        proptest::option::weighted(0.5, 0u64..12),
    )
        .prop_map(|(alloc, transient)| {
            let mut plan = FaultPlan::new();
            if let Some(i) = alloc {
                plan = plan.fail_alloc(i);
            }
            if let Some(i) = transient {
                plan = plan.transient_at_launch(i);
            }
            plan
        })
}

/// The individual-transit apps the sharded engine supports.
fn arb_app() -> impl Strategy<Value = usize> {
    0usize..3
}

fn make_app(idx: usize) -> Box<dyn SamplingApp + Send> {
    match idx {
        0 => Box::new(KHop::new(vec![2, 1])),
        1 => Box::new(KHop::new(vec![3])),
        _ => Box::new(DeepWalk::new(3)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sharded_runs_are_bit_identical_to_single_device(
        g in arb_graph(),
        (shards, placement_seed) in (1usize..=4, 0u64..100),
        app_idx in arb_app(),
        seed in 0u64..1000,
        nroots in 1usize..12,
        (faults, fault_shard) in (arb_fault_plan(), 0usize..4),
    ) {
        let init: Vec<Vec<VertexId>> =
            (0..nroots).map(|i| vec![(i as u32 * 7 + seed as u32) % 64]).collect();
        let mut sharded = ShardedSampler::new(
            GpuSpec::small(),
            g.clone(),
            make_app(app_idx),
            shards,
            placement_seed,
        )
        .unwrap();
        // Allocation faults (staging, output buffers, scheduling index) and
        // transient launch faults are retried on the shard, bit-identically.
        let clean = faults == FaultPlan::new();
        sharded.schedule_faults(fault_shard % shards, faults);
        let out = sharded.query(&init, seed).unwrap();
        let mut gpu = Gpu::new(GpuSpec::small());
        let solo = run_nextdoor(&mut gpu, &g, make_app(app_idx).as_ref(), &init, seed).unwrap();
        prop_assert_eq!(digest(&out.store), digest(&solo.store));
        if clean {
            prop_assert!(out.report.is_clean());
        }
        prop_assert_eq!(out.walkers_lost, 0);
    }

    #[test]
    fn fused_sharded_batches_slice_back_to_standalone_queries(
        g in arb_graph(),
        shards in 2usize..=3,
        seeds in proptest::collection::vec(0u64..500, 2..5),
    ) {
        let queries: Vec<SessionQuery> = seeds
            .iter()
            .enumerate()
            .map(|(i, &seed)| SessionQuery {
                init: (0..4).map(|s| vec![(s * 11 + i as u32) % 64]).collect(),
                seed,
            })
            .collect();
        let mut sharded =
            ShardedSampler::new(GpuSpec::small(), g.clone(), make_app(0), shards, 7).unwrap();
        let fused = sharded.query_fused(&queries).unwrap();
        for (q, got) in queries.iter().zip(&fused.per_query) {
            let mut solo =
                ShardedSampler::new(GpuSpec::small(), g.clone(), make_app(0), shards, 7).unwrap();
            let want = solo.query(&q.init, q.seed).unwrap();
            prop_assert_eq!(digest(got), digest(&want.store));
        }
    }
}

#[test]
fn handoffs_agree_across_marks_spans_metrics_and_report() {
    let graph = rmat(8, 2000, RmatParams::SKEWED, 3);
    let mut pool = ShardedPool::new(
        GpuSpec::small(),
        graph.clone(),
        Box::new(KHop::new(vec![3, 2])),
        ShardPoolConfig {
            num_shards: 4,
            ..ShardPoolConfig::default()
        },
    )
    .unwrap();
    let queries: Vec<SessionQuery> = (0..6)
        .map(|i| SessionQuery {
            init: (0..8).map(|s| vec![(s * 29 + i * 3) % 256]).collect(),
            seed: 70 + u64::from(i),
        })
        .collect();
    let d = pool.dispatch(&queries).unwrap();
    assert!(d.handoffs > 0, "4 shards over an R-MAT graph must hand off");
    // The pool's dispatch, registry and report all read one fused run, so
    // they are checked against an independent replay of the same queries
    // on the same placement.
    let replay = ShardedSampler::new(
        GpuSpec::small(),
        graph,
        Box::new(KHop::new(vec![3, 2])),
        4,
        ShardPoolConfig::default().placement_seed,
    )
    .unwrap()
    .query_fused(&queries)
    .unwrap();

    let span_walkers: u64 = pool
        .trace()
        .spans()
        .iter()
        .filter(|s| s.kind == SpanKind::Handoff)
        .map(|s| s.batch_size.expect("handoff spans carry walker counts") as u64)
        .sum();
    let report = pool.report();
    assert_eq!(d.handoffs, replay.handoffs, "dispatch vs replay");
    assert_eq!(span_walkers, replay.handoffs, "spans vs replay");
    assert_eq!(report.handoffs, replay.handoffs, "report vs replay");
    assert_eq!(
        pool.metrics().sim.handoffs,
        replay.handoffs,
        "metrics vs replay"
    );
    assert_eq!(
        report.handoff_bytes,
        replay.handoffs * nextdoor::core::sharded::HANDOFF_BYTES_PER_WALKER,
        "every hand-off is charged the same wire cost"
    );
    let steps = replay.super_steps.len() as u64;
    assert_eq!(pool.metrics().sim.super_steps, steps, "metrics vs replay");
    assert_eq!(report.super_steps, steps, "report vs replay");
    assert!(
        pool.trace().count(SpanKind::Handoff) + pool.trace().count(SpanKind::SuperStep) > 0,
        "the trace carries super-step and hand-off spans"
    );
}

#[test]
fn lost_shard_sheds_typed_while_survivors_serve() {
    let graph = rmat(8, 2000, RmatParams::SKEWED, 3);
    let mut pool = ShardedPool::new(
        GpuSpec::small(),
        graph.clone(),
        Box::new(KHop::new(vec![3, 2])),
        ShardPoolConfig {
            num_shards: 3,
            ..ShardPoolConfig::default()
        },
    )
    .unwrap();

    // Kill shard 2 partway through a batch that is mid-walk on it.
    pool.schedule_faults(2, FaultPlan::new().lose_device_at_launch(2));
    let warm: Vec<SessionQuery> = (0..3)
        .map(|i| SessionQuery {
            init: (0..8).map(|s| vec![(s * 13 + i) % 256]).collect(),
            seed: 7 + u64::from(i),
        })
        .collect();
    pool.dispatch(&warm).unwrap();
    assert!(pool.sampler().shard_lost(2), "the scheduled loss landed");
    let report = pool.report();
    assert!(report.replicas[2].lost);
    assert!(
        report.walkers_lost > 0,
        "mid-walk walkers died with the shard"
    );

    // A query homed on the dead shard is shed with the typed error; one
    // homed on a survivor still gets bit-identical samples.
    let dead_seed = (0..256u32)
        .find(|&v| pool.sampler().owner_of(v) == 2)
        .expect("shard 2 owns vertices");
    let live_seed = (0..256u32)
        .find(|&v| pool.sampler().owner_of(v) != 2)
        .expect("survivors own vertices");
    let dead_q = SessionQuery {
        init: vec![vec![dead_seed]; 4],
        seed: 1000,
    };
    let live_q = SessionQuery {
        init: vec![vec![live_seed]; 4],
        seed: 1001,
    };
    let d = pool.dispatch(&[dead_q, live_q.clone()]).unwrap();
    assert!(
        matches!(
            d.results[0],
            Err(ServeError::ShardLost {
                shard: 2,
                shards: 3
            })
        ),
        "dead-shard query is typed, got {:?}",
        d.results[0]
    );
    let served = d.results[1].as_ref().expect("survivor query serves");
    assert_eq!(pool.metrics().sim.shard_shed, 1);
    assert_eq!(pool.report().shed, 1);
    assert_eq!(pool.trace().count(SpanKind::ShardLost), 1);
    assert_eq!(
        pool.trace().count(SpanKind::OverloadShed),
        0,
        "a lost-shard shed is not a capacity shed"
    );

    // The survivor's samples may still cross into the dead shard and lose
    // walkers there — but they are deterministic: a replayed pool with the
    // same script produces the same store.
    let mut replay = ShardedPool::new(
        GpuSpec::small(),
        graph,
        Box::new(KHop::new(vec![3, 2])),
        ShardPoolConfig {
            num_shards: 3,
            ..ShardPoolConfig::default()
        },
    )
    .unwrap();
    replay.schedule_faults(2, FaultPlan::new().lose_device_at_launch(2));
    replay.dispatch(&warm).unwrap();
    let d2 = replay
        .dispatch(&[
            SessionQuery {
                init: vec![vec![dead_seed]; 4],
                seed: 1000,
            },
            live_q,
        ])
        .unwrap();
    assert_eq!(
        digest(served),
        digest(d2.results[1].as_ref().expect("replay serves too")),
        "degraded results replay bit-identically"
    );
}

#[test]
fn absorbed_faults_never_shed_home_queries() {
    let graph = rmat(8, 2000, RmatParams::SKEWED, 3);
    let app = || -> Box<dyn SamplingApp + Send> { Box::new(KHop::new(vec![3, 2])) };
    let mut pool = ShardedPool::new(
        GpuSpec::small(),
        graph.clone(),
        app(),
        ShardPoolConfig::default(),
    )
    .unwrap();
    let roots: Vec<Vec<VertexId>> = (0..256u32)
        .filter(|&v| pool.sampler().owner_of(v) == 0)
        .take(8)
        .map(|v| vec![v])
        .collect();
    assert_eq!(roots.len(), 8, "shard 0 owns at least 8 vertices");
    let query = |seed: u64| SessionQuery {
        init: roots.clone(),
        seed,
    };

    // Two batches in which shard 0 absorbs and retries one transient fault
    // each. A shard cannot refuse walkers, so absorbed faults must not shed
    // the queries homed on it.
    for seed in [21, 22] {
        pool.schedule_faults(0, FaultPlan::new().transient_at_launch(1));
        let d = pool.dispatch(&[query(seed)]).unwrap();
        assert!(d.results[0].is_ok(), "the fault is retried on the shard");
    }

    // The next query homed on shard 0 is served, bit-identically.
    let q = query(23);
    let d = pool.dispatch(std::slice::from_ref(&q)).unwrap();
    let got = d.results[0]
        .as_ref()
        .expect("a shard that absorbed faults still serves its home queries");
    let mut gpu = Gpu::new(GpuSpec::small());
    let solo = run_nextdoor(&mut gpu, &graph, app().as_ref(), &q.init, q.seed).unwrap();
    assert_eq!(digest(got), digest(&solo.store));

    let report = pool.report();
    assert_eq!(report.replicas[0].faults.transient_faults, 2);
    assert_eq!(report.replicas[0].trips, 0);
    assert_eq!(report.shed, 0);
}

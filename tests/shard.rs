//! Shard-equivalence suite: the sharded engine must be a pure
//! re-scheduling of the single-device engine.
//!
//! The contract under test, end to end:
//!
//! * **bit-identity**: for any graph, shard count, supported app and fault
//!   script on any shard, `ShardedSampler::query_fused` produces the CPU
//!   oracle's store for the same `(graph, app, init, seed)` or reports the
//!   walkers a lost shard ended — partitioning, cross-shard hand-off and
//!   fault retries may change *where* and *how often* a draw executes,
//!   never its value (the oracle of `tests/common`, below);
//! * **conservation**: every walker hand-off is visible exactly once in
//!   the super-step marks, the serving-tier `Handoff` spans, the metrics
//!   registry and the `FleetReport`, and each view matches an independent
//!   replay of the same queries to the walker;
//! * **typed degradation**: queries homed on a lost shard are shed with
//!   `ServeError::ShardLost` while survivors keep serving, a shard that
//!   absorbs and retries faults keeps serving the queries homed on it, and
//!   node2vec, whose probe reads the previous transit's row, is rejected.

mod common;

use proptest::prelude::*;

use common::{arb_case, arb_graph, check_placement, cpu_digest, digest, Placement, Reach};
use nextdoor::apps::{KHop, Node2Vec};
use nextdoor::core::session::SessionQuery;
use nextdoor::core::{NextDoorError, SamplingApp, ShardedSampler};
use nextdoor::gpu::{FaultPlan, GpuSpec};
use nextdoor::graph::gen::{rmat, RmatParams};
use nextdoor::graph::{Csr, VertexId};
use nextdoor::serve::{ServeError, ShardPoolConfig, ShardedPool, SpanKind};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sharded_runs_are_bit_identical_to_single_device(case in arb_case()) {
        for p in [Placement::NextDoor, Placement::Sharded] {
            check_placement(p, &case, &mut Reach::default()).map_err(TestCaseError::fail)?;
        }
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
        let app = KHop::new(vec![2, 1]);
        let (spec, boxed) = (GpuSpec::small(), Box::new(app.clone()));
        let mut sharded = ShardedSampler::new(spec, g.clone(), boxed, shards, 7).unwrap();
        let fused = sharded.query_fused(&queries).unwrap();
        for (q, got) in queries.iter().zip(&fused.per_query) {
            prop_assert_eq!(digest(got), cpu_digest(&g, &app, &q.init, q.seed));
        }
    }
}

/// node2vec probes the previous transit's row, which another shard may
/// own. Accepted on shards, it diverged from the single device on 28 of
/// 64 walks (roots `i·7 mod 512`, seed 5) at 2 shards and 38 at 3 and 4,
/// so the sharded engine rejects it.
#[test]
fn node2vec_is_rejected_on_shards() {
    let graph = rmat(9, 4000, RmatParams::SKEWED, 11);
    for shards in 2..=4 {
        let app = Box::new(Node2Vec::new(10, 2.0, 0.5));
        let built = ShardedSampler::new(GpuSpec::small(), graph.clone(), app, shards, 7);
        assert!(matches!(
            built.err(),
            Some(NextDoorError::ShardUnsupported { .. })
        ));
    }
}

/// A k-hop `ShardedPool` over `graph` on `shards` shards.
fn khop_pool(graph: &Csr, shards: usize) -> ShardedPool {
    let cfg = ShardPoolConfig {
        num_shards: shards,
        ..ShardPoolConfig::default()
    };
    let app = Box::new(KHop::new(vec![3, 2]));
    ShardedPool::new(GpuSpec::small(), graph.clone(), app, cfg).unwrap()
}

#[test]
fn handoffs_agree_across_marks_spans_metrics_and_report() {
    let graph = rmat(8, 2000, RmatParams::SKEWED, 3);
    let mut pool = khop_pool(&graph, 4);
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
    let mut pool = khop_pool(&graph, 3);

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
    assert!(d.results[1].is_ok(), "survivor query serves");
    assert_eq!(pool.metrics().sim.shard_shed, 1);
    assert_eq!(pool.report().shed, 1);
    assert_eq!(pool.trace().count(SpanKind::ShardLost), 1);
    assert_eq!(
        pool.trace().count(SpanKind::OverloadShed),
        0,
        "a lost-shard shed is not a capacity shed"
    );
}

#[test]
fn absorbed_faults_never_shed_home_queries() {
    let graph = rmat(8, 2000, RmatParams::SKEWED, 3);
    let app = || -> Box<dyn SamplingApp + Send> { Box::new(KHop::new(vec![3, 2])) };
    let mut pool = khop_pool(&graph, 2);
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
    assert_eq!(
        digest(got),
        cpu_digest(&graph, app().as_ref(), &q.init, q.seed)
    );

    let report = pool.report();
    assert_eq!(report.replicas[0].faults.transient_faults, 2);
    assert_eq!(report.replicas[0].trips, 0);
    assert_eq!(report.shed, 0);
}

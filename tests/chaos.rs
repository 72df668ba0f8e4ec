//! The deterministic chaos harness: a scripted three-replica serving run
//! that kills one replica mid-stream and storms another with transient
//! kernel faults, while requests keep flowing.
//!
//! The contract under test is the serving tier's end-to-end robustness
//! story:
//!
//! * every request the fleet completes carries samples **bit-identical**
//!   to a fault-free run of the same `(init, seed)` — recovery may cost
//!   time, never correctness;
//! * the stormed replica's circuit breaker trips, cools down on the
//!   simulated fleet clock, and **recovers** through a half-open probe;
//! * the killed replica is permanently removed and the fleet degrades
//!   gracefully: batch caps shrink and excess load is shed with a typed
//!   [`ServeError::Overloaded`], never dropped silently;
//! * the whole run — samples, shed set, retry/trip/probe counters, the
//!   `FleetReport` digest down to its simulated-clock timestamps — is
//!   identical at host worker counts {1, 2, 4, 8} and matches a
//!   checked-in golden digest.
//!
//! Regenerate the goldens with `NEXTDOOR_BLESS=1 cargo test --test chaos`
//! after an intentional change to the cost model, engines or recovery
//! policy.

mod common;

use common::{check_golden, cpu_digest, digest, ppi_workload, spec_with_threads, thread_invariant};
use nextdoor::apps::KHop;
use nextdoor::core::session::SessionQuery;
use nextdoor::core::{initial_samples_random, SampleStore, SamplingApp};
use nextdoor::gpu::{FaultPlan, Gpu, GpuSpec};
use nextdoor::serve::{
    FleetBatcher, PoolConfig, ReplicaPool, Request, RequestId, RequestOutcome, ServeConfig,
    ServeError, ShardPoolConfig, ShardedPool,
};

fn app() -> Box<dyn SamplingApp + Send> {
    Box::new(KHop::new(vec![3, 2]))
}

/// The scripted chaos run. Returns each request's wave and outcome, in
/// drain order, and the fleet; request `i` is seeded `1000 + i`.
///
/// Script: a healthy warm-up wave; then replica 1 is scheduled to drop off
/// the bus at its next launch and replica 2 to enter a transient-fault
/// storm; a full-queue wave rides through the failures (sheds under the
/// degraded capacity); a final wave runs on the recovered-but-degraded
/// fleet.
fn run_chaos(spec: &GpuSpec) -> (Vec<(&'static str, RequestId, RequestOutcome)>, FleetBatcher) {
    let (graph, init) = ppi_workload(16);
    let gpus = vec![
        Gpu::new(spec.clone()),
        Gpu::new(spec.clone()),
        Gpu::new(spec.clone()),
    ];
    let pool = ReplicaPool::new(
        gpus,
        &graph,
        app,
        PoolConfig {
            max_retries: 6,
            backoff_base_ms: 0.05,
            // The cool-down ends inside the last wave, so the stormed
            // replica's half-open probe happens before the stream does.
            breaker: nextdoor::serve::BreakerConfig {
                trip_after: 2,
                cooldown_ms: 0.4,
            },
        },
    )
    .unwrap();
    let mut fleet = FleetBatcher::new(
        pool,
        ServeConfig {
            max_batch: 4,
            max_queue: 12,
            default_deadline_ms: None,
        },
    )
    .unwrap();

    let mut outcomes = Vec::new();
    let mut next_seed = 1000u64;
    let mut serve_wave = |fleet: &mut FleetBatcher, n: usize, label: &'static str| {
        for _ in 0..n {
            fleet
                .submit(Request::new(init.clone(), next_seed))
                .expect("waves stay within max_queue");
            next_seed += 1;
        }
        let served = fleet.drain();
        assert_eq!(served.len(), n, "{label}: every request got an outcome");
        outcomes.extend(served.into_iter().map(|(id, outcome)| (label, id, outcome)));
    };

    // Wave A: the healthy fleet.
    serve_wave(&mut fleet, 6, "warmup");
    assert_eq!(fleet.pool().healthy_count(), 3);

    // Chaos lands mid-stream, scheduled relative to each replica's live
    // launch counter: replica 1 dies outright, replica 2 storms long
    // enough to trip its breaker across several dispatches. A step attempt
    // of this batch takes 10 launches (8 for the scheduling index, then
    // the transit and sub-warp kernels), so 86 storm launches fault both
    // dispatches' four attempts each (80) and 6 launches of the half-open
    // probe's first attempt, which one step retry absorbs.
    fleet
        .pool_mut()
        .schedule_faults(1, FaultPlan::new().lose_device_at_launch(0));
    fleet.pool_mut().schedule_faults(
        2,
        FaultPlan {
            transient_launches: (0..86).collect(),
            ..FaultPlan::new()
        },
    );

    // Wave B: a full queue riding through the failures.
    serve_wave(&mut fleet, 12, "storm");

    // Wave C: the fleet has lost one replica for good; the stormed one
    // must have recovered through its breaker by the end of this wave.
    serve_wave(&mut fleet, 8, "recovered");
    (outcomes, fleet)
}

#[test]
fn chaos_run_is_thread_count_invariant_and_matches_golden() {
    let (samples, report) = thread_invariant("chaos run", |spec| {
        let (outcomes, fleet) = run_chaos(&spec);
        let samples: String = (outcomes.iter())
            .map(|(label, id, outcome)| match outcome {
                Ok(resp) => format!(
                    "{label} {id:?} ok samples: {:?}\n",
                    resp.store.final_samples()
                ),
                Err(e) => format!("{label} {id:?} err: {e}\n"),
            })
            .collect();
        (samples, fleet.report().digest())
    });
    check_golden("chaos_outcomes", &samples);
    check_golden("chaos_fleet_report", &report);
}

/// One query of the sharded chaos script: its wave, the query and its
/// outcome.
type ShardOutcome = (&'static str, SessionQuery, Result<SampleStore, ServeError>);

/// The scripted sharded chaos run: a three-shard pool loses one shard
/// mid-walk while queries keep flowing. Returns each query's outcome and
/// the pool.
fn run_shard_chaos(spec: &GpuSpec) -> (Vec<ShardOutcome>, ShardedPool) {
    let (graph, _) = ppi_workload(16);
    let mut pool = ShardedPool::new(
        spec.clone(),
        graph.clone(),
        app(),
        ShardPoolConfig {
            num_shards: 3,
            ..ShardPoolConfig::default()
        },
    )
    .unwrap();

    let mut outcomes = Vec::new();
    let mut next_seed = 500u64;
    let mut wave = |pool: &mut ShardedPool, n: usize, label: &'static str| {
        // Each query gets its own random frontier, so home shards vary and
        // a dead shard sheds some queries while survivors keep serving.
        let queries: Vec<SessionQuery> = (0..n)
            .map(|_| {
                let init = initial_samples_random(&graph, 8, 1, next_seed).unwrap();
                let q = SessionQuery {
                    init,
                    seed: next_seed,
                };
                next_seed += 1;
                q
            })
            .collect();
        let d = pool.dispatch(&queries).unwrap();
        outcomes.extend(
            queries
                .into_iter()
                .zip(d.results)
                .map(|(q, r)| (label, q, r)),
        );
    };

    // Wave A: the healthy sharded fleet.
    wave(&mut pool, 4, "warmup");
    assert_eq!(pool.healthy_count(), 3);

    // Shard 1 drops off the bus two launches into the next wave —
    // mid-walk, so in-flight walkers die at the shard boundary.
    pool.schedule_faults(1, FaultPlan::new().lose_device_at_launch(2));

    // Wave B rides through the loss; wave C runs on the degraded fleet.
    wave(&mut pool, 6, "storm");
    wave(&mut pool, 4, "degraded");
    (outcomes, pool)
}

#[test]
fn sharded_chaos_is_thread_count_invariant_and_matches_golden() {
    let (samples, report) = thread_invariant("sharded chaos run", |spec| {
        let (outcomes, pool) = run_shard_chaos(&spec);
        let samples: String = (outcomes.iter())
            .map(|(label, q, r)| match r {
                Ok(store) => format!(
                    "{label} seed {} ok samples: {:?}\n",
                    q.seed,
                    store.final_samples()
                ),
                Err(e) => format!("{label} seed {} err: {e}\n", q.seed),
            })
            .collect();
        (samples, pool.report().digest())
    });
    check_golden("shard_chaos_outcomes", &samples);
    check_golden("shard_fleet_report", &report);
}

#[test]
fn sharded_chaos_degrades_typed_and_keeps_survivors() {
    let (outcomes, pool) = run_shard_chaos(&spec_with_threads(1));
    assert!(pool.sampler().shard_lost(1), "the scheduled loss landed");
    let mut shed = 0usize;
    for (label, q, r) in &outcomes {
        match r {
            Ok(_) => {}
            Err(ServeError::ShardLost {
                shard: 1,
                shards: 3,
            }) if *label != "warmup" => shed += 1,
            Err(e) => panic!("{label} seed {}: unexpected outcome: {e}", q.seed),
        }
    }
    let survivors = (outcomes.iter())
        .filter(|(label, _, r)| *label == "degraded" && r.is_ok())
        .count();
    assert!(survivors > 0, "survivor shards keep serving");
    assert!(shed > 0, "queries homed on the dead shard are shed typed");

    let report = pool.report();
    assert!(report.replicas[1].lost);
    assert!(
        report.walkers_lost > 0,
        "mid-walk walkers died with the shard"
    );
    assert_eq!(report.shed, shed as u64);
    assert_eq!(
        pool.healthy_count(),
        2,
        "the fleet ends degraded but serving"
    );
    assert!(report.super_steps > 0 && report.handoffs > 0);
}

#[test]
fn chaos_run_recovers_breaker_and_sheds_typed() {
    // The same script, asserted on behaviour instead of digests: every
    // successful response against the CPU oracle.
    let (graph, init) = ppi_workload(16);
    let (outcomes, fleet) = run_chaos(&spec_with_threads(1));
    let mut shed = 0usize;
    for (_, id, outcome) in &outcomes {
        match outcome {
            Ok(resp) => assert_eq!(
                digest(&resp.store),
                cpu_digest(&graph, app().as_ref(), &init, 1000 + id.0),
                "recovered request must reproduce fault-free samples"
            ),
            Err(ServeError::Overloaded { healthy, replicas }) => {
                assert!(healthy < replicas, "shed only under degradation");
                shed += 1;
            }
            Err(e) => panic!("unexpected outcome in the chaos script: {e}"),
        }
    }

    let report = fleet.report();
    assert!(report.replicas[1].lost, "replica 1 died for good");
    assert!(
        !report.replicas[0].lost && !report.replicas[2].lost,
        "the other replicas survive"
    );
    assert!(
        report.replicas[2].trips >= 1,
        "the storm tripped replica 2's breaker: {report:?}"
    );
    assert!(
        report.replicas[2].recoveries >= 1,
        "replica 2's breaker recovered through a half-open probe: {report:?}"
    );
    assert!(report.retries >= 1, "serving-level retries happened");
    assert!(shed > 0, "degraded capacity shed some of the full queue");
    assert_eq!(report.shed as usize, shed);
    assert_eq!(outcomes.len(), 26, "no request vanished");
    assert!(
        !report.degraded_intervals.is_empty(),
        "the degraded-mode window is on the record"
    );
    assert_eq!(
        fleet.pool().healthy_count(),
        2,
        "the fleet ends degraded but serving"
    );
}

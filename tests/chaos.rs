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

use nextdoor::apps::KHop;
use nextdoor::core::session::{SamplerSession, SessionQuery};
use nextdoor::core::{initial_samples_random, SamplingApp};
use nextdoor::gpu::{FaultPlan, Gpu, GpuSpec};
use nextdoor::graph::{Csr, Dataset, VertexId};
use nextdoor::serve::{
    FleetBatcher, PoolConfig, ReplicaPool, Request, ServeConfig, ServeError, ShardPoolConfig,
    ShardedPool,
};
use std::path::Path;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn workload() -> (Csr, Vec<Vec<VertexId>>) {
    let graph = Dataset::Ppi.generate(0.02, 5);
    let init = initial_samples_random(&graph, 16, 1, 11).unwrap();
    (graph, init)
}

fn app() -> Box<dyn SamplingApp + Send> {
    Box::new(KHop::new(vec![3, 2]))
}

fn spec_with_threads(threads: usize) -> GpuSpec {
    let mut spec = GpuSpec::small();
    spec.host_threads = threads;
    spec
}

/// Compares `got` against the golden digest at `tests/golden/<name>.txt`,
/// or rewrites it when `NEXTDOOR_BLESS=1`.
fn check_golden(name: &str, got: &str) {
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

/// The scripted chaos run. Returns `(outcome digest, fleet report digest)`.
///
/// Script: a healthy warm-up wave; then replica 1 is scheduled to drop off
/// the bus at its next launch and replica 2 to enter a transient-fault
/// storm; a full-queue wave rides through the failures (sheds under the
/// degraded capacity); a final wave runs on the recovered-but-degraded
/// fleet.
fn run_chaos(spec: &GpuSpec) -> (String, String) {
    let (graph, init) = workload();
    let gpus = vec![
        Gpu::new(spec.clone()),
        Gpu::new(spec.clone()),
        Gpu::new(spec.clone()),
    ];
    let pool = ReplicaPool::new(
        gpus,
        &graph,
        vec![app(), app(), app()],
        PoolConfig {
            max_retries: 6,
            backoff_base_ms: 0.05,
            breaker: nextdoor::serve::BreakerConfig {
                trip_after: 2,
                cooldown_ms: 0.5,
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

    let mut outcome_digest = String::new();
    let mut next_seed = 1000u64;
    let mut serve_wave = |fleet: &mut FleetBatcher, n: usize, label: &str| {
        for _ in 0..n {
            fleet
                .submit(Request::new(init.clone(), next_seed))
                .expect("waves stay within max_queue");
            next_seed += 1;
        }
        let served = fleet.drain();
        assert_eq!(served.len(), n, "{label}: every request got an outcome");
        for (id, outcome) in served {
            match outcome {
                Ok(resp) => outcome_digest.push_str(&format!(
                    "{label} {id:?} ok samples: {:?}\n",
                    resp.store.final_samples()
                )),
                Err(e) => outcome_digest.push_str(&format!("{label} {id:?} err: {e}\n")),
            }
        }
    };

    // Wave A: the healthy fleet.
    serve_wave(&mut fleet, 6, "warmup");
    assert_eq!(fleet.pool().healthy_count(), 3);

    // Chaos lands mid-stream, scheduled relative to each replica's live
    // launch counter: replica 1 dies outright, replica 2 storms long
    // enough to trip its breaker across several dispatches.
    fleet
        .pool_mut()
        .schedule_faults(1, FaultPlan::new().lose_device_at_launch(0));
    fleet.pool_mut().schedule_faults(
        2,
        FaultPlan {
            transient_launches: (0..110).collect(),
            ..FaultPlan::new()
        },
    );

    // Wave B: a full queue riding through the failures.
    serve_wave(&mut fleet, 12, "storm");

    // Wave C: the fleet has lost one replica for good; the stormed one
    // must have recovered through its breaker by the end of this wave.
    serve_wave(&mut fleet, 8, "recovered");

    let report = fleet.report();
    (outcome_digest, report.digest())
}

#[test]
fn chaos_run_is_thread_count_invariant_and_matches_golden() {
    let (samples, report) = run_chaos(&spec_with_threads(1));
    for t in &THREAD_COUNTS[1..] {
        let (s, r) = run_chaos(&spec_with_threads(*t));
        assert_eq!(
            samples, s,
            "chaos outcomes at {t} worker threads differ from sequential"
        );
        assert_eq!(
            report, r,
            "FleetReport at {t} worker threads differs from sequential"
        );
    }
    check_golden("chaos_outcomes", &samples);
    check_golden("chaos_fleet_report", &report);
}

/// The scripted sharded chaos run: a three-shard pool loses one shard
/// mid-walk while queries keep flowing. Returns
/// `(outcome digest, fleet report digest)`.
fn run_shard_chaos(spec: &GpuSpec) -> (String, String) {
    let (graph, _) = workload();
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

    let mut outcome_digest = String::new();
    let mut next_seed = 500u64;
    let mut wave = |pool: &mut ShardedPool, n: usize, label: &str| {
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
        for (q, r) in queries.iter().zip(&d.results) {
            match r {
                Ok(store) => outcome_digest.push_str(&format!(
                    "{label} seed {} ok samples: {:?}\n",
                    q.seed,
                    store.final_samples()
                )),
                Err(e) => outcome_digest.push_str(&format!("{label} seed {} err: {e}\n", q.seed)),
            }
        }
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

    (outcome_digest, pool.report().digest())
}

#[test]
fn sharded_chaos_is_thread_count_invariant_and_matches_golden() {
    let (samples, report) = run_shard_chaos(&spec_with_threads(1));
    for t in &THREAD_COUNTS[1..] {
        let (s, r) = run_shard_chaos(&spec_with_threads(*t));
        assert_eq!(
            samples, s,
            "sharded chaos outcomes at {t} worker threads differ from sequential"
        );
        assert_eq!(
            report, r,
            "sharded FleetReport at {t} worker threads differs from sequential"
        );
    }
    check_golden("shard_chaos_outcomes", &samples);
    check_golden("shard_fleet_report", &report);
}

#[test]
fn sharded_chaos_degrades_typed_and_keeps_survivors() {
    let spec = spec_with_threads(1);
    let (graph, _) = workload();
    let mut pool = ShardedPool::new(
        spec,
        graph.clone(),
        app(),
        ShardPoolConfig {
            num_shards: 3,
            ..ShardPoolConfig::default()
        },
    )
    .unwrap();

    let queries_at = |seed0: u64, n: usize| -> Vec<SessionQuery> {
        (0..n as u64)
            .map(|i| SessionQuery {
                init: initial_samples_random(&graph, 8, 1, seed0 + i).unwrap(),
                seed: seed0 + i,
            })
            .collect()
    };

    let warm = pool.dispatch(&queries_at(500, 4)).unwrap();
    assert!(
        warm.results.iter().all(Result::is_ok),
        "healthy fleet serves"
    );
    pool.schedule_faults(1, FaultPlan::new().lose_device_at_launch(2));
    pool.dispatch(&queries_at(600, 6)).unwrap();
    assert!(pool.sampler().shard_lost(1), "the scheduled loss landed");

    let after = pool.dispatch(&queries_at(700, 8)).unwrap();
    let mut served = 0usize;
    let mut shed = 0usize;
    for r in &after.results {
        match r {
            Ok(_) => served += 1,
            Err(ServeError::ShardLost { shard, shards }) => {
                assert_eq!((*shard, *shards), (1, 3));
                shed += 1;
            }
            Err(e) => panic!("unexpected outcome on the degraded fleet: {e}"),
        }
    }
    assert!(served > 0, "survivor shards keep serving");
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
    let (graph, init) = workload();
    let spec = spec_with_threads(1);

    // Re-run the same script but assert on behaviour instead of digests,
    // and check every successful response against the fault-free oracle.
    let gpus = vec![
        Gpu::new(spec.clone()),
        Gpu::new(spec.clone()),
        Gpu::new(spec.clone()),
    ];
    let pool = ReplicaPool::new(
        gpus,
        &graph,
        vec![app(), app(), app()],
        PoolConfig {
            max_retries: 6,
            backoff_base_ms: 0.05,
            breaker: nextdoor::serve::BreakerConfig {
                trip_after: 2,
                cooldown_ms: 0.5,
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
    let mut oracle = SamplerSession::new(spec, graph.clone(), app()).unwrap();

    let mut next_seed = 1000u64;
    let mut shed = 0usize;
    let mut completed = 0usize;
    let mut serve_wave = |fleet: &mut FleetBatcher, n: usize| {
        let mut seed_of = std::collections::HashMap::new();
        for _ in 0..n {
            let id = fleet.submit(Request::new(init.clone(), next_seed)).unwrap();
            seed_of.insert(id, next_seed);
            next_seed += 1;
        }
        for (id, outcome) in fleet.drain() {
            match outcome {
                Ok(resp) => {
                    let clean = oracle.query(&init, seed_of[&id]).unwrap();
                    assert_eq!(
                        resp.store.final_samples(),
                        clean.store.final_samples(),
                        "recovered request must reproduce fault-free samples"
                    );
                    completed += 1;
                }
                Err(ServeError::Overloaded { healthy, replicas }) => {
                    assert!(healthy < replicas, "shed only under degradation");
                    shed += 1;
                }
                Err(e) => panic!("unexpected outcome in the chaos script: {e}"),
            }
        }
    };

    serve_wave(&mut fleet, 6);
    fleet
        .pool_mut()
        .schedule_faults(1, FaultPlan::new().lose_device_at_launch(0));
    fleet.pool_mut().schedule_faults(
        2,
        FaultPlan {
            transient_launches: (0..110).collect(),
            ..FaultPlan::new()
        },
    );
    serve_wave(&mut fleet, 12);
    serve_wave(&mut fleet, 8);

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
    assert_eq!(completed + shed, 26, "no request vanished");
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

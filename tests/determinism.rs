//! Thread-count determinism: the simulator's host worker pool must be
//! invisible in every observable output. Each engine is run at worker
//! counts {1, 2, 4, 8}; the samples, the nvprof-style counters, the merged
//! profile ring and the fault report must be bit-identical across all of
//! them *and* identical to a checked-in golden digest, so a regression in
//! the canonical-order reduction cannot hide behind "it's still internally
//! consistent".
//!
//! Regenerate the golden files with `NEXTDOOR_BLESS=1 cargo test --test
//! determinism` after an intentional change to the cost model or engines.

use nextdoor::apps::KHop;
use nextdoor::core::multi_gpu::run_nextdoor_multi_gpu;
use nextdoor::core::{
    initial_samples_random, run_cpu, run_nextdoor, run_sample_parallel, run_vanilla_tp, RunResult,
};
use nextdoor::gpu::{FaultPlan, Gpu, GpuSpec};
use nextdoor::graph::{Csr, Dataset, VertexId};
use std::path::Path;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn workload() -> (Csr, Vec<Vec<VertexId>>, KHop) {
    let graph = Dataset::Ppi.generate(0.02, 5);
    let init = initial_samples_random(&graph, 48, 1, 11).unwrap();
    (graph, init, KHop::new(vec![3, 2]))
}

fn spec_with_threads(threads: usize) -> GpuSpec {
    let mut spec = GpuSpec::small();
    spec.host_threads = threads;
    spec
}

/// Everything observable from a single-device run, in Rust's `{:?}` format
/// (round-trip-exact for `f64`, so simulated cycle counts are compared
/// bit-for-bit).
fn digest(res: &RunResult, gpu: &Gpu) -> String {
    format!(
        "samples: {:?}\nedges: {:?}\ncounters: {:?}\nreport: {:?}\nsim_ms: {:?}\nprofile: {:?}\n",
        res.store.final_samples(),
        (0..res.store.num_samples())
            .map(|s| res.store.edges_of(s).to_vec())
            .collect::<Vec<_>>(),
        res.stats.counters,
        res.report,
        res.stats.total_ms,
        gpu.profile(),
    )
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

/// Runs `f` once per worker count, asserts all digests are bit-identical,
/// and checks the shared digest against the golden file.
fn assert_thread_invariant(name: &str, f: impl Fn(GpuSpec) -> String) {
    let baseline = f(spec_with_threads(1));
    for t in &THREAD_COUNTS[1..] {
        let d = f(spec_with_threads(*t));
        assert_eq!(
            baseline, d,
            "{name}: output at {t} worker threads differs from sequential"
        );
    }
    check_golden(name, &baseline);
}

#[test]
fn nextdoor_engine_is_thread_count_invariant() {
    let (graph, init, app) = workload();
    assert_thread_invariant("nextdoor", |spec| {
        let mut gpu = Gpu::new(spec);
        let res = run_nextdoor(&mut gpu, &graph, &app, &init, 7).unwrap();
        digest(&res, &gpu)
    });
}

#[test]
fn sample_parallel_engine_is_thread_count_invariant() {
    let (graph, init, app) = workload();
    assert_thread_invariant("sample_parallel", |spec| {
        let mut gpu = Gpu::new(spec);
        let res = run_sample_parallel(&mut gpu, &graph, &app, &init, 7).unwrap();
        digest(&res, &gpu)
    });
}

#[test]
fn vanilla_tp_engine_is_thread_count_invariant() {
    let (graph, init, app) = workload();
    assert_thread_invariant("vanilla_tp", |spec| {
        let mut gpu = Gpu::new(spec);
        let res = run_vanilla_tp(&mut gpu, &graph, &app, &init, 7).unwrap();
        digest(&res, &gpu)
    });
}

#[test]
fn fault_retry_run_is_thread_count_invariant() {
    // A transient kernel fault forces a step retry; the retry bookkeeping
    // and the re-executed launches must reduce identically at any worker
    // count.
    let (graph, init, app) = workload();
    assert_thread_invariant("nextdoor_fault_retry", |spec| {
        let mut gpu = Gpu::new(spec);
        gpu.inject_faults(FaultPlan::new().transient_at_launch(3));
        let res = run_nextdoor(&mut gpu, &graph, &app, &init, 7).unwrap();
        assert!(res.report.step_retries >= 1, "fault plan did not fire");
        digest(&res, &gpu)
    });
}

#[test]
fn multi_gpu_failover_is_thread_count_invariant() {
    // Three devices, one of which drops off the bus mid-shard: the
    // device-concurrent first wave plus the in-order failover must match
    // the fully sequential host loop bit-for-bit.
    let (graph, init, app) = workload();
    let plans = vec![
        FaultPlan::default(),
        FaultPlan::new().lose_device_at_launch(2),
        FaultPlan::default(),
    ];
    assert_thread_invariant("multi_gpu_failover", |spec| {
        let res = run_nextdoor_multi_gpu(&spec, 3, &graph, &app, &init, 7, &plans).unwrap();
        assert_eq!(res.report.devices_lost, 1);
        assert_eq!(res.report.failovers, 1);
        let samples: Vec<_> = res
            .per_gpu
            .iter()
            .map(|r| r.store.final_samples())
            .collect();
        format!(
            "samples: {samples:?}\nreport: {:?}\nmakespan_ms: {:?}\nprofiles: {:?}\n",
            res.report, res.makespan_ms, res.device_profiles,
        )
    });
}

#[test]
fn fused_session_serving_is_thread_count_invariant() {
    // The serving path — a warm session answering a fused micro-batch —
    // layers new machinery (fused RNG keying, store slicing, simulated-
    // clock latency accounting) over the engines; all of it must reduce
    // identically at any worker count, down to the latency split.
    let (graph, init, _) = workload();
    assert_thread_invariant("serve_fused", |spec| {
        let session = nextdoor::core::SamplerSession::new(
            spec,
            graph.clone(),
            Box::new(KHop::new(vec![3, 2])),
        )
        .unwrap();
        let mut batcher =
            nextdoor::serve::MicroBatcher::new(session, nextdoor::serve::ServeConfig::default())
                .unwrap();
        for (r, chunk) in init.chunks(16).enumerate() {
            batcher
                .submit(nextdoor::serve::Request::new(chunk.to_vec(), 7 + r as u64))
                .unwrap();
        }
        let served = batcher.drain();
        let mut out = String::new();
        for (id, outcome) in &served {
            let resp = outcome.as_ref().unwrap();
            out.push_str(&format!(
                "{id:?} samples: {:?}\nlatency: {:?}\n",
                resp.store.final_samples(),
                resp.latency,
            ));
        }
        out.push_str(&format!(
            "counters: {:?}\n",
            batcher.session().gpu().counters()
        ));
        out
    });
}

#[test]
fn mixed_width_fused_serving_is_thread_count_invariant() {
    // The width-class scheduler splits a heterogeneous drain into one
    // fused launch sequence per root-set width. The grouping, the
    // per-class RNG keying and the cross-class latency accounting must
    // all reduce identically at any worker count.
    let (graph, init, _) = workload();
    assert_thread_invariant("serve_mixed_width", |spec| {
        let session = nextdoor::core::SamplerSession::new(
            spec,
            graph.clone(),
            Box::new(KHop::new(vec![3, 2])),
        )
        .unwrap();
        let mut batcher =
            nextdoor::serve::MicroBatcher::new(session, nextdoor::serve::ServeConfig::default())
                .unwrap();
        // Widths alternate 1, 2, 1, 3 across requests built from the same
        // root pool, so a single drain mixes three width classes.
        let widths = [1usize, 2, 1, 3];
        for (r, &w) in widths.iter().enumerate() {
            let roots: Vec<Vec<VertexId>> = init[r * 8..(r + 1) * 8]
                .iter()
                .map(|s| vec![s[0]; w])
                .collect();
            batcher
                .submit(nextdoor::serve::Request::new(roots, 70 + r as u64))
                .unwrap();
        }
        let served = batcher.drain();
        let mut out = String::new();
        for (id, outcome) in &served {
            let resp = outcome.as_ref().unwrap();
            out.push_str(&format!(
                "{id:?} samples: {:?}\nlatency: {:?}\n",
                resp.store.final_samples(),
                resp.latency,
            ));
        }
        out.push_str(&format!(
            "launches: {} counters: {:?}\n",
            batcher.launches(),
            batcher.session().gpu().counters()
        ));
        out
    });
}

#[test]
fn tuned_session_is_thread_count_invariant() {
    // The autotuner derives its plan from completed profiles at query
    // boundaries and the hot-transit cache promotes from deterministic
    // frequency counts, so a tuned session's whole observable surface —
    // samples, the derived plan, replan count and cache counters — must be
    // bit-identical at any worker count. Samples are additionally checked
    // against an untuned session inline (they share a golden invariant,
    // not a golden file: tuning may only move cost-side observables).
    let (graph, init, _) = workload();
    assert_thread_invariant("tuned_session", |spec| {
        let mk = || {
            nextdoor::core::SamplerSession::new(
                spec.clone(),
                graph.clone(),
                Box::new(KHop::new(vec![3, 2])),
            )
            .unwrap()
        };
        let mut tuned = mk();
        tuned.enable_autotune(nextdoor::core::tuning::TunerConfig { warmup_queries: 1 });
        tuned.enable_hot_cache(nextdoor::core::tuning::CacheConfig { min_hits: 1 });
        let mut plain = mk();
        let mut out = String::new();
        for q in 0..4u64 {
            let res = tuned.query(&init, 7 + q).unwrap();
            let want = plain.query(&init, 7 + q).unwrap();
            assert_eq!(
                res.store.final_samples(),
                want.store.final_samples(),
                "tuning changed samples on query {q}"
            );
            out.push_str(&format!("q{q} samples: {:?}\n", res.store.final_samples()));
        }
        out.push_str(&format!(
            "plan: {:?}\nplan_updates: {}\ncache: {:?}\ncounters: {:?}\n",
            tuned.tuning_plan(),
            tuned.plan_updates(),
            tuned.cache_stats().unwrap(),
            tuned.gpu().counters(),
        ));
        out
    });
}

#[test]
fn serve_observability_is_thread_count_invariant() {
    // The observability layer — lifecycle spans and the metrics registry —
    // is recorded on the scheduler's own thread in simulated-clock order,
    // so its digests must be bit-identical at any worker count, through a
    // fleet run that exercises retries, backoff and breaker cool-downs.
    let (graph, init, _) = workload();
    assert_thread_invariant("serve_observability", |spec| {
        let mk_gpu = |plan: Option<FaultPlan>| {
            let mut gpu = Gpu::new(spec.clone());
            if let Some(p) = plan {
                gpu.inject_faults(p);
            }
            gpu
        };
        let pool = nextdoor::serve::ReplicaPool::new(
            vec![
                mk_gpu(None),
                mk_gpu(Some(FaultPlan {
                    transient_launches: (0..110).collect(),
                    ..FaultPlan::new()
                })),
            ],
            &graph,
            vec![
                Box::new(KHop::new(vec![3, 2])),
                Box::new(KHop::new(vec![3, 2])),
            ],
            nextdoor::serve::PoolConfig {
                max_retries: 6,
                backoff_base_ms: 0.001,
                breaker: nextdoor::serve::BreakerConfig {
                    trip_after: 2,
                    cooldown_ms: 0.01,
                },
            },
        )
        .unwrap();
        let mut fleet = nextdoor::serve::FleetBatcher::new(
            pool,
            nextdoor::serve::ServeConfig {
                max_batch: 4,
                max_queue: 8,
                default_deadline_ms: None,
            },
        )
        .unwrap();
        for (w, chunk) in init.chunks(8).enumerate() {
            for (i, s) in chunk.iter().enumerate() {
                fleet
                    .submit(nextdoor::serve::Request::new(
                        vec![s.clone()],
                        (w * 8 + i) as u64,
                    ))
                    .unwrap();
            }
            fleet.drain();
        }
        assert!(fleet.report().retries > 0, "the storm must force retries");
        format!(
            "{}---\n{}",
            fleet.metrics().digest(),
            fleet.trace().digest()
        )
    });
}

#[test]
fn cpu_oracle_matches_gpu_samples() {
    // The CPU reference has no simulator state; pin down that its samples
    // (the oracle every engine is compared against) are golden-stable too.
    let (graph, init, app) = workload();
    let res = run_cpu(&graph, &app, &init, 7).unwrap();
    let got = format!("samples: {:?}\n", res.store.final_samples());
    check_golden("cpu", &got);
}

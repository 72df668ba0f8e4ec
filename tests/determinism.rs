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

mod common;

use common::{check_golden, cpu_digest, digest, ppi_workload, thread_invariant};
use nextdoor::apps::KHop;
use nextdoor::core::multi_gpu::run_nextdoor_multi_gpu;
use nextdoor::core::tuning::{CacheConfig, TunerConfig};
use nextdoor::core::{
    run_cpu, run_nextdoor, run_sample_parallel, run_vanilla_tp, RunResult, SamplerSession,
};
use nextdoor::gpu::{FaultPlan, Gpu, GpuSpec};
use nextdoor::graph::{Csr, VertexId};
use nextdoor::serve::{MicroBatcher, Request, ServeConfig};

fn workload() -> (Csr, Vec<Vec<VertexId>>, KHop) {
    let (graph, init) = ppi_workload(48);
    (graph, init, KHop::new(vec![3, 2]))
}

/// Everything observable from a single-device run, in Rust's `{:?}` format
/// (round-trip-exact for `f64`, so simulated cycle counts are compared
/// bit-for-bit).
fn run_digest(res: &RunResult, gpu: &Gpu) -> String {
    format!(
        "{}counters: {:?}\nreport: {:?}\nsim_ms: {:?}\nprofile: {:?}\n",
        digest(&res.store),
        res.stats.counters,
        res.report,
        res.stats.total_ms,
        gpu.profile(),
    )
}

/// Runs `f` once per worker count, asserts all digests are bit-identical,
/// and checks the shared digest against the golden file.
fn assert_thread_invariant(name: &str, f: impl Fn(GpuSpec) -> String) {
    check_golden(name, &thread_invariant(name, f));
}

#[test]
fn nextdoor_engine_is_thread_count_invariant() {
    let (graph, init, app) = workload();
    assert_thread_invariant("nextdoor", |spec| {
        let mut gpu = Gpu::new(spec);
        let res = run_nextdoor(&mut gpu, &graph, &app, &init, 7).unwrap();
        run_digest(&res, &gpu)
    });
}

#[test]
fn sample_parallel_engine_is_thread_count_invariant() {
    let (graph, init, app) = workload();
    assert_thread_invariant("sample_parallel", |spec| {
        let mut gpu = Gpu::new(spec);
        let res = run_sample_parallel(&mut gpu, &graph, &app, &init, 7).unwrap();
        run_digest(&res, &gpu)
    });
}

#[test]
fn vanilla_tp_engine_is_thread_count_invariant() {
    let (graph, init, app) = workload();
    assert_thread_invariant("vanilla_tp", |spec| {
        let mut gpu = Gpu::new(spec);
        let res = run_vanilla_tp(&mut gpu, &graph, &app, &init, 7).unwrap();
        run_digest(&res, &gpu)
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
        run_digest(&res, &gpu)
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

/// Serves `requests` in one drain of a fresh k-hop batcher on `spec`:
/// each response's samples and latency split, and the batcher.
fn drain_digest(spec: GpuSpec, graph: &Csr, requests: Vec<Request>) -> (String, MicroBatcher) {
    let session =
        SamplerSession::new(spec, graph.clone(), Box::new(KHop::new(vec![3, 2]))).unwrap();
    let mut batcher = MicroBatcher::new(session, ServeConfig::default()).unwrap();
    for req in requests {
        batcher.submit(req).unwrap();
    }
    let out = (batcher.drain().iter())
        .map(|(id, outcome)| {
            let resp = outcome.as_ref().unwrap();
            let samples = resp.store.final_samples();
            format!("{id:?} samples: {samples:?}\nlatency: {:?}\n", resp.latency)
        })
        .collect();
    (out, batcher)
}

#[test]
fn fused_session_serving_is_thread_count_invariant() {
    // The serving path — a warm session answering a fused micro-batch —
    // layers new machinery (fused RNG keying, store slicing, simulated-
    // clock latency accounting) over the engines; all of it must reduce
    // identically at any worker count, down to the latency split.
    let (graph, init, _) = workload();
    assert_thread_invariant("serve_fused", |spec| {
        let requests = (init.chunks(16).enumerate())
            .map(|(r, chunk)| Request::new(chunk.to_vec(), 7 + r as u64))
            .collect();
        let (out, batcher) = drain_digest(spec, &graph, requests);
        format!("{out}counters: {:?}\n", batcher.session().gpu().counters())
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
        // Widths alternate 1, 2, 1, 3 across requests built from the same
        // root pool, so a single drain mixes three width classes.
        let requests = ([1usize, 2, 1, 3].iter().enumerate())
            .map(|(r, &w)| {
                let roots = init[r * 8..(r + 1) * 8].iter().map(|s| vec![s[0]; w]);
                Request::new(roots.collect(), 70 + r as u64)
            })
            .collect();
        let (out, batcher) = drain_digest(spec, &graph, requests);
        let counters = batcher.session().gpu().counters();
        format!(
            "{out}launches: {} counters: {counters:?}\n",
            batcher.launches()
        )
    });
}

#[test]
fn tuned_session_is_thread_count_invariant() {
    // The autotuner derives its plan from completed profiles at query
    // boundaries and the hot-transit cache promotes from deterministic
    // frequency counts, so a tuned session's whole observable surface —
    // samples, the derived plan, replan count and cache counters — must be
    // bit-identical at any worker count. Samples are additionally checked
    // against the CPU oracle inline (tuning may only move cost-side
    // observables).
    let (graph, init, app) = workload();
    assert_thread_invariant("tuned_session", |spec| {
        let mut tuned = SamplerSession::new(spec, graph.clone(), Box::new(app.clone())).unwrap();
        tuned.enable_autotune(TunerConfig { warmup_queries: 1 });
        tuned.enable_hot_cache(CacheConfig { min_hits: 1 });
        let mut out = String::new();
        for q in 0..4u64 {
            let res = tuned.query(&init, 7 + q).unwrap();
            let want = cpu_digest(&graph, &app, &init, 7 + q);
            assert_eq!(
                digest(&res.store),
                want,
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
            || Box::new(KHop::new(vec![3, 2])),
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
            ServeConfig {
                max_batch: 4,
                max_queue: 8,
                default_deadline_ms: None,
            },
        )
        .unwrap();
        for (w, chunk) in init.chunks(8).enumerate() {
            for (i, s) in chunk.iter().enumerate() {
                fleet
                    .submit(Request::new(vec![s.clone()], (w * 8 + i) as u64))
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

//! Open-loop load generator for the serving layer: sustained overload,
//! mixed widths, deadlines and priorities.
//!
//! Simulates hundreds of clients issuing sampling requests with Poisson
//! arrivals at an offered rate deliberately above the device's service
//! rate, against a single-replica [`FleetBatcher`] (so the retry/backoff
//! path is part of the run: a transient-fault storm lands a third of the
//! way through the stream). Requests mix three root-set widths, three
//! [`Priority`] levels and an SLO deadline calibrated from a measured
//! clean batch — so every scheduling path (width-class formation, EDF,
//! priority tie-breaks, admission backpressure, pre-dispatch expiry
//! shedding, retry with exponential backoff) carries real traffic.
//!
//! Under `--profile` the run exports its observability artifacts — the
//! chrome://tracing fleet timeline (`results/fleet_load.trace.json`, with
//! the shed/expired requests, the storm's backoff spans and an explicit
//! multi-width fused dispatch all visible and linked to their kernel
//! records) and the deterministic metrics snapshot
//! (`results/metrics_load.json`, including per-priority SLO attainment).
//! The trace and metrics digests are folded into
//! `results/load_digest.txt`, so CI's cross-thread-count comparison also
//! pins the whole observability layer bit-for-bit.
//!
//! Everything scheduling-relevant runs on the simulated clock with
//! counter-based RNG, so the run is deterministic: a digest of every
//! request's outcome is written to `results/load_digest.txt` for CI to
//! compare bit-for-bit across host thread counts. Wall-clock latencies are
//! measured too but stay out of the digest.
//!
//! A second experiment isolates the head-of-line-blocking fix: the same
//! mixed-width request set is served (a) interleaved under the width-class
//! scheduler, (b) width-sorted (the old scheduler's best case), and (c)
//! interleaved under an emulation of the old FIFO-prefix rule (drain at
//! every width change). The interleaved run must match the sorted run and
//! beat the FIFO-prefix emulation — the fix makes arrival order
//! irrelevant to fusion.
//!
//! Results are spliced into the `"load"` section of `BENCH_serve.json`
//! (run `serve_bench` first to get the healthy serving regimes in the same
//! file).

use nextdoor_bench::{write_section, BenchConfig};
use nextdoor_core::api::SamplingApp;
use nextdoor_core::session::{SamplerSession, SessionQuery};
use nextdoor_gpu::{FaultPlan, Gpu, GpuSpec};
use nextdoor_graph::{Csr, Dataset, VertexId};
use nextdoor_serve::{
    BreakerConfig, FleetBatcher, MicroBatcher, PoolConfig, Priority, ReplicaPool, Request,
    ServeConfig, ServeError, SpanKind,
};
use std::time::Instant;

fn app() -> Box<dyn SamplingApp + Send> {
    Box::new(nextdoor_apps::KHop::new(vec![3, 2]))
}

/// Counter-based deterministic RNG (splitmix64) — the generator must not
/// depend on host state, so the arrival script is identical everywhere.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform in (0, 1), never exactly zero so `ln` stays finite.
fn unit(r: u64) -> f64 {
    ((r >> 11) as f64 + 0.5) / (1u64 << 53) as f64
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    v
}

/// One scripted arrival: which client sent what, when (simulated ms).
struct Arrival {
    at_ms: f64,
    client: usize,
    init: Vec<Vec<VertexId>>,
    seed: u64,
    priority: Priority,
}

const WIDTHS: [usize; 3] = [1, 2, 4];

fn priority_of(client: usize) -> Priority {
    match client % 7 {
        0 => Priority::High,
        1 | 2 => Priority::Low,
        _ => Priority::Normal,
    }
}

/// The deterministic arrival script: `n` Poisson arrivals at rate
/// `lambda_per_ms`, spread over `clients` simulated clients with
/// client-keyed widths and priorities.
fn arrivals(
    g: &Csr,
    n: usize,
    clients: usize,
    samples_per_request: usize,
    lambda_per_ms: f64,
    seed: u64,
) -> Vec<Arrival> {
    let mut rng = seed ^ 0x10AD_10AD_10AD_10AD;
    let mut t = 0.0f64;
    (0..n)
        .map(|i| {
            t += -unit(splitmix64(&mut rng)).ln() / lambda_per_ms;
            let client = (splitmix64(&mut rng) as usize) % clients;
            let width = WIDTHS[client % WIDTHS.len()];
            let init = nextdoor_core::initial_samples_random(
                g,
                samples_per_request,
                width,
                seed ^ (0x1000 + i as u64),
            )
            .expect("bench graph is non-empty");
            Arrival {
                at_ms: t,
                client,
                init,
                seed: seed + i as u64,
                priority: priority_of(client),
            }
        })
        .collect()
}

/// Simulated service time of one clean max-batch fused launch — the unit
/// every SLO and rate knob is expressed in, measured rather than
/// hard-coded because the cost model varies with the GPU spec.
fn calibrate_batch_ms(spec: &GpuSpec, g: &Csr, arrivals: &[Arrival], cfg: &ServeConfig) -> f64 {
    let session = SamplerSession::new(spec.clone(), g.clone(), app())
        .expect("bench graph fits on the device");
    let mut probe = MicroBatcher::new(session, *cfg).expect("bench serve config is valid");
    for a in arrivals.iter().take(cfg.max_batch) {
        // Same width so the probe is exactly one fused launch.
        probe
            .submit(Request::new(arrivals[0].init.clone(), a.seed))
            .expect("calibration batch fits the queue");
    }
    let served = probe.drain();
    assert!(served.iter().all(|(_, r)| r.is_ok()));
    probe.session().sim_ms()
}

struct LoadOutcome {
    admitted: usize,
    queue_rejected: usize,
    completed: usize,
    deadline_missed: usize,
    launches: u64,
    run_sim_ms: f64,
    digest: String,
    wall_ms: Vec<f64>,
    queued_ms: Vec<f64>,
    service_ms: Vec<f64>,
    total_ms: Vec<f64>,
    batch_sizes: Vec<usize>,
}

/// FNV-1a over a string — pins a multi-KB digest as one line in
/// `results/load_digest.txt`.
fn fnv64(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// FNV-1a over a request's final samples — enough to pin bit-identity in
/// the digest without dumping every vertex.
fn samples_hash(store: &nextdoor_core::SampleStore) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for s in store.final_samples() {
        for v in s {
            h = (h ^ v as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// The single-replica fleet the open loop runs against. A pool rather
/// than a bare [`MicroBatcher`] so the load run also exercises the
/// retry/backoff path: a transient-fault storm lands mid-stream (see
/// [`run_open_loop`]) and the generous retry budget rides it out. The
/// breaker threshold is set beyond the storm so the lone replica never
/// trips into cool-down (which, at one replica, would degrade-shed the
/// whole queue and drown the overload signal this bench is about).
fn load_fleet(spec: &GpuSpec, g: &Csr, cfg: &ServeConfig, batch_ms: f64) -> FleetBatcher {
    let pool = ReplicaPool::new(
        vec![Gpu::new(spec.clone())],
        g,
        vec![app()],
        PoolConfig {
            max_retries: 24,
            backoff_base_ms: batch_ms / 16.0,
            breaker: BreakerConfig {
                trip_after: 10_000,
                cooldown_ms: batch_ms,
            },
        },
    )
    .expect("bench graph fits on the device");
    FleetBatcher::new(pool, *cfg).expect("bench serve config is valid")
}

/// Drives the open-loop script against the single-replica fleet. Arrivals
/// are admitted as their simulated arrival time passes the fleet clock (at
/// least one per round so the clock always advances); each round then
/// drains, which serves the backlog and moves the clock. Overload
/// therefore shows up exactly as in a real open-loop system: the queue
/// fills while the device is busy, late arrivals bounce off `QueueFull`,
/// and queued requests outlive their deadline and are shed before
/// dispatch. A third of the way in, a transient-fault storm hits the
/// replica, so the tail of the run also pays retry/backoff.
fn run_open_loop(
    spec: &GpuSpec,
    g: &Csr,
    script: &[Arrival],
    cfg: &ServeConfig,
    batch_ms: f64,
) -> (LoadOutcome, FleetBatcher) {
    let mut b = load_fleet(spec, g, cfg, batch_ms);
    let storm_at = script.len() / 3;
    let mut out = LoadOutcome {
        admitted: 0,
        queue_rejected: 0,
        completed: 0,
        deadline_missed: 0,
        launches: 0,
        run_sim_ms: 0.0,
        digest: String::new(),
        wall_ms: Vec::new(),
        queued_ms: Vec::new(),
        service_ms: Vec::new(),
        total_ms: Vec::new(),
        batch_sizes: Vec::new(),
    };
    let mut meta = std::collections::HashMap::new();
    let mut submitted_wall = std::collections::HashMap::new();
    let mut next = 0usize;
    while next < script.len() || b.pending_len() > 0 {
        let now = b.pool().fleet_ms();
        let mut this_round = 0usize;
        while next < script.len() && (script[next].at_ms <= now || this_round == 0) {
            if next == storm_at {
                // Relative to the replica's live launch counter: the next
                // 60 launches fault transiently, so dispatches fail and
                // the pool's retry/backoff machinery carries the stream.
                b.pool_mut().schedule_faults(
                    0,
                    FaultPlan {
                        transient_launches: (0..60).collect(),
                        ..FaultPlan::new()
                    },
                );
            }
            let a = &script[next];
            let req = Request::new(a.init.clone(), a.seed).with_priority(a.priority);
            match b.submit(req) {
                Ok(id) => {
                    out.admitted += 1;
                    meta.insert(id, next);
                    submitted_wall.insert(id, Instant::now());
                }
                Err(ServeError::QueueFull { .. }) => {
                    out.queue_rejected += 1;
                    out.digest
                        .push_str(&format!("arrival {next} client {} queue-full\n", a.client));
                }
                Err(e) => panic!("unexpected admission outcome: {e}"),
            }
            next += 1;
            this_round += 1;
        }
        for (id, outcome) in b.drain() {
            let i = meta[&id];
            let wall = submitted_wall[&id].elapsed().as_secs_f64() * 1e3;
            out.wall_ms.push(wall);
            match outcome {
                Ok(resp) => {
                    out.completed += 1;
                    out.queued_ms.push(resp.latency.queued_ms);
                    out.service_ms.push(resp.latency.service_ms);
                    out.total_ms.push(resp.latency.total_ms);
                    out.batch_sizes.push(resp.latency.batch_size);
                    out.digest.push_str(&format!(
                        "arrival {i} client {} ok hash {:016x} queued {:?} service {:?}\n",
                        script[i].client,
                        samples_hash(&resp.store),
                        resp.latency.queued_ms,
                        resp.latency.service_ms,
                    ));
                }
                Err(ServeError::DeadlineExceeded {
                    deadline_ms,
                    observed_ms,
                }) => {
                    out.deadline_missed += 1;
                    out.digest.push_str(&format!(
                        "arrival {i} client {} deadline-miss {deadline_ms:?} observed \
                         {observed_ms:?}\n",
                        script[i].client,
                    ));
                }
                Err(e) => panic!("unexpected serving outcome: {e}"),
            }
        }
    }
    out.launches = b.pool().session(0).gpu().launches_issued();
    out.run_sim_ms = b.pool().fleet_ms();
    (out, b)
}

/// Serves `reqs` in one drain on a fresh session; returns
/// `(sim_ms, launches)`.
fn closed_fused(spec: &GpuSpec, g: &Csr, reqs: &[(Vec<Vec<VertexId>>, u64)]) -> (f64, u64) {
    let session = SamplerSession::new(spec.clone(), g.clone(), app())
        .expect("bench graph fits on the device");
    let mut b = MicroBatcher::new(
        session,
        ServeConfig {
            max_queue: reqs.len().max(1),
            ..ServeConfig::default()
        },
    )
    .expect("bench serve config is valid");
    for (init, seed) in reqs {
        b.submit(Request::new(init.clone(), *seed))
            .expect("closed-loop batch fits the queue");
    }
    assert!(b.drain().iter().all(|(_, r)| r.is_ok()));
    (b.session().sim_ms(), b.launches())
}

/// The old FIFO-prefix rule, emulated: drain at every width change, so
/// each maximal equal-width run becomes its own set of launches.
fn closed_fifo_prefix(spec: &GpuSpec, g: &Csr, reqs: &[(Vec<Vec<VertexId>>, u64)]) -> (f64, u64) {
    let session = SamplerSession::new(spec.clone(), g.clone(), app())
        .expect("bench graph fits on the device");
    let mut b = MicroBatcher::new(
        session,
        ServeConfig {
            max_queue: reqs.len().max(1),
            ..ServeConfig::default()
        },
    )
    .expect("bench serve config is valid");
    let mut prev_width = None;
    for (init, seed) in reqs {
        let w = init[0].len();
        if prev_width.is_some_and(|p| p != w) {
            assert!(b.drain().iter().all(|(_, r)| r.is_ok()));
        }
        prev_width = Some(w);
        b.submit(Request::new(init.clone(), *seed))
            .expect("closed-loop batch fits the queue");
    }
    assert!(b.drain().iter().all(|(_, r)| r.is_ok()));
    (b.session().sim_ms(), b.launches())
}

fn main() {
    let cfg = BenchConfig::from_args();
    let g = cfg.graph(Dataset::Ppi);
    let clients = 512usize;
    let requests = 600usize;
    let samples_per_request = (cfg.samples / 256).clamp(4, 16);
    let serve_cfg = ServeConfig {
        max_batch: 8,
        max_queue: 64,
        default_deadline_ms: None,
    };

    // Rate calibration: measure one clean fused batch, then offer load at
    // 2x the device's ideal service rate so the queue saturates, and hold
    // every request to an SLO of a few batch times.
    let probe_script = arrivals(&g, 8, clients, samples_per_request, 1.0, cfg.seed);
    let batch_ms = calibrate_batch_ms(&cfg.gpu, &g, &probe_script, &serve_cfg);
    let service_rate = serve_cfg.max_batch as f64 / batch_ms; // req per sim-ms
    let lambda = 2.0 * service_rate;
    let slo_ms = 3.0 * batch_ms;
    let serve_cfg = ServeConfig {
        default_deadline_ms: Some(slo_ms),
        ..serve_cfg
    };
    println!(
        "open-loop load: {requests} requests from {clients} clients x {samples_per_request} \
         samples, widths {WIDTHS:?}, khop[3,2], graph |V|={} |E|={}\n\
         calibrated batch {batch_ms:.4} sim-ms -> offered {:.1} req/sim-s \
         (2x service rate), SLO {slo_ms:.4} sim-ms",
        g.num_vertices(),
        g.num_edges(),
        lambda * 1e3,
    );

    let script = arrivals(&g, requests, clients, samples_per_request, lambda, cfg.seed);
    let (load, mut lb) = run_open_loop(&cfg.gpu, &g, &script, &serve_cfg, batch_ms);
    assert_eq!(
        load.completed + load.deadline_missed,
        load.admitted,
        "no admitted request vanishes"
    );
    assert_eq!(load.admitted + load.queue_rejected, requests);
    assert!(
        load.queue_rejected > 0,
        "2x overload must produce sustained QueueFull backpressure"
    );
    assert!(
        load.deadline_missed > 0,
        "queue waits under overload must blow some SLOs"
    );
    assert!(load.completed > 0, "the served fraction still completes");
    let slo_attainment = load.completed as f64 / load.admitted as f64;
    let throughput = load.completed as f64 / (load.run_sim_ms / 1e3).max(1e-12);
    let mean_batch = if load.batch_sizes.is_empty() {
        0.0
    } else {
        load.batch_sizes.iter().sum::<usize>() as f64 / load.batch_sizes.len() as f64
    };
    let wall = sorted(load.wall_ms.clone());
    let queued = sorted(load.queued_ms.clone());
    let service = sorted(load.service_ms.clone());
    let total = sorted(load.total_ms.clone());
    println!(
        "served {:.1} req/s (sim): {} completed, {} SLO misses, {} queue-rejected \
         (attainment {:.3}, mean batch {mean_batch:.2}, {} launches, {} retries)",
        throughput,
        load.completed,
        load.deadline_missed,
        load.queue_rejected,
        slo_attainment,
        load.launches,
        lb.metrics().sim.retries,
    );

    // One explicit multi-width fused dispatch: the scheduler's formation
    // rule keeps batches single-width (that is the head-of-line fix), so
    // the fleet timeline's fused multi-class dispatch — one Dispatch span
    // fanning into one ClassLaunch span per width — is driven directly
    // through the batcher to its pool.
    let mixed_queries: Vec<SessionQuery> = WIDTHS
        .iter()
        .enumerate()
        .map(|(i, &w)| SessionQuery {
            init: nextdoor_core::initial_samples_random(
                &g,
                samples_per_request,
                w,
                cfg.seed ^ (0x3000 + i as u64),
            )
            .expect("bench graph is non-empty"),
            seed: cfg.seed ^ (0x4000 + i as u64),
        })
        .collect();
    let (mixed_batch, fused) = lb
        .dispatch(&mixed_queries)
        .expect("clean post-run dispatch succeeds");
    assert_eq!(
        fused.class_marks.len(),
        WIDTHS.len(),
        "the mixed dispatch fuses one launch sequence per width class"
    );

    // The acceptance contract on the exported timeline: at least one shed
    // (expired) request, one retry (backoff span), and the multi-width
    // dispatch above, all as distinct spans.
    let trace = lb.trace();
    assert!(
        trace.count(SpanKind::Expired) >= 1,
        "overload must shed at least one expired request into the trace"
    );
    assert!(
        trace.count(SpanKind::Backoff) >= 1 && lb.metrics().sim.retries >= 1,
        "the transient storm must force at least one retry/backoff"
    );
    let mixed_widths: Vec<usize> = trace
        .spans()
        .iter()
        .filter(|s| s.kind == SpanKind::ClassLaunch && s.batch == Some(mixed_batch))
        .filter_map(|s| s.width)
        .collect();
    assert_eq!(
        mixed_widths.len(),
        WIDTHS.len(),
        "the mixed dispatch must appear as one ClassLaunch span per width"
    );

    let metrics_digest = lb.metrics().digest();
    let trace_digest = lb.trace().digest();
    let per_priority: Vec<(&str, Priority)> = vec![
        ("high", Priority::High),
        ("normal", Priority::Normal),
        ("low", Priority::Low),
    ];
    for (name, p) in &per_priority {
        let m = lb.metrics().priority(*p);
        println!(
            "  {name:>6}: attainment {} ({} completed, {} missed, {} expired), \
             p99 total {} sim-ms",
            m.slo_attainment()
                .map_or("n/a".into(), |a| format!("{a:.3}")),
            m.completed,
            m.deadline_missed,
            m.expired_shed,
            m.total_ms
                .quantile(0.99)
                .map_or("n/a".into(), |q| format!("{q:.3}")),
        );
    }

    cfg.export_fleet_obs(
        "load",
        &cfg.gpu,
        lb.trace(),
        lb.metrics(),
        &[("replica0", lb.pool().session(0).gpu().profile())],
    );

    // Head-of-line isolation: the same mixed-width set, three ways.
    let mixed: Vec<(Vec<Vec<VertexId>>, u64)> = script
        .iter()
        .take(64)
        .map(|a| (a.init.clone(), a.seed))
        .collect();
    let mut by_width = mixed.clone();
    by_width.sort_by_key(|(init, _)| init[0].len());
    let (interleaved_ms, interleaved_launches) = closed_fused(&cfg.gpu, &g, &mixed);
    let (sorted_ms, sorted_launches) = closed_fused(&cfg.gpu, &g, &by_width);
    let (fifo_ms, fifo_launches) = closed_fifo_prefix(&cfg.gpu, &g, &mixed);
    let interleaved_tp = mixed.len() as f64 / (interleaved_ms / 1e3);
    let fifo_tp = mixed.len() as f64 / (fifo_ms / 1e3);
    println!(
        "mixed-width fusion: interleaved {interleaved_ms:.4} sim-ms ({interleaved_launches} \
         launches) vs width-sorted {sorted_ms:.4} ({sorted_launches}) vs FIFO-prefix emulation \
         {fifo_ms:.4} ({fifo_launches}) -> {:.2}x over FIFO-prefix",
        fifo_ms / interleaved_ms
    );
    assert!(
        (interleaved_ms - sorted_ms).abs() <= 1e-9 * sorted_ms.max(1.0),
        "width-class formation makes arrival order irrelevant: \
         {interleaved_ms} vs {sorted_ms}"
    );
    assert_eq!(interleaved_launches, sorted_launches);
    assert!(
        interleaved_launches < fifo_launches,
        "width classes fuse what FIFO-prefix fragmented"
    );
    assert!(
        interleaved_tp >= fifo_tp,
        "mixed-width fused throughput must not lose to the old FIFO-prefix rule"
    );

    // The digest CI compares across thread counts: every outcome line,
    // then the observability layer folded in as two hashes — the trace and
    // metrics digests are multi-KB `{:?}` dumps, so pin them by FNV.
    let mut digest = load.digest.clone();
    digest.push_str(&format!(
        "metrics-digest fnv64 {:016x}\n",
        fnv64(&metrics_digest)
    ));
    digest.push_str(&format!(
        "trace-digest fnv64 {:016x}\n",
        fnv64(&trace_digest)
    ));
    digest.push_str(&format!("trace-spans {}\n", lb.trace().len()));
    std::fs::create_dir_all("results").expect("can create results/");
    std::fs::write("results/load_digest.txt", &digest).expect("can write the load digest");
    println!("wrote results/load_digest.txt ({} outcomes)", requests);

    let priority_json = per_priority
        .iter()
        .map(|(name, p)| {
            let m = lb.metrics().priority(*p);
            format!(
                "      \"{name}\": {{\n        \"completed\": {},\n        \
                 \"deadline_missed\": {},\n        \"expired_shed\": {},\n        \
                 \"slo_attainment\": {},\n        \"total_p50_ms\": {},\n        \
                 \"total_p99_ms\": {}\n      }}",
                m.completed,
                m.deadline_missed,
                m.expired_shed,
                m.slo_attainment()
                    .map_or("null".into(), |a| format!("{a:.4}")),
                m.total_ms
                    .quantile(0.5)
                    .map_or("null".into(), |q| format!("{q:.4}")),
                m.total_ms
                    .quantile(0.99)
                    .map_or("null".into(), |q| format!("{q:.4}")),
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let section = format!(
        "{{\n    \"clients\": {clients},\n    \"requests\": {requests},\n    \
         \"samples_per_request\": {samples_per_request},\n    \
         \"offered_rps_sim\": {:.1},\n    \"slo_ms\": {slo_ms:.4},\n    \
         \"admitted\": {},\n    \"queue_rejected\": {},\n    \"completed\": {},\n    \
         \"deadline_missed\": {},\n    \"slo_attainment\": {slo_attainment:.4},\n    \
         \"retries\": {},\n    \
         \"attainment_by_priority\": {{\n{priority_json}\n    }},\n    \
         \"throughput_rps_sim\": {throughput:.1},\n    \"launches\": {},\n    \
         \"mean_batch_size\": {mean_batch:.2},\n    \"sim_latency\": {{\n      \
         \"queued_p50_ms\": {:.4},\n      \"queued_p99_ms\": {:.4},\n      \
         \"service_p50_ms\": {:.4},\n      \"service_p99_ms\": {:.4},\n      \
         \"total_p50_ms\": {:.4},\n      \"total_p99_ms\": {:.4}\n    }},\n    \
         \"wall_latency\": {{\n      \"p50_ms\": {:.4},\n      \"p99_ms\": {:.4}\n    }},\n    \
         \"mixed_width_fusion\": {{\n      \"requests\": {},\n      \
         \"interleaved_sim_ms\": {interleaved_ms:.4},\n      \
         \"interleaved_launches\": {interleaved_launches},\n      \
         \"width_sorted_sim_ms\": {sorted_ms:.4},\n      \
         \"fifo_prefix_sim_ms\": {fifo_ms:.4},\n      \
         \"fifo_prefix_launches\": {fifo_launches},\n      \
         \"interleaved_rps_sim\": {interleaved_tp:.1},\n      \
         \"fifo_prefix_rps_sim\": {fifo_tp:.1},\n      \
         \"speedup_over_fifo_prefix\": {:.4}\n    }},\n    \
         \"order_invariant_fusion\": true\n  }}",
        lambda * 1e3,
        load.admitted,
        load.queue_rejected,
        load.completed,
        load.deadline_missed,
        lb.metrics().sim.retries,
        load.launches,
        percentile(&queued, 50.0),
        percentile(&queued, 99.0),
        percentile(&service, 50.0),
        percentile(&service, 99.0),
        percentile(&total, 50.0),
        percentile(&total, 99.0),
        percentile(&wall, 50.0),
        percentile(&wall, 99.0),
        mixed.len(),
        fifo_ms / interleaved_ms,
    );
    write_section("BENCH_serve.json", "load", &section).expect("can write BENCH_serve.json");
}

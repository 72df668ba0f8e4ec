//! Chaos benchmark: what fault recovery costs the serving tier.
//!
//! Serves the same request stream through a three-replica [`ReplicaPool`]
//! twice — once healthy, once under a scripted chaos plan (one replica
//! killed mid-stream, another stormed with transient faults until its
//! circuit breaker trips and recovers) — and records the degraded-mode
//! throughput next to the healthy baseline in the `"chaos"` section of
//! `BENCH_serve.json`.
//!
//! Both legs run on the simulated fleet clock, so the numbers are
//! deterministic: the chaos leg completes every non-shed request with
//! samples bit-identical to the healthy leg (asserted here), it just pays
//! for the retries, backoffs, cool-down waits and the shrunken batch cap.

use nextdoor_bench::{write_section, BenchConfig};
use nextdoor_core::api::SamplingApp;
use nextdoor_gpu::{FaultPlan, Gpu, GpuSpec};
use nextdoor_graph::{Csr, Dataset, VertexId};
use nextdoor_serve::{
    BreakerConfig, FleetBatcher, FleetReport, PoolConfig, ReplicaPool, Request, ServeConfig,
    ServeError,
};
use std::collections::HashMap;

fn app() -> Box<dyn SamplingApp + Send> {
    Box::new(nextdoor_apps::KHop::new(vec![3, 2]))
}

fn pool_config(cooldown_ms: f64) -> PoolConfig {
    PoolConfig {
        max_retries: 6,
        backoff_base_ms: cooldown_ms / 10.0,
        breaker: BreakerConfig {
            trip_after: 2,
            cooldown_ms,
        },
    }
}

fn fleet(spec: &GpuSpec, graph: &Csr, max_queue: usize, cooldown_ms: f64) -> FleetBatcher {
    let gpus = vec![
        Gpu::new(spec.clone()),
        Gpu::new(spec.clone()),
        Gpu::new(spec.clone()),
    ];
    let pool = ReplicaPool::new(
        gpus,
        graph,
        vec![app(), app(), app()],
        pool_config(cooldown_ms),
    )
    .expect("bench graph fits on every replica");
    FleetBatcher::new(
        pool,
        ServeConfig {
            max_batch: 4,
            max_queue,
            default_deadline_ms: None,
        },
    )
    .expect("bench serve config is valid")
}

/// One clean fused batch's simulated milliseconds on `spec` — the scale
/// every breaker/backoff knob must be expressed in, since the cost model
/// (and with it the fleet clock's tick per batch) varies across specs.
fn calibrate_batch_ms(spec: &GpuSpec, graph: &Csr, inits: &[Vec<Vec<VertexId>>], seed: u64) -> f64 {
    let pool = ReplicaPool::new(
        vec![Gpu::new(spec.clone())],
        graph,
        vec![app()],
        PoolConfig::default(),
    )
    .expect("bench graph fits on the calibration replica");
    let mut probe = FleetBatcher::new(
        pool,
        ServeConfig {
            max_batch: 4,
            max_queue: 4,
            default_deadline_ms: None,
        },
    )
    .expect("calibration serve config is valid");
    for (i, init) in inits.iter().take(4).enumerate() {
        probe
            .submit(Request::new(init.clone(), seed + i as u64))
            .expect("calibration batch fits the queue");
    }
    assert!(probe.drain().iter().all(|(_, r)| r.is_ok()));
    probe.pool().fleet_ms()
}

struct LegResult {
    submitted: usize,
    completed: usize,
    shed: usize,
    samples: HashMap<u64, Vec<Vec<u32>>>,
    report: FleetReport,
}

fn tripped_and_recovered(report: &FleetReport) -> bool {
    report.replicas.iter().map(|r| r.trips).sum::<u64>() >= 1
        && report.replicas.iter().map(|r| r.recoveries).sum::<u64>() >= 1
}

/// Serves `inits` through `fleet` in max-queue-sized waves.
///
/// With `chaos_after_first_wave`, the chaos plan lands after the warm-up
/// wave and the stream keeps flowing until the stormed breaker has both
/// tripped and recovered (or the request list runs out — asserted against
/// in `main`); otherwise exactly `limit` requests are served.
fn serve_stream(
    mut fleet: FleetBatcher,
    inits: &[Vec<Vec<VertexId>>],
    seed_of: impl Fn(usize) -> u64,
    wave: usize,
    chaos_after_first_wave: bool,
    limit: Option<usize>,
) -> (LegResult, FleetBatcher) {
    let mut submitted = 0usize;
    let mut completed = 0usize;
    let mut shed = 0usize;
    let mut samples = HashMap::new();
    for (w, chunk) in inits.chunks(wave).enumerate() {
        let take = match limit {
            Some(l) => chunk.len().min(l.saturating_sub(submitted)),
            None => chunk.len(),
        };
        if take == 0 {
            break;
        }
        if w == 1 && chaos_after_first_wave {
            // Mid-stream, relative to each replica's live launch counter:
            // replica 1 drops off the bus, replica 2 storms long enough to
            // trip its breaker across several dispatches before recovery.
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
        }
        let mut seed_of_id = HashMap::new();
        for (i, init) in chunk[..take].iter().enumerate() {
            let seed = seed_of(submitted + i);
            let id = fleet
                .submit(Request::new(init.clone(), seed))
                .expect("waves sized to max_queue");
            seed_of_id.insert(id, seed);
        }
        submitted += take;
        for (id, outcome) in fleet.drain() {
            match outcome {
                Ok(resp) => {
                    completed += 1;
                    samples.insert(
                        seed_of_id[&id],
                        resp.store
                            .final_samples()
                            .iter()
                            .map(|s| s.to_vec())
                            .collect(),
                    );
                }
                Err(ServeError::Overloaded { .. }) => shed += 1,
                Err(e) => panic!("unexpected serving outcome: {e}"),
            }
        }
        // The chaos leg runs until the recovery story has played out.
        if chaos_after_first_wave && w >= 1 && tripped_and_recovered(&fleet.report()) {
            break;
        }
    }
    let leg = LegResult {
        submitted,
        completed,
        shed,
        samples,
        report: fleet.report(),
    };
    (leg, fleet)
}

fn leg_json(name: &str, leg: &LegResult) -> String {
    let rep = &leg.report;
    // fold from +0.0: an empty iterator's f64 sum is -0.0, which would
    // print as "-0.0000" in the healthy leg.
    let degraded_ms = rep
        .degraded_intervals
        .iter()
        .fold(0.0f64, |acc, (a, b)| acc + (b - a));
    let throughput = leg.completed as f64 / (rep.fleet_ms / 1e3).max(1e-12);
    format!(
        "    \"{name}\": {{\n      \"completed\": {},\n      \"shed\": {},\n      \
         \"fleet_ms\": {:.4},\n      \"throughput_rps_sim\": {:.1},\n      \
         \"retries\": {},\n      \"trips\": {},\n      \"recoveries\": {},\n      \
         \"cooldown_waits\": {},\n      \"degraded_ms\": {:.4}\n    }}",
        leg.completed,
        leg.shed,
        rep.fleet_ms,
        throughput,
        rep.retries,
        rep.replicas.iter().map(|r| r.trips).sum::<u64>(),
        rep.replicas.iter().map(|r| r.recoveries).sum::<u64>(),
        rep.cooldown_waits,
        degraded_ms,
    )
}

fn main() {
    let cfg = BenchConfig::from_args();
    let g = cfg.graph(Dataset::Ppi);
    // An upper bound on the stream; the chaos leg stops early once the
    // stormed breaker has tripped and recovered.
    let max_requests = 144usize;
    let wave = 12usize;
    let samples_per_request = (cfg.samples / 32).clamp(8, 32);
    let inits: Vec<Vec<Vec<VertexId>>> = (0..max_requests)
        .map(|r| {
            nextdoor_core::initial_samples_random(
                &g,
                samples_per_request,
                1,
                cfg.seed ^ (0xC000 + r as u64),
            )
            .expect("bench graph is non-empty")
        })
        .collect();
    let seed_of = |r: usize| cfg.seed + r as u64;
    // Breaker cool-down and retry backoff are absolute simulated
    // milliseconds, but batch durations depend on the GPU spec's cost
    // model — so derive them from a measured clean batch instead of
    // hard-coding a number tuned for one spec.
    let batch_ms = calibrate_batch_ms(&cfg.gpu, &g, &inits, seed_of(0));
    let cooldown_ms = batch_ms * 2.0;
    println!(
        "chaos-serving up to {max_requests} requests x {samples_per_request} samples over \
         3 replicas, khop[3,2], graph |V|={} |E|={} (batch {batch_ms:.4} sim-ms, \
         breaker cooldown {cooldown_ms:.4} sim-ms)",
        g.num_vertices(),
        g.num_edges()
    );

    let (chaos, chaos_fleet) = serve_stream(
        fleet(&cfg.gpu, &g, wave, cooldown_ms),
        &inits,
        seed_of,
        wave,
        true,
        None,
    );
    let requests = chaos.submitted;
    assert_eq!(
        chaos.completed + chaos.shed,
        requests,
        "no request vanishes under chaos"
    );
    // Fleet timeline of the chaos leg: retries, cool-down waits and the
    // degraded batches, one track per replica with flow arrows into each
    // replica's kernel lanes.
    let labels: Vec<String> = (0..3).map(|i| format!("replica{i}")).collect();
    let devices: Vec<(&str, &nextdoor_gpu::Profile)> = labels
        .iter()
        .enumerate()
        .map(|(i, l)| (l.as_str(), chaos_fleet.pool().session(i).gpu().profile()))
        .collect();
    cfg.export_fleet_obs(
        "chaos",
        &cfg.gpu,
        chaos_fleet.trace(),
        chaos_fleet.metrics(),
        &devices,
    );

    let (healthy, _) = serve_stream(
        fleet(&cfg.gpu, &g, wave, cooldown_ms),
        &inits,
        seed_of,
        wave,
        false,
        Some(requests),
    );
    assert_eq!(healthy.completed, requests, "healthy fleet completes all");
    assert_eq!(healthy.shed, 0);
    let trips: u64 = chaos.report.replicas.iter().map(|r| r.trips).sum();
    let recoveries: u64 = chaos.report.replicas.iter().map(|r| r.recoveries).sum();
    assert!(trips >= 1, "the storm must trip a breaker");
    assert!(recoveries >= 1, "the breaker must recover within the run");

    // Recovery never changes samples: every request the chaos leg
    // completed matches the healthy leg bit-for-bit.
    for (seed, got) in &chaos.samples {
        assert_eq!(
            got, &healthy.samples[seed],
            "chaos-run samples diverged for seed {seed}"
        );
    }

    let healthy_tp = healthy.completed as f64 / (healthy.report.fleet_ms / 1e3).max(1e-12);
    let chaos_tp = chaos.completed as f64 / (chaos.report.fleet_ms / 1e3).max(1e-12);
    println!(
        "healthy {healthy_tp:8.1} req/s (sim)   chaos {chaos_tp:8.1} req/s (sim)  \
         [{} completed, {} shed, {} retries, {trips} trips, {recoveries} recoveries]",
        chaos.completed, chaos.shed, chaos.report.retries
    );

    let section = format!(
        "{{\n    \"replicas\": 3,\n    \"requests\": {requests},\n    \
         \"samples_per_request\": {samples_per_request},\n{},\n{},\n    \
         \"degraded_over_healthy_throughput\": {:.4},\n    \
         \"bit_identical_successes\": true\n  }}",
        leg_json("healthy", &healthy),
        leg_json("faulted", &chaos),
        chaos_tp / healthy_tp.max(1e-12),
    );
    write_section("BENCH_serve.json", "chaos", &section).expect("can write BENCH_serve.json");
}

//! Serving-layer benchmark: persistent sessions and request micro-batching.
//!
//! Serves the same stream of sampling requests three ways and records the
//! simulated-clock results into `BENCH_serve.json`:
//!
//! 1. **cold per-request** — every request pays a fresh device and graph
//!    upload (the one-shot `run_nextdoor` path a service would take without
//!    sessions);
//! 2. **warm per-request** — one [`SamplerSession`] answers each request
//!    alone (upload amortised, no fusion);
//! 3. **warm fused** — a [`SampleServer`] under open-loop load (all
//!    requests submitted up front), so the scheduler coalesces them into
//!    fused launches of up to `max_batch`.
//!
//! All three legs must produce bit-identical samples per request — fusion
//! and session reuse are pure throughput levers. The fused leg reports the
//! simulated-clock latency split (queued vs service) that the serving layer
//! carves from the device's counter/profile machinery. The one gate is on
//! the simulated clock: the fused leg must spend less device time than the
//! warm per-request leg. Only how the server happens to coalesce requests
//! varies between runs, and even all-singleton batches would merely tie.
//! Host wall-clock costs are the end-to-end benchmark's to measure, over
//! repeated runs (`session.cold_warm_ratio`, and `wall_verts_per_s` on its
//! `serve-open` workload); one run of this binary cannot resolve them.

use nextdoor_bench::BenchConfig;
use nextdoor_core::api::{NextCtx, SamplingApp, Steps};
use nextdoor_core::engine::nextdoor::run_nextdoor;
use nextdoor_core::session::SamplerSession;
use nextdoor_core::SampleStore;
use nextdoor_gpu::Gpu;
use nextdoor_graph::{Dataset, VertexId};
use nextdoor_serve::{MicroBatcher, Request, SampleServer, ServeConfig};

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

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn main() {
    let cfg = BenchConfig::from_args();
    let g = cfg.graph(Dataset::Ppi);
    let app_steps = 10;
    let requests = 64usize;
    // Serving requests are mini-batch sized (a training iteration's worth),
    // not experiment sized: cap the per-request workload so per-launch fixed
    // costs — the thing fusion amortises — keep their service-time share.
    let samples_per_request = (cfg.samples / requests).clamp(8, 64);
    let inits: Vec<Vec<Vec<VertexId>>> = (0..requests)
        .map(|r| {
            nextdoor_core::initial_samples_random(
                &g,
                samples_per_request,
                1,
                cfg.seed ^ (0xA000 + r as u64),
            )
            .expect("bench graph is non-empty")
        })
        .collect();
    let seed_of = |r: usize| cfg.seed + r as u64;
    println!(
        "serving {requests} requests x {samples_per_request} samples, walk({app_steps}), \
         graph |V|={} |E|={}",
        g.num_vertices(),
        g.num_edges()
    );

    // Leg 1: cold per-request — fresh device + upload every time.
    let cold_out: Vec<SampleStore> = inits
        .iter()
        .enumerate()
        .map(|(r, init)| {
            let mut gpu = Gpu::new(cfg.gpu.clone());
            run_nextdoor(&mut gpu, &g, &Walk(app_steps), init, seed_of(r))
                .expect("cold run succeeds")
                .store
        })
        .collect();

    // Leg 2: warm per-request — one session, no fusion.
    let mut session = SamplerSession::new(cfg.gpu.clone(), g.clone(), Box::new(Walk(app_steps)))
        .expect("bench graph fits on the device");
    let warm_sim0 = session.sim_ms();
    for (r, init) in inits.iter().enumerate() {
        let res = session
            .query(init, seed_of(r))
            .expect("warm query succeeds");
        assert_eq!(
            res.store.final_samples(),
            cold_out[r].final_samples(),
            "warm session diverged from cold run on request {r}"
        );
    }
    let fused_sim0 = session.sim_ms();
    let warm_sim_ms = fused_sim0 - warm_sim0;

    // Leg 3: warm fused — open-loop load on the micro-batching server.
    let serve_cfg = ServeConfig {
        max_batch: 8,
        max_queue: requests,
        default_deadline_ms: None,
    };
    let server = SampleServer::start(
        MicroBatcher::new(session, serve_cfg).expect("bench serve config is valid"),
    );
    let client = server.client();
    let tickets: Vec<_> = inits
        .iter()
        .enumerate()
        .map(|(r, init)| {
            let req = Request::new(init.clone(), seed_of(r));
            client.submit(req).expect("server accepts while running")
        })
        .collect();
    let mut sim_queued = Vec::with_capacity(requests);
    let mut sim_service = Vec::with_capacity(requests);
    let mut batch_sizes = Vec::with_capacity(requests);
    for (r, ticket) in tickets.into_iter().enumerate() {
        let resp = ticket.wait().expect("fused request succeeds");
        sim_queued.push(resp.latency.queued_ms);
        sim_service.push(resp.latency.service_ms);
        batch_sizes.push(resp.latency.batch_size);
        assert_eq!(
            resp.store.final_samples(),
            cold_out[r].final_samples(),
            "fused batch diverged from cold run on request {r}"
        );
    }
    let batcher = server.shutdown();
    let fused_sim_ms = batcher.session().sim_ms() - fused_sim0;
    cfg.export_fleet_obs(
        "serve",
        batcher.session().gpu().spec(),
        batcher.trace(),
        batcher.metrics(),
        &[("session", batcher.session().gpu().profile())],
    );

    let mean_batch = batch_sizes.iter().sum::<usize>() as f64 / batch_sizes.len() as f64;
    sim_queued.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    sim_service.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    println!("cold, warm and fused samples bit-identical (mean batch {mean_batch:.1})");
    println!("device  warm {warm_sim_ms:.4} sim-ms vs fused {fused_sim_ms:.4} sim-ms");
    assert!(
        fused_sim_ms < warm_sim_ms,
        "warm fused serving must spend less device time than warm per-request serving"
    );

    let json = format!(
        "{{\n  \"workload\": \"walk{app_steps}_ppi\",\n  \"requests\": {requests},\n  \
         \"samples_per_request\": {samples_per_request},\n  \"max_batch\": {},\n  \
         \"fused_sim_latency\": {{\n    \"queued_p50_ms\": {:.4},\n    \
         \"queued_p99_ms\": {:.4},\n    \"service_p50_ms\": {:.4},\n    \
         \"service_p99_ms\": {:.4}\n  }},\n  \"mean_batch_size\": {mean_batch:.2},\n  \
         \"warm_sim_ms\": {warm_sim_ms:.4},\n  \"fused_sim_ms\": {fused_sim_ms:.4},\n  \
         \"bit_identical\": true,\n  \"fused_beats_warm_sim\": true\n}}\n",
        serve_cfg.max_batch,
        percentile(&sim_queued, 50.0),
        percentile(&sim_queued, 99.0),
        percentile(&sim_service, 50.0),
        percentile(&sim_service, 99.0),
    );
    std::fs::write("BENCH_serve.json", &json).expect("can write BENCH_serve.json");
    println!("wrote BENCH_serve.json");
}

//! The closed-loop epoch workloads: one caller sends its next query only
//! after the previous one returned. `walk-epoch` and `ladies-epoch` query a
//! tuned, cached `SamplerSession`; `shard-epoch` sends the walk traffic
//! through `ShardedPool::dispatch`, one query per dispatch.

use crate::check::{vertices, Oracle};
use crate::report::{metric, Measured, Metric, END_TO_END, PER_LAYER};
use crate::setup::{self, Workload};
use crate::spans::Recorder;
use crate::stats::{host_rate, median, percentile_or_max, sorted};
use nextdoor_core::session::{SamplerSession, SessionQuery};
use nextdoor_core::tuning::{CacheConfig, CacheStats, TunerConfig};
use nextdoor_core::{classify_kernel, KernelPhase, RunProfile, SampleStore};
use nextdoor_gpu::{Counters, Gpu};
use nextdoor_graph::{Csr, VertexId};
use nextdoor_serve::{FleetReport, ShardPoolConfig, ShardedPool};
use std::time::Instant;

/// Engine phases reported per query, in pipeline order.
pub const PHASES: [(&str, KernelPhase); 7] = [
    ("scheduling", KernelPhase::Scheduling),
    ("transit", KernelPhase::Transit),
    ("subwarp", KernelPhase::SubWarp),
    ("block", KernelPhase::Block),
    ("grid", KernelPhase::Grid),
    ("collective", KernelPhase::Collective),
    ("postprocess", KernelPhase::PostProcess),
];

/// Simulated ms per phase of one engine run, from its returned profile.
pub fn profile_phases(p: &RunProfile) -> [f64; 7] {
    PHASES.map(|(_, phase)| p.phase_ms(phase))
}

/// Simulated ms per phase of the launches `gpu` issued since `launch0`,
/// read from its profile ring (the sharded path returns no profile).
fn ring_phases(gpu: &Gpu, launch0: u64, out: &mut [f64; 7]) {
    for k in gpu.profile().kernels().filter(|k| k.launch_idx >= launch0) {
        let phase = classify_kernel(&k.name);
        if let Some(i) = PHASES.iter().position(|(_, p)| *p == phase) {
            out[i] += gpu.spec().cycles_to_ms(k.cycles);
        }
    }
}

/// Epochs before measurement starts (the tuner and cache warm up here).
const WARMUP_EPOCHS: u64 = 1;

fn measured_epochs(w: Workload) -> u64 {
    match w {
        Workload::WalkEpoch => 4,
        _ => 3,
    }
}

/// Per-query latency limit of the closed-loop workloads, simulated ms:
/// about twice a query's latency on the seed-42 graph, so attainment only
/// drops when a query gets much slower.
fn query_slo_ms(w: Workload) -> f64 {
    match w {
        Workload::LadiesEpoch => 4.0,
        _ => 2.0,
    }
}

/// The layer an epoch workload queries. One lives per pass, so its size
/// does not matter.
#[allow(clippy::large_enum_variant)]
pub enum Backend {
    /// A tuned, cached session.
    Session(SamplerSession),
    /// A two-shard pool.
    Shard(ShardedPool),
}

impl Backend {
    /// The workload's backend over `g`, freshly uploaded.
    pub fn build(w: Workload, g: &Csr) -> Backend {
        if w == Workload::ShardEpoch {
            let pool = ShardedPool::new(
                setup::spec(),
                g.clone(),
                w.app(),
                ShardPoolConfig::default(),
            )
            .expect("the benchmark graph shards onto the device");
            return Backend::Shard(pool);
        }
        let mut s = SamplerSession::new(setup::spec(), g.clone(), w.app())
            .expect("the benchmark graph fits on the device");
        s.enable_autotune(TunerConfig::default());
        s.enable_hot_cache(CacheConfig::default());
        Backend::Session(s)
    }

    /// Device counters, summed over the backend's devices.
    fn counters(&self) -> Counters {
        match self {
            Backend::Session(s) => *s.gpu().counters(),
            Backend::Shard(p) => {
                let mut c = Counters::default();
                for s in 0..p.num_shards() {
                    c.merge(p.sampler().shard_gpu(s).counters());
                }
                c
            }
        }
    }

    fn cache(&self) -> CacheStats {
        match self {
            Backend::Session(s) => s.cache_stats().unwrap_or_default(),
            Backend::Shard(_) => CacheStats::default(),
        }
    }

    fn report(&self) -> FleetReport {
        match self {
            Backend::Session(_) => FleetReport::default(),
            Backend::Shard(p) => p.report(),
        }
    }

    /// Runs one query; only the library call is timed.
    fn query(
        &mut self,
        init: &[Vec<VertexId>],
        seed: u64,
        id: u64,
        rec: &mut Recorder,
    ) -> Result<Query, String> {
        match self {
            Backend::Session(s) => {
                rec.begin("session.query", Some(id));
                let t = Instant::now();
                let r = s.query(init, seed);
                let wall_s = t.elapsed().as_secs_f64();
                rec.end();
                let r = r.map_err(|e| e.to_string())?;
                Ok(Query {
                    wall_s,
                    sim_ms: r.stats.total_ms,
                    device_ms: r.stats.total_ms,
                    phases: profile_phases(&r.stats.profile),
                    store: r.store,
                })
            }
            Backend::Shard(p) => {
                let launch0: Vec<u64> = (0..p.num_shards())
                    .map(|s| p.sampler().shard_gpu(s).launches_issued())
                    .collect();
                let cycles0: f64 = (0..p.num_shards())
                    .map(|s| p.sampler().shard_gpu(s).counters().cycles)
                    .sum();
                let q = [SessionQuery {
                    init: init.to_vec(),
                    seed,
                }];
                rec.begin("shard.dispatch", Some(id));
                let t = Instant::now();
                let d = p.dispatch(&q);
                let wall_s = t.elapsed().as_secs_f64();
                rec.end();
                let d = d.map_err(|e| e.to_string())?;
                let store = d
                    .results
                    .into_iter()
                    .next()
                    .ok_or("an empty dispatch result")?;
                let store = store.map_err(|e| e.to_string())?;
                let mut phases = [0.0; 7];
                let mut cycles = -cycles0;
                for (s, &l0) in launch0.iter().enumerate() {
                    let gpu = p.sampler().shard_gpu(s);
                    if rec.is_on() {
                        ring_phases(gpu, l0, &mut phases);
                    }
                    cycles += gpu.counters().cycles;
                }
                Ok(Query {
                    wall_s,
                    sim_ms: d.end_ms - d.start_ms,
                    device_ms: setup::spec().cycles_to_ms(cycles),
                    phases,
                    store,
                })
            }
        }
    }
}

struct Query {
    wall_s: f64,
    /// Latency on the simulated clock (the fleet clock when sharded).
    sim_ms: f64,
    /// Device time summed over devices.
    device_ms: f64,
    phases: [f64; 7],
    store: SampleStore,
}

struct Unit {
    epoch: u64,
    wall_s: f64,
    sim_ms: f64,
    device_ms: f64,
    verts: u64,
    phases: [f64; 7],
}

/// One pass: a fresh backend, the warm-up epoch, then the measured ones.
struct Pass {
    units: Vec<Unit>,
    /// Every query's simulated latency and vertex count, warm-up included:
    /// equal across passes unless the simulation is not repeatable.
    fingerprint: Vec<u64>,
    counters: Counters,
    cache: CacheStats,
    plan_updates: u64,
    report: FleetReport,
    edge_cut: f64,
    tracer_spans: usize,
    attempted: u64,
    failed: u64,
    wall_s: f64,
}

fn run_pass(
    w: Workload,
    g: &Csr,
    seed: u64,
    batches: &[Vec<Vec<VertexId>>],
    oracle: &mut Oracle,
    rec: &mut Recorder,
    first: bool,
) -> Pass {
    let start = Instant::now();
    let mut be = Backend::build(w, g);
    let mut units = Vec::new();
    let mut fingerprint = Vec::new();
    let (mut attempted, mut failed, mut served) = (0u64, 0u64, 0u64);
    let (mut counters0, mut cache0, mut report0) = (
        Counters::default(),
        CacheStats::default(),
        FleetReport::default(),
    );
    let mut sim_cursor = 0.0;
    for epoch in 0..WARMUP_EPOCHS + measured_epochs(w) {
        if epoch == WARMUP_EPOCHS {
            counters0 = be.counters();
            cache0 = be.cache();
            report0 = be.report();
        }
        let qseed = seed + epoch;
        rec.begin("bench.epoch", Some(epoch));
        for (b, init) in batches.iter().enumerate() {
            let id = epoch * batches.len() as u64 + b as u64;
            attempted += 1;
            let q = match be.query(init, qseed, id, rec) {
                Ok(q) => q,
                Err(e) => {
                    eprintln!("{}: query {id} failed: {e}", w.name());
                    failed += 1;
                    continue;
                }
            };
            served += 1;
            let check = match w {
                Workload::ShardEpoch => served % 50 == 1,
                _ => b == 0 || b + 1 == batches.len(),
            };
            if check {
                rec.begin("engine.run_cpu", Some(id));
                oracle.check(
                    &format!("{} epoch {epoch} batch {b}", w.name()),
                    g,
                    init,
                    qseed,
                    &q.store,
                );
                rec.end();
            }
            let verts = vertices(&q.store);
            fingerprint.extend([q.sim_ms.to_bits(), verts]);
            if first {
                rec.sim(
                    "device",
                    "query",
                    sim_cursor,
                    sim_cursor + q.sim_ms,
                    Some(id),
                );
                let mut at = sim_cursor;
                for ((name, _), ms) in PHASES.iter().zip(q.phases) {
                    if ms > 0.0 {
                        rec.sim("device phases", *name, at, at + ms, Some(id));
                        at += ms;
                    }
                }
            }
            sim_cursor += q.sim_ms;
            if epoch >= WARMUP_EPOCHS {
                units.push(Unit {
                    epoch,
                    wall_s: q.wall_s,
                    sim_ms: q.sim_ms,
                    device_ms: q.device_ms,
                    verts,
                    phases: q.phases,
                });
            }
        }
        rec.end();
    }
    let cache = be.cache();
    let report = be.report();
    let (plan_updates, edge_cut, tracer_spans) = match &be {
        Backend::Session(s) => (s.plan_updates(), 0.0, 0),
        Backend::Shard(p) => (0, p.partition_stats().edge_cut_fraction, p.trace().len()),
    };
    Pass {
        units,
        fingerprint,
        counters: be.counters().diff(&counters0),
        cache: CacheStats {
            hits: cache.hits - cache0.hits,
            misses: cache.misses - cache0.misses,
            sched_reuses: cache.sched_reuses - cache0.sched_reuses,
            sched_builds: cache.sched_builds - cache0.sched_builds,
            ..cache
        },
        plan_updates,
        report: FleetReport {
            handoffs: report.handoffs - report0.handoffs,
            handoff_bytes: report.handoff_bytes - report0.handoff_bytes,
            super_steps: report.super_steps - report0.super_steps,
            ..report
        },
        edge_cut,
        tracer_spans,
        attempted,
        failed,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

/// Runs passes of workload `w` until `seconds` would be exceeded by
/// another (at least one), and reduces them to metrics. Simulated-clock
/// metrics come from the first pass; every later pass must reproduce its
/// fingerprint exactly. Wall-clock metrics use every measured query.
pub fn run(w: Workload, g: &Csr, seed: u64, seconds: f64, rec: &mut Recorder) -> Measured {
    let batches = match w {
        Workload::LadiesEpoch => setup::ladies_batches(g, seed),
        _ => setup::walk_batches(g, seed),
    };
    let mut oracle = Oracle::new(w.app());
    let t0 = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let p = run_pass(w, g, seed, &batches, &mut oracle, rec, passes.is_empty());
        let last = p.wall_s;
        eprintln!("{} pass {}: {last:.1} s", w.name(), passes.len() + 1);
        passes.push(p);
        if t0.elapsed().as_secs_f64() + last > seconds {
            break;
        }
    }
    let mut out = Measured {
        attempted: passes.iter().map(|p| p.attempted).sum(),
        failed: passes.iter().map(|p| p.failed).sum(),
        mismatches: oracle.mismatches,
        ..Measured::default()
    };
    for (i, p) in passes.iter().enumerate().skip(1) {
        if p.fingerprint != passes[0].fingerprint {
            out.mismatches.push(format!(
                "pass {i} did not repeat the first pass's simulation"
            ));
        }
    }
    let p0 = &passes[0];
    let sim: Vec<f64> = p0.units.iter().map(|u| u.sim_ms).collect();
    let sim_total: f64 = sim.iter().sum();
    let verts: u64 = p0.units.iter().map(|u| u.verts).sum();
    let queries = p0.units.len() as f64;
    let all: Vec<&Unit> = passes.iter().flat_map(|p| &p.units).collect();
    let wall_vps: Vec<f64> = all.iter().map(|u| u.verts as f64 / u.wall_s).collect();
    let sim_sorted = sorted(&sim);
    let slo = query_slo_ms(w);
    let e = |n: &str, v: f64| metric(&END_TO_END, n, v);
    out.e2e = vec![
        e(
            "served_frac",
            (out.attempted - out.failed) as f64 / out.attempted as f64,
        ),
        e("sim_verts_per_s", verts as f64 / (sim_total / 1e3)),
        e("wall_verts_per_s", host_rate(&wall_vps)),
        e("sim_p50_ms", median(&sim)),
        e("sim_p99_ms", percentile_or_max(&sim_sorted, 99.0)),
        e(
            "slo_attainment",
            sim.iter().filter(|&&s| s <= slo).count() as f64 / queries,
        ),
        e("max_rps_sim", queries / (sim_total / 1e3)),
    ];
    out.layers = layers(w, &passes);
    out
}

fn layers(w: Workload, passes: &[Pass]) -> Vec<Metric> {
    let l = |n: &str, v: f64| metric(&PER_LAYER, n, v);
    let p0 = &passes[0];
    let queries = p0.units.len() as f64;
    let verts: f64 = p0.units.iter().map(|u| u.verts as f64).sum();
    let device_ms: f64 = p0.units.iter().map(|u| u.device_ms).sum();
    let mut phases = [0.0; 7];
    for u in &p0.units {
        for (acc, v) in phases.iter_mut().zip(u.phases) {
            *acc += v;
        }
    }
    let c = &p0.counters;
    let mut out = vec![
        l(
            "gpu_sim.launches_per_kvert",
            c.launches as f64 / (verts / 1e3),
        ),
        l(
            "gpu_sim.gld_transactions_per_vert",
            c.gld_transactions as f64 / verts,
        ),
        l(
            "gpu_sim.divergent_branches_per_vert",
            c.divergent_branches as f64 / verts,
        ),
        l("engine.sched_sim_share", phases[0] / device_ms),
    ];
    for ((name, _), v) in PHASES.iter().zip(phases) {
        out.push((format!("engine.phase_sim_ms.{name}"), v / queries, "sim-ms"));
    }
    if w == Workload::ShardEpoch {
        let r = &p0.report;
        out.extend([
            l("shard.handoffs_per_query", r.handoffs as f64 / queries),
            l(
                "shard.handoff_bytes_per_query",
                r.handoff_bytes as f64 / queries,
            ),
            l(
                "shard.super_steps_per_query",
                r.super_steps as f64 / queries,
            ),
            l("shard.edge_cut_fraction", p0.edge_cut),
            l(
                "trace.spans_per_request",
                p0.tracer_spans as f64 / p0.attempted as f64,
            ),
        ]);
        return out;
    }
    let walls_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| &p.units)
        .map(|u| u.wall_s * 1e3)
        .collect();
    let walls = sorted(&walls_ms);
    let wall_total: f64 = p0.units.iter().map(|u| u.wall_s * 1e3).sum();
    let epoch_median = |epoch: u64| {
        let v: Vec<f64> = passes
            .iter()
            .flat_map(|p| &p.units)
            .filter(|u| u.epoch == epoch)
            .map(|u| u.wall_s)
            .collect();
        median(&v)
    };
    let last = WARMUP_EPOCHS + measured_epochs(w) - 1;
    let cache = &p0.cache;
    let lookups = (cache.sched_reuses + cache.sched_builds).max(1) as f64;
    out.extend([
        l("session.query_wall_ms.p50", median(&walls_ms)),
        l("session.query_wall_ms.p90", percentile_or_max(&walls, 90.0)),
        l("session.wall_per_sim_ms", wall_total / device_ms),
        l(
            "session.age_drift",
            epoch_median(last) / epoch_median(WARMUP_EPOCHS),
        ),
        l("tuning.cache_hit_rate", cache.hit_rate()),
        l(
            "tuning.sched_reuse_rate",
            cache.sched_reuses as f64 / lookups,
        ),
        l("tuning.plan_updates", p0.plan_updates as f64),
    ]);
    out
}

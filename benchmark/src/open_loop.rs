//! The open-loop workloads: requests arrive on a Poisson schedule whether
//! or not earlier ones are done, so a slow system builds a queue.
//!
//! The load generator follows `load_bench`'s rounds. The virtual clock is the
//! front door's busy clock (the session's device time, or the fleet
//! clock) plus the idle gaps the generator inserts when the queue is empty
//! and the next arrival lies ahead. Each round admits every arrival due by
//! the virtual clock, then drains. A request completes at its virtual
//! admission time plus its `latency.total_ms`; its latency is measured
//! from its *scheduled* arrival, so arrivals that land during a drain pay
//! the wait, and the difference is reported as admission lag.

use crate::check::{vertices, Oracle};
use crate::epoch::{profile_phases, PHASES};
use crate::report::{metric, Measured, Metric, END_TO_END, PER_LAYER};
use crate::setup::{self, arrivals, Arrival, Workload};
use crate::spans::Recorder;
use crate::stats::{bisect_max, host_rate, median, percentile_or_max, sorted};
use nextdoor_core::session::SamplerSession;
use nextdoor_gpu::{Counters, FaultPlan};
use nextdoor_graph::Csr;
use nextdoor_serve::{
    BatchEngine, FleetBatcher, FleetReport, MicroBatcher, PoolConfig, ReplicaPool, Request,
    RequestId, Response, ServeConfig, ServeMetrics, SpanKind, Tracer,
};
use std::collections::HashMap;
use std::time::Instant;

/// Latency limit on a request, simulated ms from its scheduled arrival.
pub const SLO_MS: f64 = 1.0;

/// Batching knobs of both front doors: no deadlines, so nothing is shed
/// for lateness and every request is answered.
const SERVE_CFG: ServeConfig = ServeConfig {
    max_batch: 8,
    max_queue: 256,
    default_deadline_ms: None,
};

/// Arrivals per bisection probe, and the rate range searched.
const BISECT_ARRIVALS: usize = 2000;
const BISECT_RANGE: (f64, f64) = (5_000.0, 320_000.0);
const BISECT_TOL: f64 = 0.02;

/// Requests in both open-loop scripts; the first `WARMUP` are not
/// measured.
const REQUESTS: usize = 8_000;
const WARMUP: usize = 800;
/// Offered load, requests per simulated second: about half the device's
/// capacity, where the fleet's degraded mode still never sheds.
pub const RATE: f64 = 40_000.0;

/// A batching front door, driven on the virtual clock.
pub trait Front: BatchEngine {
    /// The busy clock requests are admitted and timed on, simulated ms.
    fn busy_ms(&self) -> f64;
    /// Requests admitted and not yet answered.
    fn pending(&self) -> usize;
    /// Device counters, summed over devices.
    fn counters(&self) -> Counters;
    /// The front door's metrics registry.
    fn serve_metrics(&self) -> &ServeMetrics;
    /// The front door's span stream.
    fn tracer(&self) -> &Tracer;
}

impl Front for MicroBatcher {
    fn busy_ms(&self) -> f64 {
        self.session().sim_ms()
    }
    fn pending(&self) -> usize {
        self.pending_len()
    }
    fn counters(&self) -> Counters {
        *self.session().gpu().counters()
    }
    fn serve_metrics(&self) -> &ServeMetrics {
        self.metrics()
    }
    fn tracer(&self) -> &Tracer {
        self.trace()
    }
}

impl Front for FleetBatcher {
    fn busy_ms(&self) -> f64 {
        self.pool().fleet_ms()
    }
    fn pending(&self) -> usize {
        self.pending_len()
    }
    fn counters(&self) -> Counters {
        let mut c = Counters::default();
        for r in 0..self.pool().num_replicas() {
            c.merge(self.pool().session(r).gpu().counters());
        }
        c
    }
    fn serve_metrics(&self) -> &ServeMetrics {
        self.metrics()
    }
    fn tracer(&self) -> &Tracer {
        self.trace()
    }
}

/// `serve-open`'s front door: an untuned session behind a `MicroBatcher`.
pub fn build_serve(g: &Csr) -> MicroBatcher {
    let s = SamplerSession::new(setup::spec(), g.clone(), Workload::ServeOpen.app())
        .expect("the benchmark graph fits on the device");
    MicroBatcher::new(s, SERVE_CFG).expect("the serve config is valid")
}

/// `fleet-faults`' front door: two replicas with the default pool config.
pub fn build_fleet(g: &Csr) -> FleetBatcher {
    let pool = ReplicaPool::replicate(
        &setup::spec(),
        2,
        g,
        || Workload::FleetFaults.app(),
        PoolConfig::default(),
    )
    .expect("the benchmark graph fits on the devices");
    FleetBatcher::new(pool, SERVE_CFG).expect("the serve config is valid")
}

/// `fleet-faults`' fault script, keyed by arrival index: a quarter of the
/// way in, replica 0 faults transiently on its next 110 launches; half
/// way in, replica 1 is lost at its next launch, and the fleet runs
/// degraded for the rest of the script.
fn fault_script(i: usize, n: usize, f: &mut FleetBatcher) {
    if i == n / 4 {
        let storm = FaultPlan {
            transient_launches: (0..110).collect(),
            ..FaultPlan::new()
        };
        f.pool_mut().schedule_faults(0, storm);
    } else if i == n / 2 {
        f.pool_mut()
            .schedule_faults(1, FaultPlan::new().lose_device_at_launch(0));
    }
}

/// One round's drain.
struct Round {
    /// Index of the first arrival the round admitted.
    first: usize,
    wall_s: f64,
    verts: u64,
}

/// What driving one script produced, per arrival where it applies.
struct Driven {
    /// Latency from the scheduled arrival; `None` for a refused or failed
    /// request.
    latency: Vec<Option<f64>>,
    /// Virtual admission time minus scheduled arrival.
    lag: Vec<f64>,
    queued: Vec<f64>,
    service: Vec<f64>,
    verts: u64,
    refused: u64,
    errors: u64,
    rounds: Vec<Round>,
    submit_walls: Vec<f64>,
    /// Engine-run phases and device time, each response weighted by one
    /// over its batch size so a batch counts once.
    phases: [f64; 7],
    device_ms: f64,
    busy_ms: f64,
    gave_up: bool,
}

/// Drives `script` through `e`. `hook` runs before each arrival is
/// submitted (the fault script); `on_ok` sees each answered request after
/// its drain was timed (the output checks). With `give_up`, the drive
/// stops at the first refusal or once more than `give_up` measured
/// requests missed the SLO (the bisection's early exit).
#[allow(clippy::too_many_arguments)]
fn drive<E: Front>(
    e: &mut E,
    script: &[Arrival],
    warmup: usize,
    give_up: Option<usize>,
    rec: &mut Recorder,
    mut hook: impl FnMut(usize, &mut E),
    mut on_ok: impl FnMut(usize, &Response, &mut Recorder),
) -> Driven {
    let n = script.len();
    let mut d = Driven {
        latency: vec![None; n],
        lag: vec![0.0; n],
        queued: vec![0.0; n],
        service: vec![0.0; n],
        verts: 0,
        refused: 0,
        errors: 0,
        rounds: Vec::new(),
        submit_walls: Vec::new(),
        phases: [0.0; 7],
        device_ms: 0.0,
        busy_ms: 0.0,
        gave_up: false,
    };
    let mut admitted: HashMap<RequestId, usize> = HashMap::new();
    let (mut idle_ms, mut misses, mut next) = (0.0f64, 0usize, 0usize);
    while next < n {
        let mut now = e.busy_ms() + idle_ms;
        if e.pending() == 0 && script[next].at_ms > now {
            idle_ms += script[next].at_ms - now;
            now = script[next].at_ms;
        }
        let first = next;
        rec.begin("bench.round", Some(first as u64));
        while next < n && script[next].at_ms <= now {
            hook(next, e);
            let a = &script[next];
            let req = Request::new(a.init.clone(), a.seed);
            rec.begin("batcher.submit", Some(next as u64));
            let t = Instant::now();
            let r = e.submit(req);
            let wall = t.elapsed().as_secs_f64();
            rec.end();
            d.lag[next] = now - a.at_ms;
            if next >= warmup {
                d.submit_walls.push(wall);
            }
            match r {
                Ok(id) => {
                    admitted.insert(id, next);
                }
                Err(_) => {
                    d.refused += 1;
                    misses += usize::from(next >= warmup);
                }
            }
            next += 1;
        }
        rec.begin("batcher.drain", Some(first as u64));
        let t = Instant::now();
        let served = e.drain();
        let wall_s = t.elapsed().as_secs_f64();
        rec.end();
        let mut verts = 0;
        for (id, outcome) in served {
            let i = admitted
                .remove(&id)
                .expect("every outcome answers an admitted request");
            match outcome {
                Ok(resp) => {
                    let v = vertices(&resp.store);
                    verts += v;
                    let latency = d.lag[i] + resp.latency.total_ms;
                    d.latency[i] = Some(latency);
                    d.queued[i] = resp.latency.queued_ms;
                    d.service[i] = resp.latency.service_ms;
                    misses += usize::from(i >= warmup && latency > SLO_MS);
                    let share = 1.0 / resp.latency.batch_size as f64;
                    for (acc, v) in d
                        .phases
                        .iter_mut()
                        .zip(profile_phases(&resp.batch_stats.profile))
                    {
                        *acc += v * share;
                    }
                    d.device_ms += resp.batch_stats.total_ms * share;
                    on_ok(i, &resp, rec);
                }
                Err(err) => {
                    if give_up.is_none() {
                        eprintln!("request {i} failed: {err}");
                    }
                    d.errors += 1;
                    misses += usize::from(i >= warmup);
                }
            }
        }
        rec.end();
        d.verts += verts;
        d.rounds.push(Round {
            first,
            wall_s,
            verts,
        });
        if give_up.is_some_and(|g| d.refused > 0 || misses > g) {
            d.gave_up = true;
            break;
        }
    }
    d.busy_ms = e.busy_ms();
    d
}

/// Highest offered rate at which the workload's fault-free front door
/// keeps p99 latency within the SLO and refuses nothing, found by
/// bisection over `BISECT_ARRIVALS`-arrival scripts of the run's seed.
pub fn max_rps(w: Workload, g: &Csr, seed: u64) -> f64 {
    match w {
        Workload::FleetFaults => bisect_rate(g, seed, || build_fleet(g)),
        _ => bisect_rate(g, seed, || build_serve(g)),
    }
}

fn bisect_rate<E: Front>(g: &Csr, seed: u64, build: impl Fn() -> E) -> f64 {
    bisect_max(BISECT_RANGE.0, BISECT_RANGE.1, BISECT_TOL, |rate| {
        let script = arrivals(g, BISECT_ARRIVALS, rate, seed);
        let warmup = BISECT_ARRIVALS / 10;
        let measured = BISECT_ARRIVALS - warmup;
        // p99 <= SLO holds exactly when no more than this many measured
        // requests miss it.
        let allowed = measured - (0.99 * measured as f64).ceil() as usize;
        let mut e = build();
        let d = drive(
            &mut e,
            &script,
            warmup,
            Some(allowed),
            &mut Recorder::new(false),
            |_, _| {},
            |_, _, _| {},
        );
        !d.gave_up && d.errors == 0
    })
}

/// One pass over the script on a fresh front door.
struct Pass {
    d: Driven,
    counters: Counters,
    metrics: ServeMetrics,
    report: FleetReport,
    tracer_spans: usize,
    /// Fleet-clock time batches spent backing off or waiting out breaker
    /// cool-downs.
    backoff_ms: f64,
    wall_s: f64,
}

/// Arrivals per timed unit of the open loop.
const CHUNK_ARRIVALS: usize = 100;

/// Host throughput of each run of consecutive measured rounds admitting
/// `CHUNK_ARRIVALS` arrivals. A single drain's rate swings with how many
/// requests the round caught; chunks carry the same offered load each.
fn chunk_rates(rounds: &[Round], warmup: usize) -> Vec<f64> {
    let mut sums: Vec<(u64, f64)> = Vec::new();
    for r in rounds.iter().filter(|r| r.first >= warmup) {
        let k = (r.first - warmup) / CHUNK_ARRIVALS;
        if sums.len() <= k {
            sums.resize(k + 1, (0, 0.0));
        }
        sums[k].0 += r.verts;
        sums[k].1 += r.wall_s;
    }
    sums.into_iter()
        .filter(|&(v, s)| v > 0 && s > 0.0)
        .map(|(v, s)| v as f64 / s)
        .collect()
}

fn fingerprint(d: &Driven) -> Vec<u64> {
    let mut f: Vec<u64> = d
        .latency
        .iter()
        .map(|l| l.map_or(u64::MAX, f64::to_bits))
        .collect();
    f.extend([d.busy_ms.to_bits(), d.verts, d.refused, d.errors]);
    f
}

#[allow(clippy::too_many_arguments)]
fn run_pass<E: Front>(
    w: Workload,
    g: &Csr,
    script: &[Arrival],
    warmup: usize,
    oracle: &mut Oracle,
    rec: &mut Recorder,
    first: bool,
    build: impl Fn(&Csr) -> E,
    hook: impl FnMut(usize, &mut E),
    report: impl Fn(&E) -> FleetReport,
) -> Pass {
    let start = Instant::now();
    let mut e = build(g);
    let mut ok = 0u64;
    let d = drive(&mut e, script, warmup, None, rec, hook, |i, resp, rec| {
        ok += 1;
        if ok % 50 == 1 {
            rec.begin("engine.run_cpu", Some(i as u64));
            let a = &script[i];
            oracle.check(
                &format!("{} request {i}", w.name()),
                g,
                &a.init,
                a.seed,
                &resp.store,
            );
            rec.end();
        }
    });
    if first {
        for s in e.tracer().spans() {
            let track = match s.replica {
                None => "serving tier",
                Some(0) => "replica 0",
                Some(1) => "replica 1",
                Some(_) => "other replicas",
            };
            rec.sim(
                track,
                format!("{:?}", s.kind),
                s.start_ms,
                s.end_ms,
                s.request.map(|r| r.0).or(s.batch),
            );
        }
        for &(s, t) in &report(&e).degraded_intervals {
            rec.sim("fleet health", "degraded", s, t, None);
        }
    }
    Pass {
        counters: e.counters(),
        metrics: e.serve_metrics().clone(),
        report: report(&e),
        tracer_spans: e.tracer().len(),
        backoff_ms: e
            .tracer()
            .spans()
            .iter()
            .filter(|s| matches!(s.kind, SpanKind::Backoff | SpanKind::CooldownWait))
            .map(|s| s.end_ms - s.start_ms)
            .sum(),
        wall_s: start.elapsed().as_secs_f64(),
        d,
    }
}

/// Runs passes of an open-loop workload until `seconds` would be exceeded
/// by another (at least one). `max_rps_sim` comes from [`max_rps`].
pub fn run(w: Workload, g: &Csr, seed: u64, seconds: f64, rec: &mut Recorder) -> Measured {
    let (n, warmup) = (REQUESTS, WARMUP);
    let t0 = Instant::now();
    let script = arrivals(g, n, RATE, seed);
    let mut oracle = Oracle::new(w.app());
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let first = passes.is_empty();
        let p = match w {
            Workload::FleetFaults => run_pass(
                w,
                g,
                &script,
                warmup,
                &mut oracle,
                rec,
                first,
                build_fleet,
                |i, f| fault_script(i, n, f),
                FleetBatcher::report,
            ),
            _ => run_pass(
                w,
                g,
                &script,
                warmup,
                &mut oracle,
                rec,
                first,
                build_serve,
                |_, _| {},
                |_| FleetReport::default(),
            ),
        };
        let last = p.wall_s;
        eprintln!("{} pass {}: {last:.1} s", w.name(), passes.len() + 1);
        passes.push(p);
        if t0.elapsed().as_secs_f64() + last > seconds {
            break;
        }
    }
    let mut out = Measured {
        attempted: (n * passes.len()) as u64,
        failed: passes.iter().map(|p| p.d.refused + p.d.errors).sum(),
        mismatches: oracle.mismatches,
        ..Measured::default()
    };
    for (i, p) in passes.iter().enumerate().skip(1) {
        if fingerprint(&p.d) != fingerprint(&passes[0].d) {
            out.mismatches.push(format!(
                "pass {i} did not repeat the first pass's simulation"
            ));
        }
    }
    let d = &passes[0].d;
    let measured = n - warmup;
    let lat: Vec<f64> = d.latency[warmup..].iter().flatten().copied().collect();
    let lat_sorted = sorted(&lat);
    let chunks: Vec<f64> = passes
        .iter()
        .flat_map(|p| chunk_rates(&p.d.rounds, warmup))
        .collect();
    let e = |name: &str, v: f64| metric(&END_TO_END, name, v);
    out.e2e = vec![
        e(
            "served_frac",
            (out.attempted - out.failed) as f64 / out.attempted as f64,
        ),
        e("sim_verts_per_s", d.verts as f64 / (d.busy_ms / 1e3)),
        e("wall_verts_per_s", host_rate(&chunks)),
        e("sim_p50_ms", median(&lat)),
        e("sim_p99_ms", percentile_or_max(&lat_sorted, 99.0)),
        e(
            "slo_attainment",
            lat.iter().filter(|&&l| l <= SLO_MS).count() as f64 / measured as f64,
        ),
    ];
    out.layers = layers(&passes, warmup);
    let queued = d.queued[warmup..].iter().sum::<f64>() + d.lag[warmup..].iter().sum::<f64>();
    out.wait_sim_ms.insert("batcher", queued);
    out.wait_sim_ms.insert("replica", passes[0].backoff_ms);
    out
}

fn layers(passes: &[Pass], warmup: usize) -> Vec<Metric> {
    let l = |n: &str, v: f64| metric(&PER_LAYER, n, v);
    let p0 = &passes[0];
    let d = &p0.d;
    let m = &p0.metrics.sim;
    let verts = d.verts as f64;
    let c = &p0.counters;
    let batches = m.batches.max(1) as f64;
    let ok = |v: &[f64]| -> Vec<f64> {
        v[warmup..]
            .iter()
            .zip(&d.latency[warmup..])
            .filter(|(_, l)| l.is_some())
            .map(|(x, _)| *x)
            .collect()
    };
    let p99 = |v: &[f64]| percentile_or_max(&sorted(v), 99.0);
    let drains: Vec<f64> = passes
        .iter()
        .flat_map(|p| &p.d.rounds)
        .filter(|r| r.first >= warmup)
        .map(|r| r.wall_s * 1e3)
        .collect();
    let submits: Vec<f64> = passes
        .iter()
        .flat_map(|p| &p.d.submit_walls)
        .map(|s| s * 1e6)
        .collect();
    let r = &p0.report;
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
        l("engine.sched_sim_share", d.phases[0] / d.device_ms),
        l("batcher.submit_us", median(&submits)),
        l("batcher.drain_ms.p50", median(&drains)),
        l("batcher.drain_ms.p99", p99(&drains)),
        l("batcher.queued_sim_ms.p99", p99(&ok(&d.queued))),
        l("batcher.service_sim_ms.p99", p99(&ok(&d.service))),
        l("batcher.admit_lag_sim_ms.p99", p99(&d.lag[warmup..])),
        l(
            "batcher.batch_size_mean",
            m.batch_size.mean().unwrap_or(0.0),
        ),
        l(
            "batcher.class_launches_per_batch",
            m.class_launches as f64 / batches,
        ),
        l(
            "batcher.queue_depth_p99",
            m.queue_depth.quantile(0.99).unwrap_or(0.0),
        ),
        l("batcher.refused", d.refused as f64),
        l("replica.retries", r.retries as f64),
        l(
            "replica.breaker_trips",
            r.replicas.iter().map(|x| x.trips).sum::<u64>() as f64,
        ),
        l(
            "replica.recoveries",
            r.replicas.iter().map(|x| x.recoveries).sum::<u64>() as f64,
        ),
        l("replica.shed", r.shed as f64),
        l("replica.cooldown_waits", r.cooldown_waits as f64),
        l(
            "replica.degraded_sim_ms",
            r.degraded_intervals.iter().map(|(s, t)| t - s).sum(),
        ),
        l(
            "trace.spans_per_request",
            p0.tracer_spans as f64 / d.latency.len() as f64,
        ),
    ];
    for ((name, _), v) in PHASES.iter().zip(d.phases) {
        out.push((format!("engine.phase_sim_ms.{name}"), v / batches, "sim-ms"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nextdoor_core::{EngineStats, FaultReport, SampleStore};
    use nextdoor_serve::{RequestLatency, RequestOutcome, ServeError};

    /// A front door whose every drain serves all pending requests as one
    /// batch taking `SERVICE_MS` of busy time.
    #[derive(Default)]
    struct Fake {
        busy: f64,
        pending: Vec<(RequestId, Request, f64)>,
        next: u64,
        metrics: ServeMetrics,
        tracer: Tracer,
    }

    const SERVICE_MS: f64 = 1.0;

    impl BatchEngine for Fake {
        fn submit(&mut self, req: Request) -> Result<RequestId, ServeError> {
            self.next += 1;
            self.pending.push((RequestId(self.next), req, self.busy));
            Ok(RequestId(self.next))
        }
        fn drain(&mut self) -> Vec<(RequestId, RequestOutcome)> {
            let start = self.busy;
            self.busy += SERVICE_MS;
            let batch_size = self.pending.len();
            let end = self.busy;
            self.pending
                .drain(..)
                .map(|(id, req, admit)| {
                    let resp = Response {
                        store: SampleStore::new(req.init),
                        latency: RequestLatency {
                            queued_ms: start - admit,
                            service_ms: SERVICE_MS,
                            total_ms: end - admit,
                            batch_size,
                        },
                        batch_stats: EngineStats::default(),
                        report: FaultReport::default(),
                    };
                    (id, Ok(resp))
                })
                .collect()
        }
    }

    impl Front for Fake {
        fn busy_ms(&self) -> f64 {
            self.busy
        }
        fn pending(&self) -> usize {
            self.pending.len()
        }
        fn counters(&self) -> Counters {
            Counters::default()
        }
        fn serve_metrics(&self) -> &ServeMetrics {
            &self.metrics
        }
        fn tracer(&self) -> &Tracer {
            &self.tracer
        }
    }

    #[test]
    fn latency_counts_idle_gaps_and_waits_during_drains() {
        let at = |at_ms| Arrival {
            at_ms,
            init: vec![vec![0]],
            seed: 1,
        };
        // 0.5: arrives into an idle system (the clock jumps 0.5 ahead).
        // 1.0: arrives while the first drain runs (busy until 1.5 on the
        //      virtual clock), so it waits 0.5 before admission.
        // 3.0: the system is idle again from 2.5; another 0.5 gap.
        let script = [at(0.5), at(1.0), at(3.0)];
        let d = drive(
            &mut Fake::default(),
            &script,
            0,
            None,
            &mut Recorder::new(false),
            |_, _| {},
            |_, _, _| {},
        );
        assert_eq!(d.latency, vec![Some(1.0), Some(1.5), Some(1.0)]);
        assert_eq!(d.lag, vec![0.0, 0.5, 0.0]);
        assert_eq!(d.rounds.len(), 3);
        assert_eq!(d.busy_ms, 3.0);
        assert_eq!((d.refused, d.errors, d.verts), (0, 0, 3));
    }
}

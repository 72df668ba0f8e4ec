//! The end-to-end benchmark of the NextDoor reproduction.
//!
//! ```text
//! benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! benchmark compare <setA> <setB>
//! ```
//!
//! A run sets up one workload five times (reporting the median set-up
//! time), measures it for about `--seconds`, checks its outputs against the
//! CPU oracle outside the timed regions, and prints one JSON result line
//! last. With `--trace 0` the line carries the end-to-end metrics; with
//! `--trace 1` the run measures twice, untraced and then with spans
//! recorded around every call into a layer, runs the layer probes, writes
//! `.bench_trace/<workload>.trace.json` and `.layers.json`, and the line
//! carries the per-layer metrics. See README.md for the metrics and why
//! each workload exists.

mod check;
mod compare;
mod epoch;
mod open_loop;
mod probes;
mod report;
mod setup;
mod spans;
mod stats;

use report::{complete, metric, result_line, Measured, Metric, END_TO_END, PER_LAYER};
use setup::Workload;
use spans::Recorder;
use stats::median;
use std::path::Path;
use std::time::Instant;

const USAGE: &str =
    "usage: benchmark --workload <walk-epoch|ladies-epoch|shard-epoch|serve-open|fleet-faults> \
[--seed <n>] [--seconds <s>] [--trace <0|1>]\n       benchmark compare <setA> <setB>";

/// Set-up repeats; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Where the traced run writes its two files.
const TRACE_DIR: &str = ".bench_trace";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 42u64, 15.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Set-up timings: graph generation, and upload of the workload's
/// session or pool (built, then dropped).
struct SetUp {
    total_s: Vec<f64>,
    generate_s: Vec<f64>,
    upload_s: Vec<f64>,
}

fn set_up(w: Workload, seed: u64, rec: &mut Recorder) -> (nextdoor_graph::Csr, SetUp) {
    let mut s = SetUp {
        total_s: Vec::new(),
        generate_s: Vec::new(),
        upload_s: Vec::new(),
    };
    let mut graph = None;
    for _ in 0..SETUP_REPEATS {
        rec.begin("bench.setup", None);
        let t = Instant::now();
        rec.begin("graph.generate", None);
        let g = setup::graph(seed);
        rec.end();
        let generated = t.elapsed().as_secs_f64();
        rec.begin("gpu_sim.upload", None);
        match w {
            Workload::ServeOpen => drop(open_loop::build_serve(&g)),
            Workload::FleetFaults => drop(open_loop::build_fleet(&g)),
            _ => drop(epoch::Backend::build(w, &g)),
        }
        rec.end();
        let total = t.elapsed().as_secs_f64();
        rec.end();
        s.total_s.push(total);
        s.generate_s.push(generated);
        s.upload_s.push(total - generated);
        graph = Some(g);
    }
    (graph.expect("at least one set-up"), s)
}

fn measure(
    w: Workload,
    g: &nextdoor_graph::Csr,
    seed: u64,
    seconds: f64,
    rec: &mut Recorder,
) -> Measured {
    rec.begin("bench.measure", None);
    let m = match w {
        Workload::ServeOpen | Workload::FleetFaults => open_loop::run(w, g, seed, seconds, rec),
        _ => epoch::run(w, g, seed, seconds, rec),
    };
    rec.end();
    m
}

/// The process's peak resident set, MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The representative input the layer probes use: the workload's first
/// batch or first request.
fn probe_input(
    w: Workload,
    g: &nextdoor_graph::Csr,
    seed: u64,
) -> Vec<Vec<nextdoor_graph::VertexId>> {
    match w {
        Workload::LadiesEpoch => setup::ladies_batches(g, seed).swap_remove(0),
        Workload::WalkEpoch | Workload::ShardEpoch => setup::walk_batches(g, seed).swap_remove(0),
        Workload::ServeOpen | Workload::FleetFaults => {
            setup::arrivals(g, 1, open_loop::RATE, seed)
                .swap_remove(0)
                .init
        }
    }
}

/// The traced run: untraced and traced measurements of `seconds / 2`
/// each, then the probes. Returns the per-layer metrics.
fn traced(
    a: &Args,
    g: &nextdoor_graph::Csr,
    s: &SetUp,
    rec: &mut Recorder,
) -> (Measured, Vec<Metric>) {
    let w = a.workload;
    let plain = measure(w, g, a.seed, a.seconds / 2.0, &mut Recorder::new(false));
    let mut m = measure(w, g, a.seed, a.seconds / 2.0, rec);
    let overhead = match (plain.get("wall_verts_per_s"), m.get("wall_verts_per_s")) {
        (Some(b), Some(t)) => (b - t) / b,
        _ => 0.0,
    };
    m.attempted += plain.attempted;
    m.failed += plain.failed;
    m.mismatches.extend(plain.mismatches);
    let l = |n: &str, v: f64| metric(&PER_LAYER, n, v);
    let mut layers = std::mem::take(&mut m.layers);
    rec.begin("bench.probes", None);
    layers.extend(probes::gpu_sim(a.seed, rec, &mut m.mismatches));
    let input = probe_input(w, g, a.seed);
    rec.begin("engine.sched_index", None);
    let sched_us = probes::sched_index_us(w.app().as_ref(), g, &input);
    rec.end();
    rec.begin("engine.run_nextdoor", None);
    let (cold_warm, overhead_x) = probes::engine(w, g, &input, a.seed, &mut m.mismatches);
    rec.end();
    rec.begin("server.request", None);
    let server_us = probes::server_overhead_us(g, a.seed, &mut m.mismatches);
    rec.end();
    rec.end();
    layers.extend([
        l("graph.generate_s", median(&s.generate_s)),
        l("gpu_sim.upload_s", median(&s.upload_s)),
        l("engine.sched_index_us", sched_us),
        l("engine.sim_overhead_x", overhead_x),
        l("session.cold_warm_ratio", cold_warm),
        l("server.overhead_us", server_us),
        l("bench.trace_overhead_frac", overhead),
    ]);
    (m, layers)
}

fn write_trace(a: &Args, rec: &Recorder, m: &Measured, layers: &[Metric]) -> std::io::Result<()> {
    let dir = Path::new(TRACE_DIR);
    std::fs::create_dir_all(dir)?;
    let name = a.workload.name();
    spans::write_chrome_trace(&dir.join(format!("{name}.trace.json")), rec)?;
    spans::write_layers(
        &dir.join(format!("{name}.layers.json")),
        name,
        a.seed,
        setup::host_cores(),
        rec,
        &m.wait_sim_ms,
        layers,
    )
}

fn run(a: &Args) -> Result<bool, String> {
    let mut rec = Recorder::new(a.trace);
    let (g, s) = set_up(a.workload, a.seed, &mut rec);
    let (m, metrics) = if a.trace {
        let (m, layers) = traced(a, &g, &s, &mut rec);
        let layers = complete(&PER_LAYER, &layers);
        write_trace(a, &rec, &m, &layers).map_err(|e| format!("writing {TRACE_DIR}: {e}"))?;
        (m, layers)
    } else {
        // The open-loop capacity search counts against the run's seconds.
        let t0 = Instant::now();
        let capacity = match a.workload {
            Workload::ServeOpen | Workload::FleetFaults => {
                Some(open_loop::max_rps(a.workload, &g, a.seed))
            }
            _ => None,
        };
        if let Some(c) = capacity {
            eprintln!(
                "capacity bisection: {c:.0} req/sim-s in {:.1} s",
                t0.elapsed().as_secs_f64()
            );
        }
        let left = a.seconds - t0.elapsed().as_secs_f64();
        let mut m = measure(a.workload, &g, a.seed, left, &mut rec);
        let mut e2e = vec![
            metric(&END_TO_END, "setup_s", median(&s.total_s)),
            metric(&END_TO_END, "peak_rss_mib", peak_rss_mib()?),
        ];
        e2e.extend(capacity.map(|c| metric(&END_TO_END, "max_rps_sim", c)));
        e2e.append(&mut m.e2e);
        let e2e = complete(&END_TO_END, &e2e);
        (m, e2e)
    };
    for line in &m.mismatches {
        eprintln!("MISMATCH {line}");
    }
    let correct = m.mismatches.is_empty();
    println!("{}", result_line(correct, m.attempted, m.failed, &metrics));
    Ok(correct)
}

/// Pins glibc's mmap threshold at its initial 128 KiB. Left adaptive, the
/// threshold moves with the order of frees, so whether a large buffer
/// lands on the heap or in its own mapping, and with it the peak resident
/// set, changes from run to run (by up to 17% on `shard-epoch`).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_mmap_threshold() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` is glibc's allocator-tuning call with this exact
    // C signature; it only sets a tunable and is called once, before the
    // program allocates in earnest or starts another thread.
    let ok = unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) };
    assert_eq!(ok, 1, "glibc accepts a 128 KiB mmap threshold");
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_mmap_threshold() {}

fn main() {
    pin_mmap_threshold();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = if args.first().map(String::as_str) == Some("compare") {
        compare::main(&args[1..])
    } else {
        match parse_args(&args) {
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                2
            }
            Ok(a) => match run(&a) {
                Ok(true) => 0,
                Ok(false) => 1,
                Err(e) => {
                    eprintln!("benchmark: {e}");
                    2
                }
            },
        }
    };
    std::process::exit(code);
}

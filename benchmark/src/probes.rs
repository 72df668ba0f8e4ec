//! Probes of single layers, run by the traced run only. Each times a call
//! into one layer on inputs the benchmark builds, repeated and reduced to
//! a median.

use crate::check::diff;
use crate::open_loop::{build_serve, RATE};
use crate::report::{metric, Metric, PER_LAYER};
use crate::setup::{self, arrivals, Workload};
use crate::spans::Recorder;
use crate::stats::median;
use nextdoor_core::engine::scheduling::{build_scheduling_index, partition_kernel_classes};
use nextdoor_core::session::SamplerSession;
use nextdoor_core::{run_cpu, run_nextdoor, SampleStore, SamplingApp};
use nextdoor_gpu::algorithms::radix_sort_pairs;
use nextdoor_gpu::{BlockCtx, Counters, DeviceBuffer, Gpu, LaunchConfig};
use nextdoor_graph::{Csr, VertexId};
use nextdoor_serve::{Request, SampleServer};
use std::time::Instant;

fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

fn device(threads: usize) -> Gpu {
    let mut spec = setup::spec();
    spec.host_threads = threads;
    Gpu::new(spec)
}

/// A coalesced copy kernel: each thread loads one word and stores it.
fn copy<'a>(
    src: &'a DeviceBuffer<u32>,
    dst: &'a DeviceBuffer<u32>,
) -> impl Fn(&mut BlockCtx<'_>) + Sync + 'a {
    move |blk| {
        blk.for_each_warp(|w| {
            let idx = w.global_thread_ids();
            let m = w.mask_where(|l| idx[l] < src.len());
            let v = w.ld_global(src, &idx, m);
            w.st_global(dst, &idx, v, m);
        });
    }
}

/// What a probe device ended with, to compare thread counts.
type Outcome = (Counters, Vec<u32>);

/// Wall seconds per launch of a one-block copy kernel (median of 10
/// batches of 1,000 launches).
fn launch_probe(threads: usize) -> (f64, Outcome) {
    let mut gpu = device(threads);
    let src = gpu.to_device(&(0..256u32).collect::<Vec<_>>());
    let dst = gpu.alloc::<u32>(256);
    let batches: Vec<f64> = (0..10)
        .map(|_| {
            secs(|| {
                for _ in 0..1000 {
                    gpu.launch(
                        "probe_copy",
                        LaunchConfig::grid1d(256, 256),
                        copy(&src, &dst),
                    );
                }
            }) / 1000.0
        })
        .collect();
    (median(&batches), (*gpu.counters(), dst.as_slice().to_vec()))
}

/// Wall seconds per thread of a 1M-thread copy kernel (median of 3).
fn lane_probe(threads: usize) -> (f64, Outcome) {
    const N: usize = 1 << 20;
    let mut gpu = device(threads);
    let src = gpu.to_device(
        &(0..N as u32)
            .map(|x| x.wrapping_mul(2_654_435_761))
            .collect::<Vec<_>>(),
    );
    let dst = gpu.alloc::<u32>(N);
    let runs: Vec<f64> = (0..3)
        .map(|_| {
            secs(|| drop(gpu.launch("probe_copy", LaunchConfig::grid1d(N, 256), copy(&src, &dst))))
                / N as f64
        })
        .collect();
    (median(&runs), (*gpu.counters(), dst.as_slice().to_vec()))
}

/// Wall ns per key of `radix_sort_pairs` on `n` transit-like keys.
fn radix_probe(n: usize, seed: u64) -> f64 {
    let mut gpu = device(1);
    let mut state = seed;
    let keys: Vec<u32> = (0..n)
        .map(|_| (setup::splitmix64(&mut state) % 16_384) as u32)
        .collect();
    let keys = gpu.to_device(&keys);
    let vals = gpu.to_device(&(0..n as u32).collect::<Vec<_>>());
    let reps = (65_536 / n).max(1);
    let runs: Vec<f64> = (0..5)
        .map(|_| {
            secs(|| {
                for _ in 0..reps {
                    drop(radix_sort_pairs(&mut gpu, &keys, &vals, 16_383));
                }
            }) / (reps * n) as f64
        })
        .collect();
    median(&runs) * 1e9
}

/// The device probes plus the host pool's speed-up at every core, with
/// counters and outputs required to match the one-thread run exactly.
pub fn gpu_sim(seed: u64, rec: &mut Recorder, mismatches: &mut Vec<String>) -> Vec<Metric> {
    let l = |n: &str, v: f64| metric(&PER_LAYER, n, v);
    let cores = setup::host_cores();
    let mut probe = |name, f: fn(usize) -> (f64, Outcome), threads| {
        rec.begin(name, None);
        let r = f(threads);
        rec.end();
        r
    };
    let (launch1, launch_out1) = probe("gpu_sim.launch", launch_probe, 1);
    let (launchn, launch_outn) = probe("hostpool.launch", launch_probe, cores);
    let (lane1, lane_out1) = probe("gpu_sim.lane", lane_probe, 1);
    let (lanen, lane_outn) = probe("hostpool.lane", lane_probe, cores);
    if launch_out1 != launch_outn || lane_out1 != lane_outn {
        mismatches.push(format!(
            "the host pool at {cores} threads changed counters or outputs"
        ));
    }
    rec.begin("gpu_sim.radix_sort", None);
    let radix = [radix_probe(512, seed), radix_probe(65_536, seed)];
    rec.end();
    vec![
        l("gpu_sim.launch_us", launch1 * 1e6),
        l("gpu_sim.lane_ns", lane1 * 1e9),
        l("gpu_sim.radix_sort_ns_per_key.512", radix[0]),
        l("gpu_sim.radix_sort_ns_per_key.65536", radix[1]),
        l("hostpool.host_cores", cores as f64),
        l("hostpool.launch_speedup", launch1 / launchn),
        l("hostpool.lane_speedup", lane1 / lanen),
    ]
}

/// Wall µs of `build_scheduling_index` + `partition_kernel_classes` on the
/// step-0 `(transit, pair)` list of `init` (median of 20).
pub fn sched_index_us(app: &dyn SamplingApp, g: &Csr, init: &[Vec<VertexId>]) -> f64 {
    let width = init[0].len();
    let pairs: Vec<(VertexId, u32)> = init
        .iter()
        .enumerate()
        .flat_map(|(s, roots)| {
            roots
                .iter()
                .enumerate()
                .map(move |(i, &v)| (v, (s * width + i) as u32))
        })
        .collect();
    let mut gpu = device(1);
    let max_block = gpu.spec().max_threads_per_block;
    let runs: Vec<f64> = (0..20)
        .map(|_| {
            secs(|| {
                let idx = build_scheduling_index(&mut gpu, &pairs, g.num_vertices())
                    .expect("the probe fits");
                partition_kernel_classes(&mut gpu, &idx, app.sample_size(0), max_block)
                    .expect("the probe fits");
            })
        })
        .collect();
    median(&runs) * 1e6
}

/// Cold versus warm versus CPU on one input (medians of 5): returns
/// `(cold run_nextdoor / warm query, warm query / run_cpu)`. All three
/// must produce the same samples.
pub fn engine(
    w: Workload,
    g: &Csr,
    init: &[Vec<VertexId>],
    seed: u64,
    mismatches: &mut Vec<String>,
) -> (f64, f64) {
    let app = w.app();
    let mut session =
        SamplerSession::new(setup::spec(), g.clone(), w.app()).expect("the graph fits");
    session.query(init, seed).expect("the warm-up query runs");
    let (mut cold, mut warm, mut cpu) = (Vec::new(), Vec::new(), Vec::new());
    let mut stores: Vec<(&str, SampleStore)> = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let r = run_nextdoor(&mut Gpu::new(setup::spec()), g, app.as_ref(), init, seed)
            .expect("cold run");
        cold.push(t.elapsed().as_secs_f64());
        stores.push(("cold run_nextdoor", r.store));
        let t = Instant::now();
        let r = session.query(init, seed).expect("warm query");
        warm.push(t.elapsed().as_secs_f64());
        stores.push(("warm query", r.store));
        let t = Instant::now();
        let r = run_cpu(g, app.as_ref(), init, seed).expect("cpu run");
        cpu.push(t.elapsed().as_secs_f64());
        stores.push(("run_cpu", r.store));
    }
    for (what, s) in &stores[1..] {
        if let Some(why) = diff(&stores[0].1, s) {
            mismatches.push(format!("{} engine probe: {what}: {why}", w.name()));
        }
    }
    (median(&cold) / median(&warm), median(&warm) / median(&cpu))
}

/// What `SampleServer` adds per request: median submit-to-`Ticket::wait`
/// wall minus median direct `submit` + `drain` wall, over the same
/// 500-request closed-loop stream (one client) on fresh front doors.
pub fn server_overhead_us(g: &Csr, seed: u64, mismatches: &mut Vec<String>) -> f64 {
    let script = arrivals(g, 500, RATE, seed ^ 0x5E2F);
    let mut direct = build_serve(g);
    let mut want = Vec::with_capacity(script.len());
    let mut direct_walls = Vec::with_capacity(script.len());
    for a in &script {
        let t = Instant::now();
        let admitted = direct.submit(Request::new(a.init.clone(), a.seed));
        let mut out = direct.drain();
        direct_walls.push(t.elapsed().as_secs_f64());
        match (admitted, out.pop()) {
            (Ok(_), Some((_, Ok(resp)))) => want.push(resp.store),
            _ => mismatches.push("server probe: a direct request failed".into()),
        }
    }
    let server = SampleServer::start(build_serve(g));
    let client = server.client();
    let mut server_walls = Vec::with_capacity(script.len());
    for (a, want) in script.iter().zip(&want) {
        let t = Instant::now();
        let got = client
            .submit(Request::new(a.init.clone(), a.seed))
            .map(|ticket| ticket.wait());
        server_walls.push(t.elapsed().as_secs_f64());
        match got {
            Ok(Ok(resp)) => {
                if let Some(why) = diff(want, &resp.store) {
                    mismatches.push(format!("server probe: {why}"));
                }
            }
            _ => mismatches.push("server probe: a request through the server failed".into()),
        }
    }
    drop(server.shutdown());
    (median(&server_walls) - median(&direct_walls)) * 1e6
}

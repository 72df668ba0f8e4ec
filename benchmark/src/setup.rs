//! The fixed set-up every workload shares, and the seeded inputs.
//!
//! The device and graph constants are copied here on purpose (they match
//! today's `BenchConfig` in `crates/bench`), so that editing the paper
//! benches cannot change what this benchmark measures.

use nextdoor_apps::{DeepWalk, Ladies};
use nextdoor_core::{initial_samples_random, SamplingApp};
use nextdoor_gpu::GpuSpec;
use nextdoor_graph::{Csr, Dataset, VertexId};

/// Scale of the Reddit stand-in: 16,384 vertices, about 706K edges.
pub const GRAPH_SCALE: f64 = 0.05;

/// The simulated device: a V100 cut to 4 SMs with launch overhead scaled
/// alike, on one host thread. Timed runs use one thread because the
/// two-thread pool varies run to run by far more than the bounds this
/// benchmark enforces; the pool's effect is a traced probe instead.
pub fn spec() -> GpuSpec {
    let mut gpu = GpuSpec::v100();
    gpu.num_sms = 4;
    gpu.cost.launch_overhead = 150.0;
    gpu.host_threads = 1;
    gpu
}

/// The weighted graph every workload samples from.
pub fn graph(seed: u64) -> Csr {
    Dataset::Reddit
        .generate(GRAPH_SCALE, seed)
        .with_random_weights(1.0, 5.0, seed ^ 0x77)
}

/// Host cores visible to the process (recorded, never used by timed runs).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The five workloads. See the README for why each one exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// DeepWalk(100) epochs through a tuned, cached session.
    WalkEpoch,
    /// LADIES epochs through a tuned, cached session.
    LadiesEpoch,
    /// The traffic of `WalkEpoch` through a two-shard pool.
    ShardEpoch,
    /// Poisson arrivals into a `MicroBatcher`.
    ServeOpen,
    /// Poisson arrivals into a two-replica fleet under a fault script.
    FleetFaults,
}

impl Workload {
    /// Every workload, in the order the README lists them.
    pub const ALL: [Workload; 5] = [
        Workload::WalkEpoch,
        Workload::LadiesEpoch,
        Workload::ShardEpoch,
        Workload::ServeOpen,
        Workload::FleetFaults,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WalkEpoch => "walk-epoch",
            Workload::LadiesEpoch => "ladies-epoch",
            Workload::ShardEpoch => "shard-epoch",
            Workload::ServeOpen => "serve-open",
            Workload::FleetFaults => "fleet-faults",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// A fresh instance of the workload's sampling application.
    pub fn app(self) -> Box<dyn SamplingApp + Send> {
        match self {
            Workload::WalkEpoch | Workload::ShardEpoch => Box::new(DeepWalk::new(100)),
            Workload::LadiesEpoch => Box::new(Ladies::new(2, 64)),
            Workload::ServeOpen | Workload::FleetFaults => Box::new(DeepWalk::new(10)),
        }
    }
}

/// Counter-based generator (splitmix64): the inputs depend on the seed
/// alone, never on host state.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fisher-Yates shuffle driven by `rng`.
fn shuffle<T>(v: &mut [T], rng: &mut u64) {
    for i in (1..v.len()).rev() {
        let j = (splitmix64(rng) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}

/// The walk epoch's fixed batches: every vertex once, in a seeded order,
/// cut into 32 batches of single-root samples.
pub fn walk_batches(g: &Csr, seed: u64) -> Vec<Vec<Vec<VertexId>>> {
    let n = g.num_vertices();
    let mut order: Vec<VertexId> = (0..n as VertexId).collect();
    shuffle(&mut order, &mut (seed ^ 0x3A1C_E90C));
    let per = n.div_ceil(32);
    order
        .chunks(per)
        .map(|c| c.iter().map(|&v| vec![v]).collect())
        .collect()
}

/// The LADIES epoch's fixed batches: 8 batches of 64 samples x 64 roots.
pub fn ladies_batches(g: &Csr, seed: u64) -> Vec<Vec<Vec<VertexId>>> {
    (0..8u64)
        .map(|b| {
            initial_samples_random(g, 64, 64, seed ^ (0x1AD1_E500 + b))
                .expect("the benchmark graph is non-empty")
        })
        .collect()
}

/// Samples per open-loop request.
pub const SAMPLES_PER_REQUEST: usize = 32;
const WIDTHS: [usize; 3] = [1, 2, 4];

/// One scripted open-loop arrival.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Scheduled arrival on the virtual clock, simulated ms.
    pub at_ms: f64,
    /// Initial samples: 32 samples of width 1, 2 or 4.
    pub init: Vec<Vec<VertexId>>,
    /// The request's own RNG seed.
    pub seed: u64,
}

/// Arrivals per stratum of an arrival script.
const STRATUM: usize = 96;

/// `n` Poisson arrivals at `rate_per_s` requests per simulated second,
/// stratified in blocks of 96: within each block the gaps are the 96
/// quantiles of the exponential distribution and the widths 32 each of 1,
/// 2 and 4, both in a seeded random order. Every seed thus offers the same
/// load and width mix in every block of the run, and seeds differ in the
/// order within blocks, the roots and the request seeds; without the
/// strata, where the largest bursts fall moved p99 latency by 10% from
/// seed to seed. The shape depends on `seed` alone, so scripts at two
/// rates differ only by a time scale.
pub fn arrivals(g: &Csr, n: usize, rate_per_s: f64, seed: u64) -> Vec<Arrival> {
    let mean_gap_ms = 1e3 / rate_per_s;
    let mut rng = seed ^ 0x0BE4_A881;
    let mut gaps = Vec::with_capacity(n);
    let mut widths = Vec::with_capacity(n);
    for start in (0..n).step_by(STRATUM) {
        let len = STRATUM.min(n - start);
        let mut g: Vec<f64> = (0..len)
            .map(|k| -(1.0 - (k as f64 + 0.5) / len as f64).ln())
            .collect();
        let mut w: Vec<usize> = (0..len).map(|i| WIDTHS[i % WIDTHS.len()]).collect();
        shuffle(&mut g, &mut rng);
        shuffle(&mut w, &mut rng);
        gaps.extend(g);
        widths.extend(w);
    }
    let mut t = 0.0f64;
    (0..n)
        .map(|i| {
            t += gaps[i] * mean_gap_ms;
            let width = widths[i];
            let req_seed = splitmix64(&mut rng);
            let init = initial_samples_random(g, SAMPLES_PER_REQUEST, width, req_seed ^ i as u64)
                .expect("the benchmark graph is non-empty");
            Arrival {
                at_ms: t,
                init,
                seed: req_seed,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nextdoor_graph::gen::{rmat, RmatParams};

    #[test]
    fn arrival_script_is_a_pure_function_of_the_seed() {
        let g = rmat(8, 1500, RmatParams::SKEWED, 5);
        let a = arrivals(&g, 200, 40_000.0, 7);
        assert_eq!(a, arrivals(&g, 200, 40_000.0, 7));
        let other = arrivals(&g, 200, 40_000.0, 8);
        assert_ne!(a, other);
        assert!(a.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
        // Stratified: every seed offers the same load and width mix.
        let (end_a, end_o) = (a[199].at_ms, other[199].at_ms);
        assert!((end_a - end_o).abs() <= 1e-9 * end_a);
        let widths = |s: &[Arrival], w: usize| s.iter().filter(|x| x.init[0].len() == w).count();
        // Two full strata of 96 (32 each) plus 8 arrivals (3, 3, 2).
        assert_eq!((widths(&a, 1), widths(&a, 2), widths(&a, 4)), (67, 67, 66));
        assert_eq!(widths(&other, 4), 66);
        let stratum_end = |s: &[Arrival]| s[95].at_ms;
        assert!((stratum_end(&a) - stratum_end(&other)).abs() <= 1e-9 * end_a);
        // Another rate rescales time and keeps everything else.
        let b = arrivals(&g, 200, 80_000.0, 7);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((&x.init, x.seed), (&y.init, y.seed));
            assert!((x.at_ms - 2.0 * y.at_ms).abs() <= 1e-9 * x.at_ms.max(1.0));
        }
    }

    #[test]
    fn walk_batches_cover_every_vertex_once() {
        let g = rmat(8, 1500, RmatParams::SKEWED, 5);
        let batches = walk_batches(&g, 3);
        assert_eq!(batches.len(), 32);
        let mut seen: Vec<VertexId> = batches.iter().flatten().map(|s| s[0]).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..g.num_vertices() as VertexId).collect::<Vec<_>>());
        assert_eq!(batches, walk_batches(&g, 3));
    }
}

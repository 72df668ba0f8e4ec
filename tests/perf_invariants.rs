//! Cross-engine *performance-counter* invariants: beyond producing the
//! same samples, the engines must relate to each other the way the paper's
//! measurements say they do. These are the repository's executable versions
//! of the evaluation's qualitative claims.

mod common;

use common::ENGINES;
use nextdoor::apps::{DeepWalk, KHop, Layer};
use nextdoor::core::{run_nextdoor, run_sample_parallel, run_vanilla_tp};
use nextdoor::gpu::{Gpu, GpuSpec};
use nextdoor::graph::{Csr, Dataset, VertexId};

fn graph() -> Csr {
    Dataset::Orkut
        .generate(0.002, 11)
        .with_random_weights(1.0, 5.0, 3)
}

/// One walker per vertex, the density the paper's workloads run at (and
/// what gives transit-parallelism its hub sharing).
fn dense_roots(g: &Csr) -> Vec<Vec<VertexId>> {
    roots(g, g.num_vertices())
}

fn roots(g: &Csr, n: usize) -> Vec<Vec<VertexId>> {
    nextdoor::core::initial_samples_random(g, n, 1, 17).expect("non-empty graph")
}

#[test]
fn khop_sampling_counter_ordering() {
    let g = graph();
    let init = dense_roots(&g);
    let app = KHop::new(vec![25, 10]);
    let mut g1 = Gpu::new(GpuSpec::small());
    let nd = run_nextdoor(&mut g1, &g, &app, &init, 5).unwrap();
    let mut g2 = Gpu::new(GpuSpec::small());
    let sp = run_sample_parallel(&mut g2, &g, &app, &init, 5).unwrap();
    // §8.2.1: NextDoor performs fewer L2 read transactions than SP.
    assert!(
        nd.stats.counters.l2_read_transactions() < sp.stats.counters.l2_read_transactions(),
        "ND reads {} !< SP reads {}",
        nd.stats.counters.l2_read_transactions(),
        sp.stats.counters.l2_read_transactions()
    );
    // §6.1: transit grouping eliminates warp divergence in the core
    // algorithm; SP's mixed-transit warps diverge more per next() call.
    let nd_div =
        nd.stats.counters.divergent_branches as f64 / nd.stats.counters.rand_draws.max(1) as f64;
    let sp_div =
        sp.stats.counters.divergent_branches as f64 / sp.stats.counters.rand_draws.max(1) as f64;
    assert!(
        nd_div <= sp_div * 1.05,
        "per-draw divergence: ND {nd_div:.3} vs SP {sp_div:.3}"
    );
    // NextDoor uses shared memory; SP cannot.
    assert!(nd.stats.counters.shared_loads > 0);
    assert_eq!(sp.stats.counters.shared_loads, 0);
}

#[test]
fn tp_has_worse_load_balance_than_nextdoor() {
    let g = graph();
    // Dense walkers on a skewed graph: step transits concentrate on hubs
    // proportionally to degree, so per-transit sample counts vary wildly —
    // the case the three kernel classes exist for. (A *uniformly*
    // concentrated batch would be balanced even one-block-per-transit.)
    let init = dense_roots(&g);
    let app = DeepWalk::new(30);
    let mut g1 = Gpu::new(GpuSpec::small());
    let nd = run_nextdoor(&mut g1, &g, &app, &init, 9).unwrap();
    let mut g2 = Gpu::new(GpuSpec::small());
    let tp = run_vanilla_tp(&mut g2, &g, &app, &init, 9).unwrap();
    assert!(
        nd.stats.sampling_ms < tp.stats.sampling_ms,
        "3-class kernels {} ms !< one-block-per-transit {} ms",
        nd.stats.sampling_ms,
        tp.stats.sampling_ms
    );
    // TP still pays the map inversion, so its scheduling time matches.
    assert!(tp.stats.scheduling_ms > 0.0);
}

#[test]
fn collective_build_is_cheaper_transit_parallel() {
    // §6.2: NextDoor builds combined neighbourhoods transit-parallel with
    // shared staging; SP re-reads each transit's adjacency per sample.
    let g = graph();
    let init: Vec<Vec<VertexId>> = (0..512).map(|i| vec![(i % 32) as u32]).collect();
    let app = Layer::new(32, 96);
    let mut g1 = Gpu::new(GpuSpec::small());
    let nd = run_nextdoor(&mut g1, &g, &app, &init, 13).unwrap();
    let mut g2 = Gpu::new(GpuSpec::small());
    let sp = run_sample_parallel(&mut g2, &g, &app, &init, 13).unwrap();
    assert_eq!(nd.store.final_samples(), sp.store.final_samples());
    assert!(
        nd.stats.counters.gld_transactions < sp.stats.counters.gld_transactions,
        "ND loads {} !< SP loads {}",
        nd.stats.counters.gld_transactions,
        sp.stats.counters.gld_transactions
    );
}

#[test]
fn walk_sampling_phase_beats_sp_even_when_totals_do_not() {
    // The EXPERIMENTS.md walk-row caveat, as an executable statement:
    // transit-parallel *sampling* wins; the scheduling index is the cost.
    let g = graph();
    let init = dense_roots(&g);
    let app = DeepWalk::new(30);
    let mut g1 = Gpu::new(GpuSpec::small());
    let nd = run_nextdoor(&mut g1, &g, &app, &init, 21).unwrap();
    let mut g2 = Gpu::new(GpuSpec::small());
    let sp = run_sample_parallel(&mut g2, &g, &app, &init, 21).unwrap();
    assert!(
        nd.stats.sampling_ms < sp.stats.sampling_ms,
        "ND sampling {} ms !< SP sampling {} ms",
        nd.stats.sampling_ms,
        sp.stats.sampling_ms
    );
    assert!(nd.stats.scheduling_ms > 0.0);
}

#[test]
fn scheduler_invariants_hold_for_every_kernel_of_every_engine() {
    // List scheduling cannot beat the work bound or the critical path, and
    // achieved occupancy is a fraction: for every kernel record of a smoke
    // run of each engine,
    //   makespan >= total busy cycles / num_sms,
    //   makespan >= the busiest single SM,
    //   occupancy in (0, 1].
    let g = graph();
    let init = roots(&g, 512);
    let app = KHop::new(vec![8, 4]);
    let num_sms = GpuSpec::small().num_sms as f64;
    for (name, run) in ENGINES {
        let mut gpu = Gpu::new(GpuSpec::small());
        run(&mut gpu, &g, &app, &init, 31).unwrap();
        let mut checked = 0usize;
        for k in gpu.profile().kernels() {
            let busy: f64 = k.per_sm_busy.iter().sum();
            let peak = k.per_sm_busy.iter().cloned().fold(0.0f64, f64::max);
            assert!(
                k.cycles >= busy / num_sms - 1e-6,
                "{name}/{}: makespan {} below work bound {}",
                k.name,
                k.cycles,
                busy / num_sms
            );
            assert!(
                k.cycles >= peak - 1e-6,
                "{name}/{}: makespan {} below busiest SM {peak}",
                k.name,
                k.cycles
            );
            assert!(
                k.occupancy > 0.0 && k.occupancy <= 1.0,
                "{name}/{}: occupancy {} outside (0, 1]",
                k.name,
                k.occupancy
            );
            checked += 1;
        }
        assert!(checked > 0, "{name}: smoke run recorded no kernels");
    }
}

#[test]
fn store_efficiency_is_high_for_fanout_apps() {
    let g = graph();
    let init = roots(&g, 2048);
    let mut gpu = Gpu::new(GpuSpec::small());
    let nd = run_nextdoor(&mut gpu, &g, &KHop::new(vec![16, 8]), &init, 3).unwrap();
    let eff = nd.stats.counters.gst_efficiency();
    assert!(eff > 70.0, "k-hop store efficiency {eff:.1}% too low");
    assert!(eff <= 100.0 + 1e-9);
}

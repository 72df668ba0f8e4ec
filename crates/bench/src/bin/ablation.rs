//! Ablations of NextDoor's design choices (DESIGN.md's ablation index):
//!
//! 1. **Shared-memory caching off** — shrinking the per-block shared-memory
//!    budget to zero forces the thread-block and grid kernels to read
//!    adjacencies from global memory on every access (§6.1.2's spill path
//!    made mandatory), isolating the caching contribution.
//! 2. **Load balancing off** — the vanilla-TP engine keeps the map
//!    inversion but drops the three kernel classes, isolating the
//!    contribution of Table 2's scheduling.
//! 3. **Machine-size sweep** — the same workload across 2–32 SMs shows
//!    when the scheduling index's fixed costs amortise.

use nextdoor_apps::{DeepWalk, KHop};
use nextdoor_bench::{header, row, AppInit, BenchConfig};
use nextdoor_core::{run_nextdoor, run_vanilla_tp, SamplingApp};
use nextdoor_gpu::Gpu;
use nextdoor_graph::Dataset;

fn main() {
    let cfg = BenchConfig::from_args();
    println!(
        "Ablations of NextDoor's design choices (scale {})",
        cfg.scale
    );
    let graph = cfg.graph(Dataset::LiveJournal);
    let apps: Vec<(Box<dyn SamplingApp>, AppInit)> = vec![
        (Box::new(KHop::graphsage()), AppInit::Walk),
        (Box::new(DeepWalk::new(50)), AppInit::Walk),
    ];

    header(
        "caching & balancing ablation (total ms)",
        &[
            "full",
            "no-cache",
            "no-balance",
            "cache gain",
            "balance gain",
        ],
    );
    for (app, kind) in &apps {
        let init = cfg.init_for(&graph, *kind);
        let mut g_full = Gpu::new(cfg.gpu.clone());
        let full =
            run_nextdoor(&mut g_full, &graph, app.as_ref(), &init, cfg.seed).expect("bench run");
        let mut spec_nocache = cfg.gpu.clone();
        // Just enough shared memory for the multi-tile sort's 256-word
        // counters, but effectively nothing left for adjacency caches. The
        // single-tile sort's 20 KiB scratch spills to global memory here,
        // so this column's index also costs a little more.
        spec_nocache.shared_mem_per_block = 1152;
        let mut g_nc = Gpu::new(spec_nocache);
        let nocache =
            run_nextdoor(&mut g_nc, &graph, app.as_ref(), &init, cfg.seed).expect("bench run");
        let mut g_tp = Gpu::new(cfg.gpu.clone());
        let nobalance =
            run_vanilla_tp(&mut g_tp, &graph, app.as_ref(), &init, cfg.seed).expect("bench run");
        assert_eq!(
            full.store.final_samples(),
            nocache.store.final_samples(),
            "ablations must not change results"
        );
        row(
            app.name(),
            &[
                nextdoor_bench::ms(full.stats.total_ms),
                nextdoor_bench::ms(nocache.stats.total_ms),
                nextdoor_bench::ms(nobalance.stats.total_ms),
                format!("{:.2}x", nocache.stats.total_ms / full.stats.total_ms),
                format!("{:.2}x", nobalance.stats.total_ms / full.stats.total_ms),
            ],
        );
    }

    header(
        "SM-count sweep: k-hop total ms (fixed workload)",
        &["2", "4", "8", "16", "32"],
    );
    let app = KHop::graphsage();
    let init = cfg.init_for(&graph, AppInit::Walk);
    let mut cells = Vec::new();
    for sms in [2usize, 4, 8, 16, 32] {
        let mut spec = cfg.gpu.clone();
        spec.num_sms = sms;
        let mut gpu = Gpu::new(spec);
        let res = run_nextdoor(&mut gpu, &graph, &app, &init, cfg.seed).expect("bench run");
        cells.push(nextdoor_bench::ms(res.stats.total_ms));
    }
    row("k-hop", &cells);
}

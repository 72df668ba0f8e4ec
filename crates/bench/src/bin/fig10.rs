//! Figure 10: speedup of sampling with four GPUs over one (paper:
//! near-linear scaling except for random walks on the small PPI graph,
//! which cannot saturate four devices).

use nextdoor_bench::{header, row, AppInit, BenchConfig};
use nextdoor_core::multi_gpu::run_nextdoor_multi_gpu;
use nextdoor_core::SamplingApp;
use nextdoor_graph::Dataset;

fn main() {
    let cfg = BenchConfig::from_args();
    println!(
        "Figure 10: 4-GPU vs 1-GPU sampling speedup (scale {})",
        cfg.scale
    );
    println!("Paper reference: significant speedups everywhere except PPI random walks;");
    println!("k-hop scales even on PPI because transits grow exponentially per step.");
    let apps: Vec<(Box<dyn SamplingApp>, AppInit)> = vec![
        (Box::new(nextdoor_apps::DeepWalk::new(100)), AppInit::Walk),
        (
            Box::new(nextdoor_apps::Node2Vec::new(100, 2.0, 0.5)),
            AppInit::Walk,
        ),
        (Box::new(nextdoor_apps::KHop::graphsage()), AppInit::Walk),
        (
            Box::new(nextdoor_apps::Layer::new(250, 500)),
            AppInit::LayerRoots,
        ),
    ];
    header("4-GPU speedup", &["PPI", "Orkut", "Patents", "LiveJ"]);
    for (app, kind) in &apps {
        let mut cells = Vec::new();
        for dataset in Dataset::MAIN4 {
            let graph = cfg.graph(dataset);
            let init = cfg.init_for(&graph, *kind);
            let run =
                |n| run_nextdoor_multi_gpu(&cfg.gpu, n, &graph, app.as_ref(), &init, cfg.seed, &[]);
            let one = run(1).expect("bench run");
            let four = run(4).expect("bench run");
            cells.push(format!("{:.2}x", one.makespan_ms / four.makespan_ms));
        }
        row(app.name(), &cells);
    }
}

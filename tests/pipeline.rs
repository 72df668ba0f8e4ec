//! End-to-end pipeline tests spanning crates: GNN training driven by the
//! sampling engines, multi-GPU sampling, and out-of-core sampling.

use nextdoor::apps::{DeepWalk, KHop};
use nextdoor::baselines::cpu_samplers::khop_sampler;
use nextdoor::core::large_graph::run_nextdoor_out_of_core;
use nextdoor::core::multi_gpu::run_nextdoor_multi_gpu;
use nextdoor::core::{initial_samples_random, run_cpu, run_nextdoor};
use nextdoor::gnn::{GraphSageModel, Trainer};
use nextdoor::gpu::{Gpu, GpuSpec};
use nextdoor::graph::{Dataset, VertexId};

#[test]
fn gnn_trains_with_both_samplers_and_learns() {
    let graph = Dataset::Ppi.generate(0.02, 1);
    let verts: Vec<VertexId> = (0..256).collect();

    // CPU-reference-sampled training.
    let model = GraphSageModel::new(16, 32, 4, 5);
    let mut trainer = Trainer::new(model, 64, 0.3);
    let mut cpu_sampler = |batch: &[VertexId]| {
        let r = khop_sampler(&graph, batch, &[10, 5], 7, 2);
        (r.samples, r.wall_ms)
    };
    let first = trainer.run_epoch(&verts, &mut cpu_sampler);
    let mut last = first.clone();
    for _ in 0..10 {
        last = trainer.run_epoch(&verts, &mut cpu_sampler);
    }
    assert!(last.mean_loss < first.mean_loss, "training should converge");
    assert!(first.sampling_ms > 0.0 && first.training_ms > 0.0);

    // NextDoor-sampled training produces the same tensor shapes and learns.
    let model = GraphSageModel::new(16, 32, 4, 5);
    let mut trainer = Trainer::new(model, 64, 0.3);
    let app = KHop::new(vec![10, 5]);
    let mut nd_sampler = |batch: &[VertexId]| {
        let init: Vec<Vec<VertexId>> = batch.iter().map(|&v| vec![v]).collect();
        let mut gpu = Gpu::new(GpuSpec::small());
        let res = run_nextdoor(&mut gpu, &graph, &app, &init, 7).unwrap();
        (res.store.final_samples(), res.stats.total_ms)
    };
    let first = trainer.run_epoch(&verts, &mut nd_sampler);
    let mut last = first.clone();
    for _ in 0..10 {
        last = trainer.run_epoch(&verts, &mut nd_sampler);
    }
    assert!(last.mean_loss < first.mean_loss);
}

#[test]
fn multi_gpu_covers_all_samples_and_validates() {
    let graph = Dataset::Ppi.generate(0.02, 2);
    let init = initial_samples_random(&graph, 200, 1, 3).unwrap();
    let res = run_nextdoor_multi_gpu(
        &GpuSpec::small(),
        4,
        &graph,
        &DeepWalk::new(8),
        &init,
        9,
        &[],
    )
    .unwrap();
    assert_eq!(res.total_samples(), 200);
    for per_gpu in &res.per_gpu {
        for s in per_gpu.store.final_samples() {
            for w in s.windows(2) {
                assert!(graph.has_edge(w[0], w[1]));
            }
        }
    }
}

#[test]
fn out_of_core_equals_in_core_samples() {
    let graph = Dataset::Ppi.generate(0.02, 4);
    let init = initial_samples_random(&graph, 128, 1, 7).unwrap();
    let app = KHop::new(vec![6, 3]);
    let mut gpu = Gpu::new(GpuSpec::small());
    let (ooc_res, ooc) =
        run_nextdoor_out_of_core(&mut gpu, &graph, &app, &init, 5, graph.size_bytes() / 3).unwrap();
    let cpu = run_cpu(&graph, &app, &init, 5).unwrap();
    assert_eq!(ooc_res.store.final_samples(), cpu.store.final_samples());
    assert!(ooc.partitions >= 2, "budget should force partitioning");
    assert!(ooc.transfer_ms > 0.0, "transfers must be charged");
    // The in-core engine spends nothing on transfers.
    let mut gpu2 = Gpu::new(GpuSpec::small());
    let in_core = run_nextdoor(&mut gpu2, &graph, &app, &init, 5).unwrap();
    assert!(ooc_res.stats.total_ms > in_core.stats.total_ms);
}

#[test]
fn readme_pipeline_smoke() {
    // The five-line pipeline from the README: dataset -> sampler -> stats.
    let graph = Dataset::Patents.generate(0.005, 1);
    let init = initial_samples_random(&graph, 64, 1, 2).unwrap();
    let mut gpu = Gpu::new(GpuSpec::v100());
    let result = run_nextdoor(&mut gpu, &graph, &DeepWalk::new(10), &init, 3).unwrap();
    assert_eq!(result.store.num_samples(), 64);
    assert!(result.stats.total_ms > 0.0);
    assert!(result.stats.counters.gst_efficiency() > 0.0);
}

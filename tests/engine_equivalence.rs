//! Cross-engine equivalence on a PPI-like graph: every placement must
//! produce the CPU oracle's samples and edges for every benchmark
//! application, because all randomness is keyed by logical coordinates
//! rather than execution order. Each test hands its inputs to the
//! differential oracle of `tests/common`.

mod common;

use common::{check, Case, MakeApp, Reach};
use nextdoor::apps;
use nextdoor::core::{initial_samples_random, run_cpu};
use nextdoor::graph::{cluster_vertices, Csr, Dataset, VertexId};

fn graph() -> Csr {
    Dataset::Ppi
        .generate(0.02, 3)
        .with_random_weights(1.0, 5.0, 9)
}

fn walk_init(graph: &Csr, n: usize) -> Vec<Vec<VertexId>> {
    initial_samples_random(graph, n, 1, 5).expect("non-empty graph")
}

#[test]
fn walks_are_engine_independent() {
    let g = graph();
    let init = walk_init(&g, 96);
    let walks: [MakeApp; 3] = [
        || Box::new(apps::DeepWalk::new(15)),
        || Box::new(apps::Ppr::new(0.05)),
        || Box::new(apps::Node2Vec::new(15, 2.0, 0.5)),
    ];
    for app in walks {
        check(
            &Case::new(g.clone(), app, init.clone(), 99),
            &mut Reach::default(),
        );
    }
}

#[test]
fn multirw_is_engine_independent() {
    let g = graph();
    let init = initial_samples_random(&g, 24, 16, 6).unwrap();
    let app: MakeApp = || Box::new(apps::MultiRw::new(20));
    check(&Case::new(g, app, init, 99), &mut Reach::default());
}

#[test]
fn khop_and_mvs_are_engine_independent() {
    let g = graph();
    let khop: MakeApp = || Box::new(apps::KHop::new(vec![10, 5]));
    check(
        &Case::new(g.clone(), khop, walk_init(&g, 64), 99),
        &mut Reach::default(),
    );
    let batches = initial_samples_random(&g, 16, 32, 7).unwrap();
    let mvs: MakeApp = || Box::new(apps::Mvs::new(2));
    check(&Case::new(g, mvs, batches, 99), &mut Reach::default());
}

#[test]
fn collective_apps_are_engine_independent() {
    let g = graph();
    let layer: MakeApp = || Box::new(apps::Layer::new(16, 48));
    check(
        &Case::new(g.clone(), layer, walk_init(&g, 32), 99),
        &mut Reach::default(),
    );
    let batches = initial_samples_random(&g, 12, 16, 8).unwrap();
    let importance: [MakeApp; 2] = [
        || Box::new(apps::FastGcn::new(2, 24)),
        || Box::new(apps::Ladies::new(2, 24)),
    ];
    for app in importance {
        check(
            &Case::new(g.clone(), app, batches.clone(), 99),
            &mut Reach::default(),
        );
    }
}

#[test]
fn clustergcn_is_engine_independent() {
    let g = graph();
    let clustering = cluster_vertices(&g, 12, 4).unwrap();
    let init = apps::cluster_gcn_samples(&g, &clustering, 2, 8, 3);
    let app: MakeApp = || Box::new(apps::ClusterGcn::new(32));
    check(&Case::new(g, app, init, 99), &mut Reach::default());
}

#[test]
fn different_seeds_give_different_samples() {
    let g = graph();
    let init = walk_init(&g, 32);
    let app = apps::DeepWalk::new(10);
    let a = run_cpu(&g, &app, &init, 1).unwrap();
    let b = run_cpu(&g, &app, &init, 2).unwrap();
    assert_ne!(a.store.final_samples(), b.store.final_samples());
}

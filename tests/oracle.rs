//! The differential oracle: every placement of a query — one device under
//! each engine, multi-GPU with failover, out-of-core, graph shards, fused
//! serving batches, a replicated fleet and a tuned, cached session — must
//! return exactly the samples and edges `run_cpu_keyed` computes, or a
//! typed failure its fault plan allows.

mod common;

use proptest::prelude::*;

use common::{check, hub_rooted, Case, Reach, PAPER_APPS, PLACEMENTS};
use nextdoor::gpu::FaultPlan;
use nextdoor::graph::gen::{rmat, RmatParams};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_placement_matches_the_cpu_oracle(case in common::arb_case()) {
        check(&case, &mut Reach::default());
    }
}

/// Cases that between them reach every placement, app, kernel phase and
/// host thread count, and the recovery paths: failover after a device
/// loss, a retried collective step and a retried allocation.
fn fixed_cases() -> Vec<Case> {
    let graph = rmat(6, 500, RmatParams::SKEWED, 3).with_random_weights(1.0, 5.0, 4);
    let spread = |width: u32| -> Vec<Vec<u32>> {
        (0..12)
            .map(|s| (0..width).map(|k| (s * 7 + k * 11) % 64).collect())
            .collect()
    };
    let mut cases: Vec<Case> = (PAPER_APPS.iter().enumerate())
        .map(|(i, &(app, width))| {
            let mut case = Case::new(graph.clone(), app, spread(width as u32), 40 + i as u64);
            (case.threads, case.shards) = (1 + i % 2, 1 + i % 4);
            case
        })
        .collect();
    let (khop, ladies, hub) = (PAPER_APPS[4].0, PAPER_APPS[8].0, hub_rooted(&graph, 64, 1));
    for (app, init, faults) in [
        (khop, hub.clone(), FaultPlan::new()),
        (khop, hub.clone(), FaultPlan::new().lose_device_at_launch(2)),
        (khop, hub, FaultPlan::new().fail_alloc(2)),
        (ladies, spread(4), FaultPlan::new().transient_at_launch(3)),
    ] {
        cases.push(Case {
            faults,
            ..Case::new(graph.clone(), app, init, 8)
        });
    }
    cases
}

#[test]
fn fixed_cases_reach_every_placement_app_phase_and_thread_count() {
    let mut reach = Reach::default();
    for case in fixed_cases() {
        check(&case, &mut reach);
    }
    for p in PLACEMENTS {
        for (app, _) in PAPER_APPS {
            let app = app();
            if p.supports(app.as_ref()) {
                assert!(
                    reach.ran.contains(&(p, app.name())),
                    "{p:?} never ran {}",
                    app.name()
                );
            }
        }
    }
    reach.assert_every_phase();
    assert!(reach.threads.contains(&1), "one host thread never ran");
    assert!(
        reach.threads.iter().any(|&t| t >= 2),
        "several host threads never ran"
    );
}

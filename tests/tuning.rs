//! Tuning invariants: an autotuned, cached session must be a pure
//! cost-side optimisation. Whatever plan is pinned — sensible or
//! adversarial — and whatever faults the device throws, the samples must
//! stay bit-identical to an untuned session's, because every knob moves
//! only launch geometry, the block-class cutoff, radix passes and cache
//! residency, never the counter-keyed RNG draws.

use proptest::prelude::*;

use nextdoor::apps::{DeepWalk, KHop};
use nextdoor::core::session::SamplerSession;
use nextdoor::core::tuning::{CacheConfig, TunerConfig, TuningPlan};
use nextdoor::core::{initial_samples_random, SamplingApp};
use nextdoor::gpu::{FaultPlan, GpuSpec};
use nextdoor::graph::{Csr, GraphBuilder};

/// An arbitrary small graph from an edge list (64 vertices, some possibly
/// isolated — degree-0 transits exercise the cache's promotion filter).
fn arb_graph() -> impl Strategy<Value = Csr> {
    proptest::collection::vec((0u32..64, 0u32..64), 1..256).prop_map(|edges| {
        let mut b = GraphBuilder::new(64).undirected(true);
        for (s, d) in edges {
            b.push_edge(s, d);
        }
        b.build().expect("endpoints in range")
    })
}

/// An arbitrary *valid* tuning plan: every block size `normalized()` can
/// produce, down to a single warp (no block class at all), with or without
/// the tight key range.
fn arb_plan() -> impl Strategy<Value = TuningPlan> {
    (0usize..=2048, proptest::bool::ANY).prop_map(|(block_dim, tight)| {
        TuningPlan {
            block_dim,
            tight_key_range: tight,
        }
        .normalized()
    })
}

/// An arbitrary fault script, as in `tests/properties.rs`.
fn arb_fault_plan() -> impl Strategy<Value = FaultPlan> {
    (
        proptest::option::weighted(0.5, 0u64..5),
        proptest::option::weighted(0.5, 0u64..12),
    )
        .prop_map(|(alloc, transient)| {
            let mut plan = FaultPlan::new();
            if let Some(i) = alloc {
                plan = plan.fail_alloc(i);
            }
            if let Some(i) = transient {
                plan = plan.transient_at_launch(i);
            }
            plan
        })
}

fn app(khop: bool) -> Box<dyn SamplingApp + Send> {
    if khop {
        Box::new(KHop::new(vec![2, 2]))
    } else {
        Box::new(DeepWalk::new(4))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn arbitrary_plans_keep_samples_bit_identical(
        g in arb_graph(),
        plan in arb_plan(),
        seed in 0u64..1000,
        khop in proptest::bool::ANY,
    ) {
        let init = initial_samples_random(&g, 16, 1, seed ^ 1).unwrap();
        let mut plain = SamplerSession::new(GpuSpec::small(), g.clone(), app(khop)).unwrap();
        let mut tuned = SamplerSession::new(GpuSpec::small(), g.clone(), app(khop)).unwrap();
        tuned.set_tuning_plan(plan);
        tuned.enable_hot_cache(CacheConfig {
            min_hits: 1,
            ..CacheConfig::default()
        });
        for q in 0..3u64 {
            let a = plain.query(&init, seed + q).unwrap();
            let b = tuned.query(&init, seed + q).unwrap();
            prop_assert_eq!(a.store.final_samples(), b.store.final_samples());
        }
    }

    #[test]
    fn faults_under_tuning_never_corrupt_samples(
        g in arb_graph(),
        faults in arb_fault_plan(),
        seed in 0u64..1000,
        khop in proptest::bool::ANY,
    ) {
        // Reference: untuned, unfaulted.
        let init = initial_samples_random(&g, 16, 1, seed ^ 1).unwrap();
        let mut plain = SamplerSession::new(GpuSpec::small(), g.clone(), app(khop)).unwrap();
        let mut tuned = SamplerSession::new(GpuSpec::small(), g.clone(), app(khop)).unwrap();
        tuned.enable_autotune(TunerConfig { warmup_queries: 1 });
        tuned.enable_hot_cache(CacheConfig {
            min_hits: 1,
            ..CacheConfig::default()
        });
        tuned.schedule_faults(faults);
        for q in 0..3u64 {
            let want = plain.query(&init, seed + q).unwrap();
            // The tuned session either recovers to identical samples or
            // fails with a typed error — never silently wrong output.
            match tuned.query(&init, seed + q) {
                Ok(got) => {
                    prop_assert_eq!(want.store.final_samples(), got.store.final_samples());
                }
                Err(e) => {
                    let msg = format!("{e}");
                    prop_assert!(!msg.is_empty(), "errors are typed and printable");
                    break;
                }
            }
        }
    }
}

/// The autotuner's replanning is visible, bounded and converges: once the
/// workload is steady, the plan stops moving.
#[test]
fn replanning_settles_on_a_steady_workload() {
    let g = nextdoor::graph::gen::rmat(7, 1200, nextdoor::graph::gen::RmatParams::SKEWED, 9);
    let init = initial_samples_random(&g, 32, 1, 5).unwrap();
    let mut s = SamplerSession::new(GpuSpec::small(), g, app(true)).unwrap();
    s.enable_autotune(TunerConfig { warmup_queries: 2 });
    for q in 0..8 {
        s.query(&init, 40 + q).unwrap();
    }
    let settled = s.tuning_plan();
    let updates = s.plan_updates();
    assert!(
        updates <= 2,
        "plan moved {updates} times on a steady workload"
    );
    for q in 8..12 {
        s.query(&init, 40 + q).unwrap();
    }
    assert_eq!(s.tuning_plan(), settled, "plan kept moving after settling");
}

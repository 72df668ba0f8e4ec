//! Tuning invariants: an autotuned, cached session must be a pure
//! cost-side optimisation. Whatever plan is pinned and whatever faults the
//! device throws, the samples must stay the CPU oracle's, because the knob
//! moves only radix passes and the cache only residency, never the
//! counter-keyed RNG draws. The tuner's one rule is
//! pinned on real sessions on both sides of its threshold.

mod common;

use proptest::prelude::*;

use common::{arb_fault_plan, arb_graph, check_placement, cpu_digest, digest};
use common::{Case, MakeApp, Placement, Reach};
use nextdoor::apps::{DeepWalk, KHop, Ladies};
use nextdoor::core::session::SamplerSession;
use nextdoor::core::tuning::{CacheConfig, TunerConfig, TuningPlan};
use nextdoor::core::{initial_samples_random, KernelPhase, RunProfile};
use nextdoor::gpu::GpuSpec;
use nextdoor::graph::Dataset;

/// Either tuning plan: with or without the tight key range.
fn arb_plan() -> impl Strategy<Value = TuningPlan> {
    proptest::bool::ANY.prop_map(|tight_key_range| TuningPlan { tight_key_range })
}

fn app(khop: bool) -> MakeApp {
    if khop {
        || Box::new(KHop::new(vec![2, 2]))
    } else {
        || Box::new(DeepWalk::new(4))
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
        let mut tuned = SamplerSession::new(GpuSpec::small(), g.clone(), app(khop)()).unwrap();
        tuned.set_tuning_plan(plan);
        tuned.enable_hot_cache(CacheConfig { min_hits: 1 });
        for q in 0..3u64 {
            let got = tuned.query(&init, seed + q).unwrap();
            prop_assert_eq!(digest(&got.store), cpu_digest(&g, tuned.app(), &init, seed + q));
        }
    }

    #[test]
    fn faults_under_tuning_never_corrupt_samples(
        g in arb_graph(),
        faults in arb_fault_plan(),
        seed in 0u64..1000,
        khop in proptest::bool::ANY,
    ) {
        // The oracle's autotuned, cached session either recovers to the
        // CPU's samples or fails with a typed error the plan allows —
        // never silently wrong output.
        let init = initial_samples_random(&g, 16, 1, seed ^ 1).unwrap();
        let case = Case { faults, ..Case::new(g, app(khop), init, seed) };
        check_placement(Placement::TunedSession, &case, &mut Reach::default())
            .map_err(TestCaseError::fail)?;
    }
}

/// The autotuner's replanning is visible, bounded and converges: once the
/// workload is steady, the plan stops moving.
#[test]
fn replanning_settles_on_a_steady_workload() {
    let g = nextdoor::graph::gen::rmat(7, 1200, nextdoor::graph::gen::RmatParams::SKEWED, 9);
    let init = initial_samples_random(&g, 32, 1, 5).unwrap();
    let mut s = SamplerSession::new(GpuSpec::small(), g, app(true)()).unwrap();
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

/// Scheduling share of the simulated time of `profiles`: the signal the
/// tuner compares with its 2% threshold.
fn scheduling_share(profiles: &[RunProfile]) -> f64 {
    let total: f64 = profiles.iter().flat_map(|p| &p.kernels).map(|k| k.ms).sum();
    let sched: f64 = profiles
        .iter()
        .map(|p| p.phase_ms(KernelPhase::Scheduling))
        .sum();
    sched / total
}

/// A LADIES session over the `ladies-epoch` benchmark's graph and device
/// (the Reddit stand-in at scale 0.05 on a 1/20-scale V100), and its
/// mini-batch of 64 samples × 64 roots. Collective kernels dominate its
/// simulated time, so scheduling stays below the tuner's threshold.
fn ladies_session() -> (SamplerSession, Vec<Vec<u32>>) {
    let mut spec = GpuSpec::v100();
    spec.num_sms = 4;
    spec.cost.launch_overhead = 150.0;
    let g = Dataset::Reddit.generate(0.05, 42);
    let init = initial_samples_random(&g, 64, 64, 7).unwrap();
    let s = SamplerSession::new(spec, g, Box::new(Ladies::new(2, 64))).unwrap();
    (s, init)
}

/// Above the threshold: a walk session's scheduling share turns the tight
/// key range on exactly at its warm-up boundary.
#[test]
fn walk_session_tightens_the_key_range_at_its_warmup_boundary() {
    let g = nextdoor::graph::gen::rmat(7, 1200, nextdoor::graph::gen::RmatParams::SKEWED, 9);
    let init = initial_samples_random(&g, 32, 1, 5).unwrap();
    let mut s = SamplerSession::new(GpuSpec::small(), g, app(false)()).unwrap();
    s.enable_autotune(TunerConfig { warmup_queries: 2 });
    let mut profiles = vec![s.query(&init, 40).unwrap().stats.profile];
    assert_eq!(s.tuning_plan(), TuningPlan::default(), "not warm yet");
    profiles.push(s.query(&init, 41).unwrap().stats.profile);
    let share = scheduling_share(&profiles);
    assert!(share >= 0.02, "walk scheduling share {share}");
    assert_eq!(
        s.tuning_plan(),
        TuningPlan {
            tight_key_range: true
        }
    );
    assert_eq!(s.plan_updates(), 1);
}

/// Below the threshold: a LADIES session never replans.
#[test]
fn ladies_session_never_replans() {
    let (mut s, init) = ladies_session();
    s.enable_autotune(TunerConfig { warmup_queries: 1 });
    let profiles: Vec<RunProfile> = (0..3u64)
        .map(|q| s.query(&init, 70 + q).unwrap().stats.profile)
        .collect();
    let share = scheduling_share(&profiles);
    assert!(share < 0.02, "LADIES scheduling share {share}");
    assert_eq!(s.plan_updates(), 0);
    assert_eq!(s.tuning_plan(), TuningPlan::default());
}

/// A pinned plan holds until the tuner is warm, then the tuner replaces it
/// at the first query boundary where it derives a different plan.
#[test]
fn autotuner_replaces_a_pinned_plan_once_warm() {
    let (mut s, init) = ladies_session();
    let pinned = TuningPlan {
        tight_key_range: true,
    };
    s.set_tuning_plan(pinned);
    s.enable_autotune(TunerConfig { warmup_queries: 2 });
    s.query(&init, 70).unwrap();
    assert_eq!(s.tuning_plan(), pinned, "kept while the tuner warms up");
    s.query(&init, 71).unwrap();
    assert_eq!(s.tuning_plan(), TuningPlan::default());
    assert_eq!(s.plan_updates(), 1);
}

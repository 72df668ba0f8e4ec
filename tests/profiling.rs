//! The profiler's correctness contract, end to end:
//!
//! * **conservation** — the per-kernel/per-transfer records of a run merge
//!   back to exactly the device's global `Counters` (bit-identical f64s:
//!   the profile replays the same additions in the same order);
//! * **determinism** — repeated runs produce bit-identical profiles;
//! * **validation** — every `run_*` entry point rejects ragged initial
//!   samples with a typed error (the step planner derives transits-per-
//!   sample from sample 0 alone, so uniformity must hold at the door);
//! * **fault tolerance** — profiling stays consistent under injected
//!   allocation faults at every allocation index;
//! * **classification** — every kernel a placement launches maps to a
//!   pipeline phase.

mod common;

use common::{check, cpu_digest, digest, hub_rooted, Case, MakeApp, Reach, ENGINES};
use nextdoor::apps::{DeepWalk, KHop, Ladies, Layer};
use nextdoor::core::large_graph::run_nextdoor_out_of_core;
use nextdoor::core::multi_gpu::run_nextdoor_multi_gpu;
use nextdoor::core::{
    initial_samples_random, run_cpu, run_nextdoor, KernelPhase, NextCtx, NextDoorError,
    SamplingApp, SamplingType, Steps,
};
use nextdoor::gpu::{FaultPlan, Gpu, GpuSpec, LaunchConfig};
use nextdoor::graph::{Dataset, VertexId};

fn small_graph() -> nextdoor::graph::Csr {
    Dataset::Ppi.generate(0.02, 5)
}

/// Every engine's profile must account for every counter the device
/// accumulated: merging the recorded events in order reproduces the global
/// `Counters` exactly, with nothing evicted.
#[test]
fn kernel_profiles_conserve_global_counters() {
    let graph = small_graph();
    let init = initial_samples_random(&graph, 64, 1, 3).unwrap();
    for (name, engine) in ENGINES {
        let mut gpu = Gpu::new(GpuSpec::small());
        let res = engine(&mut gpu, &graph, &KHop::new(vec![4, 2]), &init, 7).unwrap();
        assert_eq!(
            gpu.profile().total_counters(),
            *gpu.counters(),
            "engine {name}: profile events must merge back to the global counters"
        );
        assert_eq!(gpu.profile().evicted_events(), 0, "engine {name}");
        assert_eq!(res.stats.profile.in_run_evicted, 0, "engine {name}");
        assert!(
            res.stats.profile.total_launches() > 0,
            "engine {name}: the run must have profiled kernels"
        );
    }
}

/// Collective transit sampling takes different kernel paths (combined
/// neighbourhoods, collective next); conservation must hold there too.
#[test]
fn collective_app_profile_conserves_global_counters() {
    let graph = small_graph();
    let init = initial_samples_random(&graph, 32, 1, 9).unwrap();
    let mut gpu = Gpu::new(GpuSpec::small());
    let res = run_nextdoor(&mut gpu, &graph, &Layer::new(8, 16), &init, 11).unwrap();
    assert_eq!(gpu.profile().total_counters(), *gpu.counters());
    assert!(res
        .stats
        .profile
        .kernels
        .iter()
        .any(|k| k.phase == KernelPhase::Collective));
}

/// The out-of-core engine adds per-step partition transfers; they are
/// profiled as transfer events and must conserve as well.
#[test]
fn out_of_core_profile_conserves_global_counters() {
    let graph = small_graph();
    let init = initial_samples_random(&graph, 48, 1, 4).unwrap();
    let mut gpu = Gpu::new(GpuSpec::small());
    let budget = 1 << 16; // far smaller than the graph: forces partitioning
    let (res, _) =
        run_nextdoor_out_of_core(&mut gpu, &graph, &KHop::new(vec![2, 2]), &init, 7, budget)
            .unwrap();
    assert_eq!(gpu.profile().total_counters(), *gpu.counters());
    assert!(
        gpu.profile().transfers().count() > 0,
        "out-of-core runs must profile the partition transfers"
    );
    assert!(res.stats.profile.total_launches() > 0);
}

/// A run's breakdown covers exactly its own launches, even on a device
/// whose bounded profile ring wrapped long before the run: nothing of the
/// run is evicted, and the breakdown's launches are the run's.
#[test]
fn breakdown_is_complete_on_a_wrapped_profile_ring() {
    let graph = small_graph();
    let init = initial_samples_random(&graph, 64, 1, 3).unwrap();
    let mut gpu = Gpu::new(GpuSpec::small());
    for _ in 0..gpu.profile().capacity() {
        gpu.launch("noop", LaunchConfig::grid1d(32, 32), |_| {});
    }
    let res = run_nextdoor(&mut gpu, &graph, &KHop::new(vec![4, 2]), &init, 7).unwrap();
    assert!(gpu.profile().evicted_events() > 0, "the ring wrapped");
    let p = &res.stats.profile;
    assert_eq!(p.in_run_evicted, 0, "the run's records are all buffered");
    assert_eq!(p.total_launches(), res.stats.counters.launches);
    assert!(p.phase_ms(KernelPhase::Scheduling) > 0.0);
    for k in &p.kernels {
        assert!((0.0..=1.0).contains(&k.avg_occupancy), "{}", k.name);
    }
}

/// Profiles are part of the deterministic contract: the same inputs on a
/// fresh device must produce bit-identical records, summaries and
/// breakdowns.
#[test]
fn profiles_are_bit_identical_across_runs() {
    let graph = small_graph();
    let init = initial_samples_random(&graph, 64, 1, 3).unwrap();
    let mut g1 = Gpu::new(GpuSpec::small());
    let a = run_nextdoor(&mut g1, &graph, &KHop::new(vec![4, 2]), &init, 7).unwrap();
    let mut g2 = Gpu::new(GpuSpec::small());
    let b = run_nextdoor(&mut g2, &graph, &KHop::new(vec![4, 2]), &init, 7).unwrap();
    assert_eq!(g1.profile(), g2.profile());
    assert_eq!(a.stats.profile, b.stats.profile);
    assert_eq!(
        nextdoor::gpu::summarize_kernels(g1.profile().kernels()),
        nextdoor::gpu::summarize_kernels(g2.profile().kernels())
    );
}

/// Multi-GPU runs expose each device's raw profile for trace export; each
/// participating device must have profiled work.
#[test]
fn multi_gpu_exposes_per_device_profiles() {
    let graph = small_graph();
    let init = initial_samples_random(&graph, 60, 1, 8).unwrap();
    let res = run_nextdoor_multi_gpu(
        &GpuSpec::small(),
        3,
        &graph,
        &KHop::new(vec![2]),
        &init,
        5,
        &[],
    )
    .unwrap();
    assert_eq!(res.device_profiles.len(), 3);
    for (d, p) in res.device_profiles.iter().enumerate() {
        assert!(p.kernels().count() > 0, "device {d} profiled no kernels");
    }
}

/// `plan_step` derives transits-per-sample from sample 0 alone, so ragged
/// initial samples must be rejected with a typed error at *every* entry
/// point — none may reach the planner.
#[test]
fn ragged_init_rejected_at_every_entry_point() {
    let graph = small_graph();
    let ragged: Vec<Vec<u32>> = vec![vec![0], vec![1, 2], vec![3]];
    let app = KHop::new(vec![2]);
    let ragged_err = |res: Result<_, NextDoorError>, entry: &str| {
        assert!(
            matches!(
                res.err(),
                Some(NextDoorError::UnequalInitSizes { sample: 1, .. })
            ),
            "{entry} must reject ragged initial samples"
        );
    };
    for (name, engine) in ENGINES {
        let mut gpu = Gpu::new(GpuSpec::small());
        ragged_err(engine(&mut gpu, &graph, &app, &ragged, 1).map(|_| ()), name);
    }
    ragged_err(run_cpu(&graph, &app, &ragged, 1).map(|_| ()), "run_cpu");
    ragged_err(
        run_nextdoor_out_of_core(
            &mut Gpu::new(GpuSpec::small()),
            &graph,
            &app,
            &ragged,
            1,
            1 << 20,
        )
        .map(|_| ()),
        "run_nextdoor_out_of_core",
    );
    ragged_err(
        run_nextdoor_multi_gpu(&GpuSpec::small(), 2, &graph, &app, &ragged, 1, &[]).map(|_| ()),
        "run_nextdoor_multi_gpu",
    );
}

/// Sampling an empty graph is a typed error, not a panic.
#[test]
fn empty_graph_is_a_typed_error() {
    let empty = nextdoor::graph::Csr::empty(0);
    let res = initial_samples_random(&empty, 8, 1, 1);
    assert!(matches!(res, Err(NextDoorError::EmptyGraph)));
}

/// Sweep an injected allocation fault across the first 40 allocation
/// indices: the run must never panic, always produce the fault-free
/// samples (recovery is exact), and keep the profile conservation
/// invariant even across retried steps.
#[test]
fn alloc_fault_sweep_preserves_samples_and_conservation() {
    let graph = small_graph();
    let init = initial_samples_random(&graph, 32, 1, 6).unwrap();
    let app = KHop::new(vec![2, 2]);
    let clean = cpu_digest(&graph, &app, &init, 7);
    for idx in 0..40 {
        let mut gpu = Gpu::new(GpuSpec::small());
        gpu.inject_faults(FaultPlan::new().fail_alloc(idx));
        let res = run_nextdoor(&mut gpu, &graph, &app, &init, 7)
            .unwrap_or_else(|e| panic!("alloc fault at index {idx} must be recovered: {e}"));
        assert_eq!(
            clean,
            digest(&res.store),
            "alloc fault at index {idx} changed the samples"
        );
        assert_eq!(
            gpu.profile().total_counters(),
            *gpu.counters(),
            "alloc fault at index {idx} broke profile conservation"
        );
    }
}

/// The exporters produce valid, kernel-bearing artifacts.
#[test]
fn exporters_write_report_and_trace() {
    let graph = small_graph();
    let init = initial_samples_random(&graph, 32, 1, 3).unwrap();
    let mut gpu = Gpu::new(GpuSpec::small());
    run_nextdoor(&mut gpu, &graph, &KHop::new(vec![2]), &init, 7).unwrap();
    let dir = std::env::temp_dir().join(format!("nextdoor_profile_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let report = dir.join("report.json");
    let trace = dir.join("trace.json");
    nextdoor::gpu::write_kernel_report(&report, gpu.spec(), gpu.profile()).unwrap();
    nextdoor::gpu::write_chrome_trace(&trace, gpu.spec(), &[("t", gpu.profile())]).unwrap();
    let report_s = std::fs::read_to_string(&report).unwrap();
    let trace_s = std::fs::read_to_string(&trace).unwrap();
    assert!(report_s.contains("\"kernels\""));
    assert!(report_s.contains("nextdoor_subwarp") || report_s.contains("step_transits"));
    assert!(trace_s.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
    assert!(trace_s.contains("\"ph\":\"X\""));
    std::fs::remove_dir_all(&dir).ok();
}

/// Wraps an app and asks for unique neighbours at every step, so the
/// unique-neighbour stage runs.
struct UniqueEveryStep<A>(A);

impl<A: SamplingApp> SamplingApp for UniqueEveryStep<A> {
    fn name(&self) -> &'static str {
        "unique-every-step"
    }
    fn steps(&self) -> Steps {
        self.0.steps()
    }
    fn sample_size(&self, step: usize) -> usize {
        self.0.sample_size(step)
    }
    fn sampling_type(&self) -> SamplingType {
        self.0.sampling_type()
    }
    fn unique(&self, _step: usize) -> bool {
        true
    }
    fn next(&self, ctx: &mut NextCtx<'_>) -> Option<VertexId> {
        self.0.next(ctx)
    }
}

/// Every kernel the oracle's placements launch maps to a pipeline phase.
/// A kernel `classify_kernel` does not know, such as a new
/// scheduling-index kernel, would fall into `KernelPhase::Other` and drop
/// out of the per-phase breakdowns, the tuner's scheduling share and the
/// benchmark's phase metrics.
#[test]
fn every_engine_kernel_has_a_phase() {
    let graph = small_graph();
    // With KHop's fanout of 25 the hubs' transits need the grid and block
    // classes; the other samples' transits are sub-warp work.
    let hub_init = hub_rooted(&graph, 128, 1);
    let ladies_init = initial_samples_random(&graph, 16, 16, 3).unwrap();
    let apps: [(MakeApp, &[Vec<VertexId>]); 4] = [
        (|| Box::new(DeepWalk::new(4)), &hub_init),
        (|| Box::new(KHop::new(vec![25, 4])), &hub_init),
        (|| Box::new(Ladies::new(2, 16)), &ladies_init),
        (
            || Box::new(UniqueEveryStep(KHop::new(vec![4, 4]))),
            &hub_init,
        ),
    ];
    let mut reach = Reach::default();
    for (app, init) in apps {
        check(&Case::new(graph.clone(), app, init.to_vec(), 7), &mut reach);
    }
    reach.assert_every_phase();
}

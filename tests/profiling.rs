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
//!   allocation faults at every allocation index.

use nextdoor::apps::{KHop, Layer};
use nextdoor::core::large_graph::run_nextdoor_out_of_core;
use nextdoor::core::multi_gpu::run_nextdoor_multi_gpu;
use nextdoor::core::{
    initial_samples_random, run_cpu, run_nextdoor, run_sample_parallel, run_vanilla_tp,
    KernelPhase, NextDoorError,
};
use nextdoor::gpu::{FaultPlan, Gpu, GpuSpec};
use nextdoor::graph::Dataset;

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
    type Engine = fn(
        &mut Gpu,
        &nextdoor::graph::Csr,
        &dyn nextdoor::core::SamplingApp,
        &[Vec<u32>],
        u64,
    ) -> Result<nextdoor::core::RunResult, NextDoorError>;
    let engines: [(&str, Engine); 3] = [
        ("nextdoor", run_nextdoor),
        ("sp", run_sample_parallel),
        ("tp", run_vanilla_tp),
    ];
    for (name, engine) in engines {
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

/// The per-step breakdown partitions the run: summing per-step kernel
/// launches reproduces the whole-run totals, and per-kernel launch counts
/// cover every profiled kernel record.
#[test]
fn per_step_breakdown_partitions_the_run() {
    let graph = small_graph();
    let init = initial_samples_random(&graph, 64, 1, 3).unwrap();
    let mut gpu = Gpu::new(GpuSpec::small());
    let res = run_nextdoor(&mut gpu, &graph, &KHop::new(vec![4, 2]), &init, 7).unwrap();
    let p = &res.stats.profile;
    let per_step: u64 = p
        .steps
        .iter()
        .flat_map(|s| s.kernels.iter().map(|k| k.launches))
        .sum();
    assert_eq!(per_step, p.total_launches());
    assert_eq!(
        p.total_launches(),
        gpu.profile().kernels().count() as u64,
        "every profiled kernel record is attributed"
    );
    assert!(p.phase_ms(KernelPhase::Scheduling) > 0.0);
    assert_eq!(res.stats.steps_run, p.steps.len());
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
    ragged_err(
        run_nextdoor(&mut Gpu::new(GpuSpec::small()), &graph, &app, &ragged, 1).map(|_| ()),
        "run_nextdoor",
    );
    ragged_err(
        run_sample_parallel(&mut Gpu::new(GpuSpec::small()), &graph, &app, &ragged, 1).map(|_| ()),
        "run_sample_parallel",
    );
    ragged_err(
        run_vanilla_tp(&mut Gpu::new(GpuSpec::small()), &graph, &app, &ragged, 1).map(|_| ()),
        "run_vanilla_tp",
    );
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
    let mut clean_gpu = Gpu::new(GpuSpec::small());
    let clean = run_nextdoor(&mut clean_gpu, &graph, &app, &init, 7).unwrap();
    for idx in 0..40 {
        let mut gpu = Gpu::new(GpuSpec::small());
        gpu.inject_faults(FaultPlan::new().fail_alloc(idx));
        let res = run_nextdoor(&mut gpu, &graph, &app, &init, 7)
            .unwrap_or_else(|e| panic!("alloc fault at index {idx} must be recovered: {e}"));
        assert_eq!(
            clean.store.final_samples(),
            res.store.final_samples(),
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

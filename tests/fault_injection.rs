//! End-to-end fault-injection scenarios: scripted `FaultPlan`s drive the
//! recovery machinery (degradation to out-of-core, step retry, multi-GPU
//! failover) and every surviving run must produce the CPU oracle's samples
//! byte for byte — the counter-based RNG makes re-execution exact.

mod common;

use common::{cpu_digest, digest};
use nextdoor::apps::KHop;
use nextdoor::core::multi_gpu::run_nextdoor_multi_gpu;
use nextdoor::core::{initial_samples_random, run_nextdoor, NextDoorError};
use nextdoor::gpu::{FaultPlan, Gpu, GpuSpec};
use nextdoor::graph::{Csr, Dataset, VertexId};

/// The PPI stand-in with `n` one-root samples.
fn workload(n: usize) -> (Csr, Vec<Vec<VertexId>>) {
    let graph = Dataset::Ppi.generate(0.02, 3);
    let init = initial_samples_random(&graph, n, 1, 9).unwrap();
    (graph, init)
}

/// The acceptance scenario: one multi-GPU k-hop run that survives
/// an upload OOM (degrading that shard to out-of-core), a transient kernel
/// fault (retried), and a whole-device loss (failed over) — and still
/// returns exactly the samples of a fault-free run.
#[test]
fn scripted_faults_survive_a_multi_gpu_khop_run() {
    let graph = Dataset::Ppi.generate(0.02, 5);
    let init = initial_samples_random(&graph, 96, 1, 11).unwrap();
    let app = KHop::new(vec![4, 2]);
    let spec = GpuSpec::small();

    let plans = vec![
        // Device 0: the very first allocation (the graph upload) fails,
        // degrading shard 0 to the out-of-core engine.
        FaultPlan::new().fail_alloc(0),
        // Device 1: a transient memory fault on an early kernel launch,
        // absorbed by the bounded step retry.
        FaultPlan::new().transient_at_launch(3),
        // Device 2: the whole device drops off the bus mid-shard; the
        // shard fails over to a surviving device.
        FaultPlan::new().lose_device_at_launch(2),
    ];
    let faulty = run_nextdoor_multi_gpu(&spec, 3, &graph, &app, &init, 7, &plans).unwrap();

    assert!(
        faulty.report.degraded_to_out_of_core,
        "shard 0 should have degraded to out-of-core: {}",
        faulty.report
    );
    assert!(
        faulty.report.step_retries >= 1,
        "the transient fault should have forced at least one retry: {}",
        faulty.report
    );
    assert_eq!(faulty.report.devices_lost, 1, "{}", faulty.report);
    assert_eq!(faulty.report.failovers, 1, "{}", faulty.report);

    // Shard `i` holds the `i`-th third of the samples, keyed `seed ^ i`.
    assert_eq!(faulty.per_gpu.len(), 3);
    for (shard, (f, init)) in faulty
        .per_gpu
        .iter()
        .zip(init.chunks(init.len().div_ceil(3)))
        .enumerate()
    {
        assert_eq!(
            digest(&f.store),
            cpu_digest(&graph, &app, init, 7 ^ shard as u64),
            "faulty run must reproduce the fault-free samples exactly"
        );
    }
}

#[test]
fn upload_oom_degrades_to_out_of_core_with_identical_samples() {
    let (graph, init) = workload(64);
    let app = KHop::new(vec![3, 2]);

    let mut gpu = Gpu::new(GpuSpec::small());
    gpu.inject_faults(FaultPlan::new().fail_alloc(0));
    let degraded = run_nextdoor(&mut gpu, &graph, &app, &init, 4).unwrap();
    assert!(degraded.report.degraded_to_out_of_core);
    assert!(degraded.report.alloc_faults >= 1);
    assert_eq!(digest(&degraded.store), cpu_digest(&graph, &app, &init, 4));
}

#[test]
fn transient_fault_is_retried_transparently() {
    let (graph, init) = workload(64);
    let app = KHop::new(vec![3, 2]);

    let mut gpu = Gpu::new(GpuSpec::small());
    gpu.inject_faults(FaultPlan::new().transient_at_launch(2));
    let retried = run_nextdoor(&mut gpu, &graph, &app, &init, 4).unwrap();
    assert!(retried.report.transient_faults >= 1);
    assert!(retried.report.step_retries >= 1);
    assert_eq!(digest(&retried.store), cpu_digest(&graph, &app, &init, 4));
}

#[test]
fn persistent_watchdog_timeouts_exhaust_retries_into_a_typed_error() {
    let (graph, init) = workload(64);

    let mut gpu = Gpu::new(GpuSpec::small());
    // A budget no kernel can meet: every attempt times out, the bounded
    // retry loop gives up with a typed error instead of hanging or
    // panicking.
    gpu.inject_faults(FaultPlan::new().watchdog_cycles(1.0));
    let err = run_nextdoor(&mut gpu, &graph, &KHop::new(vec![3, 2]), &init, 4)
        .err()
        .expect("persistent timeouts must fail the run");
    assert!(
        matches!(err, NextDoorError::KernelFault { .. }),
        "expected KernelFault, got {err:?}"
    );
}

#[test]
fn lost_single_device_is_a_typed_error_not_a_panic() {
    let (graph, init) = workload(32);

    let mut gpu = Gpu::new(GpuSpec::small());
    gpu.inject_faults(FaultPlan::new().lose_device_at_launch(1));
    let err = run_nextdoor(&mut gpu, &graph, &KHop::new(vec![3, 2]), &init, 4)
        .err()
        .expect("a lost device must fail the single-GPU run");
    assert!(
        matches!(err, NextDoorError::DeviceLost { device: 0 }),
        "expected DeviceLost, got {err:?}"
    );
}

#[test]
fn invalid_inputs_are_typed_errors() {
    let graph = Dataset::Ppi.generate(0.02, 3);
    let mut gpu = Gpu::new(GpuSpec::small());
    let app = KHop::new(vec![3, 2]);

    let res = run_nextdoor(&mut gpu, &graph, &app, &[], 1);
    assert!(matches!(res, Err(NextDoorError::EmptyInit)));

    let out_of_range = vec![vec![graph.num_vertices() as u32 + 7]];
    let res = run_nextdoor(&mut gpu, &graph, &app, &out_of_range, 1);
    assert!(matches!(res, Err(NextDoorError::RootOutOfRange { .. })));
}

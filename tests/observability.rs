//! The observability layer's conservation contract, extending the
//! profiler's (`tests/profiling.rs`) to the serving tier: spans and
//! metrics are *derived views* of the batcher and fleet state machines,
//! so every number they report must reproduce the primary accounting —
//! per-request latencies, `FleetReport` counters, device launch totals —
//! bit-exactly. Nothing here is allowed to be "close": the recorders
//! replay the same f64 expressions in the same order as the machinery
//! they observe.

mod common;

use common::ppi_workload;
use nextdoor::apps::KHop;
use nextdoor::core::SamplerSession;
use nextdoor::gpu::{FaultPlan, Gpu, GpuSpec};
use nextdoor::graph::VertexId;
use nextdoor::serve::{
    BreakerConfig, FleetBatcher, MicroBatcher, PoolConfig, Priority, ReplicaPool, Request,
    ServeConfig, ServeError, SpanKind,
};

fn app() -> Box<dyn nextdoor::core::SamplingApp + Send> {
    Box::new(KHop::new(vec![3, 2]))
}

/// Per-request span durations are the request's latency fields, bit-exact,
/// and the micro-batcher's metrics counters and histogram sums reproduce
/// the drain's outcomes and the device's launch total.
#[test]
fn micro_batcher_spans_and_metrics_reproduce_the_drain() {
    let (graph, init) = ppi_workload(48);
    let session = SamplerSession::new(GpuSpec::small(), graph, app()).unwrap();
    let mut b = MicroBatcher::new(session, ServeConfig::default()).unwrap();
    // Mixed widths so the drain produces a multi-class fused dispatch.
    let widths = [1usize, 2, 1, 3];
    for (r, &w) in widths.iter().enumerate() {
        let roots: Vec<Vec<VertexId>> = init[r * 8..(r + 1) * 8]
            .iter()
            .map(|s| vec![s[0]; w])
            .collect();
        b.submit(Request::new(roots, 70 + r as u64)).unwrap();
    }
    let served = b.drain();
    assert!(served.iter().all(|(_, r)| r.is_ok()));

    // Span durations == latency fields, per request, bit-exact.
    let spans = b.trace().spans();
    let mut queued_sum = 0.0f64;
    let mut service_sum = 0.0f64;
    let mut total_sum = 0.0f64;
    for (id, outcome) in &served {
        let resp = outcome.as_ref().unwrap();
        let queued = spans
            .iter()
            .find(|s| s.kind == SpanKind::Queued && s.request == Some(*id))
            .expect("every served request has a Queued span");
        let completion = spans
            .iter()
            .find(|s| s.kind == SpanKind::Completion && s.request == Some(*id))
            .expect("every served request has a Completion span");
        assert_eq!(queued.duration_ms(), resp.latency.queued_ms, "{id:?}");
        assert_eq!(completion.duration_ms(), resp.latency.total_ms, "{id:?}");
        assert_eq!(
            completion.end_ms - queued.end_ms,
            resp.latency.service_ms,
            "{id:?}: dispatch start to completion is the service time"
        );
        queued_sum += resp.latency.queued_ms;
        service_sum += resp.latency.service_ms;
        total_sum += resp.latency.total_ms;
    }

    // Metrics counters mirror the drain and the trace.
    let m = b.metrics();
    assert_eq!(m.sim.admitted, widths.len() as u64);
    assert_eq!(m.sim.completed, served.len() as u64);
    assert_eq!(m.sim.batches, b.trace().count(SpanKind::Dispatch) as u64);
    assert_eq!(
        m.sim.class_launches,
        b.trace().count(SpanKind::ClassLaunch) as u64
    );
    assert_eq!(
        m.sim.class_launches,
        b.launches(),
        "one ClassLaunch span per fused launch sequence"
    );
    // Histogram sums replay the same additions in the same order as the
    // drain's outcome list, so they agree bit-exactly.
    assert_eq!(m.sim.queued_ms.sum(), queued_sum);
    assert_eq!(m.sim.service_ms.sum(), service_sum);
    assert_eq!(m.sim.total_ms.sum(), total_sum);
    assert_eq!(m.sim.total_ms.count(), served.len() as u64);

    // Launch conservation: the Dispatch spans' half-open launch ranges
    // tile the device's launch counter, and each dispatch's ClassLaunch
    // spans tile their dispatch's range.
    let dispatches: Vec<_> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Dispatch)
        .collect();
    let spanned: u64 = dispatches
        .iter()
        .map(|s| {
            let (l0, l1) = s.launches.unwrap();
            let class_spanned: u64 = spans
                .iter()
                .filter(|c| c.kind == SpanKind::ClassLaunch && c.batch == s.batch)
                .map(|c| {
                    let (c0, c1) = c.launches.unwrap();
                    assert!(l0 <= c0 && c1 <= l1, "class range inside its dispatch");
                    c1 - c0
                })
                .sum();
            assert_eq!(class_spanned, l1 - l0, "classes tile the dispatch");
            l1 - l0
        })
        .sum();
    assert_eq!(
        spanned,
        b.session().gpu().launches_issued(),
        "dispatch spans account for every device launch"
    );
    // Every retained kernel record is linkable: its launch index falls in
    // exactly one dispatch span's range.
    for k in b.session().gpu().profile().kernels() {
        let owners = dispatches
            .iter()
            .filter(|s| {
                let (l0, l1) = s.launches.unwrap();
                l0 <= k.launch_idx && k.launch_idx < l1
            })
            .count();
        assert_eq!(owners, 1, "kernel launch {} has one owner", k.launch_idx);
    }
}

/// The `FleetReport`'s recovery counters, which it reads from the metrics
/// registry, match sources the registry does not feed: the trace's span
/// population and the drain's typed outcomes. The fault script drives
/// every recovery path at least once: retries with backoff, a breaker
/// cool-down wait, and a degraded-mode shed.
#[test]
fn fleet_metrics_and_trace_reproduce_the_fleet_report() {
    let (graph, init) = ppi_workload(48);
    let mk_gpu = |plan: Option<FaultPlan>| {
        let mut gpu = Gpu::new(GpuSpec::small());
        if let Some(p) = plan {
            gpu.inject_faults(p);
        }
        gpu
    };
    // A failed attempt on this stream's 4-request batches burns 40
    // launches: four tries of step 0 at 10 launches each (8 build the
    // scheduling index, then the transit and sub-warp kernels). An
    // 80-launch storm on both replicas fails each one's first two attempts,
    // tripping both breakers inside the first batch, so its fifth attempt
    // finds neither routable and waits out a cool-down longer than one
    // failed attempt. Replica 1 is then lost at launch 140, three clean
    // two-step dispatches (20 launches each) after its storm, while eight
    // requests are queued against the halved cap of four: the rest is shed.
    let storm = || FaultPlan {
        transient_launches: (0..80).collect(),
        ..FaultPlan::new()
    };
    let pool = ReplicaPool::new(
        vec![
            mk_gpu(Some(storm())),
            mk_gpu(Some(storm().lose_device_at_launch(140))),
        ],
        &graph,
        app,
        PoolConfig {
            max_retries: 6,
            backoff_base_ms: 0.001,
            breaker: BreakerConfig {
                trip_after: 2,
                cooldown_ms: 0.2,
            },
        },
    )
    .unwrap();
    let mut fleet = FleetBatcher::new(
        pool,
        ServeConfig {
            max_batch: 4,
            max_queue: 8,
            default_deadline_ms: None,
        },
    )
    .unwrap();
    let mut outcomes = Vec::new();
    for (w, chunk) in init.chunks(8).enumerate() {
        for (i, s) in chunk.iter().enumerate() {
            let roots = vec![s.clone(); 1];
            fleet
                .submit(
                    Request::new(roots, (w * 8 + i) as u64).with_priority(if i % 3 == 0 {
                        Priority::High
                    } else {
                        Priority::Low
                    }),
                )
                .unwrap();
        }
        outcomes.extend(fleet.drain());
    }
    assert_eq!(outcomes.len(), init.len().min(48));
    let overloaded = outcomes
        .iter()
        .filter(|(_, r)| matches!(r, Err(ServeError::Overloaded { .. })))
        .count() as u64;

    let report = fleet.report();
    let m = fleet.metrics();
    let t = fleet.trace();
    assert!(report.retries > 0, "the storm must force retries");
    assert!(
        report.cooldown_waits >= 1,
        "both breakers were open at a pick"
    );
    assert!(report.shed >= 1, "the degraded fleet shed its excess queue");
    assert!(report.replicas[1].lost, "replica 1 was lost mid-stream");
    // Each dispatch, served or failed, records one Dispatch span.
    assert_eq!(t.count(SpanKind::Dispatch) as u64, report.batches);
    assert_eq!(overloaded, report.shed, "one Overloaded outcome per shed");
    assert_eq!(m.sim.admitted, 48);
    // Everything the pool dispatched either completed, missed its
    // deadline after service, or exhausted the retry budget.
    assert_eq!(
        report.requests,
        m.sim.completed + m.sim.deadline_missed + m.sim.failed
    );
    // The trace's span population mirrors the same counters.
    assert_eq!(t.count(SpanKind::Backoff) as u64, report.retries);
    assert_eq!(
        t.count(SpanKind::CooldownWait) as u64,
        report.cooldown_waits
    );
    assert_eq!(t.count(SpanKind::OverloadShed) as u64, report.shed);
    assert_eq!(
        t.count(SpanKind::Attempt) as u64,
        report.replicas.iter().map(|r| r.dispatches).sum::<u64>(),
        "one Attempt span per replica dispatch"
    );
    // Per-priority metrics partition the global ones.
    let by_priority: u64 = [Priority::Low, Priority::Normal, Priority::High]
        .iter()
        .map(|p| {
            let pm = m.priority(*p);
            pm.completed + pm.deadline_missed + pm.expired_shed + pm.overload_shed
        })
        .sum();
    assert_eq!(
        by_priority,
        m.sim.completed + m.sim.deadline_missed + m.sim.expired_shed + m.sim.overload_shed
    );
}

//! End-to-end guarantees of the serving layer: micro-batch fusion and
//! session reuse are pure throughput levers — every request's samples must
//! be bit-identical to a standalone run of the same `(init, seed)`, under
//! fault plans and deadline rejections included.

mod common;

use common::{cpu_digest, digest};
use nextdoor::apps::KHop;
use nextdoor::core::session::{SamplerSession, SessionQuery};
use nextdoor::core::{initial_samples_random, NextDoorError};
use nextdoor::gpu::{FaultPlan, GpuSpec};
use nextdoor::graph::{Csr, Dataset, VertexId};
use nextdoor::serve::{
    BatchEngine, MicroBatcher, Request, RequestId, RequestOutcome, SampleServer, ServeConfig,
    ServeError,
};

fn workload() -> (Csr, Vec<Vec<Vec<VertexId>>>) {
    let graph = Dataset::Ppi.generate(0.02, 5);
    let inits = (0..4)
        .map(|r| initial_samples_random(&graph, 24, 1, 100 + r).unwrap())
        .collect();
    (graph, inits)
}

fn session(graph: &Csr) -> SamplerSession {
    SamplerSession::new(
        GpuSpec::small(),
        graph.clone(),
        Box::new(KHop::new(vec![3, 2])),
    )
    .unwrap()
}

/// Request `r` of `inits`, seeded `r`, fused into one drain of a fresh
/// batcher: the outcomes and the batcher.
fn drain_fused(
    graph: &Csr,
    inits: &[Vec<Vec<VertexId>>],
) -> (Vec<(RequestId, RequestOutcome)>, MicroBatcher) {
    let mut batcher = MicroBatcher::new(session(graph), ServeConfig::default()).unwrap();
    for (r, init) in inits.iter().enumerate() {
        batcher
            .submit(Request::new(init.clone(), r as u64))
            .unwrap();
    }
    (batcher.drain(), batcher)
}

/// The CPU oracle's digest of request `(init, seed)` on the suite's app.
fn oracle(graph: &Csr, init: &[Vec<VertexId>], seed: u64) -> String {
    cpu_digest(graph, &KHop::new(vec![3, 2]), init, seed)
}

#[test]
fn fused_batch_is_bit_identical_to_sequential_requests() {
    let (graph, inits) = workload();
    let (served, _) = drain_fused(&graph, &inits);
    assert_eq!(served.len(), inits.len());
    for ((_, outcome), (r, init)) in served.iter().zip(inits.iter().enumerate()) {
        let resp = outcome.as_ref().unwrap();
        assert_eq!(resp.latency.batch_size, inits.len(), "requests did fuse");
        assert_eq!(digest(&resp.store), oracle(&graph, init, r as u64));
    }
}

#[test]
fn mixed_width_fused_batches_are_bit_identical_to_standalone_runs() {
    // Requests with different root-set widths land in one drain. The
    // width-class scheduler fuses each class separately, so nobody is
    // blocked behind a width change — and per-sample RNG keying keeps
    // every request's samples bit-identical to a standalone run of the
    // same `(init, seed)`.
    let graph = Dataset::Ppi.generate(0.02, 5);
    let widths = [1usize, 2, 1, 3, 2, 1];
    let inits: Vec<Vec<Vec<VertexId>>> = widths
        .iter()
        .enumerate()
        .map(|(r, &w)| initial_samples_random(&graph, 16, w, 300 + r as u64).unwrap())
        .collect();

    let (served, batcher) = drain_fused(&graph, &inits);
    assert_eq!(served.len(), inits.len());
    assert_eq!(
        batcher.launches(),
        3,
        "three width classes fuse into three launch sequences, not six"
    );
    let mut seen = vec![false; inits.len()];
    for (id, outcome) in &served {
        let r = id.0 as usize;
        seen[r] = true;
        let resp = outcome.as_ref().unwrap();
        assert_eq!(
            digest(&resp.store),
            oracle(&graph, &inits[r], r as u64),
            "request {r} (width {}) diverged from its standalone run",
            widths[r]
        );
    }
    assert!(seen.iter().all(|&s| s), "every request got an outcome");
}

#[test]
fn warm_session_reuse_is_identical_to_cold_one_shot_runs() {
    let (graph, inits) = workload();
    let mut warm = session(&graph);
    for (r, init) in inits.iter().enumerate() {
        let seed = 40 + r as u64;
        let warm_res = warm.query(init, seed).unwrap();
        assert_eq!(digest(&warm_res.store), oracle(&graph, init, seed));
    }
    assert_eq!(warm.queries_served(), inits.len() as u64);
}

#[test]
fn direct_fused_session_queries_match_solo_queries() {
    let (graph, inits) = workload();
    let mut s = session(&graph);
    let queries: Vec<SessionQuery> = inits
        .iter()
        .enumerate()
        .map(|(r, init)| SessionQuery {
            init: init.clone(),
            seed: 70 + r as u64,
        })
        .collect();
    let fused = s.query_fused(&queries).unwrap();
    for (q, sliced) in queries.iter().zip(&fused.per_query) {
        assert_eq!(digest(sliced), oracle(&graph, &q.init, q.seed));
    }
}

#[test]
fn faulted_batch_misses_one_deadline_while_batchmates_complete_identically() {
    let (graph, inits) = workload();

    // Clean pass: what the fused batch produces and how long it takes on
    // the simulated clock when nothing goes wrong.
    let (clean_served, _) = drain_fused(&graph, &inits);
    let clean_total_ms = clean_served[0].1.as_ref().unwrap().latency.total_ms;

    // Faulty pass: a transient kernel fault forces a step retry, inflating
    // the batch on the simulated clock. Request 1 carries a deadline sized
    // for the clean batch, so the fault pushes it — and only it — over.
    let mut batcher = MicroBatcher::new(session(&graph), ServeConfig::default()).unwrap();
    batcher
        .session_mut()
        .gpu_mut()
        .inject_faults(FaultPlan::new().transient_at_launch(3));
    for (r, init) in inits.iter().enumerate() {
        let mut req = Request::new(init.clone(), r as u64);
        if r == 1 {
            req.deadline_ms = Some(clean_total_ms * 1.05);
        }
        batcher.submit(req).unwrap();
    }
    let served = batcher.drain();
    assert_eq!(served.len(), inits.len());
    // The deadline-carrying request is the most urgent, so EDF serves it
    // first; match outcomes by id rather than by drain position.
    assert_eq!(served[0].0 .0, 1, "EDF puts the deadline holder first");
    for (id, outcome) in &served {
        let r = id.0 as usize;
        if r == 1 {
            match outcome {
                Err(ServeError::DeadlineExceeded {
                    deadline_ms,
                    observed_ms,
                }) => assert!(observed_ms > deadline_ms),
                other => panic!("request 1 should miss its deadline, got {other:?}"),
            }
        } else {
            let resp = outcome.as_ref().unwrap();
            assert!(
                resp.report.transient_faults >= 1 && resp.report.step_retries >= 1,
                "fault plan did not fire: {}",
                resp.report
            );
            assert_eq!(
                digest(&resp.store),
                oracle(&graph, &inits[r], r as u64),
                "surviving request {r} must reproduce the fault-free samples"
            );
        }
    }
}

#[test]
fn admission_control_rejects_with_typed_errors() {
    let (graph, inits) = workload();
    let mut batcher = MicroBatcher::new(
        session(&graph),
        ServeConfig {
            max_queue: 2,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    batcher.submit(Request::new(inits[0].clone(), 1)).unwrap();
    batcher.submit(Request::new(inits[1].clone(), 2)).unwrap();
    assert_eq!(
        batcher.submit(Request::new(inits[2].clone(), 3)).err(),
        Some(ServeError::QueueFull { capacity: 2 }),
        "bounded queue applies backpressure"
    );
    let served = batcher.drain();
    assert_eq!(served.len(), 2, "rejected requests never reach the device");
    assert!(matches!(
        batcher.submit(Request::new(vec![vec![u32::MAX]], 4)).err(),
        Some(ServeError::Sampling(NextDoorError::RootOutOfRange { .. }))
    ));
    batcher.submit(Request::new(inits[2].clone(), 3)).unwrap();
}

#[test]
fn sustained_overload_backpressure_is_deterministic_and_lossless() {
    // Drive the batcher well past `max_queue` for many rounds. The
    // regression contract: backpressure is *deterministic* (the same
    // submissions are rejected every round), *bounded* (never more than
    // `max_queue` admitted), and *lossless* for admitted requests (every
    // admitted id is served exactly once, in order, successfully).
    let (graph, inits) = workload();
    let mut batcher = MicroBatcher::new(
        session(&graph),
        ServeConfig {
            max_batch: 2,
            max_queue: 4,
            default_deadline_ms: None,
        },
    )
    .unwrap();
    let mut next_seed = 0u64;
    let mut last_served_id: Option<RequestId> = None;
    for round in 0..20 {
        let mut admitted = Vec::new();
        let mut rejected = 0usize;
        for _ in 0..8 {
            match batcher.submit(Request::new(inits[0].clone(), next_seed)) {
                Ok(id) => admitted.push(id),
                Err(ServeError::QueueFull { capacity }) => {
                    assert_eq!(capacity, 4);
                    rejected += 1;
                }
                Err(e) => panic!("unexpected admission error: {e}"),
            }
            next_seed += 1;
        }
        assert_eq!(
            admitted.len(),
            4,
            "round {round}: exactly max_queue admitted"
        );
        assert_eq!(rejected, 4, "round {round}: the rest rejected, not dropped");

        let served = batcher.drain();
        assert_eq!(batcher.pending_len(), 0);
        let served_ids: Vec<RequestId> = served.iter().map(|(id, _)| *id).collect();
        assert_eq!(
            served_ids, admitted,
            "round {round}: every admitted request served once, in order"
        );
        for (id, outcome) in &served {
            assert!(
                outcome.is_ok(),
                "round {round}: admitted request {id:?} must not be dropped: {outcome:?}"
            );
        }
        // Ids keep growing monotonically across rounds — nothing is
        // recycled or silently swallowed by the overload.
        if let Some(prev) = last_served_id {
            assert!(served_ids[0] > prev);
        }
        last_served_id = served_ids.last().copied();
    }
}

/// A [`BatchEngine`] whose worker dies mid-request, standing in for any
/// panic inside the scheduler thread.
struct PanickingEngine {
    next: u64,
}

impl BatchEngine for PanickingEngine {
    fn submit(&mut self, _req: Request) -> Result<RequestId, ServeError> {
        let id = RequestId(self.next);
        self.next += 1;
        Ok(id)
    }

    fn drain(&mut self) -> Vec<(RequestId, RequestOutcome)> {
        panic!("worker thread dies while serving");
    }
}

#[test]
fn dead_worker_thread_yields_server_gone_instead_of_hanging() {
    // Regression: `Ticket::wait` used to block forever if the scheduler
    // thread panicked (or the server was dropped) after admitting the
    // request. Now the vanished reply channel surfaces as a typed
    // `ServerGone`.
    let server = SampleServer::start(PanickingEngine { next: 0 });
    let client = server.client();
    let ticket = client
        .submit(Request::new(vec![vec![0]], 1))
        .expect("server was up at submission");
    assert_eq!(ticket.wait().err(), Some(ServeError::ServerGone));
    // Later traffic sees a typed refusal too (Disconnected at submission
    // or ServerGone from an abandoned reply, depending on shutdown
    // interleaving) — never a hang.
    assert!(matches!(
        client.query(Request::new(vec![vec![0]], 2)),
        Err(ServeError::Disconnected) | Err(ServeError::ServerGone)
    ));
    // Drop (not shutdown) reaps the panicked thread without re-raising.
    drop(server);
}

#[test]
fn threaded_server_serves_concurrent_clients_bit_identically() {
    let (graph, inits) = workload();
    let server =
        SampleServer::start(MicroBatcher::new(session(&graph), ServeConfig::default()).unwrap());
    let handles: Vec<_> = inits
        .iter()
        .enumerate()
        .map(|(r, init)| {
            let client = server.client();
            let init = init.clone();
            std::thread::spawn(move || client.query(Request::new(init, r as u64)).unwrap())
        })
        .collect();
    let responses: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    server.shutdown();
    for (r, (resp, init)) in responses.iter().zip(&inits).enumerate() {
        assert_eq!(digest(&resp.store), oracle(&graph, init, r as u64));
    }
}

//! Sampling-as-a-service over the NextDoor engine.
//!
//! Graph-ML training loops ask for samples continuously; paying graph
//! upload and engine setup per call wastes most of the GPU's time (the
//! paper's end-to-end integration keeps sampling state resident across
//! training iterations, §8). This crate serves sampling queries from
//! persistent state, in layers:
//!
//! 1. [`SamplerSession`](nextdoor_core::session::SamplerSession)
//!    (in `nextdoor-core`) — uploads the graph once and answers many
//!    queries, including *fused* multi-query batches that are bit-identical
//!    to standalone runs.
//! 2. [`Batcher`] — the one front door: deterministic admission control
//!    (bounded queue, eager input + config validation), width-class batch
//!    formation with earliest-deadline-first scheduling ([`Priority`]
//!    breaks ties) up to a batch cap, per-request deadlines on the
//!    simulated clock (expired requests are shed before touching the
//!    device), degraded-capacity shedding, typed per-request errors
//!    ([`ServeError`]), and the request-lifecycle trace and metrics. It
//!    serves its batches through a [`Backend`]; [`MicroBatcher`] is the
//!    batcher over one session, [`FleetBatcher`] the batcher over a
//!    [`ReplicaPool`].
//! 3. [`SampleServer`] — a scheduler thread that burst-collects concurrent
//!    client requests into the batcher and mails each result back through
//!    a [`Ticket`]. It is generic over a [`BatchEngine`], so the same
//!    server fronts a lone session or a replicated pool.
//! 4. [`ReplicaPool`] — the fault-tolerant backend: N session replicas of
//!    the same graph behind a deterministic router with retry/backoff and
//!    per-replica circuit breakers ([`CircuitBreaker`]); a
//!    [`FleetBatcher`] over it degrades gracefully with priority shedding
//!    and reports every recovery decision in a per-run [`FleetReport`].
//!    All of it runs on the simulated fleet clock, so chaos runs are
//!    bit-identical at any host thread count.
//! 5. [`ShardedPool`] — the sharded tier: the graph **partitioned** across
//!    N devices instead of replicated, with partition-aware request
//!    routing, cross-shard walker hand-off in deterministic super-steps,
//!    per-shard circuit breakers, and typed [`ServeError::ShardLost`]
//!    shedding when a request's home shard is permanently gone. Samples
//!    stay bit-identical to single-device runs.
//!
//! ```
//! use nextdoor_core::api::{NextCtx, SamplingApp, Steps};
//! use nextdoor_core::session::SamplerSession;
//! use nextdoor_gpu::GpuSpec;
//! use nextdoor_graph::gen::{rmat, RmatParams};
//! use nextdoor_serve::{MicroBatcher, Request, SampleServer, ServeConfig};
//!
//! struct Walk;
//! impl SamplingApp for Walk {
//!     fn name(&self) -> &'static str { "walk" }
//!     fn steps(&self) -> Steps { Steps::Fixed(3) }
//!     fn sample_size(&self, _step: usize) -> usize { 1 }
//!     fn next(&self, ctx: &mut NextCtx<'_>) -> Option<u32> {
//!         let d = ctx.num_edges();
//!         if d == 0 { return None; }
//!         let i = ctx.rand_range(d);
//!         Some(ctx.src_edge(i))
//!     }
//! }
//!
//! let graph = rmat(8, 1200, RmatParams::SKEWED, 1);
//! let session = SamplerSession::new(GpuSpec::small(), graph, Box::new(Walk))
//!     .expect("graph fits on the device");
//! let batcher = MicroBatcher::new(session, ServeConfig::default())
//!     .expect("default config is valid");
//! let server = SampleServer::start(batcher);
//!
//! // Requests of *different* widths (vertices per sample) are welcome:
//! // the batcher groups them into width classes, one fused launch each.
//! let client = server.client();
//! let tickets: Vec<_> = (0..4)
//!     .map(|seed| {
//!         let width = 1 + (seed as usize % 2);
//!         let init = (0..8).map(|i| vec![i as u32; width]).collect();
//!         client.submit(Request::new(init, seed)).expect("server is up")
//!     })
//!     .collect();
//! for t in tickets {
//!     let resp = t.wait().expect("valid request, no deadline");
//!     assert_eq!(resp.store.num_samples(), 8);
//! }
//! server.shutdown();
//! ```

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod batcher;
pub mod error;
pub mod health;
pub mod metrics;
pub mod replica;
pub mod server;
pub mod shard;
pub mod trace;

pub use batcher::{
    Backend, Batcher, MicroBatcher, Priority, Request, RequestId, RequestLatency, Response,
    ServeConfig,
};
pub use error::ServeError;
pub use health::{BreakerConfig, BreakerState, CircuitBreaker};
pub use metrics::{
    Histogram, PriorityMetrics, ServeMetrics, SimMetrics, TuningMetrics, DEPTH_BOUNDS,
    LATENCY_BOUNDS_MS, SIZE_BOUNDS, WIDTH_BOUNDS,
};
pub use replica::{FleetBatcher, FleetReport, PoolConfig, ReplicaPool, ReplicaStats};
pub use server::{BatchEngine, RequestOutcome, SampleServer, ServeClient, Ticket};
pub use shard::{ShardDispatch, ShardPoolConfig, ShardedPool};
pub use trace::{write_fleet_trace, Obs, Span, SpanKind, Tracer};

//! NextDoor: transit-parallel graph sampling on (simulated) GPUs.
//!
//! This crate implements the core contribution of *"Accelerating Graph
//! Sampling for Graph Machine Learning using GPUs"* (EuroSys 2021):
//!
//! * the high-level **graph sampling abstraction** (§3) and programming API
//!   (§4) — [`api::SamplingApp`], [`api::NextCtx`];
//! * the **transit-parallel engine** with per-step scheduling index,
//!   three load-balanced kernel classes and adjacency caching (§6) —
//!   [`engine::nextdoor::run_nextdoor`];
//! * the **SP** and vanilla **TP** comparison engines (§5) and a sequential
//!   CPU oracle — [`engine::sp`], [`engine::tp`], [`engine::cpu`];
//! * **collective transit sampling** (§6.2), **unique neighbours** (§6.3),
//!   **multi-GPU sampling** (§6.4) — [`multi_gpu`] — and the
//!   **out-of-GPU-memory mode** for large graphs (§8.4) — [`large_graph`].
//!
//! All engines produce bit-identical samples for the same inputs; they
//! differ (and are measured) only in how they schedule work on the GPU.
//!
//! Every `run_*` entry point returns `Result<_, `[`NextDoorError`]`>` and
//! never panics on user input: inputs are validated up front, device-memory
//! exhaustion degrades the NextDoor engine to the out-of-core engine,
//! transiently-faulted steps are retried (the counter-based RNG makes
//! re-runs bit-identical), and multi-GPU runs fail a lost device's shard
//! over to a survivor. The [`FaultReport`] on every result records what the
//! run survived; faults can be scripted deterministically with
//! [`nextdoor_gpu::FaultPlan`].
//!
//! # Examples
//!
//! ```
//! use nextdoor_core::api::{NextCtx, SamplingApp, Steps};
//! use nextdoor_core::engine::{initial_samples_random, nextdoor::run_nextdoor};
//! use nextdoor_graph::gen::{rmat, RmatParams};
//! use nextdoor_gpu::{Gpu, GpuSpec};
//!
//! struct UniformWalk;
//! impl SamplingApp for UniformWalk {
//!     fn name(&self) -> &'static str { "uniform-walk" }
//!     fn steps(&self) -> Steps { Steps::Fixed(4) }
//!     fn sample_size(&self, _step: usize) -> usize { 1 }
//!     fn next(&self, ctx: &mut NextCtx<'_>) -> Option<u32> {
//!         let d = ctx.num_edges();
//!         if d == 0 { return None; }
//!         let i = ctx.rand_range(d);
//!         Some(ctx.src_edge(i))
//!     }
//! }
//!
//! let graph = rmat(8, 1000, RmatParams::SKEWED, 1);
//! let init = initial_samples_random(&graph, 32, 1, 7).expect("graph is non-empty");
//! let mut gpu = Gpu::new(GpuSpec::small());
//! let result = run_nextdoor(&mut gpu, &graph, &UniformWalk, &init, 42)
//!     .expect("inputs are valid and the graph fits");
//! assert_eq!(result.store.num_samples(), 32);
//! assert!(result.report.is_clean());
//! ```

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod api;
pub mod engine;
pub mod error;
pub mod gpu_graph;
pub mod large_graph;
pub mod multi_gpu;
pub mod session;
pub mod sharded;
pub mod store;
pub mod tuning;

pub use api::{NextCtx, SampleView, SamplingApp, SamplingType, Steps, NULL_VERTEX};
pub use engine::cpu::{run_cpu, run_cpu_keyed};
pub use engine::nextdoor::run_nextdoor;
pub use engine::profile::{classify_kernel, KernelBreakdown, KernelPhase, RunProfile, StepProfile};
pub use engine::sp::run_sample_parallel;
pub use engine::tp::run_vanilla_tp;
pub use engine::{initial_samples_random, EngineStats, RunResult, SampleKeys};
pub use error::{validate_run, FaultReport, NextDoorError};
pub use gpu_graph::GpuGraph;
pub use session::{ClassMark, FusedResult, SamplerSession, SessionQuery};
pub use sharded::{ShardHandoff, ShardedFusedResult, ShardedRunOut, ShardedSampler, SuperStepMark};
pub use store::SampleStore;
pub use tuning::{AutoTuner, CacheConfig, CacheStats, HotTransitCache, TunerConfig, TuningPlan};

/// Compile-checks the code blocks in `TUNING.md` (the autotuning guide) as
/// doctests, so the documented examples cannot rot.
#[cfg(doctest)]
mod tuning_doc_tests {
    #![doc = include_str!("../../../TUNING.md")]
}

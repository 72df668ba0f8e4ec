//! A deterministic SIMT GPU simulator.
//!
//! The NextDoor paper's claims are statements about GPU micro-architectural
//! behaviour: memory-transaction coalescing, warp divergence, shared-memory
//! caching, and load balance across streaming multiprocessors (SMs). This
//! crate provides a *functional + cost-model* simulator that makes all of
//! those first-class, measurable quantities, so the transit-parallel engine
//! and its baselines can be compared the same way the paper compares them
//! with `nvprof`.
//!
//! # Model
//!
//! * Kernels execute **warp-synchronously**: every operation is issued for
//!   all 32 lanes of a warp at once ([`WarpCtx`]). Global-memory operations
//!   are coalesced into 32-byte sectors exactly as NVIDIA hardware counts
//!   transactions; shared-memory and shuffle operations are charged their
//!   (much smaller) fixed costs.
//! * User-defined per-lane code (the `next` function of a sampling
//!   application) records a [`LaneTrace`]; [`WarpCtx::replay`] aligns the 32
//!   traces position-by-position, detects divergence (lanes performing
//!   different kinds of operations, or finishing at different times), and
//!   charges serialised execution.
//! * Thread blocks are list-scheduled onto SMs ([`sched`]); the kernel's
//!   simulated time is the makespan, so load imbalance — the paper's central
//!   concern — directly lengthens simulated time. Low occupancy exposes
//!   global-memory latency instead of bandwidth.
//! * All nvprof-style metrics are accumulated in [`Counters`]: load/store
//!   transactions and requests, shared traffic, divergent branches,
//!   multiprocessor activity, store efficiency.
//!
//! The simulator is fully deterministic: kernels obtain randomness from the
//! counter-based generator in [`rng`], keyed by logical identifiers rather
//! than execution order. Because blocks are data-independent, [`Gpu::launch`]
//! executes them concurrently on a host worker pool (size controlled by
//! `GpuSpec::host_threads` / `NEXTDOOR_SIM_THREADS`) while reducing all
//! statistics in canonical block order, so every counter, profile record and
//! sampled output is bit-identical at any thread count — see [`launch`] for
//! the full argument.
//!
//! # Examples
//!
//! ```
//! use nextdoor_gpu::{Gpu, GpuSpec, LaunchConfig, WARP_SIZE};
//!
//! let mut gpu = Gpu::new(GpuSpec::small());
//! let src = gpu.to_device(&(0u32..128).collect::<Vec<_>>());
//! let dst = gpu.alloc::<u32>(128);
//! gpu.launch("double", LaunchConfig::grid1d(128, 64), |blk| {
//!     blk.for_each_warp(|w| {
//!         let idx = w.global_thread_ids();
//!         let mask = w.mask_where(|l| idx[l] < 128);
//!         let v = w.ld_global(&src, &idx, mask);
//!         let doubled = w.map(v, mask, |x| x * 2);
//!         w.st_global(&dst, &idx, doubled, mask);
//!     });
//! });
//! assert_eq!(dst.as_slice()[5], 10);
//! assert!(gpu.counters().gld_transactions > 0);
//! let _ = WARP_SIZE;
//! ```

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod algorithms;
pub mod block;
pub mod counters;
pub mod fault;
pub mod host;
pub mod lane;
pub mod launch;
pub mod mem;
pub mod profile;
#[cfg(test)]
mod reference;
pub mod rng;
pub mod sched;
pub mod spec;
pub mod warp;

pub use block::BlockCtx;
pub use counters::{Counters, KernelStats};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use host::{BlockShards, SyncSlice};
pub use lane::{LaneOp, LaneTrace};
pub use launch::{Gpu, LaunchConfig};
pub use mem::{DeviceBuffer, OutOfMemory};
pub use profile::{
    json_escape, kernel_anchor, summarize_kernels, write_chrome_trace, write_kernel_report,
    ChromeTraceWriter, KernelRecord, KernelSummary, Profile, ProfileEvent, TransferDir,
    TransferRecord,
};
pub use spec::{CostModel, GpuSpec};
pub use warp::{Mask, WarpCtx, WARP_SIZE};

//! The simulated GPU device: memory allocation and kernel launches.
//!
//! # Host threading model
//!
//! Blocks within a launch are data-independent in every kernel this
//! simulator runs (randomness is keyed by logical coordinates, not
//! execution order), so [`Gpu::launch`] may execute them concurrently on a
//! host worker pool. Determinism is preserved by construction: each worker
//! accumulates per-block `block::BlockStats` shards for a
//! *contiguous* chunk of blocks, the shards are concatenated in canonical
//! block order, and every reduction (counter merge, block-time vector, SM
//! schedule) then runs over that ordered sequence — exactly the arithmetic
//! the sequential loop performs. `host_threads = 1` *is* the sequential
//! loop. Kernels whose semantics depend on cross-block execution order
//! (e.g. consuming the return value of a global atomic as a store index)
//! must use [`Gpu::launch_ordered`], which always runs blocks sequentially.

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use crate::block::{BlockCtx, BlockStats};
use crate::counters::{Counters, KernelStats};
use crate::fault::{FaultEvent, FaultKind, FaultPlan};
use crate::mem::{DeviceBuffer, MemTracker, OutOfMemory};
use crate::profile::{KernelRecord, Profile, ProfileEvent, TransferDir, TransferRecord};
use crate::sched;
use crate::spec::GpuSpec;
use crate::warp::WARP_SIZE;

/// Grid and block dimensions of a kernel launch (1-D, as all NextDoor
/// kernels are).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Number of thread blocks.
    pub grid_dim: usize,
    /// Threads per block (multiple of the warp size for full warps).
    pub block_dim: usize,
}

impl LaunchConfig {
    /// Creates a config covering at least `total_threads` with blocks of
    /// `block_dim` threads.
    ///
    /// # Panics
    ///
    /// Panics if `block_dim` is zero or exceeds 1024.
    pub fn grid1d(total_threads: usize, block_dim: usize) -> Self {
        assert!(block_dim > 0, "block_dim must be positive");
        assert!(block_dim <= 1024, "block_dim exceeds the CUDA limit");
        LaunchConfig {
            grid_dim: total_threads.div_ceil(block_dim),
            block_dim,
        }
    }

    /// Total threads in the launch.
    pub fn total_threads(&self) -> usize {
        self.grid_dim * self.block_dim
    }
}

/// Resolves the worker-thread count for a device: an explicit spec value
/// wins, then the `NEXTDOOR_SIM_THREADS` environment variable, then the
/// machine's available parallelism.
fn resolve_host_threads(spec_threads: usize) -> usize {
    if spec_threads > 0 {
        return spec_threads;
    }
    if let Ok(s) = std::env::var("NEXTDOOR_SIM_THREADS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A simulated GPU device.
///
/// Owns the memory tracker and the accumulated [`Counters`]; kernels are
/// launched with [`Gpu::launch`]. Buffers are owned by the caller so that
/// kernels can borrow them under the usual Rust rules; device stores go
/// through shared references (see [`DeviceBuffer`]), which is what lets a
/// launch execute its blocks on several host threads at once.
pub struct Gpu {
    spec: GpuSpec,
    tracker: Arc<MemTracker>,
    host_threads: usize,
    counters: Counters,
    profile: Profile,
    charge_transfers: bool,
    fault_plan: Option<FaultPlan>,
    alloc_seq: Cell<u64>,
    launch_seq: u64,
    faults: RefCell<Vec<FaultEvent>>,
    lost: Cell<bool>,
}

impl Gpu {
    /// Creates a device with the given specification.
    ///
    /// The host worker-thread count is resolved here, once:
    /// `spec.host_threads` if non-zero, else `NEXTDOOR_SIM_THREADS`, else
    /// available parallelism.
    pub fn new(spec: GpuSpec) -> Self {
        let tracker = MemTracker::new(spec.device_memory);
        let host_threads = resolve_host_threads(spec.host_threads);
        Gpu {
            spec,
            tracker,
            host_threads,
            counters: Counters::default(),
            profile: Profile::default(),
            charge_transfers: false,
            fault_plan: None,
            alloc_seq: Cell::new(0),
            launch_seq: 0,
            faults: RefCell::new(Vec::new()),
            lost: Cell::new(false),
        }
    }

    /// The device specification.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Resolved host worker-thread count used by [`Gpu::launch`].
    pub fn host_threads(&self) -> usize {
        self.host_threads
    }

    /// Installs a [`FaultPlan`]; faults fire at the scripted allocation and
    /// launch indices (see [`crate::fault`] for the exact semantics).
    /// Replaces any previously installed plan; use [`Gpu::extend_faults`]
    /// to compose plans mid-run.
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        self.fault_plan = Some(plan);
    }

    /// Merges `plan` into the device's installed fault plan (installing it
    /// if none is present). Together with [`FaultPlan::shifted`] this lets
    /// a chaos harness schedule additional faults relative to "now" on a
    /// device that already has traffic — and possibly a plan — behind it.
    pub fn extend_faults(&mut self, plan: FaultPlan) {
        match &mut self.fault_plan {
            Some(existing) => existing.merge(&plan),
            None => self.fault_plan = Some(plan),
        }
    }

    /// Drains the fault events recorded since the last call.
    pub fn take_faults(&mut self) -> Vec<FaultEvent> {
        std::mem::take(&mut *self.faults.borrow_mut())
    }

    /// Whether the device has been lost (a scripted
    /// [`FaultKind::DeviceLost`] fault fired).
    pub fn device_lost(&self) -> bool {
        self.lost.get()
    }

    /// Advances the allocation counter; returns the index if this
    /// allocation is scripted to fail.
    fn alloc_fault(&self) -> Option<u64> {
        let idx = self.alloc_seq.get();
        self.alloc_seq.set(idx + 1);
        let plan = self.fault_plan.as_ref()?;
        plan.alloc_oom.contains(&idx).then_some(idx)
    }

    /// Allocates a zero-initialised device buffer.
    ///
    /// An injected allocation fault on this path is *correctable*: the
    /// event is recorded for [`Gpu::take_faults`] and the allocation
    /// proceeds (see [`crate::fault`]).
    ///
    /// # Panics
    ///
    /// Panics when device memory is genuinely exhausted; use
    /// [`Gpu::try_alloc`] for the fallible path (the out-of-memory
    /// experiment needs it).
    pub fn alloc<T: Copy + Default>(&self, len: usize) -> DeviceBuffer<T> {
        if let Some(idx) = self.alloc_fault() {
            self.faults.borrow_mut().push(FaultEvent::alloc(idx));
        }
        DeviceBuffer::new(len, self.tracker.clone()).expect("device memory exhausted")
    }

    /// Allocates a zero-initialised device buffer, reporting exhaustion.
    /// Injected allocation faults surface here as `Err(OutOfMemory)`.
    pub fn try_alloc<T: Copy + Default>(&self, len: usize) -> Result<DeviceBuffer<T>, OutOfMemory> {
        if let Some(idx) = self.alloc_fault() {
            self.faults.borrow_mut().push(FaultEvent::alloc(idx));
            return Err(OutOfMemory {
                requested: len * std::mem::size_of::<T>(),
                available: self.tracker.capacity() - self.tracker.used(),
            });
        }
        DeviceBuffer::new(len, self.tracker.clone())
    }

    /// Copies a host slice to a fresh device buffer, charging the PCIe
    /// transfer when transfer charging is enabled.
    ///
    /// An injected allocation fault on this path is *correctable*, as for
    /// [`Gpu::alloc`].
    ///
    /// # Panics
    ///
    /// Panics when device memory is genuinely exhausted.
    pub fn to_device<T: Copy + Default>(&mut self, src: &[T]) -> DeviceBuffer<T> {
        if let Some(idx) = self.alloc_fault() {
            self.faults.borrow_mut().push(FaultEvent::alloc(idx));
        }
        let buf =
            DeviceBuffer::from_slice(src, self.tracker.clone()).expect("device memory exhausted");
        self.charge_htod(buf.size_bytes());
        buf
    }

    /// Fallible variant of [`Gpu::to_device`]. Injected allocation faults
    /// surface here as `Err(OutOfMemory)`.
    pub fn try_to_device<T: Copy + Default>(
        &mut self,
        src: &[T],
    ) -> Result<DeviceBuffer<T>, OutOfMemory> {
        if let Some(idx) = self.alloc_fault() {
            self.faults.borrow_mut().push(FaultEvent::alloc(idx));
            return Err(OutOfMemory {
                requested: std::mem::size_of_val(src),
                available: self.tracker.capacity() - self.tracker.used(),
            });
        }
        let buf = DeviceBuffer::from_slice(src, self.tracker.clone())?;
        self.charge_htod(buf.size_bytes());
        Ok(buf)
    }

    /// Copies a host slice into host-staged (pinned) memory: addressable by
    /// kernels but not counted against device capacity and never subject to
    /// fault injection. The out-of-core engine stages the full graph this
    /// way and models residency via explicit per-step transfers.
    pub fn host_stage<T: Copy + Default>(&mut self, src: &[T]) -> DeviceBuffer<T> {
        DeviceBuffer::staged(src, self.tracker.clone())
    }

    /// Enables or disables charging of host↔device transfer time. The paper
    /// excludes transfer time except in the large-graph experiment (§8.4).
    pub fn set_charge_transfers(&mut self, yes: bool) {
        self.charge_transfers = yes;
    }

    /// Charges a host-to-device transfer of `bytes` (if charging is on).
    pub fn charge_htod(&mut self, bytes: usize) {
        self.charge_transfer(TransferDir::HtoD, bytes);
    }

    /// Charges a device-to-host transfer of `bytes` (if charging is on).
    pub fn charge_dtoh(&mut self, bytes: usize) {
        self.charge_transfer(TransferDir::DtoH, bytes);
    }

    fn charge_transfer(&mut self, dir: TransferDir, bytes: usize) {
        let start_cycles = self.counters.cycles;
        let cycles = if self.charge_transfers {
            self.spec.pcie_cycles(bytes)
        } else {
            0.0
        };
        match dir {
            TransferDir::HtoD => self.counters.htod_bytes += bytes as u64,
            TransferDir::DtoH => self.counters.dtoh_bytes += bytes as u64,
        }
        self.counters.cycles += cycles;
        self.profile.push(ProfileEvent::Transfer(TransferRecord {
            dir,
            bytes: bytes as u64,
            start_cycles,
            cycles,
        }));
    }

    /// Bytes of device memory currently allocated.
    pub fn mem_used(&self) -> usize {
        self.tracker.used()
    }

    /// Device memory capacity in bytes.
    pub fn mem_capacity(&self) -> usize {
        self.tracker.capacity()
    }

    /// Launches a kernel: `kernel` is invoked once per thread block, with
    /// blocks distributed over the device's host worker threads (see the
    /// module docs for the determinism argument). The kernel closure is
    /// shared by the workers, so it must be `Fn + Sync`; device writes go
    /// through `&DeviceBuffer` and host-memory outputs through
    /// [`crate::SyncSlice`] / [`crate::BlockShards`].
    ///
    /// Returns the per-launch statistics; the same deltas are accumulated
    /// into [`Gpu::counters`]. Results are bit-identical at any thread
    /// count.
    pub fn launch(
        &mut self,
        name: &str,
        cfg: LaunchConfig,
        kernel: impl Fn(&mut BlockCtx<'_>) + Sync,
    ) -> KernelStats {
        let launch_idx = self.pre_launch(name);
        let threads = self.host_threads.min(cfg.grid_dim.max(1));
        let blocks = if threads <= 1 {
            run_blocks_sequential(&self.spec, cfg, kernel)
        } else {
            run_blocks_parallel(&self.spec, cfg, threads, &kernel)
        };
        self.post_launch(name, cfg, launch_idx, &blocks)
    }

    /// Launches a kernel whose blocks must execute **sequentially in block
    /// order** on the host, because its semantics observe cross-block
    /// execution order — e.g. a queue built from the return values of
    /// global atomics, as the baseline frontier kernels do. Cost accounting
    /// is identical to [`Gpu::launch`]; only the execution strategy
    /// differs, and `FnMut` closures (mutable host captures) are allowed.
    pub fn launch_ordered(
        &mut self,
        name: &str,
        cfg: LaunchConfig,
        mut kernel: impl FnMut(&mut BlockCtx<'_>),
    ) -> KernelStats {
        let launch_idx = self.pre_launch(name);
        let mut blocks = Vec::with_capacity(cfg.grid_dim);
        for b in 0..cfg.grid_dim {
            let mut ctx = BlockCtx::new(b, cfg.block_dim, &self.spec);
            kernel(&mut ctx);
            blocks.push(ctx.stats);
        }
        self.post_launch(name, cfg, launch_idx, &blocks)
    }

    /// Fault hooks and launch-index bookkeeping shared by both launch
    /// entry points.
    fn pre_launch(&mut self, name: &str) -> u64 {
        let launch_idx = self.launch_seq;
        self.launch_seq += 1;
        if let Some(plan) = &self.fault_plan {
            if plan.device_lost_at_launch == Some(launch_idx) && !self.lost.get() {
                self.lost.set(true);
                self.faults.borrow_mut().push(FaultEvent::launch(
                    FaultKind::DeviceLost,
                    launch_idx,
                    name,
                ));
            }
            if plan.transient_launches.contains(&launch_idx) {
                self.faults.borrow_mut().push(FaultEvent::launch(
                    FaultKind::TransientMemory,
                    launch_idx,
                    name,
                ));
            }
        }
        launch_idx
    }

    /// Reduces per-block stats (in canonical block order) into launch
    /// counters, block times, the SM schedule, and the profile record —
    /// the same arithmetic regardless of how the blocks were executed.
    fn post_launch(
        &mut self,
        name: &str,
        cfg: LaunchConfig,
        launch_idx: u64,
        blocks: &[BlockStats],
    ) -> KernelStats {
        let warps_per_block = cfg.block_dim.div_ceil(WARP_SIZE).max(1);
        let mut launch_counters = Counters::default();
        let mut max_shared_words = 0usize;
        for b in blocks {
            launch_counters.merge(&b.counters);
            max_shared_words = max_shared_words.max(b.shared_words_used);
        }
        // Occupancy: how many blocks can an SM host at once?
        let resident_blocks = self.resident_blocks(cfg.block_dim, max_shared_words * 4);
        let resident_warps = (warps_per_block * resident_blocks).min(self.spec.max_warps_per_sm);
        // Convert each block's cost components to a time, overlapping
        // compute with memory and hiding latency behind the resident warps.
        let cost = &self.spec.cost;
        let mut block_times = Vec::with_capacity(blocks.len());
        for b in blocks {
            let latency_bound = b.mem_requests as f64 * cost.global_latency / resident_warps as f64;
            let t = b.pipeline_cycles.max(b.mem_bw_cycles).max(latency_bound) + cost.block_overhead;
            block_times.push(t);
        }
        let sch = sched::schedule(self.spec.num_sms, 1, &block_times);
        let cycles = sch.makespan + cost.launch_overhead;
        if let Some(budget) = self.fault_plan.as_ref().and_then(|p| p.watchdog_cycles) {
            if cycles > budget {
                self.faults.borrow_mut().push(FaultEvent::launch(
                    FaultKind::WatchdogTimeout,
                    launch_idx,
                    name,
                ));
            }
        }
        launch_counters.launches = 1;
        launch_counters.cycles = cycles;
        launch_counters.sm_busy_cycles = sch.busy;
        launch_counters.sm_total_cycles = sch.makespan * self.spec.num_sms as f64;
        let start_cycles = self.counters.cycles;
        self.counters.merge(&launch_counters);
        self.profile.push(ProfileEvent::Kernel(KernelRecord {
            name: name.to_string(),
            launch_idx,
            grid_dim: cfg.grid_dim,
            block_dim: cfg.block_dim,
            start_cycles,
            cycles,
            counters: launch_counters,
            occupancy: resident_warps as f64 / self.spec.max_warps_per_sm as f64,
            per_sm_busy: sch.per_sm,
            shared_mem_bytes: max_shared_words * 4,
        }));
        KernelStats {
            name: name.to_string(),
            blocks: cfg.grid_dim,
            threads_per_block: cfg.block_dim,
            cycles,
            counters: launch_counters,
        }
    }

    /// Number of blocks of `block_dim` threads and `shared_bytes` of shared
    /// memory that one SM can host concurrently (see
    /// [`GpuSpec::resident_blocks`] — the launch path and the planners
    /// share one definition of occupancy).
    fn resident_blocks(&self, block_dim: usize, shared_bytes: usize) -> usize {
        self.spec.resident_blocks(block_dim, shared_bytes)
    }

    /// Accumulated counters over all launches and transfers.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// The bounded per-kernel/per-transfer profile buffer (see
    /// [`crate::profile`]).
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Kernel launches issued so far. Monotonic over the device's lifetime
    /// (never reset), so a pair of snapshots brackets the profile records
    /// of any code region by `launch_idx`.
    pub fn launches_issued(&self) -> u64 {
        self.launch_seq
    }

    /// Buffer allocations issued so far (the counter [`FaultPlan`] keys
    /// allocation faults off). Monotonic over the device's lifetime, like
    /// [`Gpu::launches_issued`].
    pub fn allocs_issued(&self) -> u64 {
        self.alloc_seq.get()
    }

    /// Total simulated time so far, in milliseconds.
    pub fn elapsed_ms(&self) -> f64 {
        self.spec.cycles_to_ms(self.counters.cycles)
    }

    /// Resets counters and the profile buffer (memory stays allocated).
    pub fn reset_counters(&mut self) {
        self.counters = Counters::default();
        self.profile.clear();
    }
}

/// The sequential block loop: today's exact code path (`host_threads = 1`).
fn run_blocks_sequential(
    spec: &GpuSpec,
    cfg: LaunchConfig,
    kernel: impl Fn(&mut BlockCtx<'_>),
) -> Vec<BlockStats> {
    let mut blocks = Vec::with_capacity(cfg.grid_dim);
    for b in 0..cfg.grid_dim {
        let mut ctx = BlockCtx::new(b, cfg.block_dim, spec);
        kernel(&mut ctx);
        blocks.push(ctx.stats);
    }
    blocks
}

/// Executes the grid as `threads` contiguous chunks on the worker pool.
/// Workers fill disjoint per-chunk shards; concatenating the shards in
/// chunk order restores canonical block order, so every downstream
/// reduction is bit-identical to the sequential loop's.
fn run_blocks_parallel(
    spec: &GpuSpec,
    cfg: LaunchConfig,
    threads: usize,
    kernel: &(impl Fn(&mut BlockCtx<'_>) + Sync),
) -> Vec<BlockStats> {
    let chunk = cfg.grid_dim.div_ceil(threads);
    let num_chunks = cfg.grid_dim.div_ceil(chunk.max(1));
    let mut shards: Vec<Vec<BlockStats>> = Vec::with_capacity(num_chunks);
    shards.resize_with(num_chunks, Vec::new);
    rayon::scope(|s| {
        for (c, shard) in shards.iter_mut().enumerate() {
            s.spawn(move |_| {
                let lo = c * chunk;
                let hi = ((c + 1) * chunk).min(cfg.grid_dim);
                shard.reserve(hi - lo);
                for b in lo..hi {
                    let mut ctx = BlockCtx::new(b, cfg.block_dim, spec);
                    kernel(&mut ctx);
                    shard.push(ctx.stats);
                }
            });
        }
    });
    shards.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::GpuSpec;
    use crate::warp::FULL_MASK;

    #[test]
    fn grid1d_rounds_up() {
        let c = LaunchConfig::grid1d(100, 32);
        assert_eq!(c.grid_dim, 4);
        assert_eq!(c.total_threads(), 128);
    }

    #[test]
    #[should_panic(expected = "CUDA limit")]
    fn grid1d_rejects_oversized_blocks() {
        let _ = LaunchConfig::grid1d(10, 2048);
    }

    #[test]
    fn simple_kernel_moves_data_and_counts() {
        let mut gpu = Gpu::new(GpuSpec::small());
        let src = gpu.to_device(&(0u32..64).collect::<Vec<_>>());
        let dst = gpu.alloc::<u32>(64);
        let stats = gpu.launch("copy", LaunchConfig::grid1d(64, 32), |blk| {
            blk.for_each_warp(|w| {
                let idx = w.global_thread_ids();
                let v = w.ld_global(&src, &idx, FULL_MASK);
                w.st_global(&dst, &idx, v, FULL_MASK);
            });
        });
        assert_eq!(dst.as_slice(), src.as_slice());
        assert_eq!(stats.blocks, 2);
        // A full warp reading 32 consecutive u32s touches 4 sectors.
        assert_eq!(stats.counters.gld_transactions, 8);
        assert_eq!(stats.counters.gst_transactions, 8);
        assert!((stats.counters.gst_efficiency() - 100.0).abs() < 1e-9);
        assert!(gpu.counters().cycles > 0.0);
    }

    #[test]
    fn strided_access_is_uncoalesced() {
        let mut gpu = Gpu::new(GpuSpec::small());
        let src = gpu.to_device(&vec![7u32; 32 * 32]);
        let dst = gpu.alloc::<u32>(32);
        let stats = gpu.launch("gather", LaunchConfig::grid1d(32, 32), |blk| {
            blk.for_each_warp(|w| {
                let idx: [usize; 32] = std::array::from_fn(|l| l * 32);
                let out_idx = w.global_thread_ids();
                let v = w.ld_global(&src, &idx, FULL_MASK);
                w.st_global(&dst, &out_idx, v, FULL_MASK);
            });
        });
        // 32 lanes × stride 128 bytes: every lane hits its own sector.
        assert_eq!(stats.counters.gld_transactions, 32);
        assert!(stats.counters.gld_efficiency() < 15.0);
    }

    #[test]
    fn imbalanced_blocks_lower_activity() {
        let mut gpu = Gpu::new(GpuSpec::small());
        let stats = gpu.launch(
            "skew",
            LaunchConfig {
                grid_dim: 8,
                block_dim: 32,
            },
            |blk| {
                let heavy = if blk.block_idx == 0 { 10_000 } else { 10 };
                blk.for_each_warp(|w| w.charge_compute(heavy));
            },
        );
        let act = stats.counters.multiprocessor_activity();
        assert!(act < 40.0, "activity {act} should reflect the straggler");
    }

    #[test]
    fn empty_launch_costs_only_overhead() {
        let mut gpu = Gpu::new(GpuSpec::small());
        let stats = gpu.launch(
            "noop",
            LaunchConfig {
                grid_dim: 0,
                block_dim: 32,
            },
            |_| {},
        );
        assert!((stats.cycles - gpu.spec().cost.launch_overhead).abs() < 1e-9);
    }

    #[test]
    fn transfer_charging_toggle() {
        let mut gpu = Gpu::new(GpuSpec::small());
        let _a = gpu.to_device(&vec![0u8; 1 << 20]);
        let free_cycles = gpu.counters().cycles;
        assert_eq!(free_cycles, 0.0, "transfers free by default");
        gpu.set_charge_transfers(true);
        let _b = gpu.to_device(&vec![0u8; 1 << 20]);
        assert!(gpu.counters().cycles > 0.0);
        assert_eq!(gpu.counters().htod_bytes, 2 << 20);
    }

    #[test]
    fn oom_reported_and_memory_reclaimed() {
        let mut spec = GpuSpec::small();
        spec.device_memory = 1 << 16;
        let gpu = Gpu::new(spec);
        let a = gpu.try_alloc::<u8>(50_000).unwrap();
        assert!(gpu.try_alloc::<u8>(50_000).is_err());
        drop(a);
        assert!(gpu.try_alloc::<u8>(50_000).is_ok());
    }

    #[test]
    fn injected_alloc_faults_err_on_fallible_and_correct_on_infallible() {
        use crate::fault::{FaultKind, FaultPlan};
        let mut gpu = Gpu::new(GpuSpec::small());
        gpu.inject_faults(FaultPlan::new().fail_alloc(0).fail_alloc(1));
        // Allocation #0 hits the fallible path: a real error.
        assert!(gpu.try_alloc::<u32>(8).is_err());
        // Allocation #1 hits the infallible path: correctable, succeeds.
        let buf = gpu.alloc::<u32>(8);
        assert_eq!(buf.len(), 8);
        // Allocation #2 is not scripted.
        assert!(gpu.try_alloc::<u32>(8).is_ok());
        let events = gpu.take_faults();
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|e| e.kind == FaultKind::AllocOom));
        assert!(gpu.take_faults().is_empty(), "take drains");
    }

    #[test]
    fn launch_faults_are_recorded_and_device_loss_sticks() {
        use crate::fault::{FaultKind, FaultPlan};
        let mut gpu = Gpu::new(GpuSpec::small());
        gpu.inject_faults(
            FaultPlan::new()
                .transient_at_launch(0)
                .lose_device_at_launch(2)
                .watchdog_cycles(0.0),
        );
        let run = |gpu: &mut Gpu| {
            gpu.launch(
                "noop",
                LaunchConfig {
                    grid_dim: 1,
                    block_dim: 32,
                },
                |blk| {
                    blk.for_each_warp(|w| w.charge_compute(10));
                },
            );
        };
        run(&mut gpu); // #0: transient + watchdog (budget 0)
        assert!(!gpu.device_lost());
        run(&mut gpu); // #1: watchdog only
        run(&mut gpu); // #2: device lost + watchdog
        assert!(gpu.device_lost());
        let events = gpu.take_faults();
        let count = |k: FaultKind| events.iter().filter(|e| e.kind == k).count();
        assert_eq!(count(FaultKind::TransientMemory), 1);
        assert_eq!(count(FaultKind::WatchdogTimeout), 3);
        assert_eq!(count(FaultKind::DeviceLost), 1, "loss recorded once");
        run(&mut gpu); // kernels still execute on a lost device
        assert!(gpu.device_lost());
    }

    #[test]
    fn fault_free_plan_changes_nothing() {
        use crate::fault::FaultPlan;
        let mut a = Gpu::new(GpuSpec::small());
        let mut b = Gpu::new(GpuSpec::small());
        b.inject_faults(FaultPlan::new());
        for gpu in [&mut a, &mut b] {
            let src = gpu.to_device(&(0u32..64).collect::<Vec<_>>());
            let dst = gpu.alloc::<u32>(64);
            gpu.launch("copy", LaunchConfig::grid1d(64, 32), |blk| {
                blk.for_each_warp(|w| {
                    let idx = w.global_thread_ids();
                    let v = w.ld_global(&src, &idx, FULL_MASK);
                    w.st_global(&dst, &idx, v, FULL_MASK);
                });
            });
        }
        assert_eq!(a.counters().cycles, b.counters().cycles);
        assert!(b.take_faults().is_empty());
    }

    #[test]
    fn reset_clears_counters_not_memory() {
        let mut gpu = Gpu::new(GpuSpec::small());
        let buf = gpu.to_device(&[1u32, 2, 3]);
        gpu.launch(
            "noop",
            LaunchConfig {
                grid_dim: 1,
                block_dim: 32,
            },
            |blk| {
                blk.for_each_warp(|w| w.charge_compute(1));
            },
        );
        gpu.reset_counters();
        assert_eq!(gpu.counters().cycles, 0.0);
        assert!(gpu.profile().is_empty());
        assert_eq!(buf.as_slice(), &[1, 2, 3]);
    }

    /// Runs the same skewed workload at a given thread count and returns
    /// everything observable: output data, counters, and block-time-derived
    /// cycle totals.
    fn run_at_threads(threads: usize) -> (Vec<u32>, Counters, Vec<KernelRecord>) {
        let mut spec = GpuSpec::small();
        spec.host_threads = threads;
        let mut gpu = Gpu::new(spec);
        let n = 4096usize;
        let src = gpu.to_device(&(0..n as u32).collect::<Vec<_>>());
        let dst = gpu.alloc::<u32>(n);
        gpu.launch("mix", LaunchConfig::grid1d(n, 64), |blk| {
            // Skew the per-block cost so chunk boundaries matter.
            let extra = (blk.block_idx % 7) as u64 * 13;
            blk.for_each_warp(|w| {
                let idx = w.global_thread_ids();
                let m = w.mask_where(|l| idx[l] < n);
                let v = w.ld_global(&src, &idx.map(|i| i.min(n - 1)), m);
                let out = w.map(v, m, |x| x.wrapping_mul(3).wrapping_add(1));
                w.charge_compute(extra);
                w.st_global(&dst, &idx.map(|i| i.min(n - 1)), out, m);
            });
        });
        let hist = crate::algorithms::histogram(&mut gpu, &src, n);
        let _ = hist;
        (
            dst.as_slice().to_vec(),
            *gpu.counters(),
            gpu.profile().kernels().cloned().collect(),
        )
    }

    #[test]
    fn parallel_launch_is_bit_identical_to_sequential() {
        let (d1, c1, k1) = run_at_threads(1);
        for threads in [2, 3, 4, 8] {
            let (d, c, k) = run_at_threads(threads);
            assert_eq!(d, d1, "output data differs at {threads} threads");
            assert_eq!(c, c1, "counters differ at {threads} threads");
            assert_eq!(k, k1, "kernel records differ at {threads} threads");
        }
    }

    #[test]
    fn launch_ordered_matches_launch_accounting() {
        let mut spec = GpuSpec::small();
        spec.host_threads = 4;
        let mut gpu = Gpu::new(spec);
        let src = gpu.to_device(&(0u32..256).collect::<Vec<_>>());
        let dst = gpu.alloc::<u32>(256);
        let par = gpu.launch("copy_par", LaunchConfig::grid1d(256, 32), |blk| {
            blk.for_each_warp(|w| {
                let idx = w.global_thread_ids();
                let v = w.ld_global(&src, &idx, FULL_MASK);
                w.st_global(&dst, &idx, v, FULL_MASK);
            });
        });
        let mut order = Vec::new();
        let seq = gpu.launch_ordered("copy_seq", LaunchConfig::grid1d(256, 32), |blk| {
            order.push(blk.block_idx);
            blk.for_each_warp(|w| {
                let idx = w.global_thread_ids();
                let v = w.ld_global(&src, &idx, FULL_MASK);
                w.st_global(&dst, &idx, v, FULL_MASK);
            });
        });
        assert_eq!(order, (0..8).collect::<Vec<_>>(), "strict block order");
        assert_eq!(par.counters.gld_transactions, seq.counters.gld_transactions);
        assert_eq!(par.cycles, seq.cycles);
    }

    #[test]
    fn env_threads_resolution_prefers_spec() {
        let mut spec = GpuSpec::small();
        spec.host_threads = 3;
        let gpu = Gpu::new(spec);
        assert_eq!(gpu.host_threads(), 3);
        // host_threads = 0 resolves to *something* positive.
        let gpu = Gpu::new(GpuSpec::small());
        assert!(gpu.host_threads() >= 1);
    }

    #[test]
    fn kernel_panics_propagate_from_worker_threads() {
        let mut spec = GpuSpec::small();
        spec.host_threads = 4;
        let mut gpu = Gpu::new(spec);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            gpu.launch(
                "boom",
                LaunchConfig {
                    grid_dim: 8,
                    block_dim: 32,
                },
                |blk| {
                    assert!(blk.block_idx != 5, "scripted kernel assert");
                },
            );
        }));
        assert!(res.is_err(), "block panic must reach the caller");
    }
}

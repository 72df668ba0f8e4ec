//! Warp-synchronous execution context.
//!
//! A [`WarpCtx`] exposes the operations a warp of 32 lanes can perform.
//! Every operation is issued for all active lanes at once, which is what
//! lets the simulator compute coalescing exactly: a global-memory operation
//! sees the 32 addresses and counts the distinct 32-byte sectors they touch.

use crate::counters::Counters;
use crate::lane::LaneTrace;
use crate::mem::DeviceBuffer;
use crate::rng;
use crate::spec::CostModel;

/// Number of lanes per warp, as on all recent NVIDIA hardware.
pub const WARP_SIZE: usize = 32;

/// Active-lane mask: bit `i` set means lane `i` participates.
pub type Mask = u32;

/// Mask with all 32 lanes active.
pub const FULL_MASK: Mask = u32::MAX;

/// Size in bytes of a global-memory sector (the granularity in which NVIDIA
/// hardware counts transactions).
pub const SECTOR_BYTES: u64 = 32;

/// Returns a mask with the first `n` lanes active.
///
/// # Panics
///
/// Panics if `n > 32`.
pub fn mask_first_n(n: usize) -> Mask {
    assert!(n <= WARP_SIZE);
    if n == WARP_SIZE {
        FULL_MASK
    } else {
        (1u32 << n) - 1
    }
}

/// Per-warp cost accumulation, folded into the owning block after the warp
/// finishes.
#[derive(Debug, Default, Clone)]
pub(crate) struct WarpStats {
    /// Pipeline cycles: compute, shared memory, shuffles, divergence.
    pub pipeline_cycles: f64,
    /// Bandwidth-bound global-memory cycles (transactions × sector cost).
    pub mem_bw_cycles: f64,
    /// Warp-level global-memory requests (latency-bound component).
    pub mem_requests: u64,
    /// Raw metric deltas.
    pub counters: Counters,
}

/// A handle to a block-shared memory array of `u32` words.
///
/// Obtained from [`crate::BlockCtx::shared_alloc`]; read and written with
/// [`WarpCtx::ld_shared`] and [`WarpCtx::st_shared`].
#[derive(Debug, Clone, Copy)]
pub struct SharedArray {
    pub(crate) offset: usize,
    pub(crate) len: usize,
}

impl SharedArray {
    /// Number of `u32` words in the array.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the array has zero words.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Execution context of one warp.
pub struct WarpCtx<'a> {
    /// Index of the owning block within the grid.
    pub block_idx: usize,
    /// Index of this warp within its block.
    pub warp_in_block: usize,
    /// Threads per block of the launch.
    pub block_dim: usize,
    pub(crate) cost: &'a CostModel,
    pub(crate) shared: &'a mut Vec<u32>,
    pub(crate) stats: &'a mut WarpStats,
}

impl<'a> WarpCtx<'a> {
    /// Global thread id of each lane.
    pub fn global_thread_ids(&self) -> [usize; WARP_SIZE] {
        let base = self.block_idx * self.block_dim + self.warp_in_block * WARP_SIZE;
        std::array::from_fn(|l| base + l)
    }

    /// Thread id of each lane within the block.
    pub fn thread_ids_in_block(&self) -> [usize; WARP_SIZE] {
        let base = self.warp_in_block * WARP_SIZE;
        std::array::from_fn(|l| base + l)
    }

    /// Global id of this warp.
    pub fn global_warp_id(&self) -> usize {
        self.block_idx * (self.block_dim / WARP_SIZE) + self.warp_in_block
    }

    /// Builds a mask from a per-lane predicate. Free of charge: this is the
    /// SIMT front-end evaluating a predicate register.
    pub fn mask_where(&self, f: impl Fn(usize) -> bool) -> Mask {
        let mut m = 0u32;
        for l in 0..WARP_SIZE {
            if f(l) {
                m |= 1 << l;
            }
        }
        m
    }

    /// Applies `f` lane-wise under `mask`, charging one compute instruction.
    pub fn map<T: Copy + Default, U: Copy + Default>(
        &mut self,
        vals: [T; WARP_SIZE],
        mask: Mask,
        mut f: impl FnMut(T) -> U,
    ) -> [U; WARP_SIZE] {
        self.charge_compute(1);
        let mut out = [U::default(); WARP_SIZE];
        for l in 0..WARP_SIZE {
            if mask & (1 << l) != 0 {
                out[l] = f(vals[l]);
            }
        }
        out
    }

    /// Produces a lane vector from a per-lane function, charging one compute
    /// instruction (index arithmetic).
    pub fn lanes_from_fn<T: Copy + Default>(
        &mut self,
        mask: Mask,
        mut f: impl FnMut(usize) -> T,
    ) -> [T; WARP_SIZE] {
        self.charge_compute(1);
        let mut out = [T::default(); WARP_SIZE];
        for (l, slot) in out.iter_mut().enumerate() {
            if mask & (1 << l) != 0 {
                *slot = f(l);
            }
        }
        out
    }

    /// Charges `n` warp-level compute instructions.
    pub fn charge_compute(&mut self, n: u64) {
        self.stats.counters.compute_ops += n;
        self.stats.pipeline_cycles += n as f64 * self.cost.compute_cycles;
    }

    /// Records a divergence event that serialises the warp into `groups`
    /// execution groups, charging `groups - 1` extra instruction streams.
    pub fn charge_divergence(&mut self, groups: u64) {
        if groups > 1 {
            self.stats.counters.divergent_branches += groups - 1;
            self.stats.pipeline_cycles += (groups - 1) as f64 * self.cost.compute_cycles;
        }
    }

    /// Coalesced global load: reads `buf[idx[l]]` for every active lane.
    ///
    /// # Panics
    ///
    /// Panics if an active lane's index is out of bounds.
    pub fn ld_global<T: Copy + Default>(
        &mut self,
        buf: &DeviceBuffer<T>,
        idxs: &[usize; WARP_SIZE],
        mask: Mask,
    ) -> [T; WARP_SIZE] {
        let mut out = [T::default(); WARP_SIZE];
        if mask == 0 {
            return out;
        }
        let elem = std::mem::size_of::<T>() as u64;
        let mut sectors = SectorSet::new();
        let mut active = 0u64;
        for l in 0..WARP_SIZE {
            if mask & (1 << l) != 0 {
                out[l] = buf.read(idxs[l]);
                sectors.insert_range(buf.addr_of(idxs[l]), elem);
                active += 1;
            }
        }
        let tx = sectors.count();
        let c = &mut self.stats.counters;
        c.gld_requests += 1;
        c.gld_transactions += tx;
        c.gld_bytes_requested += active * elem;
        self.stats.mem_bw_cycles += tx as f64 * self.cost.global_tx_cycles;
        self.stats.mem_requests += 1;
        out
    }

    /// Coalesced global store: writes `vals[l]` to `buf[idx[l]]` for every
    /// active lane.
    ///
    /// # Panics
    ///
    /// Panics if an active lane's index is out of bounds. Two active lanes
    /// writing the same index is a data race on real hardware; the simulator
    /// lets the highest lane win, like CUDA's undefined-but-common outcome.
    /// The buffer is taken by shared reference — device stores mutate
    /// interior-mutable storage, so blocks of a parallel launch can write
    /// their disjoint elements concurrently (see [`DeviceBuffer`]).
    pub fn st_global<T: Copy + Default>(
        &mut self,
        buf: &DeviceBuffer<T>,
        idxs: &[usize; WARP_SIZE],
        vals: [T; WARP_SIZE],
        mask: Mask,
    ) {
        if mask == 0 {
            return;
        }
        let elem = std::mem::size_of::<T>() as u64;
        let mut sectors = SectorSet::new();
        let mut active = 0u64;
        for l in 0..WARP_SIZE {
            if mask & (1 << l) != 0 {
                buf.write(idxs[l], vals[l]);
                sectors.insert_range(buf.addr_of(idxs[l]), elem);
                active += 1;
            }
        }
        let tx = sectors.count();
        let c = &mut self.stats.counters;
        c.gst_requests += 1;
        c.gst_transactions += tx;
        c.gst_bytes_requested += active * elem;
        self.stats.mem_bw_cycles += tx as f64 * self.cost.global_tx_cycles;
        self.stats.mem_requests += 1;
    }

    /// Warp-level `atomicAdd` on a `u32` buffer; returns the pre-add values.
    ///
    /// Lanes hitting the same location are serialised, as on hardware: the
    /// returned old values reflect lane order. The add itself is a host
    /// atomic, so blocks of a parallel launch may target the same location;
    /// only the *returned* old values are then execution-order-dependent
    /// (use [`crate::Gpu::launch_ordered`] for kernels that consume them).
    pub fn atomic_add_global(
        &mut self,
        buf: &DeviceBuffer<u32>,
        idxs: &[usize; WARP_SIZE],
        vals: [u32; WARP_SIZE],
        mask: Mask,
    ) -> [u32; WARP_SIZE] {
        let mut out = [0u32; WARP_SIZE];
        if mask == 0 {
            return out;
        }
        let elem = std::mem::size_of::<u32>() as u64;
        let mut sectors = SectorSet::new();
        let mut active = 0u64;
        // Serialisation penalty: conflicting lanes replay the atomic.
        let mut conflicts = 0u64;
        let mut seen: Vec<usize> = Vec::new();
        for l in 0..WARP_SIZE {
            if mask & (1 << l) != 0 {
                let i = idxs[l];
                out[l] = buf.atomic_add(i, vals[l]);
                sectors.insert_range(buf.addr_of(i), elem);
                if seen.contains(&i) {
                    conflicts += 1;
                } else {
                    seen.push(i);
                }
                active += 1;
            }
        }
        let tx = sectors.count();
        let c = &mut self.stats.counters;
        c.atomics += 1;
        c.gst_requests += 1;
        c.gst_transactions += tx;
        c.gst_bytes_requested += active * elem;
        self.stats.mem_bw_cycles += tx as f64 * self.cost.global_tx_cycles;
        self.stats.mem_requests += 1;
        self.stats.pipeline_cycles += (1 + conflicts) as f64 * self.cost.atomic_cycles;
        out
    }

    /// Shared-memory load of `u32` words.
    ///
    /// # Panics
    ///
    /// Panics if an active lane indexes beyond `arr.len()`.
    pub fn ld_shared(
        &mut self,
        arr: &SharedArray,
        idxs: &[usize; WARP_SIZE],
        mask: Mask,
    ) -> [u32; WARP_SIZE] {
        let mut out = [0u32; WARP_SIZE];
        if mask == 0 {
            return out;
        }
        for l in 0..WARP_SIZE {
            if mask & (1 << l) != 0 {
                assert!(idxs[l] < arr.len, "shared load out of bounds");
                out[l] = self.shared[arr.offset + idxs[l]];
            }
        }
        self.stats.counters.shared_loads += 1;
        self.stats.pipeline_cycles += self.cost.shared_cycles;
        out
    }

    /// Shared-memory store of `u32` words.
    ///
    /// # Panics
    ///
    /// Panics if an active lane indexes beyond `arr.len()`.
    pub fn st_shared(
        &mut self,
        arr: &SharedArray,
        idxs: &[usize; WARP_SIZE],
        vals: [u32; WARP_SIZE],
        mask: Mask,
    ) {
        if mask == 0 {
            return;
        }
        for l in 0..WARP_SIZE {
            if mask & (1 << l) != 0 {
                assert!(idxs[l] < arr.len, "shared store out of bounds");
                self.shared[arr.offset + idxs[l]] = vals[l];
            }
        }
        self.stats.counters.shared_stores += 1;
        self.stats.pipeline_cycles += self.cost.shared_cycles;
    }

    /// Warp shuffle: every active lane reads `vals[srcs[l]]` from lane
    /// `srcs[l]`'s register.
    ///
    /// # Panics
    ///
    /// Panics if a source lane index is `>= 32`.
    pub fn shfl(
        &mut self,
        vals: [u32; WARP_SIZE],
        srcs: &[usize; WARP_SIZE],
        mask: Mask,
    ) -> [u32; WARP_SIZE] {
        let mut out = [0u32; WARP_SIZE];
        for l in 0..WARP_SIZE {
            if mask & (1 << l) != 0 {
                assert!(srcs[l] < WARP_SIZE, "shuffle source lane out of range");
                out[l] = vals[srcs[l]];
            }
        }
        self.stats.counters.shuffles += 1;
        self.stats.pipeline_cycles += self.cost.shfl_cycles;
        out
    }

    /// `__syncwarp()`: a cheap intra-warp barrier.
    pub fn syncwarp(&mut self) {
        self.stats.pipeline_cycles += 1.0;
    }

    /// One counter-based RNG draw per active lane, keyed by
    /// `(seed, key[l], salt)`.
    pub fn rand_lanes(
        &mut self,
        seed: u64,
        keys: &[u64; WARP_SIZE],
        salt: u64,
        mask: Mask,
    ) -> [u32; WARP_SIZE] {
        let mut out = [0u32; WARP_SIZE];
        for l in 0..WARP_SIZE {
            if mask & (1 << l) != 0 {
                out[l] = rng::rand_u32(seed, keys[l], salt);
            }
        }
        self.stats.counters.rand_draws += mask.count_ones() as u64;
        self.stats.pipeline_cycles += self.cost.rand_cycles;
        out
    }

    /// Replays per-lane traces recorded by user-defined code, charging
    /// coalesced memory traffic, compute, and divergence.
    ///
    /// `traces[l]` is ignored for lanes not in `mask`.
    pub fn replay(&mut self, traces: &[LaneTrace; WARP_SIZE], mask: Mask) {
        crate::lane::replay_traces(self, traces, mask);
    }
}

/// A small set of 32-byte sector ids. A warp touches at most a few dozen
/// sectors per operation, so a linear-probe vector beats a hash set.
pub(crate) struct SectorSet {
    sectors: Vec<u64>,
}

impl SectorSet {
    pub(crate) fn new() -> Self {
        SectorSet {
            sectors: Vec::with_capacity(WARP_SIZE),
        }
    }

    /// Inserts every sector overlapped by `[addr, addr + bytes)`.
    pub(crate) fn insert_range(&mut self, addr: u64, bytes: u64) {
        let first = addr / SECTOR_BYTES;
        let last = (addr + bytes.max(1) - 1) / SECTOR_BYTES;
        for s in first..=last {
            if !self.sectors.contains(&s) {
                self.sectors.push(s);
            }
        }
    }

    pub(crate) fn count(&self) -> u64 {
        self.sectors.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_first_n_bounds() {
        assert_eq!(mask_first_n(0), 0);
        assert_eq!(mask_first_n(1), 1);
        assert_eq!(mask_first_n(32), FULL_MASK);
    }

    #[test]
    #[should_panic]
    fn mask_first_n_rejects_over_32() {
        let _ = mask_first_n(33);
    }

    #[test]
    fn sector_set_counts_unique_sectors() {
        let mut s = SectorSet::new();
        s.insert_range(0, 4);
        s.insert_range(4, 4);
        assert_eq!(s.count(), 1, "same sector");
        s.insert_range(32, 4);
        assert_eq!(s.count(), 2);
        s.insert_range(30, 4); // straddles sectors 0 and 1
        assert_eq!(s.count(), 2);
        s.insert_range(1000, 4);
        assert_eq!(s.count(), 3);
    }
}

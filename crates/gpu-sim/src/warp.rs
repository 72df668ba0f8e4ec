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
        let span = |l: usize| sector_span(buf.addr_of(idxs[l]), elem);
        let mut sectors = SpanUnion::default();
        for l in lanes(mask) {
            out[l] = buf.read(idxs[l]);
            sectors.insert(span(l));
        }
        let tx = sectors.count_or(|| lanes(mask).map(span));
        self.charge_global(false, tx, mask.count_ones() as u64 * elem);
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
        let span = |l: usize| sector_span(buf.addr_of(idxs[l]), elem);
        let mut sectors = SpanUnion::default();
        for l in lanes(mask) {
            buf.write(idxs[l], vals[l]);
            sectors.insert(span(l));
        }
        let tx = sectors.count_or(|| lanes(mask).map(span));
        self.charge_global(true, tx, mask.count_ones() as u64 * elem);
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
        let span = |l: usize| sector_span(buf.addr_of(idxs[l]), elem);
        let index = |l: usize| (idxs[l] as u64, idxs[l] as u64);
        let mut sectors = SpanUnion::default();
        let mut indices = SpanUnion::default();
        for l in lanes(mask) {
            out[l] = buf.atomic_add(idxs[l], vals[l]);
            sectors.insert(span(l));
            indices.insert(index(l));
        }
        let tx = sectors.count_or(|| lanes(mask).map(span));
        let active = mask.count_ones() as u64;
        // Serialisation penalty: every lane after the first on an address
        // replays the atomic.
        let conflicts = active - indices.count_or(|| lanes(mask).map(index));
        self.stats.counters.atomics += 1;
        self.charge_global(true, tx, active * elem);
        self.stats.pipeline_cycles += (1 + conflicts) as f64 * self.cost.atomic_cycles;
        out
    }

    /// Charges one warp-level global-memory request of `tx` sector
    /// transactions and `bytes` requested bytes, as a store or a load.
    pub(crate) fn charge_global(&mut self, store: bool, tx: u64, bytes: u64) {
        let c = &mut self.stats.counters;
        if store {
            c.gst_requests += 1;
            c.gst_transactions += tx;
            c.gst_bytes_requested += bytes;
        } else {
            c.gld_requests += 1;
            c.gld_transactions += tx;
            c.gld_bytes_requested += bytes;
        }
        self.stats.mem_bw_cycles += tx as f64 * self.cost.global_tx_cycles;
        self.stats.mem_requests += 1;
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

/// The lanes set in `mask`, in ascending lane order.
pub(crate) fn lanes(mask: Mask) -> impl Iterator<Item = usize> {
    let mut rest = mask;
    std::iter::from_fn(move || {
        (rest != 0).then(|| {
            let l = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            l
        })
    })
}

/// First and last 32-byte sector overlapped by `[addr, addr + bytes)`; an
/// empty access still touches the sector holding `addr`.
#[inline]
pub(crate) fn sector_span(addr: u64, bytes: u64) -> (u64, u64) {
    (
        addr / SECTOR_BYTES,
        (addr + bytes.max(1) - 1) / SECTOR_BYTES,
    )
}

/// Counts the integers covered by up to [`WARP_SIZE`] inclusive spans —
/// the distinct sectors of one warp memory operation (one span per lane),
/// or the distinct indices of an atomic (`(i, i)` per lane).
///
/// Lanes mostly address ascending memory, so while the spans' starts do
/// not decrease the union is kept as a running count plus the highest
/// covered value: O(1) per lane, nothing stored. The first span starting
/// below its predecessor abandons the running count, and
/// [`SpanUnion::count_or`] recounts exactly from the caller's spans.
#[derive(Default)]
pub(crate) struct SpanUnion {
    count: u64,
    start: u64,
    end: u64,
    unordered: bool,
}

impl SpanUnion {
    /// Adds the span `first..=last`.
    #[inline]
    pub(crate) fn insert(&mut self, (first, last): (u64, u64)) {
        if self.count == 0 {
            (self.count, self.start, self.end) = (last - first + 1, first, last);
        } else if first < self.start {
            self.unordered = true;
        } else {
            self.start = first;
            if first > self.end {
                self.count += last - first + 1;
                self.end = last;
            } else if last > self.end {
                self.count += last - self.end;
                self.end = last;
            }
        }
    }

    /// The size of the union. If the spans arrived out of order, `spans`
    /// must yield the same spans again, and they are counted exactly on
    /// the stack: in an open-addressing set, at most half full, when each
    /// span is one value, else by sort and merge. Every access the engines
    /// and baselines issue is one aligned 4- or 8-byte element, a one-value
    /// span, so the set is the path that runs (LADIES's per-lane binary
    /// searches reach it often), and it counts without paying for a sort.
    #[inline]
    pub(crate) fn count_or<I: Iterator<Item = (u64, u64)>>(
        &self,
        spans: impl FnOnce() -> I,
    ) -> u64 {
        if !self.unordered {
            return self.count;
        }
        let mut buf = [(0u64, 0u64); WARP_SIZE];
        let mut n = 0;
        for s in spans() {
            buf[n] = s;
            n += 1;
        }
        let spans = &mut buf[..n];
        if spans.iter().all(|&(first, last)| first == last) {
            const SLOTS: usize = 2 * WARP_SIZE;
            // Sector ids and buffer indices never reach `u64::MAX`.
            const EMPTY: u64 = u64::MAX;
            let mut table = [EMPTY; SLOTS];
            let mut distinct = 0;
            for &(v, _) in spans.iter() {
                // Fibonacci hashing: the product's top bits pick the slot.
                let mut i = (v.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - SLOTS.trailing_zeros()))
                    as usize;
                while table[i] != v {
                    if table[i] == EMPTY {
                        table[i] = v;
                        distinct += 1;
                        break;
                    }
                    i = (i + 1) % SLOTS;
                }
            }
            return distinct;
        }
        spans.sort_unstable();
        let mut union = SpanUnion::default();
        spans.iter().for_each(|&s| union.insert(s));
        union.count
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
    fn span_union_counts_unique_sectors() {
        let spans = [
            sector_span(0, 4),
            sector_span(4, 4),
            sector_span(32, 4),
            sector_span(30, 4), // straddles sectors 0 and 1
            sector_span(1000, 4),
        ];
        let count = |n: usize| {
            let mut u = SpanUnion::default();
            spans[..n].iter().for_each(|&s| u.insert(s));
            u.count_or(|| spans[..n].iter().copied())
        };
        assert_eq!(count(2), 1, "same sector");
        assert_eq!(count(3), 2);
        assert_eq!(count(4), 2, "out of order: the exact recount");
        assert_eq!(count(5), 3);
        let points = [9, 3, 9, 5, 3].map(|v| (v, v));
        let mut u = SpanUnion::default();
        points.iter().for_each(|&p| u.insert(p));
        assert_eq!(u.count_or(|| points.into_iter()), 3, "the hash set");
    }

    #[test]
    fn lanes_iterates_set_bits_in_order() {
        assert_eq!(lanes(0).count(), 0);
        assert_eq!(lanes(0b1010_0001).collect::<Vec<_>>(), vec![0, 5, 7]);
        assert_eq!(lanes(FULL_MASK).count(), WARP_SIZE);
    }
}

//! Device-wide primitives built from simulated kernels, shaped like the
//! NVIDIA CUB kernels NextDoor calls.
//!
//! NextDoor builds its per-step scheduling index with CUB's radix sort and
//! scan (§6.1.2, §8.1). The primitives here launch what CUB launches, so
//! the index's measured cost (Figure 6) follows CUB's launch structure:
//!
//! * [`radix_sort_pairs`] is CUB `DeviceRadixSort::SortPairs`: a stable
//!   LSD radix sort on 8-bit digits.
//!   - An input of at most 4,864 keys is sorted by one launch,
//!     `radix_single_tile`, whose one block runs every digit pass in its
//!     own scratch, as CUB's `DeviceRadixSortSingleTileKernel` does. The
//!     capacity is the 256 threads × 19 keys of CUB 1.x's SM70 single-tile
//!     policy (`DeviceRadixSortPolicy::Policy700::SingleTilePolicy`), a
//!     figure recalled from CUB 1.x and not checked against its sources.
//!   - A larger input runs three launches per digit pass over 2,048-key
//!     tiles: the upsweep `radix_histogram`, the single-block spine scan
//!     `radix_scan_bins` (CUB's `RadixSortScanBinsKernel`) and the
//!     downsweep `radix_scatter`.
//! * [`exclusive_scan`] is CUB `DeviceScan::ExclusiveSum`: a single-pass
//!   scan with decoupled look-back (Merrill & Garland, "Single-pass
//!   Parallel Prefix Scan with Decoupled Look-back", NVIDIA NVR-2016-002).
//!   `scan_init` sets the tile status words, as `DeviceScanInitKernel`
//!   does, and `scan_tiles` scans, as `DeviceScanKernel` does.
//! * [`run_length_encode`] is CUB `DeviceRunLengthEncode::Encode`: a
//!   single-pass reduce-by-key with the same look-back. `rle_init`
//!   (`DeviceCompactInitKernel`) and `rle_sweep`
//!   (`DeviceReduceByKeyKernel`) yield each run's key and length.
//! * [`histogram`] issues one global atomic per element.
//! * [`bitonic_sort_shared`] is an in-block bitonic network over shared
//!   memory, used by the unique-neighbour stage (§6.3).
//!
//! # Launches
//!
//! Let `p` be the digit passes a key bound needs, `ceil(bits / 8)` and at
//! least 1. Sorting `n` keys takes no launch for `n <= 1`, one launch for
//! `n <= 4,864` and `3p` launches above. A single-tile sort still pays
//! for every digit pass in cycles. A scan or a run-length pass over
//! `n >= 1` items takes two launches, and over no items none.
//!
//! # Look-back
//!
//! The single-pass kernels cut their input into 256-item tiles. Tile `t`
//! publishes its aggregate, then reads its predecessors' status words a
//! warp-wide window of 32 at a time, newest first, until it meets an
//! inclusive prefix, and publishes its own inclusive prefix. Tile 0
//! publishes its inclusive prefix at once. On hardware, what a tile meets
//! depends on timing. The charge here is deterministic: tiles run in waves
//! of the device's concurrently resident tiles; a predecessor in an earlier
//! wave has published its inclusive prefix, and one in the same wave only
//! its aggregate. The sweep's blocks run in tile order
//! ([`Gpu::launch_ordered`]), as CUB's dynamically assigned tile ids make
//! them start.
//!
//! # Scratch
//!
//! A kernel keeps its block scratch (digit counters, exchange buffer, warp
//! aggregates) in shared memory when the spec's per-block budget holds it.
//! Otherwise the scratch lives in a global spill buffer and is charged as
//! global traffic: the fallback NextDoor's own kernels take (§6.1.2).
//!
//! Functional results are computed on the host; the kernels charge the
//! traffic the CUB kernels issue. Scratch and shuffle traffic is charged
//! without moving data, since nothing reads it back.

use crate::block::BlockCtx;
use crate::launch::{Gpu, LaunchConfig};
use crate::mem::DeviceBuffer;
use crate::warp::{lanes, mask_first_n, Mask, SharedArray, WarpCtx, FULL_MASK, WARP_SIZE};

/// Threads per block of the sorts and the single-pass kernels.
const BLOCK: usize = 256;
/// Warps per block.
const WARPS: usize = BLOCK / WARP_SIZE;
/// Threads per block of the tile-status init kernels (CUB's
/// `INIT_KERNEL_THREADS`).
const INIT_BLOCK: usize = 128;
/// Digit values of an 8-bit radix pass.
const RADIX: usize = 256;
/// Largest input the single-tile sort takes: 256 threads × 19 keys.
const SINGLE_TILE_KEYS: usize = BLOCK * 19;
/// Keys per tile of the multi-tile sort: 256 threads × 8 keys.
const RADIX_TILE: usize = 2048;
/// Items per tile of the single-pass kernels: 256 threads × 1 item.
const SCAN_TILE: usize = BLOCK;
/// Status words before tile 0, so that a look-back window never reads out
/// of bounds (CUB's `TILE_STATUS_PADDING`: one warp).
const STATUS_PADDING: usize = WARP_SIZE;
/// Scratch of a block scan: one aggregate per warp, then the tile prefix.
const SCAN_SCRATCH: usize = WARPS + 1;
/// Scratch of the single-tile sort: the digit counters, then an exchange
/// buffer of one tile (keys and values take turns in it, and the counter
/// scan's warp aggregates borrow its head).
const SINGLE_TILE_SCRATCH: usize = RADIX + SINGLE_TILE_KEYS;
/// Tile status flag: the tile has published its aggregate.
const AGGREGATE: u64 = 1;
/// Tile status flag: the tile has published its inclusive prefix.
const INCLUSIVE: u64 = 2;

/// One block's scratch words: claimed in shared memory, or a slice of a
/// global spill buffer when the spec's shared memory cannot hold them.
/// Accesses are charged, not performed: nothing reads scratch back.
enum Scratch<'a> {
    Shared {
        words: usize,
    },
    Spilled {
        buf: &'a DeviceBuffer<u32>,
        base: usize,
    },
}

impl<'a> Scratch<'a> {
    /// Claims `words` of scratch for the running block. `spill` is the
    /// launch's [`spill_buffer`]. `None` only when the block already holds
    /// shared memory, which no kernel here does before claiming.
    fn claim(
        blk: &mut BlockCtx<'_>,
        words: usize,
        spill: Option<&'a DeviceBuffer<u32>>,
    ) -> Option<Self> {
        match spill {
            Some(buf) => Some(Scratch::Spilled {
                buf,
                base: blk.block_idx * words,
            }),
            None => blk.shared_alloc(words).map(|_| Scratch::Shared { words }),
        }
    }

    /// Charges one warp-wide access, lane `l` of `mask` at word `idx(l)`:
    /// a shared-memory access, or a global one with its sectors when
    /// spilled. The words are computed only where their addresses count.
    fn access(&self, w: &mut WarpCtx<'_>, store: bool, mask: Mask, idx: impl Fn(usize) -> usize) {
        if mask == 0 {
            return;
        }
        match self {
            Scratch::Shared { words } => {
                debug_assert!(lanes(mask).all(|l| idx(l) < *words), "scratch index");
                w.charge_shared(store);
            }
            Scratch::Spilled { buf, base } => {
                let idx: [usize; WARP_SIZE] =
                    std::array::from_fn(|l| base + if mask & (1 << l) != 0 { idx(l) } else { 0 });
                if store {
                    w.st_global(buf, &idx, [0; WARP_SIZE], mask);
                } else {
                    let _ = w.ld_global(buf, &idx, mask);
                }
            }
        }
    }

    fn load(&self, w: &mut WarpCtx<'_>, mask: Mask, idx: impl Fn(usize) -> usize) {
        self.access(w, false, mask, idx);
    }

    fn store(&self, w: &mut WarpCtx<'_>, mask: Mask, idx: impl Fn(usize) -> usize) {
        self.access(w, true, mask, idx);
    }
}

/// The global spill buffer of `grid` blocks with `words` of scratch each,
/// allocated only when `words` overflow the spec's shared memory per
/// block.
fn spill_buffer(gpu: &Gpu, words: usize, grid: usize) -> Option<DeviceBuffer<u32>> {
    (words * 4 > gpu.spec().shared_mem_per_block).then(|| gpu.alloc(words * grid))
}

/// Runs `f` over the 32-item chunks of a `len`-item tile, striped across
/// the block: chunk `i` of warp `w` starts at item `i · block_dim + 32w`.
/// `f` gets the warp, the items' tile positions (clamped to the tile) and
/// the mask of lanes inside the tile. Warps with no chunk are skipped: they
/// would charge nothing.
fn for_each_chunk(
    blk: &mut BlockCtx<'_>,
    len: usize,
    mut f: impl FnMut(&mut WarpCtx<'_>, [usize; WARP_SIZE], Mask),
) {
    for wi in 0..blk.num_warps().min(len.div_ceil(WARP_SIZE)) {
        blk.with_warp(wi, &mut |w| {
            let mut off = w.warp_in_block * WARP_SIZE;
            while off < len {
                let pos: [usize; WARP_SIZE] = std::array::from_fn(|l| (off + l).min(len - 1));
                f(w, pos, mask_first_n((len - off).min(WARP_SIZE)));
                off += w.block_dim;
            }
        });
    }
}

/// A warp's share of a block-wide scan, as CUB's `BlockScan` with warp
/// scans does it: five shuffle-and-add rounds, then lane 31 publishes the
/// warp aggregate to `scratch[slot]`.
fn warp_scan(w: &mut WarpCtx<'_>, scratch: &Scratch<'_>, slot: usize) {
    for _ in 0..5 {
        w.charge_shuffle();
        w.charge_compute(1);
    }
    scratch.store(w, 1 << 31, |_| slot);
    w.syncwarp();
}

/// Number of 8-bit digit passes that sort keys up to `max_key`.
fn digit_passes(max_key: u32) -> usize {
    let bits = 32 - max_key.leading_zeros().min(31);
    (bits as usize).div_ceil(8).max(1)
}

/// Exclusive prefix sum of `input`; returns the scanned buffer and the
/// total.
///
/// Single-pass with decoupled look-back, as CUB `DeviceScan` is: `scan_init`
/// and `scan_tiles` for a non-empty input (see the module docs).
pub fn exclusive_scan(gpu: &mut Gpu, input: &DeviceBuffer<u32>) -> (DeviceBuffer<u32>, u32) {
    let n = input.len();
    let out = gpu.alloc::<u32>(n);
    let src = input.as_slice();
    let mut excl = Vec::with_capacity(n);
    let mut total = 0u32;
    for &x in src {
        excl.push(total);
        total = total.wrapping_add(x);
    }
    let status_word = |flag: u64, value: u32| flag << 32 | u64::from(value);
    single_pass(
        gpu,
        ["scan_init", "scan_tiles"],
        n,
        |t| {
            let (base, end) = (t * SCAN_TILE, ((t + 1) * SCAN_TILE).min(n));
            let aggregate = src[base..end].iter().fold(0u32, |a, &x| a.wrapping_add(x));
            (
                status_word(AGGREGATE, aggregate),
                status_word(INCLUSIVE, excl[base].wrapping_add(aggregate)),
            )
        },
        |w, _, idx, m| {
            let _ = w.ld_global(input, idx, m);
        },
        |w, _, idx, m| {
            let vals = w.lanes_from_fn(m, |l| excl[idx[l]]);
            w.st_global(&out, idx, vals, m);
        },
    );
    (out, total)
}

/// Run-length encoding of `keys`, as CUB `DeviceRunLengthEncode::Encode`
/// does it: returns the key of each maximal run of equal keys, in order,
/// and the run's length.
///
/// One single-pass reduce-by-key, `rle_init` and `rle_sweep`, for a
/// non-empty input (see the module docs). The outputs hold exactly one
/// entry per run.
pub fn run_length_encode(
    gpu: &mut Gpu,
    keys: &DeviceBuffer<u32>,
) -> (DeviceBuffer<u32>, DeviceBuffer<u32>) {
    let k = keys.as_slice();
    let n = k.len();
    let is_head = |i: usize| i == 0 || k[i] != k[i - 1];
    // run_of[i]: the run that item i belongs to.
    let mut run_of = Vec::with_capacity(n);
    let mut lengths: Vec<u32> = Vec::new();
    for i in 0..n {
        if is_head(i) {
            lengths.push(0);
        }
        let run = lengths.len() - 1;
        lengths[run] += 1;
        run_of.push(run);
    }
    let unique = gpu.alloc::<u32>(lengths.len());
    let counts = gpu.alloc::<u32>(lengths.len());
    // A status word carries its flag and a run count.
    let status_word = |flag: u64, runs: usize| u128::from(flag) << 64 | runs as u128;
    single_pass(
        gpu,
        ["rle_init", "rle_sweep"],
        n,
        |t| {
            let (base, end) = (t * SCAN_TILE, ((t + 1) * SCAN_TILE).min(n));
            let heads = (base..end).filter(|&i| is_head(i)).count();
            (
                status_word(AGGREGATE, heads),
                status_word(INCLUSIVE, run_of[end - 1] + 1),
            )
        },
        |w, t, idx, m| {
            let _ = w.ld_global(keys, idx, m);
            // Flag heads against each item's predecessor: a shuffle within
            // the warp, and the key before the tile for the tile's first.
            if t > 0 && w.warp_in_block == 0 {
                let _ = w.ld_global(keys, &[idx[0] - 1; WARP_SIZE], 1);
            }
            w.charge_shuffle();
            w.charge_compute(1);
        },
        |w, _, idx, m| {
            let runs = idx.map(|i| run_of[i]);
            // A head writes its run's key and closes the run before it; the
            // last item closes its own run.
            let heads = w.mask_where(|l| m & (1 << l) != 0 && is_head(idx[l]));
            let vals = w.lanes_from_fn(heads, |l| k[idx[l]]);
            w.st_global(&unique, &runs, vals, heads);
            let closes = w.mask_where(|l| heads & (1 << l) != 0 && runs[l] > 0);
            let prev = runs.map(|r| r.saturating_sub(1));
            let lens = w.lanes_from_fn(closes, |l| lengths[prev[l]]);
            w.st_global(&counts, &prev, lens, closes);
            let last = w.mask_where(|l| m & (1 << l) != 0 && idx[l] == n - 1);
            let lens = w.lanes_from_fn(last, |l| lengths[runs[l]]);
            w.st_global(&counts, &runs, lens, last);
        },
    );
    (unique, counts)
}

/// One single-pass kernel pair over `n` items in `SCAN_TILE`-item tiles:
/// `names[0]` initialises the tile status words and `names[1]` sweeps the
/// tiles. No launch for `n == 0`.
///
/// In a tile, every warp `load`s its items and scans them; the first warp
/// combines the warp aggregates and runs the tile's look-back, publishing
/// the status words `publish(tile)` gives (aggregate, inclusive); every
/// warp then adds its prefixes and `store`s its items. `load` and `store`
/// get the warp, the tile, the items' input indices and the active lanes.
fn single_pass<S: Copy + Default + Send + Sync>(
    gpu: &mut Gpu,
    names: [&str; 2],
    n: usize,
    publish: impl Fn(usize) -> (S, S),
    load: impl Fn(&mut WarpCtx<'_>, usize, &[usize; WARP_SIZE], Mask),
    store: impl Fn(&mut WarpCtx<'_>, usize, &[usize; WARP_SIZE], Mask),
) {
    if n == 0 {
        return;
    }
    let tiles = n.div_ceil(SCAN_TILE);
    let status = gpu.alloc::<S>(STATUS_PADDING + tiles);
    gpu.launch(names[0], LaunchConfig::grid1d(tiles, INIT_BLOCK), |blk| {
        blk.for_each_warp(|w| {
            let gid = w.global_thread_ids();
            let m = w.mask_where(|l| gid[l] < tiles);
            let slots = gid.map(|g| STATUS_PADDING + g.min(tiles - 1));
            w.st_global(&status, &slots, [S::default(); WARP_SIZE], m);
            if gid[0] == 0 {
                // The first warp also writes the padding before tile 0.
                let pad: [usize; WARP_SIZE] = std::array::from_fn(|l| l);
                w.st_global(&status, &pad, [S::default(); WARP_SIZE], FULL_MASK);
            }
        });
    });
    let spill = spill_buffer(gpu, SCAN_SCRATCH, tiles);
    let scratch_bytes = if spill.is_some() { 0 } else { SCAN_SCRATCH * 4 };
    let spec = gpu.spec();
    let wave = spec.num_sms * spec.resident_blocks(BLOCK, scratch_bytes);
    let cfg = LaunchConfig {
        grid_dim: tiles,
        block_dim: BLOCK,
    };
    gpu.launch_ordered(names[1], cfg, |blk| {
        let t = blk.block_idx;
        let base = t * SCAN_TILE;
        let len = SCAN_TILE.min(n - base);
        let Some(scratch) = Scratch::claim(blk, SCAN_SCRATCH, spill.as_ref()) else {
            return;
        };
        blk.for_each_warp(|w| {
            if let Some((idx, m)) = tile_lanes(w, base, len) {
                load(w, t, &idx, m);
                warp_scan(w, &scratch, w.warp_in_block);
            }
        });
        blk.syncthreads();
        let (aggregate, inclusive) = publish(t);
        blk.with_warp(0, &mut |w| {
            scratch.load(w, mask_first_n(WARPS), |l| l);
            w.charge_compute(1);
            look_back(w, &status, t, wave, aggregate, inclusive);
            scratch.store(w, 1, |_| WARPS);
        });
        blk.syncthreads();
        blk.for_each_warp(|w| {
            if let Some((idx, m)) = tile_lanes(w, base, len) {
                let wi = w.warp_in_block;
                scratch.load(w, 1, |_| wi.saturating_sub(1));
                scratch.load(w, 1, |_| WARPS);
                w.charge_compute(1);
                store(w, t, &idx, m);
            }
        });
    });
}

/// Warp `w`'s input indices (clamped to the tile) and active lanes over a
/// `len`-item tile at `base`, one item per thread; `None` for a warp past
/// the tile's end.
fn tile_lanes(w: &WarpCtx<'_>, base: usize, len: usize) -> Option<([usize; WARP_SIZE], Mask)> {
    let tid = w.thread_ids_in_block();
    let m = w.mask_where(|l| tid[l] < len);
    (m != 0).then(|| (tid.map(|t| base + t.min(len - 1)), m))
}

/// Tile `t`'s decoupled look-back, run by its first warp: publish the
/// aggregate, read the predecessors' status words in warp-wide windows
/// (each followed by a ballot and a warp reduction) back to the nearest
/// inclusive prefix under the wave rule of the module docs, and publish
/// the inclusive prefix. Tile 0 only publishes its inclusive prefix.
fn look_back<S: Copy + Default>(
    w: &mut WarpCtx<'_>,
    status: &DeviceBuffer<S>,
    t: usize,
    wave: usize,
    aggregate: S,
    inclusive: S,
) {
    let slot = STATUS_PADDING + t;
    if t > 0 {
        w.st_global(status, &[slot; WARP_SIZE], [aggregate; WARP_SIZE], 1);
        let reads = if t < wave { t } else { t % wave + 1 };
        for window in 0..reads.div_ceil(WARP_SIZE) {
            let first = slot - (window + 1) * WARP_SIZE;
            let idx: [usize; WARP_SIZE] = std::array::from_fn(|l| first + l);
            let _ = w.ld_global(status, &idx, FULL_MASK);
            w.charge_compute(1);
            for _ in 0..5 {
                w.charge_shuffle();
                w.charge_compute(1);
            }
        }
    }
    w.st_global(status, &[slot; WARP_SIZE], [inclusive; WARP_SIZE], 1);
}

/// Histogram of `keys` into `num_bins` buckets using global atomics.
///
/// # Panics
///
/// Panics (in the kernel) if a key is `>= num_bins`.
pub fn histogram(gpu: &mut Gpu, keys: &DeviceBuffer<u32>, num_bins: usize) -> DeviceBuffer<u32> {
    let bins = gpu.alloc::<u32>(num_bins);
    let n = keys.len();
    if n == 0 {
        return bins;
    }
    let cfg = LaunchConfig::grid1d(n, BLOCK);
    gpu.launch("histogram", cfg, |blk| {
        blk.for_each_warp(|w| {
            let gid = w.global_thread_ids();
            let valid = w.mask_where(|l| gid[l] < n);
            if valid == 0 {
                return;
            }
            let k = w.ld_global(keys, &gid.map(|g| g.min(n - 1)), valid);
            let idx: [usize; WARP_SIZE] = std::array::from_fn(|l| {
                if valid & (1 << l) != 0 {
                    assert!((k[l] as usize) < num_bins, "key out of histogram range");
                    k[l] as usize
                } else {
                    0
                }
            });
            w.atomic_add_global(&bins, &idx, [1; WARP_SIZE], valid);
        });
    });
    bins
}

/// Stable LSD radix sort of `(keys, vals)` pairs on 8-bit digits, as CUB
/// `DeviceRadixSort::SortPairs` does it (see the module docs for the
/// launches).
///
/// `max_key` bounds the key range so only the necessary digit passes run
/// (e.g. transit ids need `ceil(log2(V) / 8)` passes). Returns sorted
/// buffers.
pub fn radix_sort_pairs(
    gpu: &mut Gpu,
    keys: &DeviceBuffer<u32>,
    vals: &DeviceBuffer<u32>,
    max_key: u32,
) -> (DeviceBuffer<u32>, DeviceBuffer<u32>) {
    assert_eq!(keys.len(), vals.len(), "key/value length mismatch");
    let n = keys.len();
    let passes = digit_passes(max_key);
    if n > SINGLE_TILE_KEYS {
        let mut sorted = radix_pass(gpu, keys, vals, 0);
        for pass in 1..passes {
            sorted = radix_pass(gpu, &sorted.0, &sorted.1, 8 * pass as u32);
        }
        return sorted;
    }
    let mut out_k = gpu.alloc::<u32>(n);
    let mut out_v = gpu.alloc::<u32>(n);
    if n <= 1 {
        out_k.as_mut_slice().copy_from_slice(keys.as_slice());
        out_v.as_mut_slice().copy_from_slice(vals.as_slice());
    } else {
        sort_single_tile(gpu, keys, vals, passes, &out_k, &out_v);
    }
    (out_k, out_v)
}

/// CUB's `DeviceRadixSortSingleTileKernel`: one block loads the tile and,
/// for each digit pass, zeroes and fills the 256 digit counters, scans
/// them, ranks every key stably, and exchanges the keys and then the
/// values through the exchange buffer; it then stores the sorted tile.
fn sort_single_tile(
    gpu: &mut Gpu,
    keys: &DeviceBuffer<u32>,
    vals: &DeviceBuffer<u32>,
    passes: usize,
    out_k: &DeviceBuffer<u32>,
    out_v: &DeviceBuffer<u32>,
) {
    let n = keys.len();
    let (k, v) = (keys.as_slice(), vals.as_slice());
    let spill = spill_buffer(gpu, SINGLE_TILE_SCRATCH, 1);
    let cfg = LaunchConfig {
        grid_dim: 1,
        block_dim: BLOCK,
    };
    gpu.launch("radix_single_tile", cfg, |blk| {
        let Some(scratch) = Scratch::claim(blk, SINGLE_TILE_SCRATCH, spill.as_ref()) else {
            return;
        };
        for_each_chunk(blk, n, |w, pos, m| {
            let _ = w.ld_global(keys, &pos, m);
            let _ = w.ld_global(vals, &pos, m);
        });
        // order[pos]: the input item at tile position pos, in the stable
        // order of the digit passes run so far.
        let mut order: Vec<usize> = (0..n).collect();
        for pass in 0..passes {
            let digit = |i: usize| ((k[i] >> (8 * pass)) & 0xFF) as usize;
            let mut start = [0usize; RADIX];
            for &i in &order {
                start[digit(i)] += 1;
            }
            let mut acc = 0;
            for s in start.iter_mut() {
                (*s, acc) = (acc, acc + *s);
            }
            let mut rank = vec![0usize; n];
            let mut next = vec![0usize; n];
            for (pos, &i) in order.iter().enumerate() {
                let d = digit(i);
                rank[pos] = start[d];
                next[start[d]] = i;
                start[d] += 1;
            }
            // Thread t owns digit counter t.
            blk.for_each_warp(|w| {
                let t0 = w.warp_in_block * WARP_SIZE;
                scratch.store(w, FULL_MASK, |l| t0 + l);
            });
            blk.syncthreads();
            // Count: one counter round trip per key (the digit extraction is
            // one instruction).
            for_each_chunk(blk, n, |w, pos, m| {
                w.charge_compute(1);
                scratch.load(w, m, |l| digit(order[pos[l]]));
                scratch.store(w, m, |l| digit(order[pos[l]]));
            });
            blk.syncthreads();
            // Scan the counters.
            blk.for_each_warp(|w| {
                let t0 = w.warp_in_block * WARP_SIZE;
                scratch.load(w, FULL_MASK, |l| t0 + l);
                warp_scan(w, &scratch, RADIX + w.warp_in_block);
            });
            blk.syncthreads();
            blk.for_each_warp(|w| {
                let (t0, wi) = (w.warp_in_block * WARP_SIZE, w.warp_in_block);
                scratch.load(w, 1, |_| RADIX + wi.saturating_sub(1));
                w.charge_compute(1);
                scratch.store(w, FULL_MASK, |l| t0 + l);
            });
            blk.syncthreads();
            // Rank: each key reads its digit's base.
            for_each_chunk(blk, n, |w, pos, m| {
                w.charge_compute(1);
                scratch.load(w, m, |l| digit(order[pos[l]]));
                w.charge_compute(1);
            });
            // Exchange the keys, then the values: each goes to its rank and
            // comes back in tile order.
            for _ in 0..2 {
                for_each_chunk(blk, n, |w, pos, m| {
                    w.charge_compute(1);
                    scratch.store(w, m, |l| RADIX + rank[pos[l]]);
                });
                blk.syncthreads();
                for_each_chunk(blk, n, |w, pos, m| {
                    scratch.load(w, m, |l| RADIX + pos[l]);
                });
                blk.syncthreads();
            }
            order = next;
        }
        for_each_chunk(blk, n, |w, pos, m| {
            let kv = w.lanes_from_fn(m, |l| k[order[pos[l]]]);
            let vv = w.lanes_from_fn(m, |l| v[order[pos[l]]]);
            w.st_global(out_k, &pos, kv, m);
            w.st_global(out_v, &pos, vv, m);
        });
    });
}

/// One digit pass of the multi-tile sort over 2,048-key tiles, CUB-style:
/// the upsweep `radix_histogram` counts each tile's digits into a
/// digit-major spine, `radix_scan_bins` scans the spine, and the downsweep
/// `radix_scatter` writes each tile's keys to their digits' bases,
/// staged through shared memory so that same-digit runs coalesce.
fn radix_pass(
    gpu: &mut Gpu,
    keys: &DeviceBuffer<u32>,
    vals: &DeviceBuffer<u32>,
    shift: u32,
) -> (DeviceBuffer<u32>, DeviceBuffer<u32>) {
    let n = keys.len();
    let k = keys.as_slice();
    let tiles = n.div_ceil(RADIX_TILE);
    let cfg = LaunchConfig {
        grid_dim: tiles,
        block_dim: BLOCK,
    };
    let digit = |key: u32| ((key >> shift) & 0xFF) as usize;
    // `spine[digit * tiles + tile]`: the digit-major layout makes the
    // scanned spine directly usable as scatter bases.
    let spine = gpu.alloc::<u32>(RADIX * tiles);
    let spill = spill_buffer(gpu, RADIX, tiles);
    gpu.launch("radix_histogram", cfg, |blk| {
        let Some(counts) = Scratch::claim(blk, RADIX, spill.as_ref()) else {
            return;
        };
        let tile = blk.block_idx;
        let tile_base = tile * RADIX_TILE;
        let tile_len = RADIX_TILE.min(n - tile_base);
        blk.for_each_warp(|w| {
            let t0 = w.warp_in_block * WARP_SIZE;
            counts.store(w, FULL_MASK, |l| t0 + l);
        });
        blk.syncthreads();
        // Functional counting is done per tile; the kernel charges one
        // coalesced load plus one shared-atomic round trip per 32 keys,
        // exactly CUB's upsweep traffic.
        let mut tile_counts = [0u32; RADIX];
        for &key in &k[tile_base..tile_base + tile_len] {
            tile_counts[digit(key)] += 1;
        }
        for_each_chunk(blk, tile_len, |w, pos, m| {
            let key = w.ld_global(keys, &pos.map(|p| tile_base + p), m);
            counts.load(w, m, |l| digit(key[l]));
            w.charge_compute(1);
            counts.store(w, m, |l| digit(key[l]));
        });
        blk.syncthreads();
        blk.for_each_warp(|w| {
            let tid = w.thread_ids_in_block();
            let c = w.lanes_from_fn(FULL_MASK, |l| tile_counts[tid[l]]);
            let out_idx = tid.map(|d| d * tiles + tile);
            w.st_global(&spine, &out_idx, c, FULL_MASK);
        });
    });
    scan_bins(gpu, &spine);
    // Downsweep: each tile recomputes its stable local ranks, gathers its
    // 256 digit bases once, locally reorders its keys by digit (shared
    // staging) and writes them out, so same-digit runs land in consecutive
    // destinations and the global writes coalesce, as in CUB's
    // memory-bandwidth-efficient scatter.
    let out_k = gpu.alloc::<u32>(n);
    let out_v = gpu.alloc::<u32>(n);
    gpu.launch("radix_scatter", cfg, |blk| {
        let tile = blk.block_idx;
        let tile_base = tile * RADIX_TILE;
        let tile_len = RADIX_TILE.min(n - tile_base);
        let tile_keys = &k[tile_base..tile_base + tile_len];
        let tile_vals = &vals.as_slice()[tile_base..tile_base + tile_len];
        let mut local_count = [0usize; RADIX];
        for &key in tile_keys {
            local_count[digit(key)] += 1;
        }
        // Gather the tile's 256 digit bases (one pass of 8 warp loads; the
        // digit-major layout makes these strided, as on hardware).
        let mut bases = [0usize; RADIX];
        blk.for_each_warp(|w| {
            let tid = w.thread_ids_in_block();
            let b = w.ld_global(&spine, &tid.map(|d| d * tiles + tile), FULL_MASK);
            for l in 0..WARP_SIZE {
                bases[tid[l]] = b[l] as usize;
            }
        });
        // Emission order: by digit, then rank (the staged order), so that
        // the warp-level stores hit consecutive destinations. Destinations
        // ascend in (digit, rank), so placing key `i` at its digit's
        // tile-local offset plus its rank is the sort by destination.
        let mut offset = [0usize; RADIX];
        for d in 1..RADIX {
            offset[d] = offset[d - 1] + local_count[d - 1];
        }
        let mut running = [0usize; RADIX];
        let mut dest = vec![0usize; tile_len];
        let mut order = vec![0usize; tile_len];
        for (i, &key) in tile_keys.iter().enumerate() {
            let d = digit(key);
            dest[i] = bases[d] + running[d];
            order[offset[d] + running[d]] = i;
            running[d] += 1;
        }
        debug_assert!(
            order.windows(2).all(|p| dest[p[0]] < dest[p[1]]),
            "emission order must be the sort by destination"
        );
        for_each_chunk(blk, tile_len, |w, pos, m| {
            // Coalesced source reads + the shared staging round trip
            // (write to shared in digit order, read back).
            let src = pos.map(|p| tile_base + p);
            let _ = w.ld_global(keys, &src, m);
            let _ = w.ld_global(vals, &src, m);
            w.charge_compute(2);
            // Emit in staged order: lanes cover order[pos].
            let emit = pos.map(|p| order[p]);
            let d_idx = emit.map(|i| dest[i]);
            let kv = w.lanes_from_fn(m, |l| tile_keys[emit[l]]);
            let vv = w.lanes_from_fn(m, |l| tile_vals[emit[l]]);
            w.st_global(&out_k, &d_idx, kv, m);
            w.st_global(&out_v, &d_idx, vv, m);
        });
    });
    (out_k, out_v)
}

/// CUB's `RadixSortScanBinsKernel`: one block scans the digit-major spine
/// in place, 256 counters at a time, carrying a running prefix in its
/// scratch.
fn scan_bins(gpu: &mut Gpu, spine: &DeviceBuffer<u32>) {
    let len = spine.len();
    let mut scanned = Vec::with_capacity(len);
    let mut acc = 0u32;
    for &c in spine.as_slice() {
        scanned.push(acc);
        acc = acc.wrapping_add(c);
    }
    let spill = spill_buffer(gpu, SCAN_SCRATCH, 1);
    let cfg = LaunchConfig {
        grid_dim: 1,
        block_dim: BLOCK,
    };
    gpu.launch("radix_scan_bins", cfg, |blk| {
        let Some(scratch) = Scratch::claim(blk, SCAN_SCRATCH, spill.as_ref()) else {
            return;
        };
        for base in (0..len).step_by(BLOCK) {
            let tile_len = BLOCK.min(len - base);
            blk.for_each_warp(|w| {
                if let Some((idx, m)) = tile_lanes(w, base, tile_len) {
                    let _ = w.ld_global(spine, &idx, m);
                    warp_scan(w, &scratch, w.warp_in_block);
                }
            });
            blk.syncthreads();
            blk.for_each_warp(|w| {
                if let Some((idx, m)) = tile_lanes(w, base, tile_len) {
                    let wi = w.warp_in_block;
                    scratch.load(w, 1, |_| wi.saturating_sub(1));
                    scratch.load(w, 1, |_| WARPS);
                    w.charge_compute(1);
                    let vals = w.lanes_from_fn(m, |l| scanned[idx[l]]);
                    w.st_global(spine, &idx, vals, m);
                    // The block's last thread carries the running prefix.
                    if wi == WARPS - 1 {
                        scratch.store(w, 1 << 31, |_| WARPS);
                    }
                }
            });
            blk.syncthreads();
        }
    });
}

/// In-block bitonic sort of the first `n` words of a shared array.
///
/// The array must be allocated with at least `n.next_power_of_two()` words;
/// the slots beyond `n` are filled with `u32::MAX` sentinels so that after
/// sorting the first `n` slots hold the sorted data. Used by the
/// unique-neighbour stage, which sorts each sample inside one thread block
/// (§6.3).
pub fn bitonic_sort_shared(blk: &mut BlockCtx<'_>, arr: SharedArray, n: usize) {
    if n <= 1 {
        return;
    }
    let padded = n.next_power_of_two();
    assert!(padded <= arr.len(), "array too small for padded sort range");
    // Fill the padding with MAX sentinels.
    if padded > n {
        let pad = padded - n;
        let warps = pad.div_ceil(WARP_SIZE);
        for wi in 0..warps {
            blk.with_warp(wi % blk.num_warps(), &mut |w| {
                let mask = mask_first_n(pad.saturating_sub(wi * WARP_SIZE).min(WARP_SIZE));
                if mask == 0 {
                    return;
                }
                let idx: [usize; WARP_SIZE] =
                    std::array::from_fn(|l| (n + wi * WARP_SIZE + l).min(padded - 1));
                w.st_shared(&arr, &idx, [u32::MAX; WARP_SIZE], mask);
            });
        }
        blk.syncthreads();
    }
    let mut k = 2usize;
    while k <= padded {
        let mut j = k / 2;
        while j > 0 {
            // Each element pairs with its partner at distance j.
            let pairs = padded / 2;
            let warps = pairs.div_ceil(WARP_SIZE);
            for wi in 0..warps {
                blk.with_warp(wi % blk.num_warps(), &mut |w| {
                    let lane_pair: [usize; WARP_SIZE] = std::array::from_fn(|l| wi * WARP_SIZE + l);
                    let mask = mask_first_n(pairs.saturating_sub(wi * WARP_SIZE).min(WARP_SIZE));
                    if mask == 0 {
                        return;
                    }
                    // Map pair index p to element index i with bit j clear.
                    let i_of = |p: usize| -> usize {
                        let low = p & (j - 1);
                        let high = (p & !(j - 1)) << 1;
                        high | low
                    };
                    let idx_i: [usize; WARP_SIZE] =
                        std::array::from_fn(|l| i_of(lane_pair[l]).min(padded - 1));
                    let idx_p: [usize; WARP_SIZE] =
                        std::array::from_fn(|l| (i_of(lane_pair[l]) | j).min(padded - 1));
                    let a = w.ld_shared(&arr, &idx_i, mask);
                    let b = w.ld_shared(&arr, &idx_p, mask);
                    w.charge_compute(2);
                    let mut new_a = a;
                    let mut new_b = b;
                    for l in 0..WARP_SIZE {
                        if mask & (1 << l) == 0 {
                            continue;
                        }
                        let ascending = i_of(lane_pair[l]) & k == 0;
                        if (a[l] > b[l]) == ascending {
                            new_a[l] = b[l];
                            new_b[l] = a[l];
                        }
                    }
                    w.st_shared(&arr, &idx_i, new_a, mask);
                    w.st_shared(&arr, &idx_p, new_b, mask);
                });
            }
            blk.syncthreads();
            j /= 2;
        }
        k *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::GpuSpec;
    use proptest::prelude::*;

    fn gpu() -> Gpu {
        Gpu::new(GpuSpec::small())
    }

    /// A device whose shared memory holds none of the primitives' scratch,
    /// so every kernel takes its global spill path.
    fn spilling_gpu() -> Gpu {
        let mut spec = GpuSpec::small();
        spec.shared_mem_per_block = 16;
        Gpu::new(spec)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// Up to three multi-tile tiles, so both sort paths run, with keys
        /// needing 1 to 4 digit passes; the radix scatter also asserts (in
        /// debug builds) that each tile emits in destination order.
        #[test]
        fn radix_sort_matches_a_stable_sort(
            n in 0usize..=3 * RADIX_TILE,
            passes in 1u32..=4,
            seed in 0u64..u64::MAX,
        ) {
            let lo = if passes == 1 { 0 } else { 1u64 << (8 * (passes - 1)) };
            let max_key = (lo + seed % ((1u64 << (8 * passes)) - lo)) as u32;
            let keys: Vec<u32> = (0..n as u64)
                .map(|i| (crate::rng::rand_u32(seed, i, 0) as u64 % (max_key as u64 + 1)) as u32)
                .collect();
            let vals: Vec<u32> = (0..n as u32).collect();
            let mut g = gpu();
            let (kd, vd) = (g.to_device(&keys), g.to_device(&vals));
            let (sk, sv) = radix_sort_pairs(&mut g, &kd, &vd, max_key);
            let mut expect: Vec<(u32, u32)> = keys.into_iter().zip(vals).collect();
            expect.sort_by_key(|&(k, _)| k);
            let got: Vec<(u32, u32)> = sk.as_slice().iter().copied().zip(sv.as_slice().iter().copied()).collect();
            prop_assert_eq!(got, expect);
        }
    }

    #[test]
    fn scan_small() {
        let mut g = gpu();
        let input = g.to_device(&[1u32, 2, 3, 4]);
        let (out, total) = exclusive_scan(&mut g, &input);
        assert_eq!(out.as_slice(), &[0, 1, 3, 6]);
        assert_eq!(total, 10);
    }

    #[test]
    fn scan_multi_block() {
        let mut g = gpu();
        let data: Vec<u32> = (0..1000).map(|i| (i % 7) as u32).collect();
        let input = g.to_device(&data);
        let (out, total) = exclusive_scan(&mut g, &input);
        let mut expect = Vec::with_capacity(1000);
        let mut acc = 0u32;
        for &v in &data {
            expect.push(acc);
            acc += v;
        }
        assert_eq!(out.as_slice(), expect.as_slice());
        assert_eq!(total, acc);
    }

    #[test]
    fn scan_empty_and_single() {
        let mut g = gpu();
        let empty = g.to_device(&[] as &[u32]);
        let (out, total) = exclusive_scan(&mut g, &empty);
        assert_eq!(out.len(), 0);
        assert_eq!(total, 0);
        let one = g.to_device(&[5u32]);
        let (out, total) = exclusive_scan(&mut g, &one);
        assert_eq!(out.as_slice(), &[0]);
        assert_eq!(total, 5);
    }

    #[test]
    fn look_back_windows_follow_the_wave_rule() {
        // A tile in the first wave looks back to tile 0; a later tile to
        // the last tile of the wave before its own.
        let mut g = gpu();
        let spec = g.spec().clone();
        let wave = spec.num_sms * spec.resident_blocks(BLOCK, SCAN_SCRATCH * 4);
        let loads = |g: &mut Gpu, tiles: usize| {
            let input = g.to_device(&vec![1u32; tiles * SCAN_TILE]);
            let before = g.counters().gld_requests;
            let _ = exclusive_scan(g, &input);
            g.counters().gld_requests - before
        };
        // Per tile: one input load per warp, then one status-word load per
        // look-back window of 32 predecessors.
        let windows = |tiles: usize| -> u64 {
            (1..tiles)
                .map(|t| if t < wave { t } else { t % wave + 1 })
                .map(|r| r.div_ceil(WARP_SIZE) as u64)
                .sum()
        };
        for tiles in [1, 2, 33, wave, wave + 1, 3 * wave] {
            assert_eq!(
                loads(&mut g, tiles),
                (tiles * WARPS) as u64 + windows(tiles),
                "{tiles} tiles"
            );
        }
    }

    #[test]
    fn run_length_encode_finds_runs() {
        let mut g = gpu();
        let keys = g.to_device(&[3u32, 3, 5, 7, 7, 7, 9]);
        let (unique, counts) = run_length_encode(&mut g, &keys);
        assert_eq!(unique.as_slice(), &[3, 5, 7, 9]);
        assert_eq!(counts.as_slice(), &[2, 1, 3, 1]);
        // Runs that straddle tiles.
        let data: Vec<u32> = (0..1000u32).map(|i| i / 300).collect();
        let keys = g.to_device(&data);
        let (unique, counts) = run_length_encode(&mut g, &keys);
        assert_eq!(unique.as_slice(), &[0, 1, 2, 3]);
        assert_eq!(counts.as_slice(), &[300, 300, 300, 100]);
        let empty = g.to_device(&[] as &[u32]);
        let (unique, counts) = run_length_encode(&mut g, &empty);
        assert!(unique.is_empty() && counts.is_empty());
    }

    #[test]
    fn spilled_scratch_keeps_results_and_launches() {
        let data: Vec<u32> = (0..6000u32).map(|i| (i * 7919) % 3001).collect();
        let vals: Vec<u32> = (0..6000).collect();
        let run = |g: &mut Gpu, n: usize| {
            let k = g.to_device(&data[..n]);
            let v = g.to_device(&vals[..n]);
            let before = g.counters().launches;
            let (sk, sv) = radix_sort_pairs(g, &k, &v, 3000);
            let (scanned, total) = exclusive_scan(g, &sk);
            let (unique, counts) = run_length_encode(g, &sk);
            let out = [&sk, &sv, &scanned, &unique, &counts].map(|b| b.as_slice().to_vec());
            (out, total, g.counters().launches - before)
        };
        for n in [512, 6000] {
            let (mut shared, mut spilled) = (gpu(), spilling_gpu());
            let a = run(&mut shared, n);
            let b = run(&mut spilled, n);
            assert_eq!(a, b, "n = {n}");
            assert!(spilled.counters().cycles > shared.counters().cycles);
            assert_eq!(spilled.counters().shared_loads, 0);
        }
    }

    #[test]
    fn histogram_counts() {
        let mut g = gpu();
        let keys = g.to_device(&[0u32, 1, 1, 3, 3, 3, 0]);
        let bins = histogram(&mut g, &keys, 4);
        assert_eq!(bins.as_slice(), &[2, 2, 0, 3]);
    }

    #[test]
    fn radix_sort_small() {
        let mut g = gpu();
        let keys = g.to_device(&[5u32, 1, 4, 1, 5, 9, 2, 6]);
        let vals = g.to_device(&[0u32, 1, 2, 3, 4, 5, 6, 7]);
        let (sk, sv) = radix_sort_pairs(&mut g, &keys, &vals, 9);
        assert_eq!(sk.as_slice(), &[1, 1, 2, 4, 5, 5, 6, 9]);
        // Stability: the two 1-keys keep their original order (1 then 3),
        // likewise the two 5-keys (0 then 4).
        assert_eq!(sv.as_slice(), &[1, 3, 6, 2, 0, 4, 7, 5]);
    }

    #[test]
    fn radix_sort_large_random() {
        let mut g = gpu();
        let data: Vec<u32> = (0..5000)
            .map(|i| crate::rng::rand_range(7, i, 0, 100_000))
            .collect();
        let vals: Vec<u32> = (0..5000).collect();
        let keys_d = g.to_device(&data);
        let vals_d = g.to_device(&vals);
        let (sk, sv) = radix_sort_pairs(&mut g, &keys_d, &vals_d, 100_000);
        let mut expect: Vec<(u32, u32)> = data.iter().cloned().zip(vals.iter().cloned()).collect();
        expect.sort_by_key(|&(k, v)| (k, v));
        let got: Vec<(u32, u32)> = sk
            .as_slice()
            .iter()
            .cloned()
            .zip(sv.as_slice().iter().cloned())
            .collect();
        // Stable sort on (key, original index) equals sorting pairs.
        assert_eq!(got, expect);
    }

    #[test]
    fn radix_passes_depend_on_max_key() {
        let mut g = gpu();
        // Launches and cycles of one sort of `n` equal keys.
        let sort = |g: &mut Gpu, n: usize, max_key: u32| {
            let keys = g.to_device(&vec![3u32; n]);
            let vals = g.to_device(&vec![0u32; n]);
            let (launches, cycles) = (g.counters().launches, g.counters().cycles);
            let _ = radix_sort_pairs(g, &keys, &vals, max_key);
            (
                g.counters().launches - launches,
                g.counters().cycles - cycles,
            )
        };
        let bounds = [(1, 200), (2, 1 << 10), (3, 1 << 20), (4, u32::MAX)];
        // One tile: every digit pass runs inside the one launch, so each
        // extra digit costs cycles, not launches.
        let single = bounds.map(|(_, max_key)| sort(&mut g, 512, max_key));
        assert!(single.iter().all(|&(launches, _)| launches == 1));
        assert!(
            single.windows(2).all(|p| p[1].1 > p[0].1),
            "each extra digit costs cycles: {single:?}"
        );
        // Multiple tiles: three launches per digit pass.
        for (passes, max_key) in bounds {
            assert_eq!(sort(&mut g, 3 * RADIX_TILE, max_key).0, 3 * passes);
        }
    }

    #[test]
    fn bitonic_sorts_shared_array() {
        let mut g = gpu();
        let out = g.alloc::<u32>(100);
        let data: Vec<u32> = (0..100)
            .map(|i| crate::rng::rand_range(3, i, 1, 1000))
            .collect();
        let data_d = g.to_device(&data);
        g.launch(
            "sort_block",
            LaunchConfig {
                grid_dim: 1,
                block_dim: 128,
            },
            |blk| {
                let arr = blk.shared_alloc(128).unwrap();
                blk.for_each_warp(|w| {
                    let tid = w.thread_ids_in_block();
                    let m = w.mask_where(|l| tid[l] < 100);
                    if m == 0 {
                        return;
                    }
                    let v = w.ld_global(&data_d, &tid.map(|t| t.min(99)), m);
                    w.st_shared(&arr, &tid.map(|t| t.min(99)), v, m);
                });
                blk.syncthreads();
                bitonic_sort_shared(blk, arr, 100);
                blk.for_each_warp(|w| {
                    let tid = w.thread_ids_in_block();
                    let m = w.mask_where(|l| tid[l] < 100);
                    if m == 0 {
                        return;
                    }
                    let v = w.ld_shared(&arr, &tid.map(|t| t.min(99)), m);
                    w.st_global(&out, &tid.map(|t| t.min(99)), v, m);
                });
            },
        );
        let mut expect = data.clone();
        expect.sort_unstable();
        assert_eq!(out.as_slice(), expect.as_slice());
    }
}

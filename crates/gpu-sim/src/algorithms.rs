//! Device-wide primitives built from simulated kernels.
//!
//! NextDoor builds its per-step scheduling index with NVIDIA CUB's parallel
//! radix sort and scan (§8.1 of the paper). This module provides the same
//! primitives as sequences of simulated kernel launches, so the
//! scheduling-index phase of the engine has a realistic, *measured* cost —
//! which is exactly what Figure 6 reports.
//!
//! Provided primitives:
//!
//! * [`exclusive_scan`] — multi-block Blelloch-style scan (Hillis–Steele in
//!   shared memory per block, recursive block-sum scan, uniform add).
//! * [`histogram`] — one global atomic per element.
//! * [`radix_sort_pairs`] — LSD radix sort on 8-bit digits with CUB-style
//!   per-block ranking; stable, `O(passes · n)`.
//! * [`compact`] — stream compaction by flag (scan + scatter).
//! * [`bitonic_sort_shared`] — an in-block bitonic network over shared
//!   memory, used by the unique-neighbour stage (§6.3).

use crate::block::BlockCtx;
use crate::launch::{Gpu, LaunchConfig};
use crate::mem::DeviceBuffer;
use crate::warp::{mask_first_n, SharedArray, WARP_SIZE};

/// Threads per block used by the device-wide primitives.
const SCAN_BLOCK: usize = 256;

/// Exclusive prefix sum of `input`; returns the scanned buffer and the
/// total.
pub fn exclusive_scan(gpu: &mut Gpu, input: &DeviceBuffer<u32>) -> (DeviceBuffer<u32>, u32) {
    let n = input.len();
    let out = gpu.alloc::<u32>(n);
    if n == 0 {
        return (out, 0);
    }
    let num_blocks = n.div_ceil(SCAN_BLOCK);
    let sums = gpu.alloc::<u32>(num_blocks);
    scan_blocks_kernel(gpu, input, &out, &sums);
    if num_blocks == 1 {
        let total = sums.as_slice()[0];
        return (out, total);
    }
    let (scanned_sums, total) = exclusive_scan(gpu, &sums);
    uniform_add_kernel(gpu, &out, &scanned_sums);
    (out, total)
}

/// Per-block phase of the scan: each block computes the exclusive scan of
/// its 256-element chunk with warp-shuffle scans (5 shuffle rounds per
/// warp, one shared-memory round trip for the warp aggregates — the same
/// structure as CUB's `BlockScan`) and emits its chunk total.
fn scan_blocks_kernel(
    gpu: &mut Gpu,
    input: &DeviceBuffer<u32>,
    out: &DeviceBuffer<u32>,
    sums: &DeviceBuffer<u32>,
) {
    let n = input.len();
    let cfg = LaunchConfig::grid1d(n, SCAN_BLOCK);
    gpu.launch("scan_blocks", cfg, |blk| {
        let warp_sums = blk
            .shared_alloc(SCAN_BLOCK / WARP_SIZE)
            .expect("aggregates fit");
        let base = blk.block_idx * SCAN_BLOCK;
        let chunk_len = SCAN_BLOCK.min(n.saturating_sub(base));
        if chunk_len == 0 {
            return;
        }
        // Host-side exclusive scan of the chunk (the functional result);
        // the warp ops below charge exactly the shuffle-scan traffic.
        let mut excl = vec![0u32; chunk_len];
        let mut acc = 0u32;
        for (i, e) in excl.iter_mut().enumerate() {
            *e = acc;
            acc = acc.wrapping_add(input.as_slice()[base + i]);
        }
        let total = acc;
        blk.for_each_warp(|w| {
            let tid = w.thread_ids_in_block();
            let gid = w.global_thread_ids();
            let valid = w.mask_where(|l| gid[l] < n);
            if valid == 0 {
                return;
            }
            let safe = gid.map(|g| g.min(n - 1));
            let _ = w.ld_global(input, &safe, valid);
            // Warp-level inclusive scan: log2(32) shuffle + add rounds.
            for _ in 0..5 {
                let dummy: [usize; WARP_SIZE] = std::array::from_fn(|l| l.saturating_sub(1));
                let _ = w.shfl([0; WARP_SIZE], &dummy, valid);
                w.charge_compute(1);
            }
            // Lane 31 publishes the warp aggregate.
            let wi = w.warp_in_block;
            w.st_shared(&warp_sums, &[wi; WARP_SIZE], [0; WARP_SIZE], 1 << 31);
            w.syncwarp();
            // Read the preceding warps' aggregates back and add.
            let _ = w.ld_shared(&warp_sums, &[wi.saturating_sub(1); WARP_SIZE], 1);
            w.charge_compute(1);
            // Write the exclusive results.
            let vals = w.lanes_from_fn(valid, |l| excl.get(tid[l]).copied().unwrap_or(0));
            w.st_global(out, &safe, vals, valid);
            if wi == 0 {
                let bidx = w.block_idx;
                w.st_global(sums, &[bidx; WARP_SIZE], [total; WARP_SIZE], 1);
            }
        });
        blk.syncthreads();
    });
}

/// Adds `block_offsets[block]` to every element of that block's chunk.
fn uniform_add_kernel(gpu: &mut Gpu, out: &DeviceBuffer<u32>, offsets: &DeviceBuffer<u32>) {
    let n = out.len();
    let cfg = LaunchConfig::grid1d(n, SCAN_BLOCK);
    gpu.launch("scan_uniform_add", cfg, |blk| {
        let block = blk.block_idx;
        blk.for_each_warp(|w| {
            let gid = w.global_thread_ids();
            let valid = w.mask_where(|l| gid[l] < n);
            if valid == 0 {
                return;
            }
            let off = w.ld_global(offsets, &[block; WARP_SIZE], 1)[0];
            let v = w.ld_global(out, &gid.map(|g| g.min(n - 1)), valid);
            let added = w.map(v, valid, |x| x.wrapping_add(off));
            w.st_global(out, &gid.map(|g| g.min(n - 1)), added, valid);
        });
    });
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
    let cfg = LaunchConfig::grid1d(n, SCAN_BLOCK);
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

/// Stable LSD radix sort of `(keys, vals)` pairs on 8-bit digits.
///
/// `max_key` bounds the key range so only the necessary passes run (e.g.
/// transit ids need `ceil(log2(V) / 8)` passes). Returns sorted buffers.
pub fn radix_sort_pairs(
    gpu: &mut Gpu,
    keys: &DeviceBuffer<u32>,
    vals: &DeviceBuffer<u32>,
    max_key: u32,
) -> (DeviceBuffer<u32>, DeviceBuffer<u32>) {
    assert_eq!(keys.len(), vals.len(), "key/value length mismatch");
    let n = keys.len();
    let mut cur_k = gpu.alloc::<u32>(n);
    let mut cur_v = gpu.alloc::<u32>(n);
    cur_k.as_mut_slice().copy_from_slice(keys.as_slice());
    cur_v.as_mut_slice().copy_from_slice(vals.as_slice());
    if n <= 1 {
        return (cur_k, cur_v);
    }
    let bits = 32 - max_key.leading_zeros().min(31);
    let passes = (bits as usize).div_ceil(8).max(1);
    for pass in 0..passes {
        let shift = (pass * 8) as u32;
        let (nk, nv) = radix_pass(gpu, &cur_k, &cur_v, shift);
        cur_k = nk;
        cur_v = nv;
    }
    (cur_k, cur_v)
}

/// Elements processed per radix block (256 threads × 8 items/thread, as
/// CUB's `DeviceRadixSort` tiles do).
const RADIX_TILE: usize = 2048;

/// One stable counting pass over an 8-bit digit, CUB-style: per-block
/// digit histograms in shared memory, a digit-major global scan, then a
/// shared-memory-staged scatter (elements are locally reordered by digit so
/// that same-digit runs produce coalesced global writes).
fn radix_pass(
    gpu: &mut Gpu,
    keys: &DeviceBuffer<u32>,
    vals: &DeviceBuffer<u32>,
    shift: u32,
) -> (DeviceBuffer<u32>, DeviceBuffer<u32>) {
    const RADIX: usize = 256;
    let n = keys.len();
    let num_blocks = n.div_ceil(RADIX_TILE);
    // `block_hist[digit * num_blocks + block]`: digit-major layout makes the
    // scanned result directly usable as scatter bases.
    let block_hist = gpu.alloc::<u32>(RADIX * num_blocks);
    gpu.launch(
        "radix_histogram",
        LaunchConfig {
            grid_dim: num_blocks,
            block_dim: SCAN_BLOCK,
        },
        |blk| {
            let counts = blk.shared_alloc(RADIX).expect("radix counters fit");
            let block = blk.block_idx;
            let tile_base = block * RADIX_TILE;
            let tile_len = RADIX_TILE.min(n - tile_base);
            blk.for_each_warp(|w| {
                let tid = w.thread_ids_in_block();
                // Zero the shared counters (the 8 warps cover 256 slots).
                w.st_shared(&counts, &tid, [0; WARP_SIZE], u32::MAX);
            });
            blk.syncthreads();
            // Functional counting is done per tile; the kernel charges one
            // coalesced load plus one shared-atomic round trip per 32
            // elements, exactly CUB's upsweep traffic.
            let mut tile_counts = vec![0u32; RADIX];
            for i in 0..tile_len {
                let d = ((keys.as_slice()[tile_base + i] >> shift) & 0xFF) as usize;
                tile_counts[d] += 1;
            }
            blk.for_each_warp(|w| {
                let items = RADIX_TILE / SCAN_BLOCK; // 8 items per thread
                for it in 0..items {
                    let off = it * SCAN_BLOCK + w.warp_in_block * WARP_SIZE;
                    if off >= tile_len {
                        break;
                    }
                    let idx: [usize; WARP_SIZE] =
                        std::array::from_fn(|l| (tile_base + off + l).min(n - 1));
                    let m = w.mask_where(|l| off + l < tile_len);
                    let k = w.ld_global(keys, &idx, m);
                    let digit: [usize; WARP_SIZE] =
                        std::array::from_fn(|l| ((k[l] >> shift) & 0xFF) as usize);
                    // Shared-memory atomic histogram round trip.
                    let old = w.ld_shared(&counts, &digit, m);
                    let _ = w.map(old, m, |x| x + 1);
                    w.st_shared(&counts, &digit, old, m);
                }
            });
            blk.syncthreads();
            blk.for_each_warp(|w| {
                let tid = w.thread_ids_in_block();
                let c = w.lanes_from_fn(u32::MAX, |l| tile_counts[tid[l]]);
                let out_idx: [usize; WARP_SIZE] =
                    std::array::from_fn(|l| tid[l] * num_blocks + block);
                w.st_global(&block_hist, &out_idx, c, u32::MAX);
            });
        },
    );
    let (scanned, _total) = exclusive_scan(gpu, &block_hist);
    // Downsweep: each tile recomputes its stable local ranks in shared
    // memory, gathers the 256 digit bases once, locally reorders its
    // elements by digit (shared-memory staging), and writes them out — so
    // same-digit runs land in consecutive destinations and the global
    // writes coalesce, as in CUB's memory-bandwidth-efficient scatter.
    let out_k = gpu.alloc::<u32>(n);
    let out_v = gpu.alloc::<u32>(n);
    gpu.launch(
        "radix_scatter",
        LaunchConfig {
            grid_dim: num_blocks,
            block_dim: SCAN_BLOCK,
        },
        |blk| {
            let block = blk.block_idx;
            let tile_base = block * RADIX_TILE;
            let tile_len = RADIX_TILE.min(n - tile_base);
            // Stable local ranks for this tile.
            let mut local_count = [0u32; RADIX];
            let mut dest = vec![0usize; tile_len];
            for (i, slot) in dest.iter_mut().enumerate() {
                let d = ((keys.as_slice()[tile_base + i] >> shift) & 0xFF) as usize;
                *slot = d; // digit for now; base added below
                local_count[d] += 1;
            }
            // Gather the tile's 256 digit bases (one pass of 8 warp loads;
            // the digit-major layout makes these strided, as on hardware).
            let mut bases = [0u32; RADIX];
            blk.for_each_warp(|w| {
                let tid = w.thread_ids_in_block();
                let idx: [usize; WARP_SIZE] = std::array::from_fn(|l| tid[l] * num_blocks + block);
                let b = w.ld_global(&scanned, &idx, u32::MAX);
                for l in 0..WARP_SIZE {
                    bases[tid[l]] = b[l];
                }
            });
            // Resolve destinations with stable ranks, and the order of
            // emission: by digit, then rank (the staged order), so that the
            // warp-level stores hit consecutive destinations. Destinations
            // ascend in (digit, rank), so placing element `i` at its digit's
            // tile-local offset plus its rank is the sort by destination.
            let mut running = [0u32; RADIX];
            let mut offset = [0usize; RADIX];
            for d in 1..RADIX {
                offset[d] = offset[d - 1] + local_count[d - 1] as usize;
            }
            let mut order = vec![0usize; tile_len];
            for (i, slot) in dest.iter_mut().enumerate() {
                let d = *slot;
                let rank = running[d];
                *slot = (bases[d] + rank) as usize;
                order[offset[d] + rank as usize] = i;
                running[d] += 1;
            }
            debug_assert!(
                order.windows(2).all(|p| dest[p[0]] < dest[p[1]]),
                "emission order must be the sort by destination"
            );
            blk.for_each_warp(|w| {
                let items = RADIX_TILE / SCAN_BLOCK;
                for it in 0..items {
                    let off = it * SCAN_BLOCK + w.warp_in_block * WARP_SIZE;
                    if off >= tile_len {
                        break;
                    }
                    let m = w.mask_where(|l| off + l < tile_len);
                    // Coalesced source reads + the shared staging round
                    // trip (write to shared in digit order, read back).
                    let src: [usize; WARP_SIZE] =
                        std::array::from_fn(|l| (tile_base + off + l).min(n - 1));
                    let k = w.ld_global(keys, &src, m);
                    let v = w.ld_global(vals, &src, m);
                    let _ = (k, v);
                    w.charge_compute(2);
                    // Emit in staged order: lanes cover order[off..off+32].
                    let emit: [usize; WARP_SIZE] =
                        std::array::from_fn(|l| order[(off + l).min(tile_len - 1)]);
                    let d_idx: [usize; WARP_SIZE] = std::array::from_fn(|l| dest[emit[l]]);
                    let kv = w.lanes_from_fn(m, |l| keys.as_slice()[tile_base + emit[l]]);
                    let vv = w.lanes_from_fn(m, |l| vals.as_slice()[tile_base + emit[l]]);
                    w.st_global(&out_k, &d_idx, kv, m);
                    w.st_global(&out_v, &d_idx, vv, m);
                }
            });
        },
    );
    (out_k, out_v)
}

/// Stream compaction: keeps `data[i]` where `flags[i] != 0`. Returns the
/// compacted buffer and its length.
pub fn compact(
    gpu: &mut Gpu,
    data: &DeviceBuffer<u32>,
    flags: &DeviceBuffer<u32>,
) -> (DeviceBuffer<u32>, usize) {
    assert_eq!(data.len(), flags.len(), "data/flags length mismatch");
    let n = data.len();
    if n == 0 {
        return (gpu.alloc(0), 0);
    }
    let (positions, total) = exclusive_scan(gpu, flags);
    let out = gpu.alloc::<u32>(total as usize);
    gpu.launch(
        "compact_scatter",
        LaunchConfig::grid1d(n, SCAN_BLOCK),
        |blk| {
            blk.for_each_warp(|w| {
                let gid = w.global_thread_ids();
                let valid = w.mask_where(|l| gid[l] < n);
                if valid == 0 {
                    return;
                }
                let safe = gid.map(|g| g.min(n - 1));
                let f = w.ld_global(flags, &safe, valid);
                let keep = w.mask_where(|l| valid & (1 << l) != 0 && f[l] != 0);
                if keep == 0 {
                    return;
                }
                let v = w.ld_global(data, &safe, keep);
                let pos = w.ld_global(&positions, &safe, keep);
                let dest: [usize; WARP_SIZE] = std::array::from_fn(|l| pos[l] as usize);
                w.st_global(&out, &dest, v, keep);
            });
        },
    );
    (out, total as usize)
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// Up to three tiles, keys needing 1 to 4 digit passes; the radix
        /// scatter also asserts (in debug builds) that each tile emits in
        /// destination order.
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
        let keys = g.to_device(&vec![3u32; 512]);
        let vals = g.to_device(&vec![0u32; 512]);
        let before = g.counters().launches;
        let _ = radix_sort_pairs(&mut g, &keys, &vals, 200);
        let one_pass_launches = g.counters().launches - before;
        let before = g.counters().launches;
        let _ = radix_sort_pairs(&mut g, &keys, &vals, 1 << 20);
        let three_pass_launches = g.counters().launches - before;
        assert!(three_pass_launches > one_pass_launches);
    }

    #[test]
    fn compact_keeps_flagged() {
        let mut g = gpu();
        let data = g.to_device(&[10u32, 20, 30, 40, 50]);
        let flags = g.to_device(&[1u32, 0, 1, 0, 1]);
        let (out, count) = compact(&mut g, &data, &flags);
        assert_eq!(count, 3);
        assert_eq!(out.as_slice(), &[10, 30, 50]);
    }

    #[test]
    fn compact_none_and_all() {
        let mut g = gpu();
        let data = g.to_device(&[1u32, 2, 3]);
        let none = g.to_device(&[0u32, 0, 0]);
        let (out, c) = compact(&mut g, &data, &none);
        assert_eq!(c, 0);
        assert!(out.is_empty());
        let all = g.to_device(&[1u32, 1, 1]);
        let (out, c) = compact(&mut g, &data, &all);
        assert_eq!(c, 3);
        assert_eq!(out.as_slice(), &[1, 2, 3]);
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

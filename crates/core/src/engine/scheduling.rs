//! Scheduling-index construction (paper §6.1.2, measured in Figure 6).
//!
//! At every step NextDoor inverts the sample→transit relation into a
//! transit→samples map, with the CUB primitives of
//! [`nextdoor_gpu::algorithms`]:
//!
//! 1. a stable radix sort of the `(transit, sample-slot)` pairs by transit
//!    (`DeviceRadixSort`): one launch while the pairs fit one tile;
//! 2. one run-length pass over the sorted transits
//!    (`DeviceRunLengthEncode::Encode`), giving each transit's segment
//!    length: two launches;
//! 3. a single-pass scan of those lengths for the segment starts
//!    (`DeviceScan`): two launches;
//! 4. the partition of the transits into the three kernel classes by the
//!    threads each needs, [`partition_kernel_classes`]: one classification
//!    launch and a single-pass scan.
//!
//! A step of at most 4,864 pairs thus builds its index and classes in 8
//! launches. Every stage runs as simulated kernels, so its cost is
//! measured, not assumed.

use crate::api::NULL_VERTEX;
use nextdoor_gpu::algorithms::{exclusive_scan, radix_sort_pairs, run_length_encode};
use nextdoor_gpu::{Gpu, LaunchConfig, OutOfMemory, WARP_SIZE};
use nextdoor_graph::VertexId;

/// One transit vertex's group of sample-slots in the sorted pair array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransitSegment {
    /// The transit vertex.
    pub transit: VertexId,
    /// Offset of its first pair in the sorted pair array.
    pub start: usize,
    /// Number of pairs (sample-slots) associated with it.
    pub count: usize,
}

/// The per-step transit→samples map.
#[derive(Debug, Clone, Default)]
pub struct SchedulingIndex {
    /// Pair ids (`sample * tps + tidx`), grouped by transit.
    pub sorted_pair_ids: Vec<u32>,
    /// One segment per distinct transit, ordered by transit id.
    pub segments: Vec<TransitSegment>,
}

/// Table 2's kernel classes: indices into [`SchedulingIndex::segments`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KernelClasses {
    /// Transits needing fewer threads than a warp.
    pub sub_warp: Vec<usize>,
    /// Transits needing between a warp and a block of threads.
    pub block: Vec<usize>,
    /// Transits needing more than one block.
    pub grid: Vec<usize>,
}

/// Builds the transit→samples map on the simulated GPU.
///
/// `pairs` holds `(transit, pair_id)` with NULL transits already removed;
/// `num_vertices` bounds the radix-sort key range. Any bound above the
/// largest transit works: a tighter one (the tuner's `tight_key_range`,
/// see [`TuningPlan`](crate::tuning::TuningPlan)) can only shed digit
/// passes, and the sort is stable, so the index is identical. A shed pass
/// saves cycles inside the one launch of a single-tile sort, and three
/// launches of a multi-tile one.
///
/// # Errors
///
/// Returns [`OutOfMemory`] when a device allocation fails — genuinely or
/// through a scripted fault (see [`nextdoor_gpu::FaultPlan`]); the step
/// loop absorbs injected faults and retries the step.
pub fn build_scheduling_index(
    gpu: &mut Gpu,
    pairs: &[(VertexId, u32)],
    num_vertices: usize,
) -> Result<SchedulingIndex, OutOfMemory> {
    if pairs.is_empty() {
        return Ok(SchedulingIndex::default());
    }
    debug_assert!(pairs.iter().all(|&(t, _)| t != NULL_VERTEX));
    let keys_host: Vec<u32> = pairs.iter().map(|&(t, _)| t).collect();
    let vals_host: Vec<u32> = pairs.iter().map(|&(_, p)| p).collect();
    let max_key = (num_vertices - 1) as u32;
    let keys = gpu.try_to_device(&keys_host)?;
    let vals = gpu.try_to_device(&vals_host)?;
    let (sorted_keys, sorted_vals) = radix_sort_pairs(gpu, &keys, &vals, max_key)?;
    let (transits, counts) = run_length_encode(gpu, &sorted_keys)?;
    let (starts, _) = exclusive_scan(gpu, &counts)?;
    let segments = transits
        .as_slice()
        .iter()
        .zip(counts.as_slice())
        .zip(starts.as_slice())
        .map(|((&transit, &count), &start)| TransitSegment {
            transit,
            start: start as usize,
            count: count as usize,
        })
        .collect();
    Ok(SchedulingIndex {
        sorted_pair_ids: sorted_vals.as_slice().to_vec(),
        segments,
    })
}

/// Partitions transits into the three kernel classes of Table 2 by the
/// number of threads each needs (`count × m`), charging the scan-based
/// partition pass the paper describes.
///
/// A transit needing at most [`WARP_SIZE`] threads is sub-warp work, at
/// most `max_block_threads` thread-block work, and grid work above. The
/// engine passes its 1024-thread launch block (Table 2), so a block-class
/// transit always fits one launch block. Moving the cutoff re-assigns
/// transits between classes; the classes execute the same `(sample, slot)`
/// lanes with the same RNG keying, so samples are unchanged.
///
/// # Errors
///
/// Returns [`OutOfMemory`] when a device allocation fails — genuinely or
/// through a scripted fault.
pub fn partition_kernel_classes(
    gpu: &mut Gpu,
    index: &SchedulingIndex,
    m: usize,
    max_block_threads: usize,
) -> Result<KernelClasses, OutOfMemory> {
    debug_assert!(WARP_SIZE <= max_block_threads);
    let mut classes = KernelClasses::default();
    let n = index.segments.len();
    if n == 0 {
        return Ok(classes);
    }
    // The classification pass: one thread per transit reads its count and
    // writes a class id; one single-pass scan of the ids stands for the
    // three class compactions.
    let counts: Vec<u32> = index.segments.iter().map(|s| s.count as u32).collect();
    let counts_dev = gpu.try_to_device(&counts)?;
    let class_dev = gpu.try_alloc::<u32>(n)?;
    gpu.launch("partition_transits", LaunchConfig::grid1d(n, 256), |blk| {
        blk.for_each_warp(|w| {
            let gid = w.global_thread_ids();
            let msk = w.mask_where(|l| gid[l] < n);
            if msk == 0 {
                return;
            }
            let safe = gid.map(|g| g.min(n - 1));
            let c = w.ld_global(&counts_dev, &safe, msk);
            let cls = w.map(c, msk, |c| {
                let threads = c as usize * m;
                if threads <= WARP_SIZE {
                    0
                } else if threads <= max_block_threads {
                    1
                } else {
                    2
                }
            });
            w.st_global(&class_dev, &safe, cls, msk);
        });
    });
    // The scan pass is charged; the host materialises the lists.
    exclusive_scan(gpu, &class_dev)?;
    for (i, seg) in index.segments.iter().enumerate() {
        let threads = seg.count * m;
        if threads <= WARP_SIZE {
            classes.sub_warp.push(i);
        } else if threads <= max_block_threads {
            classes.block.push(i);
        } else {
            classes.grid.push(i);
        }
    }
    Ok(classes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nextdoor_gpu::GpuSpec;

    fn gpu() -> Gpu {
        Gpu::new(GpuSpec::small())
    }

    #[test]
    fn index_groups_pairs_by_transit() {
        let mut g = gpu();
        let pairs = vec![(5u32, 0u32), (3, 1), (5, 2), (3, 3), (9, 4), (5, 5)];
        let idx = build_scheduling_index(&mut g, &pairs, 16).unwrap();
        assert_eq!(idx.segments.len(), 3);
        assert_eq!(
            idx.segments[0],
            TransitSegment {
                transit: 3,
                start: 0,
                count: 2
            }
        );
        assert_eq!(idx.segments[1].transit, 5);
        assert_eq!(idx.segments[1].count, 3);
        assert_eq!(idx.segments[2].transit, 9);
        // Stable sort keeps pair order within a transit.
        assert_eq!(idx.sorted_pair_ids, vec![1, 3, 0, 2, 5, 4]);
    }

    #[test]
    fn empty_pairs_yield_empty_index() {
        let mut g = gpu();
        let idx = build_scheduling_index(&mut g, &[], 16).unwrap();
        assert!(idx.segments.is_empty());
        assert!(idx.sorted_pair_ids.is_empty());
    }

    #[test]
    fn single_transit_many_samples() {
        let mut g = gpu();
        let pairs: Vec<(u32, u32)> = (0..100).map(|i| (7u32, i)).collect();
        let idx = build_scheduling_index(&mut g, &pairs, 16).unwrap();
        assert_eq!(idx.segments.len(), 1);
        assert_eq!(idx.segments[0].count, 100);
        assert_eq!(idx.sorted_pair_ids, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn classes_follow_table2_thresholds() {
        let mut g = gpu();
        // counts: 10 (sub-warp at m=1), 100 (block), 2000 (grid).
        let mut pairs = Vec::new();
        for i in 0..10u32 {
            pairs.push((1u32, i));
        }
        for i in 0..100u32 {
            pairs.push((2u32, 100 + i));
        }
        for i in 0..2000u32 {
            pairs.push((3u32, 1000 + i));
        }
        let idx = build_scheduling_index(&mut g, &pairs, 8).unwrap();
        let classes = partition_kernel_classes(&mut g, &idx, 1, 1024).unwrap();
        assert_eq!(classes.sub_warp.len(), 1);
        assert_eq!(classes.block.len(), 1);
        assert_eq!(classes.grid.len(), 1);
        assert_eq!(idx.segments[classes.grid[0]].transit, 3);
        // With m = 8, the 10-count transit needs 80 threads: block class.
        let classes = partition_kernel_classes(&mut g, &idx, 8, 1024).unwrap();
        assert!(classes.sub_warp.is_empty());
        assert_eq!(classes.block.len(), 2);
        // The tuner's 512-thread cutoff moves the 800-thread transit from
        // block to grid work.
        let classes = partition_kernel_classes(&mut g, &idx, 8, 512).unwrap();
        assert!(classes.sub_warp.is_empty());
        assert_eq!(classes.block.len(), 1);
        assert_eq!(classes.grid.len(), 2);
    }

    /// Launches of one index build plus its class partition over `n`
    /// pairs whose key bound needs `passes` digit passes, in closed form:
    /// the sort (none for one pair, one launch up to a 4,864-key tile, three
    /// per pass above), the run-length pass and the scan of its lengths (two
    /// each), and the partition (a classification launch and a scan).
    fn index_launches(n: usize, passes: u64) -> u64 {
        let sort = match n {
            0 | 1 => 0,
            2..=4864 => 1,
            _ => 3 * passes,
        };
        if n == 0 {
            0
        } else {
            sort + 2 + 2 + 1 + 2
        }
    }

    #[test]
    fn scheduling_charges_kernels() {
        // A walk-epoch step: 512 pairs with 14-bit transit ids.
        assert_eq!(index_launches(512, 2), 8);
        let bounds = [(1, 1 << 8), (2, 1 << 14), (3, 1 << 24), (4, 1 << 25)];
        for n in [0, 1, 2, 31, 512, 4864, 4865, 3 * 2048, 3 * 4864] {
            for (passes, num_vertices) in bounds {
                let mut g = gpu();
                let pairs: Vec<(u32, u32)> = (0..n as u32)
                    .map(|i| (i.wrapping_mul(2_654_435_761) % num_vertices, i))
                    .collect();
                let before = g.counters().launches;
                let idx = build_scheduling_index(&mut g, &pairs, num_vertices as usize).unwrap();
                let _ = partition_kernel_classes(&mut g, &idx, 1, 1024).unwrap();
                assert_eq!(
                    g.counters().launches - before,
                    index_launches(n, passes),
                    "{n} pairs, {passes} digit passes"
                );
            }
        }
    }
}

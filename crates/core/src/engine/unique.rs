//! Unique-neighbour deduplication (paper §6.3).
//!
//! When `unique(step)` is set, NextDoor removes duplicate vertices sampled
//! within each sample at that step by sorting them (parallel radix /
//! bitonic sort) and compacting distinct values. The functional transform —
//! sorted distinct values followed by `NULL` padding — is shared by every
//! engine; the GPU engines additionally charge the in-block sort.

use crate::api::NULL_VERTEX;
use nextdoor_gpu::algorithms::bitonic_sort_shared;
use nextdoor_gpu::{Gpu, LaunchConfig, OutOfMemory, WARP_SIZE};
use nextdoor_graph::VertexId;

/// Deduplicates each sample's slice of `values` in place: the slice becomes
/// its sorted distinct values, NULL-padded. The canonical functional form
/// used by all engines.
pub fn dedup_values(values: &mut [VertexId], slots: usize, num_samples: usize) {
    debug_assert_eq!(values.len(), slots * num_samples);
    for s in 0..num_samples {
        let chunk = &mut values[s * slots..(s + 1) * slots];
        chunk.sort_unstable(); // NULL (= u32::MAX) sorts last
        let mut w = 0;
        for i in 0..chunk.len() {
            if chunk[i] == NULL_VERTEX {
                break;
            }
            if w == 0 || chunk[w - 1] != chunk[i] {
                chunk[w] = chunk[i];
                w += 1;
            }
        }
        for v in chunk[w..].iter_mut() {
            *v = NULL_VERTEX;
        }
    }
}

/// GPU variant: performs [`dedup_values`] while charging the in-block
/// bitonic sort and the compaction scan, one thread block per sample (the
/// paper assigns one sample to one block when it fits in shared memory).
///
/// # Errors
///
/// Returns [`OutOfMemory`] when a device allocation fails; `values` is then
/// left unchanged.
pub fn dedup_values_gpu(
    gpu: &mut Gpu,
    values: &mut [VertexId],
    slots: usize,
    num_samples: usize,
) -> Result<(), OutOfMemory> {
    let padded = slots.next_power_of_two();
    let block_dim = padded.clamp(WARP_SIZE, 1024);
    let shared_fits = padded * 4 <= gpu.spec().shared_mem_per_block;
    let vals_dev = gpu.try_to_device(values)?;
    let out_dev = gpu.try_alloc::<u32>(values.len())?;
    gpu.launch(
        "unique_dedup",
        LaunchConfig {
            grid_dim: num_samples,
            block_dim,
        },
        |blk| {
            let s = blk.block_idx;
            let arr = if shared_fits {
                blk.shared_alloc(padded)
            } else {
                None
            };
            let Some(arr) = arr else {
                // Spill path: charge a global sort as strided passes.
                blk.for_each_warp(|w| {
                    let gid = w.global_thread_ids();
                    let m = w.mask_where(|l| gid[l] < (s + 1) * slots && gid[l] >= s * slots);
                    if m != 0 {
                        let v = w.ld_global(&vals_dev, &gid.map(|g| g.min(values.len() - 1)), m);
                        w.st_global(&out_dev, &gid.map(|g| g.min(values.len() - 1)), v, m);
                        w.charge_compute(8);
                    }
                });
                return;
            };
            // Load the sample's slice into shared memory.
            blk.for_each_warp(|w| {
                let tid = w.thread_ids_in_block();
                let m = w.mask_where(|l| tid[l] < slots);
                if m == 0 {
                    return;
                }
                let idx = tid.map(|t| (s * slots + t.min(slots - 1)).min(values.len() - 1));
                let v = w.ld_global(&vals_dev, &idx, m);
                w.st_shared(&arr, &tid.map(|t| t.min(slots - 1)), v, m);
            });
            blk.syncthreads();
            bitonic_sort_shared(blk, arr, slots);
            // Adjacent-distinct flagging + write back.
            blk.for_each_warp(|w| {
                let tid = w.thread_ids_in_block();
                let m = w.mask_where(|l| tid[l] < slots);
                if m == 0 {
                    return;
                }
                let safe = tid.map(|t| t.min(slots - 1));
                let cur = w.ld_shared(&arr, &safe, m);
                let prev = w.ld_shared(&arr, &safe.map(|t| t.saturating_sub(1)), m);
                let _ = (cur, prev);
                w.charge_compute(2);
                let idx = safe.map(|t| (s * slots + t).min(values.len() - 1));
                w.st_global(&out_dev, &idx, cur, m);
            });
        },
    );
    dedup_values(values, slots, num_samples);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nextdoor_gpu::GpuSpec;

    #[test]
    fn dedup_sorts_and_pads() {
        let mut v = vec![5, 2, 5, NULL_VERTEX, 9, 9, 9, 1];
        dedup_values(&mut v, 4, 2);
        assert_eq!(&v[..4], &[2, 5, NULL_VERTEX, NULL_VERTEX]);
        assert_eq!(&v[4..], &[1, 9, NULL_VERTEX, NULL_VERTEX]);
    }

    #[test]
    fn dedup_all_null_sample() {
        let mut v = vec![NULL_VERTEX; 3];
        dedup_values(&mut v, 3, 1);
        assert_eq!(v, vec![NULL_VERTEX; 3]);
    }

    #[test]
    fn dedup_distinct_untouched() {
        let mut v = vec![3, 1, 2];
        dedup_values(&mut v, 3, 1);
        assert_eq!(v, vec![1, 2, 3]);
    }

    #[test]
    fn gpu_dedup_matches_functional_and_charges() {
        let mut gpu = Gpu::new(GpuSpec::small());
        let mut v = vec![7, 7, 3, 3, 10, 2, 2, NULL_VERTEX];
        let mut expect = v.clone();
        dedup_values(&mut expect, 4, 2);
        dedup_values_gpu(&mut gpu, &mut v, 4, 2).unwrap();
        assert_eq!(v, expect);
        assert!(gpu.counters().shared_loads > 0, "bitonic sort charged");
        assert!(gpu.counters().launches >= 1);
    }
}

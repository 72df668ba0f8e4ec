//! Black-box tests of the warp-level operations through the public launch
//! API: shuffle semantics, atomic return values, divergence accounting from
//! trace replay, and occupancy-driven behaviour.

use nextdoor_gpu::lane::{LaneOp, LaneTrace};
use nextdoor_gpu::warp::FULL_MASK;
use nextdoor_gpu::{Gpu, GpuSpec, LaunchConfig, WARP_SIZE};

fn one_warp(gpu: &mut Gpu, f: impl FnMut(&mut nextdoor_gpu::WarpCtx<'_>)) {
    let mut f = Some(f);
    // `launch_ordered`: the helper hands a `FnMut` to the single block.
    gpu.launch_ordered(
        "test",
        LaunchConfig {
            grid_dim: 1,
            block_dim: 32,
        },
        move |blk| {
            let mut g = f.take().expect("single block");
            blk.for_each_warp(|w| g(w));
        },
    );
}

#[test]
fn shfl_moves_values_between_lanes() {
    let mut gpu = Gpu::new(GpuSpec::small());
    one_warp(&mut gpu, |w| {
        let vals: [u32; WARP_SIZE] = std::array::from_fn(|l| l as u32 * 10);
        // Broadcast from lane 3.
        let out = w.shfl(vals, &[3; WARP_SIZE], FULL_MASK);
        assert!(out.iter().all(|&v| v == 30));
        // Rotate by one.
        let srcs: [usize; WARP_SIZE] = std::array::from_fn(|l| (l + 1) % WARP_SIZE);
        let rot = w.shfl(vals, &srcs, FULL_MASK);
        assert_eq!(rot[0], 10);
        assert_eq!(rot[31], 0);
    });
    assert_eq!(gpu.counters().shuffles, 2);
}

#[test]
fn atomic_add_serialises_conflicts_and_returns_olds() {
    let mut gpu = Gpu::new(GpuSpec::small());
    let buf = gpu.alloc::<u32>(4);
    one_warp(&mut gpu, |w| {
        // All 32 lanes hit slot 0: the returned "old" values must be a
        // permutation of 0..32 and the final cell 32.
        let olds = w.atomic_add_global(&buf, &[0; WARP_SIZE], [1; WARP_SIZE], FULL_MASK);
        let mut sorted = olds;
        sorted.sort_unstable();
        let expect: [u32; WARP_SIZE] = std::array::from_fn(|l| l as u32);
        assert_eq!(sorted, expect);
    });
    assert_eq!(buf.as_slice()[0], 32);
    assert!(gpu.counters().atomics > 0);
}

#[test]
fn rand_lanes_is_key_deterministic() {
    let mut gpu = Gpu::new(GpuSpec::small());
    let mut captured = Vec::new();
    one_warp(&mut gpu, |w| {
        let keys: [u64; WARP_SIZE] = std::array::from_fn(|l| l as u64);
        captured.push(w.rand_lanes(7, &keys, 1, FULL_MASK));
        captured.push(w.rand_lanes(7, &keys, 1, FULL_MASK));
        captured.push(w.rand_lanes(8, &keys, 1, FULL_MASK));
    });
    assert_eq!(captured[0], captured[1], "same keys, same draws");
    assert_ne!(captured[0], captured[2], "seed changes draws");
}

#[test]
fn replay_charges_divergence_for_uneven_traces() {
    let mut gpu = Gpu::new(GpuSpec::small());
    one_warp(&mut gpu, |w| {
        let mut traces: [LaneTrace; WARP_SIZE] = std::array::from_fn(|_| LaneTrace::new());
        // Half the lanes do 1 compute op, half do 3: some lanes drop out early.
        for (l, t) in traces.iter_mut().enumerate() {
            let n = if l % 2 == 0 { 1 } else { 3 };
            for _ in 0..n {
                t.push(LaneOp::Compute(1));
            }
        }
        w.replay(&traces, FULL_MASK);
    });
    assert!(
        gpu.counters().divergent_branches > 0,
        "uneven trace lengths must register as divergence"
    );
}

#[test]
fn replay_coalesces_contiguous_and_splits_scattered() {
    let spec = GpuSpec::small();
    // Contiguous addresses: 32 x 4B = 4 sectors.
    let mut gpu = Gpu::new(spec.clone());
    one_warp(&mut gpu, |w| {
        let mut traces: [LaneTrace; WARP_SIZE] = std::array::from_fn(|_| LaneTrace::new());
        for (l, t) in traces.iter_mut().enumerate() {
            t.push(LaneOp::GlobalLoad {
                addr: 0x1000 + (l as u64) * 4,
                bytes: 4,
            });
        }
        w.replay(&traces, FULL_MASK);
    });
    assert_eq!(gpu.counters().gld_transactions, 4);
    // Scattered addresses: one sector per lane.
    let mut gpu2 = Gpu::new(spec);
    one_warp(&mut gpu2, |w| {
        let mut traces: [LaneTrace; WARP_SIZE] = std::array::from_fn(|_| LaneTrace::new());
        for (l, t) in traces.iter_mut().enumerate() {
            t.push(LaneOp::GlobalLoad {
                addr: 0x1000 + (l as u64) * 4096,
                bytes: 4,
            });
        }
        w.replay(&traces, FULL_MASK);
    });
    assert_eq!(gpu2.counters().gld_transactions, 32);
    assert!(gpu2.counters().cycles > gpu.counters().cycles);
}

#[test]
fn mixed_op_kinds_at_same_position_serialise() {
    let mut gpu = Gpu::new(GpuSpec::small());
    one_warp(&mut gpu, |w| {
        let mut traces: [LaneTrace; WARP_SIZE] = std::array::from_fn(|_| LaneTrace::new());
        for (l, t) in traces.iter_mut().enumerate() {
            if l < 16 {
                t.push(LaneOp::Rand);
            } else {
                t.push(LaneOp::Compute(1));
            }
        }
        w.replay(&traces, FULL_MASK);
    });
    assert!(gpu.counters().divergent_branches >= 1);
    assert_eq!(gpu.counters().rand_draws, 16);
}

#[test]
fn shared_memory_round_trip_within_block() {
    let mut gpu = Gpu::new(GpuSpec::small());
    let out = gpu.alloc::<u32>(64);
    gpu.launch(
        "stage",
        LaunchConfig {
            grid_dim: 1,
            block_dim: 64,
        },
        |blk| {
            let arr = blk.shared_alloc(64).expect("fits");
            blk.for_each_warp(|w| {
                let tid = w.thread_ids_in_block();
                let vals = w.lanes_from_fn(FULL_MASK, |l| (tid[l] * 3) as u32);
                w.st_shared(&arr, &tid, vals, FULL_MASK);
            });
            blk.syncthreads();
            // Warp 0 reads what warp 1 wrote (cross-warp via shared).
            blk.for_each_warp(|w| {
                let tid = w.thread_ids_in_block();
                let v = w.ld_shared(&arr, &tid.map(|t| 63 - t), FULL_MASK);
                w.st_global(&out, &tid, v, FULL_MASK);
            });
        },
    );
    for t in 0..64 {
        assert_eq!(out.as_slice()[t], ((63 - t) * 3) as u32);
    }
}

#[test]
fn occupancy_small_grids_leave_sms_idle() {
    let mut gpu = Gpu::new(GpuSpec::small()); // 8 SMs
    let stats = gpu.launch(
        "underfilled",
        LaunchConfig {
            grid_dim: 2,
            block_dim: 32,
        },
        |blk| blk.for_each_warp(|w| w.charge_compute(1000)),
    );
    let act = stats.counters.multiprocessor_activity();
    assert!(act < 30.0, "2 blocks on 8 SMs: activity {act}");
    let stats = gpu.launch(
        "filled",
        LaunchConfig {
            grid_dim: 64,
            block_dim: 32,
        },
        |blk| blk.for_each_warp(|w| w.charge_compute(1000)),
    );
    let act = stats.counters.multiprocessor_activity();
    assert!(act > 90.0, "64 equal blocks on 8 SMs: activity {act}");
}

// ---------------------------------------------------------------------------
// Closed-form memory-op accounting: exact sector and divergence counts for
// access patterns whose answer follows from the 32-byte sector size alone.
// ---------------------------------------------------------------------------

/// Issues one `ld_global` and one `st_global` over `T` elements at `idxs`
/// under `mask` on a fresh device; returns `(gld_transactions,
/// gst_transactions)` after checking each op counted as one request.
fn sectors_for<T: Copy + Default>(idxs: [usize; WARP_SIZE], mask: u32) -> (u64, u64) {
    let mut gpu = Gpu::new(GpuSpec::small());
    let len = idxs.iter().max().map_or(1, |&m| m + 1);
    let buf = gpu.alloc::<T>(len);
    one_warp(&mut gpu, |w| {
        let v = w.ld_global(&buf, &idxs, mask);
        w.st_global(&buf, &idxs, v, mask);
    });
    let c = gpu.counters();
    assert_eq!((c.gld_requests, c.gst_requests), (1, 1));
    (c.gld_transactions, c.gst_transactions)
}

#[test]
fn contiguous_aligned_u32_lanes_touch_four_sectors() {
    let idxs: [usize; WARP_SIZE] = std::array::from_fn(|l| l);
    assert_eq!(sectors_for::<u32>(idxs, FULL_MASK), (4, 4));
}

#[test]
fn u32_lanes_shifted_four_bytes_touch_five_sectors() {
    let idxs: [usize; WARP_SIZE] = std::array::from_fn(|l| l + 1);
    assert_eq!(sectors_for::<u32>(idxs, FULL_MASK), (5, 5));
}

#[test]
fn reversed_lane_order_coalesces_like_ascending() {
    let idxs: [usize; WARP_SIZE] = std::array::from_fn(|l| WARP_SIZE - 1 - l);
    assert_eq!(sectors_for::<u32>(idxs, FULL_MASK), (4, 4));
}

#[test]
fn broadcast_address_is_one_sector() {
    assert_eq!(sectors_for::<u32>([7; WARP_SIZE], FULL_MASK), (1, 1));
}

#[test]
fn sector_stride_gives_one_sector_per_lane() {
    let idxs: [usize; WARP_SIZE] = std::array::from_fn(|l| l * 8);
    assert_eq!(sectors_for::<u32>(idxs, FULL_MASK), (32, 32));
}

#[test]
fn first_seven_lanes_fit_one_sector() {
    let idxs: [usize; WARP_SIZE] = std::array::from_fn(|l| l);
    let mask = nextdoor_gpu::warp::mask_first_n(7);
    assert_eq!(sectors_for::<u32>(idxs, mask), (1, 1));
}

#[test]
fn contiguous_u64_lanes_touch_eight_sectors() {
    let idxs: [usize; WARP_SIZE] = std::array::from_fn(|l| l);
    assert_eq!(sectors_for::<u64>(idxs, FULL_MASK), (8, 8));
}

#[test]
fn atomic_add_on_four_sectors_serialises_in_lane_order() {
    let mut gpu = Gpu::new(GpuSpec::small());
    // Address `l % 4`, one sector apart: 8 lanes per address.
    let idxs: [usize; WARP_SIZE] = std::array::from_fn(|l| (l % 4) * 8);
    let buf = gpu.alloc::<u32>(32);
    let mut olds = [0u32; WARP_SIZE];
    one_warp(&mut gpu, |w| {
        olds = w.atomic_add_global(&buf, &idxs, [1; WARP_SIZE], FULL_MASK);
    });
    let expect: [u32; WARP_SIZE] = std::array::from_fn(|l| (l / 4) as u32);
    assert_eq!(olds, expect, "the k-th lane on an address sees k");
    for a in 0..4 {
        assert_eq!(buf.as_slice()[a * 8], 8);
    }
    let c = gpu.counters();
    assert_eq!(c.atomics, 1);
    assert_eq!(c.gst_requests, 1);
    assert_eq!(c.gst_transactions, 4);
}

/// Replays `traces` on one full warp; returns the divergent branches.
fn divergence_of(traces: &[LaneTrace; WARP_SIZE]) -> u64 {
    let mut gpu = Gpu::new(GpuSpec::small());
    one_warp(&mut gpu, |w| w.replay(traces, FULL_MASK));
    gpu.counters().divergent_branches
}

#[test]
fn compute_traces_of_lengths_three_and_five_diverge_once() {
    let traces: [LaneTrace; WARP_SIZE] = std::array::from_fn(|l| {
        let mut t = LaneTrace::new();
        for _ in 0..if l % 2 == 0 { 3 } else { 5 } {
            t.push(LaneOp::Compute(1));
        }
        t
    });
    assert_eq!(divergence_of(&traces), 1, "one drop-off point");
}

#[test]
fn load_compute_and_rand_at_one_position_diverge_twice() {
    let traces: [LaneTrace; WARP_SIZE] = std::array::from_fn(|l| {
        let mut t = LaneTrace::new();
        t.push(LaneOp::Compute(1));
        t.push(match l % 3 {
            0 => LaneOp::GlobalLoad {
                addr: 0x1000 + l as u64 * 4,
                bytes: 4,
            },
            1 => LaneOp::Compute(2),
            _ => LaneOp::Rand,
        });
        t
    });
    assert_eq!(divergence_of(&traces), 2, "three groups serialise");
}

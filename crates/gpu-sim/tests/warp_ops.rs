//! Black-box tests of the warp-level operations through the public launch
//! API: shuffle semantics, atomic return values, divergence accounting from
//! trace replay, and occupancy-driven behaviour.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use nextdoor_gpu::algorithms::{exclusive_scan, radix_sort_pairs, run_length_encode};
use nextdoor_gpu::lane::{LaneOp, LaneTrace};
use nextdoor_gpu::warp::FULL_MASK;
use nextdoor_gpu::{Gpu, GpuSpec, KernelRecord, LaunchConfig, WARP_SIZE};

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

// ---------------------------------------------------------------------------
// Closed-form launch counts and launch shapes of the CUB-style primitives in
// `algorithms`: 8-bit digits, a 4,864-key single sort tile (256 threads × 19
// keys), 2,048-key multi-tile sort tiles and 256-item single-pass tiles.
// ---------------------------------------------------------------------------

/// Keys the single-tile sort takes.
const SORT_TILE: usize = 4864;
/// Keys per tile of the multi-tile sort.
const SORT_MULTI_TILE: usize = 2048;
/// Items per tile of the single-pass scan and run-length pass.
const SCAN_TILE: usize = 256;

/// Launches `f` issues on `gpu`.
fn launches_of(gpu: &mut Gpu, f: impl FnOnce(&mut Gpu)) -> u64 {
    let before = gpu.counters().launches;
    f(gpu);
    gpu.counters().launches - before
}

#[test]
fn radix_sort_launches_in_closed_form() {
    // Key bounds needing 1 to 4 digit passes.
    let bounds = [(1, 255), (2, 16_383), (3, 1 << 20), (4, u32::MAX)];
    let sizes = [
        0,
        1,
        2,
        31,
        512,
        SORT_TILE,
        SORT_TILE + 1,
        3 * SORT_MULTI_TILE,
        3 * SORT_TILE,
    ];
    for n in sizes {
        for (passes, max_key) in bounds {
            let mut gpu = Gpu::new(GpuSpec::small());
            let keys: Vec<u32> = (0..n as u32)
                .map(|i| i.wrapping_mul(2_654_435_761) % max_key)
                .collect();
            let (kd, vd) = (gpu.to_device(&keys), gpu.to_device(&keys));
            // None for one key, one launch for a single tile, and an
            // upsweep, spine scan and downsweep per pass above.
            let expect = match n {
                0 | 1 => 0,
                2..=SORT_TILE => 1,
                _ => 3 * passes,
            };
            let got = launches_of(&mut gpu, |g| {
                let _ = radix_sort_pairs(g, &kd, &vd, max_key);
            });
            assert_eq!(got, expect, "{n} keys, {passes} digit passes");
        }
    }
}

#[test]
fn single_pass_scan_and_run_length_launches_in_closed_form() {
    for n in [0, 1, 2, 31, 512, SCAN_TILE, SCAN_TILE + 1, 3 * SCAN_TILE] {
        let mut gpu = Gpu::new(GpuSpec::small());
        let data: Vec<u32> = (0..n as u32).map(|i| i / 3).collect();
        let d = gpu.to_device(&data);
        // An init launch and a sweep launch, whatever the tile count.
        let expect = if n == 0 { 0 } else { 2 };
        let scan = launches_of(&mut gpu, |g| {
            let _ = exclusive_scan(g, &d);
        });
        let rle = launches_of(&mut gpu, |g| {
            let _ = run_length_encode(g, &d);
        });
        assert_eq!((scan, rle), (expect, expect), "{n} items");
    }
}

/// The benchmark's device: a V100 cut to 4 SMs.
fn v100_4sm() -> GpuSpec {
    let mut spec = GpuSpec::v100();
    spec.num_sms = 4;
    spec
}

/// The profile record of the one launch named `name`.
fn record<'a>(gpu: &'a Gpu, name: &str) -> &'a KernelRecord {
    let mut named = gpu.profile().kernels().filter(|k| k.name == name);
    let rec = named.next().expect("launched");
    assert!(named.next().is_none(), "{name} launched once");
    rec
}

/// Occupancy of 256-thread blocks holding `shared` bytes each: the
/// resident blocks per SM are limited by warps, block slots and shared
/// memory.
fn occupancy_of_256_threads(spec: &GpuSpec, shared: usize) -> f64 {
    let warps = 256 / WARP_SIZE;
    let blocks = (spec.max_warps_per_sm / warps)
        .min(spec.max_blocks_per_sm)
        .min(spec.shared_mem_per_block / shared);
    (blocks * warps) as f64 / spec.max_warps_per_sm as f64
}

#[test]
fn single_tile_sort_launch_shape_in_closed_form() {
    let spec = v100_4sm();
    let mut gpu = Gpu::new(spec.clone());
    let keys: Vec<u32> = (0..512).rev().collect();
    let (kd, vd) = (gpu.to_device(&keys), gpu.to_device(&keys));
    let _ = radix_sort_pairs(&mut gpu, &kd, &vd, 16_383);
    let rec = record(&gpu, "radix_single_tile");
    assert_eq!((rec.grid_dim, rec.block_dim), (1, 256));
    // 256 digit counters plus an exchange buffer of one tile, 4 bytes each.
    let shared = (256 + SORT_TILE) * 4;
    assert_eq!(rec.shared_mem_bytes, shared);
    assert_eq!(rec.occupancy, occupancy_of_256_threads(&spec, shared));
    // 96 KiB hold 4 such blocks of 8 warps: half of the SM's 64 warps.
    assert_eq!(rec.occupancy, 0.5);
}

#[test]
fn single_pass_scan_launch_shape_in_closed_form() {
    let spec = v100_4sm();
    let mut gpu = Gpu::new(spec.clone());
    let d = gpu.to_device(&[1u32; 512]);
    let _ = exclusive_scan(&mut gpu, &d);
    let sweep = record(&gpu, "scan_tiles");
    assert_eq!((sweep.grid_dim, sweep.block_dim), (2, 256));
    // One aggregate per warp plus the tile prefix.
    let shared = (256 / WARP_SIZE + 1) * 4;
    assert_eq!(sweep.shared_mem_bytes, shared);
    assert_eq!(sweep.occupancy, occupancy_of_256_threads(&spec, shared));
    // The 8-warp blocks fill the SM's warps before shared memory binds.
    assert_eq!(sweep.occupancy, 1.0);
    let init = record(&gpu, "scan_init");
    assert_eq!((init.grid_dim, init.block_dim), (1, 128));
    assert_eq!(init.shared_mem_bytes, 0);
    assert_eq!(init.occupancy, 1.0);
}

//! The sampling kernels shared by the GPU engines.
//!
//! Three transit-parallel kernels implement Table 2 of the paper (sub-warp,
//! thread-block, grid), and one fine-grained sample-parallel kernel
//! implements the SP baseline of §5.1. The user-defined `next` function runs
//! per lane under trace capture; each warp then replays its 32 traces in
//! lock-step, which is where coalescing, caching and divergence are charged.

use crate::api::{EdgeCost, SamplingApp, SamplingType, NULL_VERTEX};
use crate::engine::scheduling::SchedulingIndex;
use crate::engine::{run_next_individual, SampleKeys, StepPlan};
use crate::gpu_graph::GpuGraph;
use crate::store::SampleStore;
use nextdoor_gpu::lane::with_lane_traces;
use nextdoor_gpu::warp::mask_first_n;
use nextdoor_gpu::{
    BlockShards, DeviceBuffer, Gpu, LaunchConfig, OutOfMemory, SyncSlice, WARP_SIZE,
};
use nextdoor_graph::{Csr, VertexId};

/// Everything a sampling kernel needs to know about the current step.
pub(crate) struct StepExec<'a> {
    pub graph: &'a Csr,
    pub gg: &'a GpuGraph,
    pub app: &'a dyn SamplingApp,
    pub store: &'a SampleStore,
    pub plan: &'a StepPlan,
    pub keys: &'a SampleKeys,
}

impl StepExec<'_> {
    /// Decodes a pair id into `(sample, transit_idx)`.
    #[inline]
    pub fn decode_pair(&self, pair_id: u32) -> (usize, usize) {
        (
            pair_id as usize / self.plan.tps,
            pair_id as usize % self.plan.tps,
        )
    }

    /// Output slot of `(sample, tidx, j)` in the step's value array.
    #[inline]
    pub fn out_index(&self, sample: usize, tidx: usize, j: usize) -> usize {
        match self.app.sampling_type() {
            SamplingType::Individual => sample * self.plan.slots + tidx * self.plan.m + j,
            SamplingType::Collective => sample * self.plan.slots + j,
        }
    }
}

/// Host-side mirror of a step's outputs plus the device buffer the kernels
/// write through.
pub(crate) struct StepOut {
    pub values: Vec<VertexId>,
    pub edges: Vec<Vec<(VertexId, VertexId)>>,
    pub step_buf: DeviceBuffer<u32>,
}

impl StepOut {
    pub fn try_new(gpu: &Gpu, num_samples: usize, slots: usize) -> Result<Self, OutOfMemory> {
        Ok(StepOut {
            values: vec![NULL_VERTEX; num_samples * slots],
            edges: vec![Vec::new(); num_samples],
            step_buf: gpu.try_alloc(num_samples * slots)?,
        })
    }
}

/// Runs the `stepTransits` kernel: one thread per `(sample, transit_idx)`
/// reads the previous step's vertex and writes the transit array.
///
/// `transits` (the step plan's host-computed transit values) is the single
/// authoritative source of the transit array: `step_transit()` may remap
/// vertices host-side, so the device read of `prev_buf` only accounts the
/// memory traffic of the real kernel while the stored values come from the
/// plan. Callers must not overwrite `transit_buf` afterwards.
///
/// The previous-step read of pair `(sample, tidx)` targets that sample's
/// own slice of `prev_buf` — slot `tidx`, clamped to the slots the
/// previous step actually produced. Charging wrapped addresses instead
/// (`gid % prev_len`) would merge reads of *different* samples into the
/// same sectors and over-count coalescing whenever the previous step's
/// per-sample slot count differs from `tps`.
pub(crate) fn charge_step_transits(
    gpu: &mut Gpu,
    prev_buf: &DeviceBuffer<u32>,
    transit_buf: &DeviceBuffer<u32>,
    transits: &[VertexId],
    tps: usize,
) {
    let n = transit_buf.len();
    debug_assert_eq!(n, transits.len(), "transit buffer must match the plan");
    if n == 0 || tps == 0 {
        return;
    }
    debug_assert_eq!(n % tps, 0, "transit array is num_samples * tps");
    let ns = n / tps;
    // Slots the previous step produced per sample (the initial vertex
    // count at step 0). Always >= 1 for a validated run.
    let prev_per_sample = (prev_buf.len() / ns.max(1)).max(1);
    gpu.launch("step_transits", LaunchConfig::grid1d(n, 256), |blk| {
        blk.for_each_warp(|w| {
            let gid = w.global_thread_ids();
            let m = w.mask_where(|l| gid[l] < n);
            if m == 0 {
                return;
            }
            let safe = gid.map(|g| g.min(n - 1));
            let prev_slot = safe.map(|g| {
                let (sample, tidx) = (g / tps, g % tps);
                sample * prev_per_sample + tidx.min(prev_per_sample - 1)
            });
            let _ = w.ld_global(prev_buf, &prev_slot, m);
            let v: [u32; WARP_SIZE] = std::array::from_fn(|l| transits[safe[l]]);
            w.st_global(transit_buf, &safe, v, m);
        });
    });
}

/// Registers each thread dedicates to neighbour caching in the sub-warp
/// kernel (`u32` slots). V100 threads have up to 255 32-bit registers;
/// 32 slots (128 bytes) leaves ample room for the kernel's own state while
/// letting a single-thread sub-warp cache a typical adjacency list (the
/// evaluation graphs average 4-39 neighbours).
const REG_CACHE_PER_THREAD: usize = 32;

/// Expected neighbour accesses per sub-warp thread: the sub-warp kernel
/// preloads `PRELOAD_FACTOR × threads` neighbours (rounded up to a sector,
/// bounded by the register budget) — a few probes per slot.
const PRELOAD_FACTOR: usize = 4;

/// Threads per block of the thread-block and grid kernels, and the
/// block-class cutoff: a transit needing at most this many threads
/// (`count × m`) is thread-block work, above it the transit is split across
/// the grid in chunks of one block each. The paper fixes it at 1024
/// (Table 2).
pub(crate) const BLOCK_THREADS: usize = 1024;

/// One unit of work for a lane of a transit-parallel kernel.
#[derive(Debug, Clone, Copy)]
struct LaneWork {
    sample: usize,
    tidx: usize,
    j: usize,
    transit: VertexId,
    /// Physical slot in the device output buffer. Transit-parallel kernels
    /// write in execution (sorted-pair) order, so consecutive lanes hit
    /// consecutive addresses — this is why NextDoor's global stores are
    /// fully coalesced (Table 4). The semantic `(sample, tidx, j)` position
    /// is kept in the host mirror.
    phys: usize,
    /// How many leading neighbours of the transit the engine cached for
    /// this lane (registers or shared memory).
    cached_len: usize,
}

/// Per-block shard payload of `execute_lanes`: the sampled edges one lane
/// appends for one sample. Draining the shards in block order reproduces
/// exactly the append order of a sequential launch.
pub(crate) type EdgeAppend = (usize, Vec<(VertexId, VertexId)>);

/// Runs `next` for the lanes described by `work`, replays the traces on the
/// warp, stores outputs through the step buffer, and mirrors values/edges
/// into the host-side output mirrors. The mirrors are shared-reference
/// writable ([`SyncSlice`] / [`BlockShards`]) because the kernel closure
/// may be executing on several host worker threads at once.
#[allow(clippy::too_many_arguments)]
fn execute_lanes(
    w: &mut nextdoor_gpu::WarpCtx<'_>,
    ex: &StepExec<'_>,
    work: &[Option<LaneWork>; WARP_SIZE],
    cost: EdgeCost,
    out_values: &SyncSlice<'_, VertexId>,
    out_edges: &BlockShards<EdgeAppend>,
    step_buf: &DeviceBuffer<u32>,
) {
    with_lane_traces(|traces| {
        let mut vals = [NULL_VERTEX; WARP_SIZE];
        let mut idxs = [0usize; WARP_SIZE];
        let mut mask = 0u32;
        for l in 0..WARP_SIZE {
            let Some(lw) = work[l] else { continue };
            mask |= 1 << l;
            debug_assert_eq!(
                ex.plan.transits[lw.sample * ex.plan.tps + lw.tidx],
                lw.transit,
                "lane work must agree with the step plan"
            );
            let (v, es) = run_next_individual(
                ex.app,
                ex.graph,
                ex.store,
                ex.plan,
                lw.sample,
                lw.tidx,
                lw.j,
                ex.keys,
                cost,
                lw.cached_len,
                ex.gg.cols_base(),
                Some(&mut traces[l]),
            );
            vals[l] = v;
            idxs[l] = lw.phys;
            // SAFETY: each `(sample, tidx, j)` slot belongs to exactly one
            // lane of the launch, and each shard is only touched by the
            // thread executing its block (see `execute_lanes`' doc).
            unsafe {
                out_values.write(ex.out_index(lw.sample, lw.tidx, lw.j), v);
                if !es.is_empty() {
                    out_edges.push(w.block_idx, (lw.sample, es));
                }
            }
        }
        if mask == 0 {
            return;
        }
        w.replay(traces, mask);
        w.st_global(step_buf, &idxs, vals, mask);
    })
}

/// The sub-warp kernel (Table 2, row 3): several transits per warp, each
/// `(transit, sample)` pair on `m` consecutive lanes; adjacency held in
/// registers and read via warp shuffles.
///
/// `resident` is the session's arena-resident transit set, ascending; a
/// resident transit's preload loads are skipped (its slice already sits in
/// the session arena) while `cached_len` — and therefore every sampled
/// value — is unchanged.
pub(crate) fn run_subwarp_kernel(
    gpu: &mut Gpu,
    ex: &StepExec<'_>,
    index: &SchedulingIndex,
    class: &[usize],
    resident: &[VertexId],
    out: &mut StepOut,
) {
    if class.is_empty() {
        return;
    }
    let m = ex.plan.m;
    // Greedy-pack whole segments into warps of 32 lanes.
    let mut warps: Vec<Vec<usize>> = Vec::new();
    let mut cur: Vec<usize> = Vec::new();
    let mut used = 0usize;
    for &si in class {
        let need = index.segments[si].count * m;
        debug_assert!(need <= WARP_SIZE);
        if used + need > WARP_SIZE {
            warps.push(std::mem::take(&mut cur));
            used = 0;
        }
        cur.push(si);
        used += need;
    }
    if !cur.is_empty() {
        warps.push(cur);
    }
    let total_threads = warps.len() * WARP_SIZE;
    let cfg = LaunchConfig::grid1d(total_threads, 256);
    let values = SyncSlice::new(&mut out.values);
    let edge_shards = BlockShards::new(cfg.grid_dim);
    let step_buf = &out.step_buf;
    gpu.launch("nextdoor_subwarp", cfg, |blk| {
        blk.for_each_warp(|w| {
            let gw = w.global_warp_id();
            if gw >= warps.len() {
                return;
            }
            let mut work: [Option<LaneWork>; WARP_SIZE] = [None; WARP_SIZE];
            let mut lane = 0usize;
            for &si in &warps[gw] {
                let seg = index.segments[si];
                let deg = ex.graph.degree(seg.transit);
                // Register caching: the transit's sub-warps can hold
                // REG_CACHE_PER_THREAD neighbours per thread; they are
                // loaded once with coalesced reads and served to every
                // lane via warp shuffles.
                let threads = seg.count * m;
                // Adaptive cache sizing: preload no more sectors than
                // the expected number of accesses can pay back (a few
                // probes per slot), bounded by the register budget.
                let expected = (PRELOAD_FACTOR * threads).next_multiple_of(8).max(8);
                let reg_n = deg.min(expected).min(REG_CACHE_PER_THREAD * threads);
                if reg_n > 0 && resident.binary_search(&seg.transit).is_err() {
                    let (start, _) = ex.graph.adjacency_range(seg.transit);
                    let mut c = 0;
                    while c < reg_n {
                        let len = (reg_n - c).min(WARP_SIZE);
                        let idx: [usize; WARP_SIZE] =
                            std::array::from_fn(|l| start + c + l.min(len - 1));
                        let _ = w.ld_global(&ex.gg.cols, &idx, mask_first_n(len));
                        c += len;
                    }
                }
                for p in 0..seg.count {
                    let pair_id = index.sorted_pair_ids[seg.start + p];
                    let (sample, tidx) = ex.decode_pair(pair_id);
                    for j in 0..m {
                        work[lane] = Some(LaneWork {
                            sample,
                            tidx,
                            j,
                            transit: seg.transit,
                            phys: (seg.start + p) * m + j,
                            cached_len: reg_n,
                        });
                        lane += 1;
                    }
                }
            }
            execute_lanes(
                w,
                ex,
                &work,
                EdgeCost::Registers,
                &values,
                &edge_shards,
                step_buf,
            );
        });
    });
    drain_edge_shards(edge_shards, &mut out.edges);
}

/// Merges the per-block edge shards into the per-sample edge lists, in
/// canonical block order.
fn drain_edge_shards(shards: BlockShards<EdgeAppend>, edges: &mut [Vec<(VertexId, VertexId)>]) {
    for (sample, es) in shards.into_ordered() {
        edges[sample].extend(es);
    }
}

/// A unit of block-level work: a chunk of one transit's pairs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockWork {
    /// Segment index into the scheduling index.
    pub seg: usize,
    /// First pair of the chunk, relative to the segment start.
    pub pair_start: usize,
    /// Pairs in the chunk.
    pub pair_count: usize,
}

/// Expands the thread-block class into one [`BlockWork`] per transit.
pub(crate) fn block_class_work(index: &SchedulingIndex, class: &[usize]) -> Vec<BlockWork> {
    class
        .iter()
        .map(|&si| BlockWork {
            seg: si,
            pair_start: 0,
            pair_count: index.segments[si].count,
        })
        .collect()
}

/// Expands the grid class into chunks small enough for one block each.
pub(crate) fn grid_class_work(
    index: &SchedulingIndex,
    class: &[usize],
    m: usize,
) -> Vec<BlockWork> {
    let pairs_per_block = (BLOCK_THREADS / m).max(1);
    let mut work = Vec::new();
    for &si in class {
        let count = index.segments[si].count;
        let mut start = 0;
        while start < count {
            let chunk = pairs_per_block.min(count - start);
            work.push(BlockWork {
                seg: si,
                pair_start: start,
                pair_count: chunk,
            });
            start += chunk;
        }
    }
    work
}

/// The thread-block and grid kernels (Table 2, rows 1–2): each block serves
/// one transit (or one chunk of a huge transit), caching the adjacency list
/// in shared memory. A block whose chunk exceeds its thread count loops
/// grid-stride style — the vanilla-TP configuration (whole transits, no
/// load balancing) relies on this.
///
/// Blocks launch [`BLOCK_THREADS`] threads; `resident` is the session's
/// arena-resident transit set, as for [`run_subwarp_kernel`].
pub(crate) fn run_transit_block_kernel(
    gpu: &mut Gpu,
    name: &str,
    ex: &StepExec<'_>,
    index: &SchedulingIndex,
    blocks: &[BlockWork],
    resident: &[VertexId],
    out: &mut StepOut,
) {
    if blocks.is_empty() {
        return;
    }
    let m = ex.plan.m;
    let cfg = LaunchConfig {
        grid_dim: blocks.len(),
        block_dim: BLOCK_THREADS,
    };
    let values = SyncSlice::new(&mut out.values);
    let edge_shards = BlockShards::new(cfg.grid_dim);
    let step_buf = &out.step_buf;
    gpu.launch(name, cfg, |blk| {
        let bw = blocks[blk.block_idx];
        let seg = index.segments[bw.seg];
        let deg = ex.graph.degree(seg.transit);
        let (row_start, _) = ex.graph.adjacency_range(seg.transit);
        // Shared-memory cache of the adjacency list; spill to global
        // when it does not fit (§6.1.2 "Caching"). A session-resident
        // transit skips the whole global→shared fill — its slice is
        // served from the session arena at cache cost — while
        // `cached_len` (and with it every sampled value) is unchanged.
        let cache_n = deg.min(blk.shared_words_free());
        let resident = resident.binary_search(&seg.transit).is_ok();
        let cache = if cache_n > 0 && !resident {
            blk.shared_alloc(cache_n)
        } else {
            None
        };
        let cached_len = if resident {
            cache_n
        } else {
            cache.map_or(0, |_| cache_n)
        };
        if let Some(arr) = cache {
            let chunks = cache_n.div_ceil(WARP_SIZE);
            let num_warps = blk.num_warps();
            blk.for_each_warp(|w| {
                let mut c = w.warp_in_block;
                while c < chunks {
                    let base = c * WARP_SIZE;
                    let len = WARP_SIZE.min(cache_n - base);
                    let msk = mask_first_n(len);
                    let gidx: [usize; WARP_SIZE] =
                        std::array::from_fn(|l| row_start + (base + l).min(cache_n - 1));
                    let v = w.ld_global(&ex.gg.cols, &gidx, msk);
                    let sidx: [usize; WARP_SIZE] =
                        std::array::from_fn(|l| (base + l).min(cache_n - 1));
                    w.st_shared(&arr, &sidx, v, msk);
                    c += num_warps;
                }
            });
            blk.syncthreads();
        }
        let lanes_needed = bw.pair_count * m;
        // Every block loops until its chunk is covered. NextDoor-class
        // chunks fit one block (`count * m <= BLOCK_THREADS`) so this is one
        // iteration; vanilla TP's whole-transit blocks and grid chunks of
        // one pair whose `m` exceeds the block take more.
        let iterations = lanes_needed.div_ceil(BLOCK_THREADS).max(1);
        blk.for_each_warp(|w| {
            for it in 0..iterations {
                let lane_base = it * BLOCK_THREADS + w.warp_in_block * WARP_SIZE;
                if lane_base >= lanes_needed {
                    break;
                }
                let mut work: [Option<LaneWork>; WARP_SIZE] = [None; WARP_SIZE];
                for (l, slot) in work.iter_mut().enumerate() {
                    let off = lane_base + l;
                    if off >= lanes_needed {
                        break;
                    }
                    let local_pair = off / m;
                    let j = off % m;
                    let pair_pos = seg.start + bw.pair_start + local_pair;
                    let pair_id = index.sorted_pair_ids[pair_pos];
                    let (sample, tidx) = ex.decode_pair(pair_id);
                    *slot = Some(LaneWork {
                        sample,
                        tidx,
                        j,
                        transit: seg.transit,
                        phys: pair_pos * m + j,
                        cached_len,
                    });
                }
                execute_lanes(
                    w,
                    ex,
                    &work,
                    EdgeCost::Shared,
                    &values,
                    &edge_shards,
                    step_buf,
                );
            }
        });
    });
    drain_edge_shards(edge_shards, &mut out.edges);
}

/// The fine-grained sample-parallel kernel of §5.1 (the SP baseline):
/// `m` consecutive threads per `(sample, transit)` pair, no transit
/// grouping, no caching — every adjacency access is a global load and
/// lanes of one warp hold different transits.
pub(crate) fn run_sample_parallel_kernel(
    gpu: &mut Gpu,
    ex: &StepExec<'_>,
    transit_buf: &DeviceBuffer<u32>,
    out: &mut StepOut,
) {
    let ns = ex.store.num_samples();
    let tps = ex.plan.tps;
    let m = ex.plan.m;
    let num_pairs = ns * tps;
    let total_threads = num_pairs * m;
    if total_threads == 0 {
        return;
    }
    let cfg = LaunchConfig::grid1d(total_threads, 256);
    let values = SyncSlice::new(&mut out.values);
    let edge_shards = BlockShards::new(cfg.grid_dim);
    let step_buf = &out.step_buf;
    gpu.launch("sp_sample", cfg, |blk| {
        blk.for_each_warp(|w| {
            let gid = w.global_thread_ids();
            let valid = w.mask_where(|l| gid[l] < total_threads);
            if valid == 0 {
                return;
            }
            // Each lane reads its pair's transit from global memory.
            let pair_idx: [usize; WARP_SIZE] =
                std::array::from_fn(|l| (gid[l] / m).min(num_pairs - 1));
            let transits = w.ld_global(transit_buf, &pair_idx, valid);
            let mut work: [Option<LaneWork>; WARP_SIZE] = [None; WARP_SIZE];
            for l in 0..WARP_SIZE {
                if valid & (1 << l) == 0 || transits[l] == NULL_VERTEX {
                    continue;
                }
                let pair = gid[l] / m;
                work[l] = Some(LaneWork {
                    sample: pair / tps,
                    tidx: pair % tps,
                    j: gid[l] % m,
                    transit: transits[l],
                    phys: gid[l],
                    cached_len: 0,
                });
            }
            execute_lanes(
                w,
                ex,
                &work,
                EdgeCost::Global,
                &values,
                &edge_shards,
                step_buf,
            );
        });
    });
    drain_edge_shards(edge_shards, &mut out.edges);
}

#[cfg(test)]
mod tests {
    use super::*;
    use nextdoor_gpu::GpuSpec;

    /// Regression test for the previous-step read addressing: with 4
    /// samples owning 8 previous-step slots each and 2 transits per
    /// sample, each pair `(s, t)` must read its own sample's region
    /// (`s * 8 + t`), touching one 32-byte sector per sample. The old
    /// wrapped addressing (`g % prev_len`) read slots `0..8` — a single
    /// sector entirely inside sample 0 — under-charging the reads and
    /// attributing them to the wrong sample.
    #[test]
    fn step_transit_reads_address_each_samples_previous_slots() {
        let mut gpu = Gpu::new(GpuSpec::small());
        let (ns, tps, prev_per_sample) = (4usize, 2usize, 8usize);
        let prev_buf = gpu.to_device(&vec![1u32; ns * prev_per_sample]);
        let transits: Vec<VertexId> = (0..ns * tps).map(|i| i as u32).collect();
        let transit_buf = gpu.alloc(ns * tps);
        charge_step_transits(&mut gpu, &prev_buf, &transit_buf, &transits, tps);
        let kernel = gpu
            .profile()
            .kernels()
            .last()
            .expect("the launch was profiled");
        assert_eq!(kernel.name, "step_transits");
        // Reads: slots {8s, 8s+1} for s in 0..4 — four sectors (one per
        // sample). The wrapped scheme would coalesce them into one.
        assert_eq!(kernel.counters.gld_transactions, 4);
        // Stores: slots 0..8, one contiguous sector.
        assert_eq!(kernel.counters.gst_transactions, 1);
    }

    /// When the previous step produced exactly `tps` slots per sample
    /// (the steady state of a random walk), the corrected addressing is
    /// the identity mapping: reads are as coalesced as stores.
    #[test]
    fn step_transit_reads_coalesce_in_the_steady_state() {
        let mut gpu = Gpu::new(GpuSpec::small());
        let (ns, tps) = (8usize, 1usize);
        let prev_buf = gpu.to_device(&vec![1u32; ns * tps]);
        let transits: Vec<VertexId> = (0..ns * tps).map(|i| i as u32).collect();
        let transit_buf = gpu.alloc(ns * tps);
        charge_step_transits(&mut gpu, &prev_buf, &transit_buf, &transits, tps);
        let kernel = gpu.profile().kernels().last().expect("profiled");
        assert_eq!(kernel.counters.gld_transactions, 1);
        assert_eq!(kernel.counters.gst_transactions, 1);
    }

    /// One sub-warp transit in closed form: `c` samples on a transit of
    /// degree 300, `m` lanes each (`c·m ≤ 32`), every lane reading the
    /// transit's first neighbour. The warp preloads `n = max(⌈4·c·m⌉₈, 8)`
    /// neighbours (`⌈·⌉₈` rounds up to the 8 words of a sector) in
    /// `⌈n/32⌉` requests touching `n/8` sectors, serves every lane with one
    /// shuffle, and stores its `c·m` outputs in one request touching
    /// `⌈c·m/8⌉` sectors.
    #[test]
    fn subwarp_transit_charges_in_closed_form() {
        use crate::api::{NextCtx, Steps};
        use crate::engine::plan_step;
        use crate::engine::scheduling::build_scheduling_index;
        use crate::gpu_graph::GpuGraph;
        use nextdoor_graph::GraphBuilder;

        struct FirstNeighbour(usize);
        impl SamplingApp for FirstNeighbour {
            fn name(&self) -> &'static str {
                "first-neighbour"
            }
            fn steps(&self) -> Steps {
                Steps::Fixed(1)
            }
            fn sample_size(&self, _: usize) -> usize {
                self.0
            }
            fn next(&self, ctx: &mut NextCtx<'_>) -> Option<VertexId> {
                (ctx.num_edges() > 0).then(|| ctx.src_edge(0))
            }
        }

        let mut b = GraphBuilder::new(301);
        for v in 1..=300 {
            b.push_edge(0, v);
        }
        let graph = b.build().unwrap();
        for (c, m) in [(1, 1), (1, 32), (32, 1), (4, 2), (3, 3), (5, 6), (8, 4)] {
            let mut gpu = Gpu::new(GpuSpec::small());
            let gg = GpuGraph::upload(&mut gpu, &graph).unwrap();
            let app = FirstNeighbour(m);
            let store = SampleStore::new(vec![vec![0]; c]);
            let keys = SampleKeys::uniform(0);
            let plan = plan_step(&app, &store, 0, &keys);
            let pairs: Vec<(VertexId, u32)> = (0..c as u32).map(|s| (0, s)).collect();
            let index = build_scheduling_index(&mut gpu, &pairs, graph.num_vertices()).unwrap();
            let ex = StepExec {
                graph: &graph,
                gg: &gg,
                app: &app,
                store: &store,
                plan: &plan,
                keys: &keys,
            };
            let mut out = StepOut::try_new(&gpu, c, m).unwrap();
            run_subwarp_kernel(&mut gpu, &ex, &index, &[0], &[], &mut out);
            let k = gpu.profile().kernels().last().expect("profiled").counters;
            let n = (4 * c * m).next_multiple_of(8).max(8) as u64;
            let cm = (c * m) as u64;
            assert_eq!(
                k.gld_requests,
                n.div_ceil(32),
                "c={c}, m={m}: preload requests"
            );
            assert_eq!(k.gld_transactions, n / 8, "c={c}, m={m}: preload sectors");
            assert_eq!(k.shuffles, 1, "c={c}, m={m}");
            assert_eq!(k.gst_requests, 1, "c={c}, m={m}");
            assert_eq!(
                k.gst_transactions,
                cm.div_ceil(8),
                "c={c}, m={m}: store sectors"
            );
            assert_eq!(k.divergent_branches, 0, "c={c}, m={m}");
            assert!(
                out.values.iter().all(|&v| v == 1),
                "every lane read neighbour 1"
            );
        }
    }

    /// Regression test for the silent clamp: an out-of-range physical slot
    /// means the work plan is corrupt, and `execute_lanes` must fail
    /// loudly instead of merging the store into the last in-range sector
    /// (which corrupted store-coalescing attribution). The step buffer's
    /// store indexes a slice, so it panics in every build profile.
    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn out_of_range_physical_slot_fails_loudly() {
        use crate::api::{NextCtx, Steps};
        use crate::engine::plan_step;
        use crate::gpu_graph::GpuGraph;
        use nextdoor_graph::gen::ring_lattice;

        struct Walk;
        impl SamplingApp for Walk {
            fn name(&self) -> &'static str {
                "walk"
            }
            fn steps(&self) -> Steps {
                Steps::Fixed(1)
            }
            fn sample_size(&self, _: usize) -> usize {
                1
            }
            fn next(&self, ctx: &mut NextCtx<'_>) -> Option<VertexId> {
                let d = ctx.num_edges();
                if d == 0 {
                    return None;
                }
                let i = ctx.rand_range(d);
                Some(ctx.src_edge(i))
            }
        }

        let graph = ring_lattice(16, 2, 0);
        let mut gpu = Gpu::new(GpuSpec::small());
        let gg = GpuGraph::upload(&mut gpu, &graph).unwrap();
        let store = SampleStore::new(vec![vec![0]]);
        let keys = SampleKeys::uniform(0);
        let plan = plan_step(&Walk, &store, 0, &keys);
        let ex = StepExec {
            graph: &graph,
            gg: &gg,
            app: &Walk,
            store: &store,
            plan: &plan,
            keys: &keys,
        };
        let mut values = vec![NULL_VERTEX; plan.slots];
        let values = SyncSlice::new(&mut values);
        let edge_shards = BlockShards::new(1);
        // Correctly sized for the plan (1 slot); the lane below claims
        // physical slot 5.
        let step_buf = gpu.alloc(store.num_samples() * plan.slots);
        let mut work: [Option<LaneWork>; WARP_SIZE] = [None; WARP_SIZE];
        work[0] = Some(LaneWork {
            sample: 0,
            tidx: 0,
            j: 0,
            transit: plan.transits[0],
            phys: 5,
            cached_len: 0,
        });
        gpu.launch("corrupt_plan", LaunchConfig::grid1d(32, 32), |blk| {
            blk.for_each_warp(|w| {
                execute_lanes(
                    w,
                    &ex,
                    &work,
                    EdgeCost::Global,
                    &values,
                    &edge_shards,
                    &step_buf,
                );
            });
        });
    }
}

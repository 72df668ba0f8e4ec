//! Collective transit sampling (paper §6.2).
//!
//! A collective step has two phases: building each sample's *combined
//! neighbourhood* (the concatenated adjacency lists of its transits), then
//! sampling new vertices from it. The build phase is the bottleneck, so
//! NextDoor runs it transit-parallel — each transit's adjacency is loaded
//! into shared memory once and fanned out to all its samples — while the
//! sample-parallel baseline re-reads the adjacency from global memory for
//! every sample. Vertex selection then runs sample-parallel in both systems
//! (the paper's choice, since equal combined neighbourhoods are rare).

use crate::api::{EdgeSource, NextCtx, RngStream, NULL_VERTEX};
use crate::engine::kernels::{StepExec, StepOut};
use crate::engine::scheduling::SchedulingIndex;
use nextdoor_gpu::algorithms::exclusive_scan;
use nextdoor_gpu::lane::with_lane_traces;
use nextdoor_gpu::warp::mask_first_n;
use nextdoor_gpu::{
    BlockShards, DeviceBuffer, Gpu, LaunchConfig, OutOfMemory, SyncSlice, WARP_SIZE,
};
use nextdoor_graph::VertexId;

/// The combined neighbourhoods of all samples for one step.
pub(crate) struct CombinedNeighborhoods {
    /// Flattened vertices, sample-major.
    pub vertices: Vec<VertexId>,
    /// Per-sample `(start, len)` into `vertices`.
    pub ranges: Vec<(usize, usize)>,
    /// Live transits of each sample (NULLs removed), in transit-index order.
    pub sample_transits: Vec<Vec<VertexId>>,
    /// Device buffer holding the combined neighbourhoods.
    pub device: DeviceBuffer<u32>,
}

/// Computes the functional combined neighbourhoods and allocates the device
/// buffer, charging the degree scan that sizes the per-sample regions.
///
/// # Errors
///
/// Returns [`OutOfMemory`] when a device allocation fails.
pub(crate) fn prepare_combined(
    gpu: &mut Gpu,
    ex: &StepExec<'_>,
) -> Result<CombinedNeighborhoods, OutOfMemory> {
    let ns = ex.store.num_samples();
    let tps = ex.plan.tps;
    let mut vertices = Vec::new();
    let mut ranges = Vec::with_capacity(ns);
    let mut sample_transits = Vec::with_capacity(ns);
    let mut pair_degrees = Vec::with_capacity(ns * tps);
    for s in 0..ns {
        let start = vertices.len();
        let mut live = Vec::new();
        for t in 0..tps {
            let tv = ex.plan.transits[s * tps + t];
            if tv == NULL_VERTEX {
                pair_degrees.push(0u32);
                continue;
            }
            live.push(tv);
            pair_degrees.push(ex.graph.degree(tv) as u32);
            vertices.extend_from_slice(ex.graph.neighbors(tv));
        }
        ranges.push((start, vertices.len() - start));
        sample_transits.push(live);
    }
    // The offsets of each transit's slice inside the combined buffers are
    // produced by a device-wide scan of the per-pair degrees.
    let deg_dev = gpu.try_to_device(&pair_degrees)?;
    exclusive_scan(gpu, &deg_dev)?;
    let mut device = gpu.try_alloc::<u32>(vertices.len().max(1))?;
    device.as_mut_slice()[..vertices.len()].copy_from_slice(&vertices);
    Ok(CombinedNeighborhoods {
        vertices,
        ranges,
        sample_transits,
        device,
    })
}

/// Transit-parallel combined-neighbourhood build (NextDoor): one block per
/// transit; the adjacency is staged through shared memory once and written
/// out coalesced to every associated sample's region.
pub(crate) fn build_combined_transit_parallel(
    gpu: &mut Gpu,
    ex: &StepExec<'_>,
    index: &SchedulingIndex,
    combined: &mut CombinedNeighborhoods,
) {
    if index.segments.is_empty() {
        return;
    }
    let segs = &index.segments;
    let ranges = &combined.ranges;
    let sample_transits = &combined.sample_transits;
    let dev = &mut combined.device;
    gpu.launch(
        "nd_combined_build",
        LaunchConfig {
            grid_dim: segs.len(),
            block_dim: 1024,
        },
        |blk| {
            let seg = segs[blk.block_idx];
            let deg = ex.graph.degree(seg.transit);
            if deg == 0 {
                return;
            }
            let (row_start, _) = ex.graph.adjacency_range(seg.transit);
            let cache_n = deg.min(blk.shared_words_free());
            let cache = blk.shared_alloc(cache_n.max(1));
            let num_warps = blk.num_warps();
            if let Some(arr) = cache {
                // Stage the adjacency into shared memory, coalesced.
                let chunks = cache_n.div_ceil(WARP_SIZE);
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
                // Fan out to each sample: one warp per pair, round-robin.
                blk.for_each_warp(|w| {
                    let mut p = w.warp_in_block;
                    while p < seg.count {
                        let pair_id = index.sorted_pair_ids[seg.start + p];
                        let (sample, _tidx) = ex.decode_pair(pair_id);
                        let (dst_base, _) = ranges[sample];
                        let dst_off = combined_offset_of(ex, &sample_transits[sample], seg.transit);
                        for c in 0..deg.div_ceil(WARP_SIZE) {
                            let base = c * WARP_SIZE;
                            let len = WARP_SIZE.min(deg - base);
                            let msk = mask_first_n(len);
                            let sidx: [usize; WARP_SIZE] =
                                std::array::from_fn(|l| (base + l).min(cache_n.max(1) - 1));
                            let v = w.ld_shared(&arr, &sidx, msk);
                            let didx: [usize; WARP_SIZE] = std::array::from_fn(|l| {
                                dst_base + dst_off + (base + l).min(deg - 1)
                            });
                            w.st_global(dev, &didx, v, msk);
                        }
                        p += num_warps;
                    }
                });
            }
        },
    );
}

/// Sample-parallel combined-neighbourhood build (the SP baseline): one warp
/// per `(sample, transit)` pair, reading the adjacency from global memory
/// every time.
pub(crate) fn build_combined_sample_parallel(
    gpu: &mut Gpu,
    ex: &StepExec<'_>,
    combined: &mut CombinedNeighborhoods,
) {
    let ns = ex.store.num_samples();
    let tps = ex.plan.tps;
    let num_pairs = ns * tps;
    if num_pairs == 0 {
        return;
    }
    let ranges = &combined.ranges;
    let sample_transits = &combined.sample_transits;
    let dev = &mut combined.device;
    gpu.launch(
        "sp_combined_build",
        LaunchConfig::grid1d(num_pairs * WARP_SIZE, 256),
        |blk| {
            blk.for_each_warp(|w| {
                let pair = w.global_warp_id();
                if pair >= num_pairs {
                    return;
                }
                let (sample, tidx) = (pair / tps, pair % tps);
                let transit = ex.plan.transits[sample * tps + tidx];
                if transit == NULL_VERTEX {
                    return;
                }
                let deg = ex.graph.degree(transit);
                if deg == 0 {
                    return;
                }
                let (row_start, _) = ex.graph.adjacency_range(transit);
                let (dst_base, _) = ranges[sample];
                let dst_off = combined_offset_of(ex, &sample_transits[sample], transit);
                for c in 0..deg.div_ceil(WARP_SIZE) {
                    let base = c * WARP_SIZE;
                    let len = WARP_SIZE.min(deg - base);
                    let msk = mask_first_n(len);
                    let gidx: [usize; WARP_SIZE] =
                        std::array::from_fn(|l| row_start + (base + l).min(deg - 1));
                    let v = w.ld_global(&ex.gg.cols, &gidx, msk);
                    let didx: [usize; WARP_SIZE] =
                        std::array::from_fn(|l| dst_base + dst_off + (base + l).min(deg - 1));
                    w.st_global(dev, &didx, v, msk);
                }
            });
        },
    );
}

/// Offset of `transit`'s slice inside a sample's combined region.
fn combined_offset_of(ex: &StepExec<'_>, transits: &[VertexId], transit: VertexId) -> usize {
    let mut off = 0usize;
    for &t in transits {
        if t == transit {
            return off;
        }
        off += ex.graph.degree(t);
    }
    off
}

/// The vertex-selection phase: `m` consecutive lanes per sample run `next`
/// over the sample's combined neighbourhood (sample-parallel in both
/// NextDoor and SP, per §6.2).
pub(crate) fn run_collective_next_kernel(
    gpu: &mut Gpu,
    ex: &StepExec<'_>,
    combined: &CombinedNeighborhoods,
    out: &mut StepOut,
) {
    let ns = ex.store.num_samples();
    let m = ex.plan.m;
    let total = ns * m;
    if total == 0 {
        return;
    }
    let cfg = LaunchConfig::grid1d(total, 256);
    let values = SyncSlice::new(&mut out.values);
    let edge_shards = BlockShards::new(cfg.grid_dim);
    let step_buf = &out.step_buf;
    gpu.launch("collective_next", cfg, |blk| {
        blk.for_each_warp(|w| {
            let gid = w.global_thread_ids();
            let valid = w
                .mask_where(|l| gid[l] < total && !combined.sample_transits[gid[l] / m].is_empty());
            if valid == 0 {
                return;
            }
            with_lane_traces(|traces| {
                let mut vals = [NULL_VERTEX; WARP_SIZE];
                let mut idxs = [0usize; WARP_SIZE];
                for l in 0..WARP_SIZE {
                    if valid & (1 << l) == 0 {
                        continue;
                    }
                    let sample = gid[l] / m;
                    let j = gid[l] % m;
                    let (start, len) = combined.ranges[sample];
                    let view = ex.store.view(sample, ex.plan.step);
                    let (seed, local) = ex.keys.key(sample);
                    let mut ctx = NextCtx {
                        step: ex.plan.step,
                        sample_id: local as usize,
                        slot: j,
                        graph: ex.graph,
                        source: EdgeSource::Combined {
                            vertices: &combined.vertices[start..start + len],
                            base_addr: combined.device.addr_of(start),
                        },
                        transits: &combined.sample_transits[sample],
                        view: &view,
                        rng: RngStream::new(seed, local as usize, ex.plan.step, j),
                        cost: crate::api::EdgeCost::Global,
                        cached_len: 0,
                        trace: Some(&mut traces[l]),
                        graph_cols_base: ex.gg.cols_base(),
                        new_edges: Vec::new(),
                    };
                    let v = ex.app.next(&mut ctx).unwrap_or(NULL_VERTEX);
                    let es = ctx.take_new_edges();
                    drop(ctx);
                    vals[l] = v;
                    idxs[l] = sample * ex.plan.slots + j;
                    // SAFETY: each `(sample, j)` slot belongs to exactly one
                    // lane of the launch, and each shard is only touched by the
                    // thread executing its block.
                    unsafe {
                        values.write(idxs[l], v);
                        if !es.is_empty() {
                            edge_shards.push(w.block_idx, (sample, es));
                        }
                    }
                }
                w.replay(traces, valid);
                w.st_global(step_buf, &idxs, vals, valid);
            });
        });
    });
    for (sample, es) in edge_shards.into_ordered() {
        out.edges[sample].extend(es);
    }
}

//! A Tigr-style vertex message-passing engine on the GPU simulator (§7).
//!
//! In the message-passing abstraction each vertex holds local state and
//! exchanges messages with neighbours; graph sampling maps onto it with one
//! thread per transit vertex that processes **all of the transit's samples
//! sequentially** — the single degree of parallelism the paper criticises.
//! Lanes of one warp own different transits with different sample counts
//! and degrees, so the warp serialises on the longest lane and every
//! adjacency access is an uncoalesced global load.
//!
//! As with the frontier engine, sample values come from the functional CPU
//! oracle; the simulated kernel charges the abstraction's characteristic
//! execution via real per-lane traces.

use nextdoor_core::api::SamplingApp;
use nextdoor_core::{run_cpu, RunResult, NULL_VERTEX};
use nextdoor_gpu::lane::{with_lane_traces, LaneOp};
use nextdoor_gpu::{Gpu, LaunchConfig, WARP_SIZE};
use nextdoor_graph::{Csr, VertexId};

/// Runs `app` under the message-passing abstraction.
///
/// # Panics
///
/// Panics for collective applications, which the abstraction cannot
/// express.
pub fn run_message_passing(
    gpu: &mut Gpu,
    graph: &Csr,
    app: &dyn SamplingApp,
    init: &[Vec<VertexId>],
    seed: u64,
) -> RunResult {
    assert!(
        matches!(app.sampling_type(), nextdoor_core::SamplingType::Individual),
        "the message-passing abstraction cannot express collective sampling"
    );
    let mut res = run_cpu(graph, app, init, seed).expect("valid sampling inputs");
    let counters0 = *gpu.counters();
    let gg = nextdoor_core::GpuGraph::upload(gpu, graph).expect("graph fits on device");
    for step in 0..res.stats.steps_run {
        let m = app.sample_size(step);
        // Transit -> number of samples it serves this step.
        let mut counts: std::collections::HashMap<VertexId, u32> = std::collections::HashMap::new();
        for (s, roots) in init.iter().enumerate().take(res.store.num_samples()) {
            let vals: &[VertexId] = if step == 0 {
                roots
            } else {
                let sv = res.store.step_values(step - 1);
                &sv.values[s * sv.slots..(s + 1) * sv.slots]
            };
            for &v in vals {
                if v != NULL_VERTEX {
                    *counts.entry(v).or_default() += 1;
                }
            }
        }
        let mut transits: Vec<(VertexId, u32)> = counts.into_iter().collect();
        transits.sort_unstable();
        let total = transits.len();
        if total == 0 {
            continue;
        }
        let cols_base = gg.cols_base();
        gpu.launch(
            "tigr_vertex_program",
            LaunchConfig::grid1d(total, 256),
            |blk| {
                blk.for_each_warp(|w| {
                    let gid = w.global_thread_ids();
                    let msk = w.mask_where(|l| gid[l] < total);
                    if msk == 0 {
                        return;
                    }
                    // Build the per-lane trace: the lane's transit serves
                    // `count` samples, each drawing `m` neighbours — all
                    // sequential, all uncoalesced.
                    with_lane_traces(|traces| {
                        for l in 0..WARP_SIZE {
                            if msk & (1 << l) == 0 {
                                continue;
                            }
                            let (v, count) = transits[gid[l].min(total - 1)];
                            let (start, end) = graph.adjacency_range(v);
                            let deg = end - start;
                            for c in 0..count {
                                for j in 0..m {
                                    // Receive the sample's message (its walker
                                    // state) from the global message queue.
                                    traces[l].push(LaneOp::GlobalLoad {
                                        addr: 0x7800_0000
                                            + (gid[l] as u64) * 4096
                                            + (c as u64 * m as u64 + j as u64) * 16,
                                        bytes: 8,
                                    });
                                    traces[l].push(LaneOp::Rand);
                                    if deg > 0 {
                                        // The sampled neighbour's address: spread
                                        // deterministically over the adjacency.
                                        let off = (c as usize * 31 + j * 7) % deg;
                                        traces[l].push(LaneOp::GlobalLoad {
                                            addr: cols_base + ((start + off) as u64) * 4,
                                            bytes: 4,
                                        });
                                    }
                                    // Message send: scattered store of the new
                                    // vertex into the sample's state.
                                    traces[l].push(LaneOp::GlobalStore {
                                        addr: 0x7000_0000
                                            + (gid[l] as u64) * 4096
                                            + (c as u64 * m as u64 + j as u64) * 4,
                                        bytes: 4,
                                    });
                                    traces[l].push(LaneOp::Compute(2));
                                }
                            }
                        }
                        w.replay(traces, msk);
                    });
                });
            },
        );
        // Message delivery: every sampled vertex becomes a message to its
        // next transit — an atomic append plus a scattered store, like
        // Gunrock's frontier insert but per sample.
        let deliveries = res
            .store
            .step_values(step)
            .values
            .iter()
            .filter(|&&v| v != NULL_VERTEX)
            .count();
        if deliveries > 0 {
            let queue = gpu.alloc::<u32>(deliveries);
            let cursor = gpu.alloc::<u32>(1);
            // `launch_ordered`: queue positions from the cursor atomics are
            // cross-block execution-order dependent (see the Gunrock
            // frontier insert), so blocks run sequentially.
            gpu.launch_ordered(
                "tigr_message_delivery",
                LaunchConfig::grid1d(deliveries, 256),
                |blk| {
                    blk.for_each_warp(|w| {
                        let gid = w.global_thread_ids();
                        let msk = w.mask_where(|l| gid[l] < deliveries);
                        if msk == 0 {
                            return;
                        }
                        let pos =
                            w.atomic_add_global(&cursor, &[0; WARP_SIZE], [1; WARP_SIZE], msk);
                        let idx: [usize; WARP_SIZE] =
                            std::array::from_fn(|l| (pos[l] as usize).min(deliveries - 1));
                        w.st_global(&queue, &idx, [0; WARP_SIZE], msk);
                    });
                },
            );
        }
    }
    let counters = gpu.counters().diff(&counters0);
    res.stats.total_ms = gpu.spec().cycles_to_ms(counters.cycles);
    res.stats.sampling_ms = res.stats.total_ms;
    res.stats.scheduling_ms = 0.0;
    res.stats.counters = counters;
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use nextdoor_apps::{DeepWalk, KHop};
    use nextdoor_core::run_nextdoor;
    use nextdoor_gpu::GpuSpec;
    use nextdoor_graph::gen::{rmat, RmatParams};

    #[test]
    fn message_passing_matches_samples_but_is_slower() {
        let g = rmat(10, 20_000, RmatParams::SKEWED, 5);
        let init: Vec<Vec<VertexId>> = (0..1024).map(|i| vec![(i * 3 % 1024) as u32]).collect();
        let app = KHop::graphsage();
        let mut g1 = Gpu::new(GpuSpec::small());
        let mp = run_message_passing(&mut g1, &g, &app, &init, 2);
        let mut g2 = Gpu::new(GpuSpec::small());
        let nd = run_nextdoor(&mut g2, &g, &app, &init, 2).unwrap();
        assert_eq!(mp.store.final_samples(), nd.store.final_samples());
        assert!(
            mp.stats.total_ms > nd.stats.total_ms,
            "message passing {:.3} ms should be slower than NextDoor {:.3} ms",
            mp.stats.total_ms,
            nd.stats.total_ms
        );
    }

    #[test]
    fn divergence_emerges_from_uneven_sample_counts() {
        let g = rmat(8, 3000, RmatParams::SKEWED, 1).with_random_weights(1.0, 5.0, 1);
        // Concentrated roots: a few transits serve many samples.
        let init: Vec<Vec<VertexId>> = (0..256).map(|i| vec![(i % 8) as u32]).collect();
        let mut gpu = Gpu::new(GpuSpec::small());
        let res = run_message_passing(&mut gpu, &g, &DeepWalk::new(5), &init, 3);
        assert!(res.stats.counters.divergent_branches > 0);
    }
}

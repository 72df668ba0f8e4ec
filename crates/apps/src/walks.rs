//! Random-walk applications: DeepWalk, personalised PageRank and node2vec.

use nextdoor_core::api::NextCtx;
use nextdoor_core::{SamplingApp, Steps};
use nextdoor_graph::VertexId;

/// Cap on rejection-sampling probes before falling back to a uniform pick.
/// KnightKing's rejection loops have the same guard; on weights in `[1, 5)`
/// the expected probe count is well under 2.
const MAX_REJECTION_PROBES: usize = 24;

/// DeepWalk: fixed-length, static *biased* random walk where the
/// probability of following an edge is proportional to its weight
/// (Perozzi et al.; paper §3 "Random walks").
///
/// Edge selection uses rejection sampling against the transit's maximum
/// edge weight, as in KnightKing. On an unweighted graph this degenerates
/// to a uniform walk.
#[derive(Debug, Clone)]
pub struct DeepWalk {
    length: usize,
}

impl DeepWalk {
    /// A DeepWalk of `length` steps (the paper evaluates length 100).
    pub fn new(length: usize) -> Self {
        DeepWalk { length }
    }
}

impl SamplingApp for DeepWalk {
    fn name(&self) -> &'static str {
        "DeepWalk"
    }

    fn steps(&self) -> Steps {
        Steps::Fixed(self.length)
    }

    fn sample_size(&self, _step: usize) -> usize {
        1
    }

    fn next(&self, ctx: &mut NextCtx<'_>) -> Option<VertexId> {
        let d = ctx.num_edges();
        if d == 0 {
            return None;
        }
        let transit = ctx.transits()[0];
        let max_w = ctx.max_edge_weight(transit);
        for _ in 0..MAX_REJECTION_PROBES {
            let i = ctx.rand_range(d);
            let w = ctx.edge_weight(i);
            if ctx.rand_f32() * max_w <= w {
                return Some(ctx.src_edge(i));
            }
        }
        let i = ctx.rand_range(d);
        Some(ctx.src_edge(i))
    }
}

/// Personalised PageRank: a variable-length walk that terminates with a
/// fixed probability at each step (paper §3; termination probability 1/100
/// in the evaluation, for a mean length of 100).
#[derive(Debug, Clone)]
pub struct Ppr {
    termination: f32,
    cap: usize,
}

impl Ppr {
    /// A PPR walk with the given termination probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < termination <= 1`.
    pub fn new(termination: f32) -> Self {
        assert!(
            termination > 0.0 && termination <= 1.0,
            "termination probability must be in (0, 1]"
        );
        // Cap at ~8 mean lengths: the residual tail probability is e^-8.
        let cap = ((8.0 / termination) as usize).max(8);
        Ppr { termination, cap }
    }
}

impl SamplingApp for Ppr {
    fn name(&self) -> &'static str {
        "PPR"
    }

    fn steps(&self) -> Steps {
        Steps::Infinite
    }

    fn max_steps_cap(&self) -> usize {
        self.cap
    }

    fn sample_size(&self, _step: usize) -> usize {
        1
    }

    fn next(&self, ctx: &mut NextCtx<'_>) -> Option<VertexId> {
        if ctx.rand_f32() < self.termination {
            return None;
        }
        let d = ctx.num_edges();
        if d == 0 {
            return None;
        }
        let i = ctx.rand_range(d);
        Some(ctx.src_edge(i))
    }
}

/// node2vec: a second-order random walk biased by hyper-parameters `p` and
/// `q` (Grover & Leskovec; paper Figure 4a).
///
/// With `v` the current transit and `t` the previous one, the unnormalised
/// probability of taking edge `(v, u)` is `p` if `u = t`, `1/q` if `u` is a
/// neighbour of `t`, and `1` otherwise — selected by rejection sampling
/// whose neighbour-of-`t` check is a binary search over `t`'s adjacency
/// (the memory-divergent part the paper calls out in §8.2).
#[derive(Debug, Clone)]
pub struct Node2Vec {
    length: usize,
    p: f32,
    q: f32,
}

impl Node2Vec {
    /// A node2vec walk of `length` steps (the paper uses `p = 2.0`,
    /// `q = 0.5`, length 100).
    ///
    /// # Panics
    ///
    /// Panics unless `p` and `q` are positive.
    pub fn new(length: usize, p: f32, q: f32) -> Self {
        assert!(p > 0.0 && q > 0.0, "p and q must be positive");
        Node2Vec { length, p, q }
    }
}

impl SamplingApp for Node2Vec {
    fn name(&self) -> &'static str {
        "node2vec"
    }

    fn steps(&self) -> Steps {
        Steps::Fixed(self.length)
    }

    fn sample_size(&self, _step: usize) -> usize {
        1
    }

    /// The `has_edge` probe reads the previous transit's row.
    fn reads_other_rows(&self) -> bool {
        true
    }

    fn next(&self, ctx: &mut NextCtx<'_>) -> Option<VertexId> {
        let d = ctx.num_edges();
        if d == 0 {
            return None;
        }
        let t = ctx.prev_vertex(2, 0);
        let inv_q = 1.0 / self.q;
        let upper = self.p.max(1.0).max(inv_q);
        for _ in 0..MAX_REJECTION_PROBES {
            let i = ctx.rand_range(d);
            let u = ctx.src_edge(i);
            let w = if u == t {
                self.p
            } else if ctx.has_edge(t, u) {
                inv_q
            } else {
                1.0
            };
            if ctx.rand_f32() * upper <= w {
                return Some(u);
            }
        }
        let i = ctx.rand_range(d);
        Some(ctx.src_edge(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nextdoor_core::{run_cpu, run_nextdoor};
    use nextdoor_gpu::{Gpu, GpuSpec};
    use nextdoor_graph::gen::{ring_lattice, rmat, RmatParams};
    use nextdoor_graph::Csr;

    fn graph() -> Csr {
        rmat(9, 4000, RmatParams::SKEWED, 11).with_random_weights(1.0, 5.0, 2)
    }

    fn init(n: usize, v: usize) -> Vec<Vec<VertexId>> {
        (0..n).map(|i| vec![(i * 7 % v) as VertexId]).collect()
    }

    #[test]
    fn deepwalk_walks_are_edge_paths_of_full_length() {
        let g = graph();
        let res = run_cpu(&g, &DeepWalk::new(20), &init(40, 512), 3).unwrap();
        for s in res.store.final_samples() {
            for w in s.windows(2) {
                assert!(g.has_edge(w[0], w[1]));
            }
        }
    }

    #[test]
    fn deepwalk_prefers_heavy_edges() {
        // A 3-vertex graph where 0 -> 1 has weight 4 and 0 -> 2 weight 1:
        // walks from 0 should land on 1 roughly 4x as often as on 2.
        let g = nextdoor_graph::GraphBuilder::new(3)
            .weighted_edge(0, 1, 4.0)
            .weighted_edge(0, 2, 1.0)
            .build()
            .unwrap();
        let init: Vec<Vec<VertexId>> = (0..4000).map(|_| vec![0]).collect();
        let res = run_cpu(&g, &DeepWalk::new(1), &init, 5).unwrap();
        let mut ones = 0;
        let mut twos = 0;
        for s in res.store.final_samples() {
            match s[1] {
                1 => ones += 1,
                2 => twos += 1,
                other => panic!("unexpected vertex {other}"),
            }
        }
        let ratio = ones as f64 / twos as f64;
        assert!(
            (3.0..5.5).contains(&ratio),
            "weight-4 edge taken {ratio:.2}x as often; expected ~4x"
        );
    }

    #[test]
    fn ppr_lengths_follow_geometric_distribution() {
        let g = ring_lattice(256, 4, 0);
        let res = run_cpu(&g, &Ppr::new(0.1), &init(2000, 256), 7).unwrap();
        let lens: Vec<usize> = res
            .store
            .final_samples()
            .iter()
            .map(|s| s.len() - 1)
            .collect();
        let mean = lens.iter().sum::<usize>() as f64 / lens.len() as f64;
        assert!(
            (6.0..14.0).contains(&mean),
            "mean walk length {mean:.1}, expected ~9-10 for alpha=0.1"
        );
        assert!(lens.iter().any(|&l| l < 3), "some walks end early");
        assert!(lens.iter().any(|&l| l > 15), "some walks run long");
    }

    #[test]
    fn node2vec_low_q_prefers_distant_vertices() {
        // A path graph 0-1-2 plus a triangle 0-1-3: from transit 1 with
        // previous transit 0, vertex 2 (not a neighbour of 0) has weight 1
        // while vertex 3 (neighbour of 0) has weight 1/q. With q >> 1 the
        // walk should rarely visit 3 relative to uniform.
        let g = nextdoor_graph::GraphBuilder::new(4)
            .edge(0, 1)
            .edge(1, 0)
            .edge(1, 2)
            .edge(1, 3)
            .edge(0, 3)
            .edge(3, 0)
            .build()
            .unwrap();
        let init: Vec<Vec<VertexId>> = (0..3000).map(|_| vec![0]).collect();
        // Step 0 moves 0 -> {1, 3}; step 1 applies the bias.
        let biased = run_cpu(&g, &Node2Vec::new(2, 1.0, 8.0), &init, 13).unwrap();
        let mut to_3 = 0;
        let mut to_2 = 0;
        for s in biased.store.final_samples() {
            if s[1] == 1 {
                match s.get(2) {
                    Some(3) => to_3 += 1,
                    Some(2) => to_2 += 1,
                    _ => {}
                }
            }
        }
        assert!(
            (to_3 as f64) < 0.45 * (to_2 as f64),
            "q=8 should suppress common-neighbour hops: to_3={to_3} to_2={to_2}"
        );
    }

    #[test]
    fn walks_match_across_engines() {
        let g = graph();
        let ini = init(64, 512);
        for app in [
            Box::new(DeepWalk::new(12)) as Box<dyn SamplingApp>,
            Box::new(Ppr::new(0.05)),
            Box::new(Node2Vec::new(12, 2.0, 0.5)),
        ] {
            let cpu = run_cpu(&g, app.as_ref(), &ini, 9).unwrap();
            let mut gpu = Gpu::new(GpuSpec::small());
            let nd = run_nextdoor(&mut gpu, &g, app.as_ref(), &ini, 9).unwrap();
            assert_eq!(
                cpu.store.final_samples(),
                nd.store.final_samples(),
                "{} diverged across engines",
                app.name()
            );
        }
    }

    #[test]
    #[should_panic(expected = "termination probability")]
    fn ppr_rejects_zero_termination() {
        let _ = Ppr::new(0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn node2vec_rejects_nonpositive_params() {
        let _ = Node2Vec::new(10, 0.0, 1.0);
    }
}

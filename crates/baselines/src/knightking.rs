//! A KnightKing-style walker-centric CPU random-walk engine.
//!
//! KnightKing (Yang et al., SOSP '19) is the paper's CPU baseline for
//! random walks (§8.2). Its essential properties, reproduced here:
//!
//! * **walker-centric**: each walker advances independently through a tight
//!   per-walker loop — no per-step global coordination;
//! * **rejection sampling**: biased transitions (DeepWalk weights,
//!   node2vec's second-order bias) are selected by probing against an
//!   upper bound instead of materialising distributions;
//! * **multi-threaded**: walkers are partitioned across all cores;
//! * **walks only**: the API cannot express k-hop or collective sampling,
//!   which is why the paper uses it only for the random-walk benchmarks.

use std::time::Instant;

use nextdoor_gpu::rng;
use nextdoor_graph::{Csr, VertexId};

/// A random-walk transition rule, the extent of KnightKing's API.
pub trait WalkRule: Sync {
    /// Display name.
    fn name(&self) -> &'static str;

    /// Maximum number of steps a walker may take.
    fn max_steps(&self) -> usize;

    /// Chooses the next vertex from `cur` (with `prev` the vertex before
    /// it, for second-order walks), or `None` to terminate the walk.
    fn step(
        &self,
        graph: &Csr,
        cur: VertexId,
        prev: Option<VertexId>,
        rng: &mut WalkerRng,
    ) -> Option<VertexId>;
}

/// Per-walker deterministic RNG.
pub struct WalkerRng {
    seed: u64,
    walker: u64,
    counter: u64,
}

impl WalkerRng {
    fn new(seed: u64, walker: usize) -> Self {
        WalkerRng {
            seed,
            walker: walker as u64,
            counter: 0,
        }
    }

    /// Uniform draw in `[0, n)`.
    pub fn range(&mut self, n: usize) -> usize {
        let v = rng::rand_range(self.seed, self.walker, self.counter, n as u32);
        self.counter += 1;
        v as usize
    }

    /// Uniform draw in `[0, 1)`.
    pub fn f32(&mut self) -> f32 {
        let v = rng::rand_f32(self.seed, self.walker, self.counter);
        self.counter += 1;
        v
    }
}

/// Result of a KnightKing run.
pub struct KnightKingResult {
    /// One walk per walker, starting with its root.
    pub walks: Vec<Vec<VertexId>>,
    /// Wall-clock milliseconds.
    pub wall_ms: f64,
    /// Threads used.
    pub threads: usize,
}

/// Runs one walker per root to completion across `threads` OS threads.
///
/// # Panics
///
/// Panics if `roots` is empty or `threads` is zero.
pub fn run_knightking(
    graph: &Csr,
    rule: &dyn WalkRule,
    roots: &[VertexId],
    seed: u64,
    threads: usize,
) -> KnightKingResult {
    assert!(!roots.is_empty(), "need at least one walker");
    assert!(threads > 0, "need at least one thread");
    let t0 = Instant::now();
    let n = roots.len();
    let mut walks: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    let per = n.div_ceil(threads);
    std::thread::scope(|scope| {
        let mut rest: &mut [Vec<VertexId>] = &mut walks;
        let mut base = 0usize;
        while base < n {
            let take = per.min(n - base);
            let (chunk, tail) = rest.split_at_mut(take);
            rest = tail;
            let chunk_base = base;
            scope.spawn(move || {
                for (off, slot) in chunk.iter_mut().enumerate() {
                    let walker = chunk_base + off;
                    let mut rng = WalkerRng::new(seed, walker);
                    let root = roots[walker];
                    slot.push(root);
                    let mut prev = None;
                    let mut cur = root;
                    for _ in 0..rule.max_steps() {
                        match rule.step(graph, cur, prev, &mut rng) {
                            Some(nxt) => {
                                slot.push(nxt);
                                prev = Some(cur);
                                cur = nxt;
                            }
                            None => break,
                        }
                    }
                }
            });
            base += take;
        }
    });
    KnightKingResult {
        walks,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        threads,
    }
}

/// DeepWalk's weight-biased transition under rejection sampling.
pub struct DeepWalkRule {
    /// Walk length.
    pub length: usize,
}

impl WalkRule for DeepWalkRule {
    fn name(&self) -> &'static str {
        "DeepWalk"
    }

    fn max_steps(&self) -> usize {
        self.length
    }

    fn step(
        &self,
        graph: &Csr,
        cur: VertexId,
        _prev: Option<VertexId>,
        rng: &mut WalkerRng,
    ) -> Option<VertexId> {
        let d = graph.degree(cur);
        if d == 0 {
            return None;
        }
        let max_w = graph.max_edge_weight(cur);
        for _ in 0..24 {
            let i = rng.range(d);
            if rng.f32() * max_w <= graph.edge_weight(cur, i) {
                return Some(graph.neighbor(cur, i));
            }
        }
        Some(graph.neighbor(cur, rng.range(d)))
    }
}

/// Personalised-PageRank transition: terminate with fixed probability.
pub struct PprRule {
    /// Termination probability per step.
    pub termination: f32,
    /// Hard cap on walk length.
    pub cap: usize,
}

impl WalkRule for PprRule {
    fn name(&self) -> &'static str {
        "PPR"
    }

    fn max_steps(&self) -> usize {
        self.cap
    }

    fn step(
        &self,
        graph: &Csr,
        cur: VertexId,
        _prev: Option<VertexId>,
        rng: &mut WalkerRng,
    ) -> Option<VertexId> {
        if rng.f32() < self.termination {
            return None;
        }
        let d = graph.degree(cur);
        if d == 0 {
            return None;
        }
        Some(graph.neighbor(cur, rng.range(d)))
    }
}

/// node2vec's second-order transition under rejection sampling.
pub struct Node2VecRule {
    /// Walk length.
    pub length: usize,
    /// Return parameter.
    pub p: f32,
    /// In-out parameter.
    pub q: f32,
}

impl WalkRule for Node2VecRule {
    fn name(&self) -> &'static str {
        "node2vec"
    }

    fn max_steps(&self) -> usize {
        self.length
    }

    fn step(
        &self,
        graph: &Csr,
        cur: VertexId,
        prev: Option<VertexId>,
        rng: &mut WalkerRng,
    ) -> Option<VertexId> {
        let d = graph.degree(cur);
        if d == 0 {
            return None;
        }
        let inv_q = 1.0 / self.q;
        let upper = self.p.max(1.0).max(inv_q);
        for _ in 0..24 {
            let i = rng.range(d);
            let u = graph.neighbor(cur, i);
            let w = match prev {
                Some(t) if u == t => self.p,
                Some(t) if graph.has_edge(t, u) => inv_q,
                _ => 1.0,
            };
            if rng.f32() * upper <= w {
                return Some(u);
            }
        }
        Some(graph.neighbor(cur, rng.range(d)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nextdoor_graph::gen::{ring_lattice, rmat, RmatParams};

    #[test]
    fn walks_are_edge_paths() {
        let g = rmat(8, 2000, RmatParams::SKEWED, 1).with_random_weights(1.0, 5.0, 2);
        let roots: Vec<VertexId> = (0..50).map(|i| i * 5 % 256).collect();
        let res = run_knightking(&g, &DeepWalkRule { length: 20 }, &roots, 7, 4);
        assert_eq!(res.walks.len(), 50);
        for (i, w) in res.walks.iter().enumerate() {
            assert_eq!(w[0], roots[i]);
            for pair in w.windows(2) {
                assert!(g.has_edge(pair[0], pair[1]));
            }
        }
        assert!(res.wall_ms >= 0.0);
    }

    #[test]
    fn deterministic_regardless_of_thread_count() {
        let g = ring_lattice(128, 3, 0);
        let roots: Vec<VertexId> = (0..64).collect();
        let a = run_knightking(
            &g,
            &PprRule {
                termination: 0.1,
                cap: 100,
            },
            &roots,
            3,
            1,
        );
        let b = run_knightking(
            &g,
            &PprRule {
                termination: 0.1,
                cap: 100,
            },
            &roots,
            3,
            8,
        );
        assert_eq!(a.walks, b.walks, "walker RNG is keyed, not thread-ordered");
    }

    #[test]
    fn ppr_walks_vary_in_length() {
        let g = ring_lattice(128, 3, 0);
        let roots: Vec<VertexId> = (0..500).map(|i| i % 128).collect();
        let res = run_knightking(
            &g,
            &PprRule {
                termination: 0.2,
                cap: 200,
            },
            &roots,
            5,
            4,
        );
        let lens: Vec<usize> = res.walks.iter().map(|w| w.len() - 1).collect();
        let mean = lens.iter().sum::<usize>() as f64 / lens.len() as f64;
        assert!(
            (2.5..7.0).contains(&mean),
            "mean length {mean}, expected ~4"
        );
    }

    #[test]
    fn node2vec_with_high_p_revisits_previous_vertex() {
        // With p >> 1 the walk is strongly biased back to where it came
        // from, so short walks should frequently alternate.
        let g = ring_lattice(64, 2, 0);
        let roots: Vec<VertexId> = (0..200).map(|i| i % 64).collect();
        let res = run_knightking(
            &g,
            &Node2VecRule {
                length: 4,
                p: 50.0,
                q: 1.0,
            },
            &roots,
            9,
            2,
        );
        let mut returns = 0;
        let mut chances = 0;
        for w in &res.walks {
            for i in 2..w.len() {
                chances += 1;
                if w[i] == w[i - 2] {
                    returns += 1;
                }
            }
        }
        let rate = returns as f64 / chances as f64;
        assert!(rate > 0.5, "return rate {rate:.2} should be high at p=50");
    }
}

//! Statistical correctness of the samplers: chi-squared goodness-of-fit of
//! per-step transit-neighbour frequencies against the *exact* target
//! distribution of each application, on small fixed graphs where that
//! target can be computed in closed form.
//!
//! Each law is checked on the CPU engine, and on the same inputs the
//! differential oracle of `tests/common` checks that every placement
//! produces exactly the CPU's samples, so the law holds on all of them.
//! Because all randomness is keyed by `(seed, sample, step, slot)`, the
//! empirical counts are a deterministic function of the seed list, so these
//! tests are *not* flaky: the significance threshold (chi-squared critical
//! value at alpha = 0.001) guards against implementation bias, not against
//! re-run noise.

mod common;

use common::{check, Case, MakeApp, Reach};
use nextdoor::apps::{DeepWalk, KHop, Ladies, Layer, Node2Vec};
use nextdoor::core::{run_cpu, SampleStore, NULL_VERTEX};
use nextdoor::graph::{Csr, GraphBuilder, VertexId};
use std::collections::BTreeMap;
use std::ops::RangeInclusive;

/// Chi-squared critical values at alpha = 0.001 for the degrees of freedom
/// used below.
fn chi2_critical(df: usize) -> f64 {
    match df {
        2 => 13.816,
        3 => 16.266,
        4 => 18.467,
        7 => 24.322,
        _ => panic!("no critical value tabulated for df = {df}"),
    }
}

/// Asserts that `counts` fit the exact per-category probabilities `probs`:
/// Pearson's chi-squared statistic stays below the critical value.
fn assert_fits(law: &str, counts: &[u64], probs: &[f64]) {
    assert_eq!(counts.len(), probs.len());
    let n: u64 = counts.iter().sum();
    assert!(n > 0, "no observations");
    let chi2: f64 = counts
        .iter()
        .zip(probs)
        .map(|(&c, &p)| {
            let e = n as f64 * p;
            assert!(e >= 5.0, "expected count {e:.1} too small for chi-squared");
            (c as f64 - e).powi(2) / e
        })
        .sum();
    let critical = chi2_critical(probs.len() - 1);
    assert!(
        chi2 < critical,
        "{law}: chi2 = {chi2:.2} over critical {critical} (counts {counts:?}, law {probs:?})"
    );
}

/// The exact law of a capped rejection sampler: `probes` rounds draw a
/// candidate position uniformly from `d = accept.len()` and accept position
/// `i` with probability `accept[i]`; if every round rejects, a final
/// unconditional uniform draw is used. Returns the per-position law.
fn rejection_law(accept: &[f64], probes: u32) -> Vec<f64> {
    let d = accept.len() as f64;
    let q: f64 = accept.iter().sum::<f64>() / d;
    let fallthrough = (1.0 - q).powi(probes as i32);
    accept
        .iter()
        .map(|&a| (a / d) * (1.0 - fallthrough) / q + fallthrough / d)
        .collect()
}

const SEEDS: [u64; 5] = [11, 23, 47, 101, 9001];

/// The CPU engine's store of `app` over `init` at each seed of [`SEEDS`],
/// once the oracle has checked every placement on the same inputs.
fn stores(g: &Csr, app: MakeApp, init: &[Vec<VertexId>]) -> Vec<SampleStore> {
    SEEDS
        .iter()
        .map(|&seed| {
            check(
                &Case::new(g.clone(), app, init.to_vec(), seed),
                &mut Reach::default(),
            );
            run_cpu(g, app().as_ref(), init, seed).unwrap().store
        })
        .collect()
}

/// How often each of `vertices` was drawn at step 0, over every seed.
fn step0_counts(
    g: &Csr,
    app: MakeApp,
    init: &[Vec<VertexId>],
    vertices: RangeInclusive<VertexId>,
) -> Vec<u64> {
    let mut counts = BTreeMap::new();
    for store in stores(g, app, init) {
        for &v in &store.step_values(0).values {
            if v != NULL_VERTEX {
                *counts.entry(v).or_insert(0u64) += 1;
            }
        }
    }
    vertices
        .map(|v| counts.get(&v).copied().unwrap_or(0))
        .collect()
}

#[test]
fn khop_draws_are_uniform_over_neighbours() {
    // Root 0 has out-degree 8; a 1-hop draw must be uniform over 1..=8.
    let mut b = GraphBuilder::new(9);
    for v in 1..=8 {
        b.push_edge(0, v);
    }
    let g = b.build().unwrap();
    let init: Vec<Vec<VertexId>> = (0..2000).map(|_| vec![0]).collect();
    let obs = step0_counts(&g, || Box::new(KHop::new(vec![1])), &init, 1..=8);
    assert_fits("k-hop", &obs, &[1.0 / 8.0; 8]);
}

#[test]
fn layer_draws_are_uniform_over_combined_neighbourhood() {
    // Batch {0, 9}: the combined neighbourhood is the concatenation
    // [1, 2, 3] ++ [2, 3, 4, 5], so vertices 2 and 3 carry twice the mass
    // of 1, 4 and 5. Layer sampling draws positions uniformly.
    let g = GraphBuilder::new(10)
        .edge(0, 1)
        .edge(0, 2)
        .edge(0, 3)
        .edge(9, 2)
        .edge(9, 3)
        .edge(9, 4)
        .edge(9, 5)
        .build()
        .unwrap();
    let init: Vec<Vec<VertexId>> = (0..1500).map(|_| vec![0, 9]).collect();
    // step_size 4, max_size 6: step 0 draws 4 vertices per batch of 2,
    // then the sample is full — only step 0 is analysed.
    let obs = step0_counts(&g, || Box::new(Layer::new(4, 6)), &init, 1..=5);
    assert_fits("layer", &obs, &[1.0, 2.0, 2.0, 1.0, 1.0].map(|m| m / 7.0));
}

#[test]
fn ladies_draws_follow_degree_biased_rejection_law() {
    // Root 0's neighbourhood holds candidates of out-degree 2, 8, 24 and 0.
    // LADIES accepts a uniformly drawn candidate `v` with probability
    // max(deg / (deg + 8), 0.05) for up to 8 probes, then falls back to a
    // uniform pick — an exactly computable law.
    let mut b = GraphBuilder::new(30);
    for v in 1..=4 {
        b.push_edge(0, v);
    }
    for t in 0..2 {
        b.push_edge(1, 5 + t);
    }
    for t in 0..8 {
        b.push_edge(2, 5 + t);
    }
    for t in 0..24 {
        b.push_edge(3, 5 + t);
    }
    let g = b.build().unwrap();
    let accept: Vec<f64> = [2.0, 8.0, 24.0, 0.0]
        .iter()
        .map(|&deg: &f64| (deg / (deg + 8.0)).max(0.05))
        .collect();
    let init: Vec<Vec<VertexId>> = (0..800).map(|_| vec![0]).collect();
    let obs = step0_counts(&g, || Box::new(Ladies::new(1, 8)), &init, 1..=4);
    assert_fits("LADIES", &obs, &rejection_law(&accept, 8));
}

#[test]
fn deepwalk_draws_follow_weight_biased_rejection_law() {
    // Edge weights 1, 2 and 4 out of root 0: the rejection sampler accepts
    // with probability w / max_w over up to 24 probes.
    let g = GraphBuilder::new(4)
        .weighted_edge(0, 1, 1.0)
        .weighted_edge(0, 2, 2.0)
        .weighted_edge(0, 3, 4.0)
        .build()
        .unwrap();
    let init: Vec<Vec<VertexId>> = (0..2000).map(|_| vec![0]).collect();
    let obs = step0_counts(&g, || Box::new(DeepWalk::new(1)), &init, 1..=3);
    assert_fits("DeepWalk", &obs, &rejection_law(&[0.25, 0.5, 1.0], 24));
}

/// node2vec's step-1 law conditioned on the walk being at transit 1 with
/// previous vertex 0: candidate 0 is the return edge (weight `p`), 9 is a
/// common neighbour of 0 (weight `1/q`), 2 is neither (weight 1). The
/// rejection sampler normalises by `max(p, 1, 1/q)`.
#[test]
fn node2vec_transitions_follow_pq_matrix() {
    let g = GraphBuilder::new(10)
        .edge(0, 1)
        .edge(0, 9)
        .edge(1, 0)
        .edge(1, 2)
        .edge(1, 9)
        .edge(9, 0)
        .build()
        .unwrap();
    let init: Vec<Vec<VertexId>> = (0..3000).map(|_| vec![0]).collect();
    let walks: [(MakeApp, f32, f32); 2] = [
        (|| Box::new(Node2Vec::new(2, 2.0, 0.5)), 2.0, 0.5),
        (|| Box::new(Node2Vec::new(2, 0.5, 4.0)), 0.5, 4.0),
    ];
    for (app, p, q) in walks {
        let upper = f64::from(p.max(1.0).max(1.0 / q));
        let accept: Vec<f64> = [f64::from(p), 1.0, f64::from(1.0 / q)]
            .iter()
            .map(|w| w / upper)
            .collect();
        // Counts for transitions 1 -> {0, 2, 9}.
        let mut counts = [0u64; 3];
        for store in stores(&g, app, &init) {
            for s in store.final_samples() {
                // Condition on the walk being 0 -> 1 after step 0; the
                // step-1 RNG stream is keyed independently of step 0, so
                // this filter does not bias the transition law.
                if s.len() >= 3 && s[1] == 1 {
                    match s[2] {
                        0 => counts[0] += 1,
                        2 => counts[1] += 1,
                        9 => counts[2] += 1,
                        other => panic!("impossible transition 1 -> {other}"),
                    }
                }
            }
        }
        let law = format!("node2vec(p={p}, q={q})");
        assert_fits(&law, &counts, &rejection_law(&accept, 24));
    }
}

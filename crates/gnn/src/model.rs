//! A two-layer GraphSAGE-style network with full backpropagation.

use nextdoor_graph::VertexId;

use crate::features::{feature_matrix, mean_aggregate};
use crate::tensor::{cross_entropy, Matrix};

/// A two-layer mean-aggregation GNN:
///
/// ```text
/// h   = ReLU([X_root ‖ mean(X_sampled)] · W1)
/// ŷ   = softmax(h · W2)
/// ```
///
/// where `X_root` are the root vertices' features and `mean(X_sampled)` the
/// mean-aggregated features of each root's sampled neighbourhood. Gradients
/// flow through both linear layers (the aggregation is a fixed linear map,
/// as in GraphSAGE-mean inference).
pub struct GraphSageModel {
    /// Input feature dimension (per half of the concatenation).
    pub feature_dim: usize,
    /// Hidden width.
    pub hidden: usize,
    /// Output classes.
    pub classes: usize,
    w1: Matrix,
    w2: Matrix,
    feature_seed: u64,
}

/// One training step's outputs.
pub struct StepOutcome {
    /// Mean cross-entropy loss of the batch.
    pub loss: f32,
    /// Fraction of the batch classified correctly (pre-update).
    pub accuracy: f32,
}

impl GraphSageModel {
    /// Creates a model with He-initialised weights.
    pub fn new(feature_dim: usize, hidden: usize, classes: usize, seed: u64) -> Self {
        GraphSageModel {
            feature_dim,
            hidden,
            classes,
            w1: Matrix::he_init(2 * feature_dim, hidden, seed ^ 0x57A7),
            w2: Matrix::he_init(hidden, classes, seed ^ 0x57A8),
            feature_seed: seed ^ 0xF00D,
        }
    }

    /// Builds the input activation for a batch: root features concatenated
    /// with the mean-aggregated features of each root's sample.
    fn batch_input(&self, roots: &[VertexId], samples: &[Vec<VertexId>]) -> Matrix {
        debug_assert_eq!(roots.len(), samples.len());
        let xf = feature_matrix(roots, self.feature_dim, self.feature_seed);
        let xa = mean_aggregate(samples, self.feature_dim, self.feature_seed);
        Matrix::from_fn(roots.len(), 2 * self.feature_dim, |r, c| {
            if c < self.feature_dim {
                xf.get(r, c)
            } else {
                xa.get(r, c - self.feature_dim)
            }
        })
    }

    /// Runs one SGD step on a batch: `roots[i]`'s label is predicted from
    /// its sampled neighbourhood `samples[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `roots` and `samples` have different lengths.
    pub fn train_step(
        &mut self,
        roots: &[VertexId],
        samples: &[Vec<VertexId>],
        lr: f32,
    ) -> StepOutcome {
        assert_eq!(roots.len(), samples.len(), "one sample per root");
        let labels: Vec<usize> = roots
            .iter()
            .map(|&v| crate::features::vertex_label(v, self.classes, self.feature_seed))
            .collect();
        // Forward.
        let x = self.batch_input(roots, samples);
        let mut h = x.matmul(&self.w1);
        let mask = h.relu_in_place();
        let mut probs = h.matmul(&self.w2);
        probs.softmax_rows();
        let accuracy = {
            let mut correct = 0;
            for (r, &y) in labels.iter().enumerate() {
                let pred = (0..self.classes)
                    .max_by(|&a, &b| probs.get(r, a).total_cmp(&probs.get(r, b)))
                    .expect("classes > 0");
                if pred == y {
                    correct += 1;
                }
            }
            correct as f32 / labels.len() as f32
        };
        // Backward.
        let (loss, dlogits) = cross_entropy(&probs, &labels);
        let dw2 = h.t_matmul(&dlogits);
        let mut dh = dlogits.matmul_t(&self.w2);
        dh.apply_mask(&mask);
        let dw1 = x.t_matmul(&dh);
        self.w2.sgd_step(&dw2, lr);
        self.w1.sgd_step(&dw1, lr);
        StepOutcome { loss, accuracy }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(n: usize) -> (Vec<VertexId>, Vec<Vec<VertexId>>) {
        let roots: Vec<VertexId> = (0..n as u32).collect();
        let samples: Vec<Vec<VertexId>> = roots.iter().map(|&r| vec![r, r + 1, r + 2]).collect();
        (roots, samples)
    }

    #[test]
    fn loss_decreases_over_steps() {
        let mut model = GraphSageModel::new(16, 32, 4, 1);
        let (roots, samples) = batch(128);
        let first = model.train_step(&roots, &samples, 0.5).loss;
        let mut last = first;
        for _ in 0..60 {
            last = model.train_step(&roots, &samples, 0.5).loss;
        }
        assert!(
            last < first * 0.8,
            "loss should drop substantially: {first:.4} -> {last:.4}"
        );
    }

    #[test]
    fn accuracy_beats_chance_after_training() {
        let mut model = GraphSageModel::new(16, 32, 4, 2);
        let (roots, samples) = batch(256);
        for _ in 0..80 {
            model.train_step(&roots, &samples, 0.5);
        }
        // A step reports the accuracy of the weights it starts from.
        let acc = model.train_step(&roots, &samples, 0.5).accuracy;
        assert!(acc > 0.4, "accuracy {acc:.2} should beat 0.25 chance");
    }

    #[test]
    fn train_step_is_deterministic() {
        let (roots, samples) = batch(32);
        let mut a = GraphSageModel::new(8, 16, 3, 5);
        let mut b = GraphSageModel::new(8, 16, 3, 5);
        let la = a.train_step(&roots, &samples, 0.1).loss;
        let lb = b.train_step(&roots, &samples, 0.1).loss;
        assert_eq!(la, lb);
    }

    #[test]
    #[should_panic(expected = "one sample per root")]
    fn mismatched_batch_rejected() {
        let mut model = GraphSageModel::new(4, 8, 2, 1);
        let _ = model.train_step(&[0, 1], &[vec![0]], 0.1);
    }
}

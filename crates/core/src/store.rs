//! Sample storage and the paper's two output formats (§4.1).

use crate::api::{SampleView, NULL_VERTEX};
use nextdoor_graph::VertexId;

/// The vertices of every sample, organised per step.
///
/// NextDoor supports two output formats: (1) an array of samples, each
/// holding every vertex sampled at any step (random walks, layer sampling),
/// and (2) per-step arrays (k-hop neighbourhood sampling). Both are
/// available here via [`SampleStore::final_samples`] and
/// [`SampleStore::step_values`].
#[derive(Debug, Clone)]
pub struct SampleStore {
    init: Vec<Vec<VertexId>>,
    steps: Vec<StepData>,
    roots: Vec<Vec<VertexId>>,
    edges: Vec<Vec<(VertexId, VertexId)>>,
}

/// One step's outputs: a dense `num_samples × slots` array with
/// [`NULL_VERTEX`] holes.
#[derive(Debug, Clone, PartialEq)]
pub struct StepData {
    /// Output slots per sample at this step.
    pub slots: usize,
    /// Flattened values, `sample * slots + slot`.
    pub values: Vec<VertexId>,
}

impl SampleStore {
    /// Creates a store from the initial samples. Each sample's root set
    /// starts as a copy of its initial vertices.
    pub fn new(init: Vec<Vec<VertexId>>) -> Self {
        let roots = init.clone();
        let n = init.len();
        SampleStore {
            init,
            steps: Vec::new(),
            roots,
            edges: vec![Vec::new(); n],
        }
    }

    /// Number of samples.
    pub fn num_samples(&self) -> usize {
        self.init.len()
    }

    /// Number of recorded steps.
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// The initial vertices of sample `s`.
    pub fn initial(&self, s: usize) -> &[VertexId] {
        &self.init[s]
    }

    /// Records a completed step.
    ///
    /// # Panics
    ///
    /// Panics unless `values.len() == num_samples * slots`.
    pub fn record_step(&mut self, slots: usize, values: Vec<VertexId>) {
        assert_eq!(
            values.len(),
            self.num_samples() * slots,
            "step value array has wrong shape"
        );
        self.steps.push(StepData { slots, values });
    }

    /// The dense output of `step` (format 2 of the paper).
    pub fn step_values(&self, step: usize) -> &StepData {
        &self.steps[step]
    }

    /// Format 1 of the paper: every sample as the list of all its sampled
    /// vertices (initial vertices first, NULLs dropped).
    pub fn final_samples(&self) -> Vec<Vec<VertexId>> {
        (0..self.num_samples())
            .map(|s| {
                let mut out = self.init[s].clone();
                for st in &self.steps {
                    out.extend(
                        st.values[s * st.slots..(s + 1) * st.slots]
                            .iter()
                            .filter(|&&v| v != NULL_VERTEX),
                    );
                }
                out
            })
            .collect()
    }

    /// The evolving root set of sample `s` (multi-dimensional walks).
    pub fn roots_of(&self, s: usize) -> &[VertexId] {
        &self.roots[s]
    }

    /// Mutable root set of sample `s`.
    pub fn roots_of_mut(&mut self, s: usize) -> &mut Vec<VertexId> {
        &mut self.roots[s]
    }

    /// Appends application edges recorded for sample `s` (importance and
    /// cluster sampling).
    pub fn add_edges(&mut self, s: usize, edges: impl IntoIterator<Item = (VertexId, VertexId)>) {
        self.edges[s].extend(edges);
    }

    /// The application edges of sample `s`.
    pub fn edges_of(&self, s: usize) -> &[(VertexId, VertexId)] {
        &self.edges[s]
    }

    /// The sub-store holding samples `start..start + len`, with every step,
    /// root set and application edge sliced to that range.
    ///
    /// This is how a fused session batch is handed back per request: the
    /// batch runs on one concatenated store, and each request receives the
    /// slice covering its own samples (see
    /// [`SamplerSession::query_fused`](crate::session::SamplerSession::query_fused)).
    ///
    /// # Panics
    ///
    /// Panics if `start + len` exceeds [`SampleStore::num_samples`].
    pub fn slice(&self, start: usize, len: usize) -> SampleStore {
        assert!(
            start + len <= self.num_samples(),
            "slice {start}..{} out of range for {} samples",
            start + len,
            self.num_samples()
        );
        SampleStore {
            init: self.init[start..start + len].to_vec(),
            steps: self
                .steps
                .iter()
                .map(|st| StepData {
                    slots: st.slots,
                    values: st.values[start * st.slots..(start + len) * st.slots].to_vec(),
                })
                .collect(),
            roots: self.roots[start..start + len].to_vec(),
            edges: self.edges[start..start + len].to_vec(),
        }
    }

    /// A [`SampleView`] of sample `s` as of the start of step
    /// `current_step` (i.e. seeing steps `0..current_step`).
    pub fn view(&self, s: usize, current_step: usize) -> StoreView<'_> {
        debug_assert!(current_step <= self.steps.len());
        StoreView {
            store: self,
            sample: s,
            current_step,
        }
    }
}

/// A read-only view of one sample's history.
#[derive(Clone, Copy)]
pub struct StoreView<'a> {
    store: &'a SampleStore,
    sample: usize,
    current_step: usize,
}

impl SampleView for StoreView<'_> {
    fn prev_vertex(&self, back: usize, pos: usize) -> VertexId {
        if back == 0 || back > self.current_step + 1 {
            return NULL_VERTEX;
        }
        if back == self.current_step + 1 {
            // Past the first step: the initial vertices.
            return self.store.init[self.sample]
                .get(pos)
                .copied()
                .unwrap_or(NULL_VERTEX);
        }
        let st = &self.store.steps[self.current_step - back];
        st.values
            .get(self.sample * st.slots + pos)
            .copied()
            .unwrap_or(NULL_VERTEX)
    }

    fn prev_len(&self, back: usize) -> usize {
        if back == 0 || back > self.current_step + 1 {
            return 0;
        }
        if back == self.current_step + 1 {
            return self.store.init[self.sample].len();
        }
        self.store.steps[self.current_step - back].slots
    }

    fn len(&self) -> usize {
        // Length as of the start of the current step.
        let mut n = self.store.init[self.sample].len();
        for st in &self.store.steps[..self.current_step] {
            n += st.values[self.sample * st.slots..(self.sample + 1) * st.slots]
                .iter()
                .filter(|&&v| v != NULL_VERTEX)
                .count();
        }
        n
    }

    fn roots(&self) -> &[VertexId] {
        &self.store.roots[self.sample]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store2() -> SampleStore {
        let mut st = SampleStore::new(vec![vec![5], vec![9]]);
        // Step 0: 2 slots per sample.
        st.record_step(2, vec![1, 2, 3, NULL_VERTEX]);
        // Step 1: 4 slots per sample.
        st.record_step(4, vec![10, 11, 12, 13, 20, NULL_VERTEX, 22, 23]);
        st
    }

    #[test]
    fn final_samples_concatenate_steps() {
        let st = store2();
        let fs = st.final_samples();
        assert_eq!(fs[0], vec![5, 1, 2, 10, 11, 12, 13]);
        assert_eq!(fs[1], vec![9, 3, 20, 22, 23]);
    }

    #[test]
    fn view_prev_vertex_walks_backwards() {
        let st = store2();
        let v = st.view(0, 2); // after both steps
        assert_eq!(v.prev_vertex(1, 0), 10);
        assert_eq!(v.prev_vertex(1, 3), 13);
        assert_eq!(v.prev_vertex(2, 1), 2);
        assert_eq!(v.prev_vertex(3, 0), 5, "reaches initial vertices");
        assert_eq!(v.prev_vertex(4, 0), NULL_VERTEX, "beyond history");
        assert_eq!(v.prev_vertex(0, 0), NULL_VERTEX, "back=0 is invalid");
    }

    #[test]
    fn view_mid_history() {
        let st = store2();
        let v = st.view(1, 1); // as of start of step 1
        assert_eq!(v.prev_vertex(1, 0), 3);
        assert_eq!(v.prev_vertex(2, 0), 9);
        assert_eq!(v.len(), 2, "initial + one live value from step 0");
        assert_eq!(v.prev_len(1), 2);
        assert_eq!(v.prev_len(2), 1);
    }

    #[test]
    fn step_values_format() {
        let st = store2();
        assert_eq!(st.step_values(0).slots, 2);
        assert_eq!(st.step_values(0).values, vec![1, 2, 3, NULL_VERTEX]);
    }

    #[test]
    fn roots_update() {
        let mut st = SampleStore::new(vec![vec![1, 2, 3]]);
        assert_eq!(st.roots_of(0), &[1, 2, 3]);
        st.roots_of_mut(0)[1] = 42;
        assert_eq!(st.roots_of(0), &[1, 42, 3]);
    }

    #[test]
    fn edges_accumulate() {
        let mut st = SampleStore::new(vec![vec![0], vec![1]]);
        st.add_edges(1, vec![(1, 2), (1, 3)]);
        assert_eq!(st.edges_of(1), &[(1, 2), (1, 3)]);
        assert!(st.edges_of(0).is_empty());
    }

    #[test]
    fn slice_carries_every_per_sample_field() {
        let mut st = store2();
        st.add_edges(1, vec![(9, 3)]);
        st.roots_of_mut(1)[0] = 77;
        let sub = st.slice(1, 1);
        assert_eq!(sub.num_samples(), 1);
        assert_eq!(sub.final_samples(), vec![vec![9, 3, 20, 22, 23]]);
        assert_eq!(sub.edges_of(0), st.edges_of(1));
        assert_eq!(sub.roots_of(0), st.roots_of(1));
        assert_eq!(sub.step_values(0).slots, 2);
        assert_eq!(sub.step_values(1).values, &st.step_values(1).values[4..8]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_rejects_out_of_range() {
        let st = store2();
        let _ = st.slice(1, 2);
    }

    #[test]
    #[should_panic(expected = "wrong shape")]
    fn record_step_validates_shape() {
        let mut st = SampleStore::new(vec![vec![0]]);
        st.record_step(2, vec![1]);
    }
}

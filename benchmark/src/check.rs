//! Output checks against the CPU oracle, always outside timed regions.

use nextdoor_core::{run_cpu, SampleStore, SamplingApp};
use nextdoor_graph::{Csr, VertexId};

/// Compares served samples with `run_cpu` on the same `(app, init, seed)`
/// and keeps every mismatch.
pub struct Oracle {
    app: Box<dyn SamplingApp + Send>,
    /// One line per mismatching output.
    pub mismatches: Vec<String>,
}

impl Oracle {
    /// An oracle for `app`.
    pub fn new(app: Box<dyn SamplingApp + Send>) -> Self {
        Oracle {
            app,
            mismatches: Vec::new(),
        }
    }

    /// Checks one served store; `what` names it in a mismatch report.
    pub fn check(
        &mut self,
        what: &str,
        g: &Csr,
        init: &[Vec<VertexId>],
        seed: u64,
        got: &SampleStore,
    ) {
        match run_cpu(g, self.app.as_ref(), init, seed) {
            Ok(want) => {
                if let Some(why) = diff(&want.store, got) {
                    self.mismatches.push(format!("{what}: {why}"));
                }
            }
            Err(e) => self
                .mismatches
                .push(format!("{what}: the oracle failed: {e}")),
        }
    }
}

/// Where two stores differ: final samples, then recorded edges.
pub fn diff(want: &SampleStore, got: &SampleStore) -> Option<String> {
    if want.num_samples() != got.num_samples() {
        return Some(format!(
            "{} samples, oracle has {}",
            got.num_samples(),
            want.num_samples()
        ));
    }
    let (w, g) = (want.final_samples(), got.final_samples());
    if let Some(s) = (0..w.len()).find(|&s| w[s] != g[s]) {
        return Some(format!("sample {s} is {:?}, oracle has {:?}", g[s], w[s]));
    }
    (0..w.len())
        .find(|&s| want.edges_of(s) != got.edges_of(s))
        .map(|s| format!("sample {s} recorded different edges"))
}

/// Non-NULL vertices in the final samples of `store`.
pub fn vertices(store: &SampleStore) -> u64 {
    store.final_samples().iter().map(|s| s.len() as u64).sum()
}

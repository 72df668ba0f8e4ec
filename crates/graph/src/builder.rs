//! Incremental construction of [`Csr`] graphs from edge lists.

use crate::csr::{Csr, VertexId};

/// Errors raised by [`GraphBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// An edge endpoint is `>= num_vertices`.
    VertexOutOfRange {
        /// The offending endpoint.
        vertex: VertexId,
        /// The declared vertex count.
        num_vertices: usize,
    },
    /// A weighted edge was added to a builder that also received unweighted
    /// edges (or vice versa).
    MixedWeightedness,
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => write!(
                f,
                "edge endpoint {vertex} out of range for graph with {num_vertices} vertices"
            ),
            BuildError::MixedWeightedness => {
                write!(f, "cannot mix weighted and unweighted edges")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Builds a [`Csr`] graph from an in-memory edge list.
///
/// Parallel edges are collapsed, self-loops are dropped and adjacency lists
/// are sorted. By default the builder produces a directed graph; enable
/// [`GraphBuilder::undirected`] to insert the reverse of every edge.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    num_vertices: usize,
    edges: Vec<(VertexId, VertexId)>,
    weights: Vec<f32>,
    weighted: Option<bool>,
    undirected: bool,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        Self {
            num_vertices,
            edges: Vec::new(),
            weights: Vec::new(),
            weighted: None,
            undirected: false,
        }
    }

    /// Adds a directed, unweighted edge.
    pub fn edge(mut self, src: VertexId, dst: VertexId) -> Self {
        self.push_edge(src, dst);
        self
    }

    /// Adds a directed, weighted edge.
    pub fn weighted_edge(mut self, src: VertexId, dst: VertexId, w: f32) -> Self {
        self.push_weighted_edge(src, dst, w);
        self
    }

    /// Adds a directed, unweighted edge (non-consuming form, for loops).
    pub fn push_edge(&mut self, src: VertexId, dst: VertexId) {
        self.weighted.get_or_insert(false);
        self.edges.push((src, dst));
    }

    /// Adds a directed, weighted edge (non-consuming form, for loops).
    pub fn push_weighted_edge(&mut self, src: VertexId, dst: VertexId, w: f32) {
        self.weighted.get_or_insert(true);
        self.edges.push((src, dst));
        self.weights.push(w);
    }

    /// Adds every edge in `iter`.
    pub fn edges<I: IntoIterator<Item = (VertexId, VertexId)>>(mut self, iter: I) -> Self {
        for (s, d) in iter {
            self.push_edge(s, d);
        }
        self
    }

    /// When `true`, the reverse of every edge is inserted too.
    pub fn undirected(mut self, yes: bool) -> Self {
        self.undirected = yes;
        self
    }

    /// Finalises the builder into a [`Csr`] graph.
    ///
    /// Runs in `O(V + E log E)`.
    pub fn build(self) -> Result<Csr, BuildError> {
        let weighted = self.weighted.unwrap_or(false);
        if weighted && self.weights.len() != self.edges.len() {
            return Err(BuildError::MixedWeightedness);
        }
        let n = self.num_vertices;
        for &(s, d) in &self.edges {
            for v in [s, d] {
                if v as usize >= n {
                    return Err(BuildError::VertexOutOfRange {
                        vertex: v,
                        num_vertices: n,
                    });
                }
            }
        }

        // Materialise (src, dst, w) triples, adding reverses if undirected.
        let mut triples: Vec<(VertexId, VertexId, f32)> =
            Vec::with_capacity(self.edges.len() * if self.undirected { 2 } else { 1 });
        for (i, &(s, d)) in self.edges.iter().enumerate() {
            if s == d {
                continue;
            }
            let w = if weighted { self.weights[i] } else { 1.0 };
            triples.push((s, d, w));
            if self.undirected {
                triples.push((d, s, w));
            }
        }
        triples.sort_unstable_by_key(|t| (t.0, t.1));
        triples.dedup_by_key(|t| (t.0, t.1));

        let mut offsets = vec![0usize; n + 1];
        for &(s, _, _) in &triples {
            offsets[s as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let cols: Vec<VertexId> = triples.iter().map(|t| t.1).collect();
        let ws = weighted.then(|| triples.iter().map(|t| t.2).collect());
        Ok(Csr::from_parts(offsets, cols, ws))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directed_build() {
        let g = GraphBuilder::new(3)
            .edge(0, 1)
            .edge(0, 2)
            .edge(2, 1)
            .build()
            .unwrap();
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[] as &[VertexId]);
        assert_eq!(g.neighbors(2), &[1]);
    }

    #[test]
    fn undirected_adds_reverse_edges() {
        let g = GraphBuilder::new(3)
            .edge(0, 1)
            .edge(1, 2)
            .undirected(true)
            .build()
            .unwrap();
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[1]);
    }

    #[test]
    fn dedup_collapses_parallel_edges() {
        let g = GraphBuilder::new(2).edge(0, 1).edge(0, 1).build().unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn self_loops_are_dropped() {
        let g = GraphBuilder::new(2).edge(0, 0).edge(0, 1).build().unwrap();
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    fn out_of_range_endpoint_is_an_error() {
        let err = GraphBuilder::new(2).edge(0, 5).build().unwrap_err();
        assert_eq!(
            err,
            BuildError::VertexOutOfRange {
                vertex: 5,
                num_vertices: 2
            }
        );
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn weighted_edges_survive_sorting() {
        let g = GraphBuilder::new(3)
            .weighted_edge(0, 2, 2.5)
            .weighted_edge(0, 1, 1.5)
            .build()
            .unwrap();
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.edge_weight(0, 0), 1.5);
        assert_eq!(g.edge_weight(0, 1), 2.5);
    }

    #[test]
    fn undirected_weighted_mirrors_weight() {
        let g = GraphBuilder::new(2)
            .weighted_edge(0, 1, 3.0)
            .undirected(true)
            .build()
            .unwrap();
        assert_eq!(g.edge_weight(1, 0), 3.0);
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new(4).build().unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 0);
    }
}

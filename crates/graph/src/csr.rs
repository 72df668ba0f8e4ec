//! Compressed-sparse-row graph representation.

/// Identifier of a vertex.
///
/// `u32` comfortably covers the scaled datasets used in this reproduction
/// (the paper's largest graph, com-Friendster, has 65.6M vertices) while
/// halving the memory traffic relative to `u64` — which matters because the
/// GPU simulator charges memory transactions by bytes touched.
pub type VertexId = u32;

/// A directed graph in compressed-sparse-row form, optionally edge-weighted.
///
/// The adjacency of vertex `v` is the slice
/// `col_indices[row_offsets[v] .. row_offsets[v + 1]]`, always sorted in
/// ascending order so that membership queries can binary-search.
///
/// Weights, when present, are parallel to `col_indices`. The paper evaluates
/// on weighted variants of its graphs with weights drawn uniformly from
/// `[1, 5)`; [`Csr::with_random_weights`] reproduces that.
#[derive(Clone, Debug, PartialEq)]
pub struct Csr {
    row_offsets: Vec<usize>,
    col_indices: Vec<VertexId>,
    weights: Option<Vec<f32>>,
    /// Per-vertex maximum edge weight, built with `weights`.
    max_weights: Option<Vec<f32>>,
}

impl Csr {
    /// Assembles a graph from parts already known to be valid, building the
    /// per-vertex maximum-weight table. Every constructor ends here.
    fn assemble(
        row_offsets: Vec<usize>,
        col_indices: Vec<VertexId>,
        weights: Option<Vec<f32>>,
    ) -> Self {
        let max_weights = weights.as_ref().map(|ws| {
            row_offsets
                .windows(2)
                .map(|r| match &ws[r[0]..r[1]] {
                    [] => 1.0,
                    row => row.iter().cloned().fold(f32::MIN, f32::max),
                })
                .collect()
        });
        Self {
            row_offsets,
            col_indices,
            weights,
            max_weights,
        }
    }

    /// Creates a CSR graph from raw parts.
    ///
    /// # Panics
    ///
    /// Panics if the offsets are not monotonically non-decreasing, do not
    /// start at 0, do not end at `col_indices.len()`, if any column index is
    /// out of range, if any adjacency slice is unsorted, or if `weights` is
    /// present with a length different from `col_indices`.
    pub fn from_parts(
        row_offsets: Vec<usize>,
        col_indices: Vec<VertexId>,
        weights: Option<Vec<f32>>,
    ) -> Self {
        assert!(!row_offsets.is_empty(), "row_offsets must have >= 1 entry");
        assert_eq!(row_offsets[0], 0, "row_offsets must start at 0");
        assert_eq!(
            *row_offsets.last().unwrap(),
            col_indices.len(),
            "row_offsets must end at the number of edges"
        );
        assert!(
            row_offsets.windows(2).all(|w| w[0] <= w[1]),
            "row_offsets must be non-decreasing"
        );
        let n = row_offsets.len() - 1;
        for w in row_offsets.windows(2) {
            let adj = &col_indices[w[0]..w[1]];
            assert!(adj.windows(2).all(|p| p[0] <= p[1]), "adjacency unsorted");
        }
        assert!(
            col_indices.iter().all(|&c| (c as usize) < n),
            "column index out of range"
        );
        if let Some(ws) = &weights {
            assert_eq!(ws.len(), col_indices.len(), "weights length mismatch");
        }
        Self::assemble(row_offsets, col_indices, weights)
    }

    /// Creates an empty graph with `n` vertices and no edges.
    pub fn empty(n: usize) -> Self {
        Self::assemble(vec![0; n + 1], Vec::new(), None)
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.row_offsets.len() - 1
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.col_indices.len()
    }

    /// Average out-degree.
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_vertices() as f64
        }
    }

    /// Out-degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.row_offsets[v as usize + 1] - self.row_offsets[v as usize]
    }

    /// Sorted out-neighbour slice of vertex `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.col_indices[self.row_offsets[v as usize]..self.row_offsets[v as usize + 1]]
    }

    /// Byte offset range of `v`'s adjacency within the column-index array.
    ///
    /// The GPU simulator uses this to compute which memory segments a warp
    /// touches when it reads an adjacency list.
    #[inline]
    pub fn adjacency_range(&self, v: VertexId) -> (usize, usize) {
        (
            self.row_offsets[v as usize],
            self.row_offsets[v as usize + 1],
        )
    }

    /// The `i`-th out-neighbour of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.degree(v)`.
    #[inline]
    pub fn neighbor(&self, v: VertexId, i: usize) -> VertexId {
        self.neighbors(v)[i]
    }

    /// Whether the directed edge `(u, v)` exists (binary search).
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Weight of the `i`-th out-edge of `v`, or `1.0` when unweighted.
    #[inline]
    pub fn edge_weight(&self, v: VertexId, i: usize) -> f32 {
        match &self.weights {
            Some(ws) => ws[self.row_offsets[v as usize] + i],
            None => 1.0,
        }
    }

    /// The weight slice parallel to `neighbors(v)`, if the graph is weighted.
    pub fn edge_weights(&self, v: VertexId) -> Option<&[f32]> {
        self.weights
            .as_ref()
            .map(|ws| &ws[self.row_offsets[v as usize]..self.row_offsets[v as usize + 1]])
    }

    /// Maximum weight among `v`'s out-edges, or `1.0` for an unweighted
    /// graph or an isolated vertex.
    ///
    /// Mirrors the `maxEdgeWeight` utility of the paper's `Vertex` class,
    /// used as the rejection bound of weight-biased walks. O(1): it reads a
    /// per-vertex table built with the graph.
    #[inline]
    pub fn max_edge_weight(&self, v: VertexId) -> f32 {
        self.max_weights.as_ref().map_or(1.0, |m| m[v as usize])
    }

    /// Whether the graph carries edge weights.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Raw row-offset array (length `num_vertices() + 1`).
    #[inline]
    pub fn row_offsets(&self) -> &[usize] {
        &self.row_offsets
    }

    /// Raw column-index array (length `num_edges()`).
    #[inline]
    pub fn col_indices(&self) -> &[VertexId] {
        &self.col_indices
    }

    /// Returns a copy of this graph with weights drawn uniformly from
    /// `[lo, hi)`, keyed deterministically by `seed` and edge position.
    ///
    /// The paper generates weighted versions of its graphs with weights in
    /// `[1, 5)`.
    pub fn with_random_weights(&self, lo: f32, hi: f32, seed: u64) -> Self {
        let ws = (0..self.num_edges())
            .map(|i| {
                let h = splitmix64(seed ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15));
                lo + (h >> 40) as f32 / (1u64 << 24) as f32 * (hi - lo)
            })
            .collect();
        Self::assemble(self.row_offsets.clone(), self.col_indices.clone(), Some(ws))
    }

    /// Approximate resident size of the graph in bytes: the CSR arrays and
    /// the maximum-weight table.
    pub fn size_bytes(&self) -> usize {
        let floats = |w: &Option<Vec<f32>>| w.as_ref().map_or(0, |w| w.len());
        self.row_offsets.len() * std::mem::size_of::<usize>()
            + self.col_indices.len() * std::mem::size_of::<VertexId>()
            + (floats(&self.weights) + floats(&self.max_weights)) * std::mem::size_of::<f32>()
    }

    /// Returns a copy of this graph in the **same vertex-id space** that
    /// keeps only the adjacency rows for which `keep[v]` is true; every
    /// other row is empty.
    ///
    /// Kept rows are copied verbatim — neighbours, order and weights — so
    /// any read against a kept row (degree, neighbours, weights,
    /// [`Csr::max_edge_weight`]) is bit-identical to the same read against
    /// the full graph. This is the sharded engine's per-device graph: shard
    /// `s` holds the rows of the vertices it owns, column indices still
    /// refer to global vertex ids (a row may point at vertices another
    /// shard owns — that is exactly a walker hand-off), and the id space is
    /// unchanged so no remapping ever touches a sampled value.
    ///
    /// # Panics
    ///
    /// Panics if `keep.len() != self.num_vertices()`.
    pub fn row_masked(&self, keep: &[bool]) -> Csr {
        assert_eq!(
            keep.len(),
            self.num_vertices(),
            "row mask must cover every vertex"
        );
        let mut offsets = Vec::with_capacity(self.row_offsets.len());
        offsets.push(0usize);
        let mut cols = Vec::new();
        let mut ws = self.weights.as_ref().map(|_| Vec::new());
        for (v, &kept) in keep.iter().enumerate() {
            if kept {
                let (lo, hi) = (self.row_offsets[v], self.row_offsets[v + 1]);
                cols.extend_from_slice(&self.col_indices[lo..hi]);
                if let (Some(out), Some(all)) = (ws.as_mut(), self.weights.as_ref()) {
                    out.extend_from_slice(&all[lo..hi]);
                }
            }
            offsets.push(cols.len());
        }
        Self::assemble(offsets, cols, ws)
    }
}

/// SplitMix64 finaliser, used for deterministic weight generation.
#[inline]
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Csr {
        // 0 -> {1, 2}, 1 -> {3}, 2 -> {3}, 3 -> {}
        Csr::from_parts(vec![0, 2, 3, 4, 4], vec![1, 2, 3, 3], None)
    }

    #[test]
    fn basic_accessors() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(3), 0);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbor(1, 0), 3);
        assert!((g.avg_degree() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn has_edge_uses_sorted_adjacency() {
        let g = diamond();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(0, 2));
        assert!(!g.has_edge(0, 3));
        assert!(!g.has_edge(3, 0));
    }

    #[test]
    fn unweighted_weight_queries_default_to_one() {
        let g = diamond();
        assert!(!g.is_weighted());
        assert_eq!(g.edge_weight(0, 1), 1.0);
        assert_eq!(g.max_edge_weight(0), 1.0);
        assert_eq!(g.max_edge_weight(3), 1.0);
    }

    #[test]
    fn random_weights_in_range_and_deterministic() {
        let g = diamond().with_random_weights(1.0, 5.0, 42);
        assert!(g.is_weighted());
        for v in 0..4u32 {
            for i in 0..g.degree(v) {
                let w = g.edge_weight(v, i);
                assert!((1.0..5.0).contains(&w), "weight {w} out of range");
            }
        }
        let g2 = diamond().with_random_weights(1.0, 5.0, 42);
        for v in 0..4u32 {
            assert_eq!(g.edge_weights(v), g2.edge_weights(v));
        }
        let g3 = diamond().with_random_weights(1.0, 5.0, 43);
        assert_ne!(
            g.edge_weights(0).unwrap(),
            g3.edge_weights(0).unwrap(),
            "different seeds should give different weights"
        );
    }

    #[test]
    fn max_weight_reads_the_row_maximum() {
        let g = Csr::from_parts(vec![0, 3], vec![0, 0, 0], Some(vec![2.0, 5.0, 3.0]));
        assert_eq!(g.max_edge_weight(0), 5.0);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::empty(3);
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.neighbors(0), &[] as &[VertexId]);
    }

    #[test]
    fn size_bytes_counts_all_arrays() {
        let g = diamond();
        let base = g.size_bytes();
        let gw = g.with_random_weights(1.0, 5.0, 1);
        // 4 edge weights plus the 4-vertex maximum-weight table.
        assert_eq!(gw.size_bytes(), base + (4 + 4) * std::mem::size_of::<f32>());
    }

    #[test]
    fn row_masked_keeps_rows_verbatim() {
        let g = diamond().with_random_weights(1.0, 5.0, 9);
        let sub = g.row_masked(&[true, false, true, false]);
        assert_eq!(sub.num_vertices(), 4);
        assert_eq!(sub.neighbors(0), g.neighbors(0));
        assert_eq!(sub.edge_weights(0), g.edge_weights(0));
        assert_eq!(sub.neighbors(1), &[] as &[VertexId]);
        assert_eq!(sub.neighbors(2), g.neighbors(2));
        assert_eq!(sub.max_edge_weight(2), g.max_edge_weight(2));
        assert_eq!(sub.num_edges(), g.degree(0) + g.degree(2));
        let unweighted = diamond().row_masked(&[false, true, false, true]);
        assert!(!unweighted.is_weighted());
        assert_eq!(unweighted.neighbors(1), &[3]);
    }

    #[test]
    #[should_panic(expected = "row mask must cover every vertex")]
    fn row_masked_rejects_short_mask() {
        let _ = diamond().row_masked(&[true, false]);
    }

    #[test]
    #[should_panic(expected = "row_offsets must start at 0")]
    fn from_parts_rejects_bad_start() {
        let _ = Csr::from_parts(vec![1, 2], vec![0, 0], None);
    }

    #[test]
    #[should_panic(expected = "adjacency unsorted")]
    fn from_parts_rejects_unsorted_rows() {
        let _ = Csr::from_parts(vec![0, 2], vec![1, 0], None);
    }

    #[test]
    #[should_panic(expected = "column index out of range")]
    fn from_parts_rejects_out_of_range() {
        let _ = Csr::from_parts(vec![0, 1], vec![5], None);
    }
}

//! Vertex clustering for ClusterGCN-style sampling and shard placement.
//!
//! The paper's ClusterGCN experiment "randomly assigned vertices in
//! clusters"; [`cluster_vertices`] reproduces exactly that with a
//! deterministic hash partition. The sharded serving tier reuses the same
//! partition as its placement rule (shard `s` owns cluster `s`'s
//! vertices), so [`Clustering`] also reports the partition-quality
//! statistics ([`PartitionStats`]) the placement decision is judged by.

use crate::csr::{splitmix64, Csr, VertexId};

/// Why a clustering request was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// Zero clusters were requested; a partition needs at least one part.
    NoClusters,
    /// More clusters than vertices: some clusters would necessarily be
    /// empty, which downstream placement cannot use.
    TooManyClusters {
        /// Clusters requested.
        requested: usize,
        /// Vertices available to partition.
        vertices: usize,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::NoClusters => write!(f, "need at least one cluster"),
            ClusterError::TooManyClusters {
                requested,
                vertices,
            } => write!(f, "more clusters ({requested}) than vertices ({vertices})"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Partition-quality statistics of a [`Clustering`] over a graph.
///
/// The sharded serving tier's placement rule reads these: the edge-cut
/// fraction bounds how often a walker crosses a shard boundary per step
/// (each cut edge is a potential hand-off), and the balance factor bounds
/// how far the heaviest shard's load exceeds the ideal even split.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionStats {
    /// Directed edges whose endpoints lie in different clusters.
    pub cut_edges: usize,
    /// All directed edges of the graph.
    pub total_edges: usize,
    /// `cut_edges / total_edges` (0 for an edgeless graph).
    pub edge_cut_fraction: f64,
    /// Largest cluster size divided by the ideal `|V| / k` (>= 1; exactly 1
    /// for a perfectly even split).
    pub balance: f64,
}

/// A partition of a graph's vertices into disjoint, non-empty clusters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clustering {
    assignment: Vec<u32>,
    members: Vec<Vec<VertexId>>,
}

impl Clustering {
    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.members.len()
    }

    /// Cluster id of vertex `v`.
    pub fn cluster_of(&self, v: VertexId) -> u32 {
        self.assignment[v as usize]
    }

    /// Sorted member list of cluster `c`.
    pub fn members(&self, c: u32) -> &[VertexId] {
        &self.members[c as usize]
    }

    /// Computes the partition-quality statistics of this clustering over
    /// `g` (which must be the graph it was built from, or one with the
    /// same vertex count).
    ///
    /// # Panics
    ///
    /// Panics if `g` has more vertices than the clustering assigns.
    pub fn partition_stats(&self, g: &Csr) -> PartitionStats {
        let n = g.num_vertices();
        assert!(
            n <= self.assignment.len(),
            "graph has {n} vertices but the clustering assigns only {}",
            self.assignment.len()
        );
        let mut cut_edges = 0usize;
        for v in 0..n as VertexId {
            let cv = self.assignment[v as usize];
            for &u in g.neighbors(v) {
                if self.assignment[u as usize] != cv {
                    cut_edges += 1;
                }
            }
        }
        let total_edges = g.num_edges();
        let edge_cut_fraction = if total_edges == 0 {
            0.0
        } else {
            cut_edges as f64 / total_edges as f64
        };
        let largest = self.members.iter().map(Vec::len).max().unwrap_or(0);
        let ideal = self.assignment.len() as f64 / self.members.len().max(1) as f64;
        let balance = if ideal > 0.0 {
            largest as f64 / ideal
        } else {
            1.0
        };
        PartitionStats {
            cut_edges,
            total_edges,
            edge_cut_fraction,
            balance,
        }
    }
}

/// Randomly (but deterministically, keyed by `seed`) partitions the vertices
/// of `g` into `num_clusters` non-empty clusters.
///
/// # Errors
///
/// [`ClusterError::NoClusters`] when `num_clusters` is zero and
/// [`ClusterError::TooManyClusters`] when it exceeds the vertex count
/// (including the empty-graph case) — both degenerate partitions used to be
/// asserted or produced silently-unbalanced clusters.
pub fn cluster_vertices(
    g: &Csr,
    num_clusters: usize,
    seed: u64,
) -> Result<Clustering, ClusterError> {
    let n = g.num_vertices();
    if num_clusters == 0 {
        return Err(ClusterError::NoClusters);
    }
    if num_clusters > n {
        return Err(ClusterError::TooManyClusters {
            requested: num_clusters,
            vertices: n,
        });
    }
    let mut assignment = vec![0u32; n];
    let mut members = vec![Vec::new(); num_clusters];
    for (v, slot) in assignment.iter_mut().enumerate() {
        let c = (splitmix64(seed ^ (v as u64).wrapping_mul(0xA24BAED4963EE407)) as usize
            % num_clusters) as u32;
        *slot = c;
        members[c as usize].push(v as VertexId);
    }
    // Guarantee non-empty clusters: steal one vertex for each empty cluster
    // from the largest cluster. This keeps downstream code panic-free on
    // tiny graphs.
    for c in 0..num_clusters {
        if members[c].is_empty() {
            let donor = (0..num_clusters)
                .max_by_key(|&d| members[d].len())
                .expect("num_clusters > 0");
            let v = members[donor].pop().expect("donor has >1 member");
            assignment[v as usize] = c as u32;
            members[c].push(v);
        }
    }
    for m in &mut members {
        m.sort_unstable();
    }
    Ok(Clustering {
        assignment,
        members,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::ring_lattice;

    #[test]
    fn partition_is_total_and_disjoint() {
        let g = ring_lattice(200, 2, 0);
        let c = cluster_vertices(&g, 8, 42).unwrap();
        assert_eq!(c.num_clusters(), 8);
        let mut seen = [false; 200];
        for cl in 0..8u32 {
            for &v in c.members(cl) {
                assert!(!seen[v as usize], "vertex {v} in two clusters");
                seen[v as usize] = true;
                assert_eq!(c.cluster_of(v), cl);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn deterministic_given_seed() {
        let g = ring_lattice(100, 2, 0);
        assert_eq!(
            cluster_vertices(&g, 5, 1).unwrap(),
            cluster_vertices(&g, 5, 1).unwrap()
        );
        assert_ne!(
            cluster_vertices(&g, 5, 1).unwrap(),
            cluster_vertices(&g, 5, 2).unwrap()
        );
    }

    #[test]
    fn clusters_never_empty() {
        let g = ring_lattice(10, 1, 0);
        let c = cluster_vertices(&g, 10, 0).unwrap();
        for cl in 0..10u32 {
            assert!(!c.members(cl).is_empty());
        }
    }

    #[test]
    fn roughly_balanced() {
        let g = ring_lattice(10_000, 2, 0);
        let c = cluster_vertices(&g, 10, 7).unwrap();
        for cl in 0..10u32 {
            let frac = c.members(cl).len() as f64 / 10_000.0;
            assert!(
                (0.05..0.2).contains(&frac),
                "cluster {cl} has fraction {frac}"
            );
        }
        let stats = c.partition_stats(&g);
        assert!(stats.balance >= 1.0 && stats.balance < 2.0);
    }

    #[test]
    fn degenerate_partitions_are_typed_errors() {
        let g = ring_lattice(10, 1, 0);
        assert_eq!(cluster_vertices(&g, 0, 0), Err(ClusterError::NoClusters));
        assert_eq!(
            cluster_vertices(&g, 11, 0),
            Err(ClusterError::TooManyClusters {
                requested: 11,
                vertices: 10
            })
        );
        let e = cluster_vertices(&g, 11, 0).unwrap_err();
        assert!(e.to_string().contains("more clusters (11)"));
        assert!(ClusterError::NoClusters
            .to_string()
            .contains("at least one"));
    }

    #[test]
    fn empty_graph_cannot_be_clustered() {
        let g = Csr::empty(0);
        assert_eq!(
            cluster_vertices(&g, 1, 0),
            Err(ClusterError::TooManyClusters {
                requested: 1,
                vertices: 0
            })
        );
    }

    #[test]
    fn partition_stats_count_cut_edges() {
        // Path 0-1-2-3 (undirected ring lattice k=1 is a ring; build by hand).
        // 0 -> {1}, 1 -> {0, 2}, 2 -> {1, 3}, 3 -> {2}
        let g = Csr::from_parts(vec![0, 1, 3, 5, 6], vec![1, 0, 2, 1, 3, 2], None);
        let c = cluster_vertices(&g, 2, 3).unwrap();
        let stats = c.partition_stats(&g);
        assert_eq!(stats.total_edges, 6);
        // Directed cut edges come in pairs on an undirected graph.
        assert_eq!(stats.cut_edges % 2, 0);
        assert!((0.0..=1.0).contains(&stats.edge_cut_fraction));
        let single = cluster_vertices(&g, 1, 0).unwrap();
        let s1 = single.partition_stats(&g);
        assert_eq!(s1.cut_edges, 0);
        assert_eq!(s1.edge_cut_fraction, 0.0);
        assert_eq!(s1.balance, 1.0);
    }
}

//! Degree statistics, used by tests, load-balancing heuristics and benches.

use crate::csr::{Csr, VertexId};

/// Summary statistics of a graph's out-degree distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    /// Minimum out-degree.
    pub min: usize,
    /// Maximum out-degree.
    pub max: usize,
    /// Mean out-degree.
    pub mean: f64,
    /// Standard deviation of the out-degree.
    pub std_dev: f64,
    /// Median out-degree.
    pub median: usize,
    /// 99th-percentile out-degree.
    pub p99: usize,
}

impl DegreeStats {
    /// Computes the statistics for `g`.
    ///
    /// # Panics
    ///
    /// Panics on a graph with zero vertices.
    pub fn of(g: &Csr) -> DegreeStats {
        let n = g.num_vertices();
        assert!(n > 0, "degree stats of empty graph");
        let mut degs: Vec<usize> = (0..n as VertexId).map(|v| g.degree(v)).collect();
        degs.sort_unstable();
        let mean = degs.iter().sum::<usize>() as f64 / n as f64;
        let var = degs
            .iter()
            .map(|&d| {
                let x = d as f64 - mean;
                x * x
            })
            .sum::<f64>()
            / n as f64;
        DegreeStats {
            min: degs[0],
            max: degs[n - 1],
            mean,
            std_dev: var.sqrt(),
            median: degs[n / 2],
            p99: degs[((n - 1) as f64 * 0.99) as usize],
        }
    }

    /// Coefficient of variation (`std_dev / mean`); a quick skew measure.
    pub fn skew(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std_dev / self.mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::gen::ring_lattice;

    #[test]
    fn stats_of_regular_graph() {
        let g = ring_lattice(64, 2, 0);
        let s = DegreeStats::of(&g);
        assert_eq!(s.min, 4);
        assert_eq!(s.max, 4);
        assert_eq!(s.median, 4);
        assert_eq!(s.p99, 4);
        assert!((s.mean - 4.0).abs() < 1e-12);
        assert!(s.std_dev < 1e-12);
        assert_eq!(s.skew(), 0.0);
    }

    #[test]
    fn stats_of_star_graph() {
        let mut b = GraphBuilder::new(11).undirected(true);
        for i in 1..11 {
            b.push_edge(0, i);
        }
        let g = b.build().unwrap();
        let s = DegreeStats::of(&g);
        assert_eq!(s.max, 10);
        assert_eq!(s.min, 1);
        assert!(s.skew() > 1.0);
    }

    #[test]
    #[should_panic(expected = "empty graph")]
    fn stats_reject_empty() {
        let _ = DegreeStats::of(&Csr::empty(0));
    }
}

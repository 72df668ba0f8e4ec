//! Plain-text edge-list I/O in the SNAP style.
//!
//! The SNAP datasets used by the paper ship as whitespace-separated
//! `src dst [weight]` lines with `#` comments. This module parses and writes
//! that format so that users with the real datasets can load them directly.

use crate::builder::{BuildError, GraphBuilder};
use crate::csr::{Csr, VertexId};

/// Errors raised while reading or parsing an edge list.
#[derive(Debug, Clone, PartialEq)]
pub enum IoError {
    /// The file could not be read at all.
    Read {
        /// The path that failed.
        path: String,
        /// The underlying OS error, rendered.
        message: String,
    },
    /// A line did not have 2 (or 3, when weighted) whitespace-separated fields.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// The offending content.
        content: String,
    },
    /// A field failed to parse as an integer or float.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// The offending field.
        field: String,
    },
    /// A vertex id is `VertexId::MAX`, which the sampling engines reserve
    /// as their "no vertex" marker.
    ReservedVertex {
        /// 1-based line number.
        line: usize,
    },
    /// A weight is NaN, infinite or negative.
    BadWeight {
        /// 1-based line number.
        line: usize,
        /// The offending field.
        field: String,
    },
    /// The resulting edge list failed CSR construction.
    Build(BuildError),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Read { path, message } => {
                write!(f, "reading {path:?} failed: {message}")
            }
            IoError::Malformed { line, content } => {
                write!(f, "line {line}: malformed edge line {content:?}")
            }
            IoError::BadNumber { line, field } => {
                write!(f, "line {line}: cannot parse number {field:?}")
            }
            IoError::ReservedVertex { line } => write!(
                f,
                "line {line}: vertex id {} is reserved as the no-vertex marker",
                VertexId::MAX
            ),
            IoError::BadWeight { line, field } => {
                write!(
                    f,
                    "line {line}: weight {field:?} is not a finite non-negative number"
                )
            }
            IoError::Build(e) => write!(f, "building CSR failed: {e}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<BuildError> for IoError {
    fn from(e: BuildError) -> Self {
        IoError::Build(e)
    }
}

/// Parses a SNAP-style edge list into a CSR graph.
///
/// Lines starting with `#` or `%` and blank lines are skipped. Vertex ids
/// are used as-is; the vertex count is `max id + 1` unless a larger
/// `min_vertices` is given, so one large id allocates offsets for every
/// smaller one (id 2^31 costs gigabytes) by the format's design. A third
/// column, when present on *every* edge line, is read as the edge weight.
///
/// # Errors
///
/// [`IoError::Malformed`] for a line without 2 or 3 fields,
/// [`IoError::BadNumber`] for a field that is not a number,
/// [`IoError::ReservedVertex`] for the id `VertexId::MAX` (the engines'
/// "no vertex" marker), [`IoError::BadWeight`] for a NaN, infinite or
/// negative weight, and [`IoError::Build`] if CSR construction fails.
///
/// # Examples
///
/// ```
/// let g = nextdoor_graph::parse_edge_list("# comment\n0 1\n1 2\n", false, 0).unwrap();
/// assert_eq!(g.num_edges(), 2);
/// ```
pub fn parse_edge_list(text: &str, undirected: bool, min_vertices: usize) -> Result<Csr, IoError> {
    let mut edges: Vec<(VertexId, VertexId, Option<f32>)> = Vec::new();
    let mut max_v: usize = 0;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 2 && fields.len() != 3 {
            return Err(IoError::Malformed {
                line: line_no,
                content: line.to_string(),
            });
        }
        let bad_number = |field: &str| IoError::BadNumber {
            line: line_no,
            field: field.to_string(),
        };
        let parse_id = |s: &str| match s.parse::<VertexId>() {
            Ok(VertexId::MAX) => Err(IoError::ReservedVertex { line: line_no }),
            Ok(v) => Ok(v),
            Err(_) => Err(bad_number(s)),
        };
        let s = parse_id(fields[0])?;
        let d = parse_id(fields[1])?;
        let w = match fields.get(2) {
            Some(field) => match field.parse::<f32>() {
                Ok(w) if w.is_finite() && w >= 0.0 => Some(w),
                Ok(_) => {
                    return Err(IoError::BadWeight {
                        line: line_no,
                        field: field.to_string(),
                    })
                }
                Err(_) => return Err(bad_number(field)),
            },
            None => None,
        };
        max_v = max_v.max(s as usize).max(d as usize);
        edges.push((s, d, w));
    }
    let n = if edges.is_empty() {
        min_vertices
    } else {
        (max_v + 1).max(min_vertices)
    };
    let all_weighted = !edges.is_empty() && edges.iter().all(|e| e.2.is_some());
    let mut b = GraphBuilder::new(n).undirected(undirected);
    for (s, d, w) in edges {
        if all_weighted {
            // `all_weighted` guarantees the weight is present; the fallback
            // keeps this arm panic-free regardless.
            b.push_weighted_edge(s, d, w.unwrap_or(1.0));
        } else {
            b.push_edge(s, d);
        }
    }
    Ok(b.build()?)
}

/// Reads and parses a SNAP-style edge-list file.
///
/// A file that cannot be opened yields [`IoError::Read`]; a malformed line
/// yields the same line-numbered errors as [`parse_edge_list`], so callers
/// can report exactly where a downloaded dataset is broken instead of
/// panicking mid-load.
///
/// # Errors
///
/// Returns [`IoError`] on any read or parse failure.
pub fn load_edge_list(
    path: impl AsRef<std::path::Path>,
    undirected: bool,
    min_vertices: usize,
) -> Result<Csr, IoError> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path).map_err(|e| IoError::Read {
        path: path.display().to_string(),
        message: e.to_string(),
    })?;
    parse_edge_list(&text, undirected, min_vertices)
}

/// Serialises a graph as a SNAP-style edge list (one `src dst [w]` per line).
pub fn write_edge_list(g: &Csr) -> String {
    let mut out = String::new();
    out.push_str("# nextdoor-graph edge list\n");
    for v in 0..g.num_vertices() as VertexId {
        for (i, &u) in g.neighbors(v).iter().enumerate() {
            if g.is_weighted() {
                out.push_str(&format!("{v} {u} {}\n", g.edge_weight(v, i)));
            } else {
                out.push_str(&format!("{v} {u}\n"));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_comments_and_blanks() {
        let g = parse_edge_list("# hi\n\n% also a comment\n0 1\n2 0\n", false, 0).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    fn undirected_parse() {
        let g = parse_edge_list("0 1\n", true, 0).unwrap();
        assert_eq!(g.neighbors(1), &[0]);
    }

    #[test]
    fn min_vertices_pads_isolated_tail() {
        let g = parse_edge_list("0 1\n", false, 10).unwrap();
        assert_eq!(g.num_vertices(), 10);
    }

    #[test]
    fn weighted_parse() {
        let g = parse_edge_list("0 1 2.5\n1 0 1.5\n", false, 0).unwrap();
        assert!(g.is_weighted());
        assert_eq!(g.edge_weight(0, 0), 2.5);
    }

    #[test]
    fn mixed_weight_columns_fall_back_to_unweighted() {
        let g = parse_edge_list("0 1 2.5\n1 0\n", false, 0).unwrap();
        assert!(!g.is_weighted());
    }

    #[test]
    fn malformed_line_reports_position() {
        let err = parse_edge_list("0 1\n0 1 2 3\n", false, 0).unwrap_err();
        match err {
            IoError::Malformed { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn bad_number_reports_field() {
        let err = parse_edge_list("0 x\n", false, 0).unwrap_err();
        match &err {
            IoError::BadNumber { line, field } => {
                assert_eq!(*line, 1);
                assert_eq!(field, "x");
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert!(err.to_string().contains("cannot parse"));
    }

    #[test]
    fn round_trip() {
        let g = parse_edge_list("0 1\n1 2\n2 0\n", false, 0).unwrap();
        let text = write_edge_list(&g);
        let g2 = parse_edge_list(&text, false, 0).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn weighted_round_trip() {
        let g = parse_edge_list("0 1 1.5\n1 0 2.25\n", false, 0).unwrap();
        let g2 = parse_edge_list(&write_edge_list(&g), false, 0).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn load_reads_and_parses_files() {
        let dir = std::env::temp_dir();
        let path = dir.join("nextdoor_io_test_ok.txt");
        std::fs::write(&path, "# snap header\n0 1\n1 2\n").unwrap();
        let g = load_edge_list(&path, false, 0).unwrap();
        assert_eq!(g.num_edges(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_a_read_error() {
        let err = load_edge_list("/nonexistent/nextdoor.txt", false, 0).unwrap_err();
        match &err {
            IoError::Read { path, .. } => assert!(path.contains("nextdoor.txt")),
            other => panic!("unexpected error {other:?}"),
        }
        assert!(err.to_string().contains("failed"));
    }

    #[test]
    fn malformed_file_reports_line_number() {
        let dir = std::env::temp_dir();
        let path = dir.join("nextdoor_io_test_bad.txt");
        std::fs::write(&path, "0 1\nnot an edge at all\n").unwrap();
        let err = load_edge_list(&path, false, 0).unwrap_err();
        assert_eq!(
            err,
            IoError::Malformed {
                line: 2,
                content: "not an edge at all".to_string()
            }
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_input_yields_empty_graph() {
        let g = parse_edge_list("# nothing\n", false, 0).unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }
}

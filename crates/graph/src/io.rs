//! Graph readers and writers: METIS and plain edge lists.
//!
//! The paper's instances come from the 10th DIMACS Implementation Challenge
//! and the Laboratory for Web Algorithmics, which distribute METIS-format
//! files; the harness reads/writes the same format so externally obtained
//! instances drop in directly.

use std::fmt::Write as _;
use std::io::{BufRead, Write};
use std::num::ParseIntError;
use std::time::Instant;

use crate::{CsrGraph, EdgeWeight, GraphBuilder, NodeId};

/// Closes out an ingest span (`ingest/parse`, `ingest/mmap`) and feeds
/// the shared `ingest.bytes` / `ingest.micros` metrics, so every path a
/// graph takes into memory is measurable with one pair of series.
pub(crate) fn record_ingest(span: &mut mincut_obs::SpanGuard, bytes: u64, start: Instant) {
    span.arg("bytes", bytes);
    let metrics = mincut_obs::metrics();
    metrics.counter("ingest.bytes").add(bytes);
    metrics
        .histogram("ingest.micros")
        .record(start.elapsed().as_micros() as u64);
}

/// Errors produced by the graph parsers.
#[derive(Debug)]
pub enum GraphIoError {
    Io(std::io::Error),
    /// Malformed content, with a 1-based line number and message.
    Parse {
        line: usize,
        message: String,
    },
}

impl std::fmt::Display for GraphIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphIoError::Io(e) => write!(f, "I/O error: {e}"),
            GraphIoError::Parse { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl std::error::Error for GraphIoError {}

impl From<std::io::Error> for GraphIoError {
    fn from(e: std::io::Error) -> Self {
        GraphIoError::Io(e)
    }
}

fn parse_err(line: usize, message: impl Into<String>) -> GraphIoError {
    GraphIoError::Parse {
        line,
        message: message.into(),
    }
}

fn int_err(line: usize, e: ParseIntError) -> GraphIoError {
    parse_err(line, format!("invalid integer: {e}"))
}

/// Parses an unsigned token, reporting negative values explicitly —
/// "invalid digit" is a baffling message for `-3` in a weight column.
fn parse_unsigned(line: usize, token: &str, what: &str) -> Result<u64, GraphIoError> {
    if token.starts_with('-') {
        return Err(parse_err(
            line,
            format!("negative {what} {token} not allowed"),
        ));
    }
    token.parse().map_err(|e| int_err(line, e))
}

/// Adds one edge record's weight to the running total edge weight W
/// (each undirected edge counted once) and rejects the record that takes
/// W past `EdgeWeight::MAX / 2`. Under that bound every weighted degree,
/// every cut value and the arc sum 2W fit in an [`EdgeWeight`]; past it
/// the solvers' sums would wrap and report a wrong λ.
fn add_to_total(total: &mut EdgeWeight, w: EdgeWeight, line: usize) -> Result<(), GraphIoError> {
    match total.checked_add(w) {
        Some(t) if t <= EdgeWeight::MAX / 2 => {
            *total = t;
            Ok(())
        }
        _ => Err(parse_err(
            line,
            format!(
                "total edge weight exceeds {} (EdgeWeight::MAX / 2)",
                EdgeWeight::MAX / 2
            ),
        )),
    }
}

/// Reads a METIS graph file.
///
/// Header `n m [fmt]`; `fmt` ∈ {absent, 0, 1, 00, 01, …, 011}: only the
/// edge-weight flag (last digit) and vertex-weight flag (middle digit) are
/// supported, vertex weights are skipped. Vertex ids are 1-based; `%` lines
/// are comments. Self-loops and negative values are parse errors — the
/// solvers assume loop-free graphs, and silently dropping bad records
/// would let corrupt instances through a serving pipeline unnoticed. So
/// is a total edge weight above `EdgeWeight::MAX / 2` (each undirected
/// edge counted once), the bound [`CsrGraph::from_edges`] documents.
/// Every edge must appear in both endpoints' lists with the same total
/// weight (parallel entries merge); a one-way entry or a weight mismatch
/// is a parse error naming the edge.
pub fn read_metis<R: BufRead>(reader: R) -> Result<CsrGraph, GraphIoError> {
    let start = Instant::now();
    let mut span = mincut_obs::span("ingest/parse");
    span.arg("format", "metis");
    let mut bytes = 0u64;
    let mut lines = reader.lines().enumerate();
    // Header.
    let (header_no, header) = loop {
        match lines.next() {
            None => return Err(parse_err(0, "missing header")),
            Some((no, line)) => {
                let line = line?;
                bytes += line.len() as u64 + 1;
                let t = line.trim();
                if !t.is_empty() && !t.starts_with('%') {
                    break (no + 1, t.to_string());
                }
            }
        }
    };
    let mut parts = header.split_whitespace();
    let n = parts
        .next()
        .ok_or_else(|| parse_err(header_no, "missing vertex count"))
        .and_then(|t| parse_unsigned(header_no, t, "vertex count"))?;
    if n > u32::MAX as u64 {
        return Err(parse_err(header_no, "vertex count exceeds u32"));
    }
    let n = n as usize;
    let m = parts
        .next()
        .ok_or_else(|| parse_err(header_no, "missing edge count"))
        .and_then(|t| parse_unsigned(header_no, t, "edge count"))?
        .min(usize::MAX as u64) as usize;
    let fmt = parts.next().unwrap_or("0");
    let has_edge_weights = fmt.ends_with('1');
    let has_vertex_weights = fmt.len() >= 2 && fmt.as_bytes()[fmt.len() - 2] == b'1';
    if fmt.len() >= 3 && fmt.as_bytes()[fmt.len() - 3] == b'1' {
        return Err(parse_err(header_no, "vertex sizes not supported"));
    }

    // Every undirected edge appears twice: `b` builds the graph from the
    // copy in the lower endpoint's list, `mirror` collects the other copy
    // to check against it.
    let mut b = GraphBuilder::with_capacity(n, m);
    let mut mirror = GraphBuilder::with_capacity(n, m);
    let (mut total, mut mirror_total): (EdgeWeight, EdgeWeight) = (0, 0);
    let mut vertex = 0usize;
    for (no, line) in lines {
        let line = line?;
        bytes += line.len() as u64 + 1;
        let t = line.trim();
        if t.starts_with('%') {
            continue;
        }
        if vertex >= n {
            if t.is_empty() {
                continue;
            }
            return Err(parse_err(no + 1, "more vertex lines than vertices"));
        }
        let mut tok = t.split_whitespace();
        if has_vertex_weights {
            let _ = tok
                .next()
                .ok_or_else(|| parse_err(no + 1, "missing vertex weight"))?;
        }
        while let Some(nb) = tok.next() {
            let nb = parse_unsigned(no + 1, nb, "vertex id")?;
            // Range-check as u64 before narrowing: on 32-bit targets an
            // `as usize` cast first would silently truncate huge ids.
            if nb == 0 || nb > n as u64 {
                return Err(parse_err(
                    no + 1,
                    format!("neighbour {nb} out of range 1..={n}"),
                ));
            }
            let nb = nb as usize;
            if nb - 1 == vertex {
                return Err(parse_err(
                    no + 1,
                    format!("self-loop on vertex {nb} not allowed"),
                ));
            }
            let w: EdgeWeight = if has_edge_weights {
                let t = tok
                    .next()
                    .ok_or_else(|| parse_err(no + 1, "missing edge weight"))?;
                parse_unsigned(no + 1, t, "edge weight")?
            } else {
                1
            };
            let (copy, sum) = if vertex < nb - 1 {
                (&mut b, &mut total)
            } else {
                (&mut mirror, &mut mirror_total)
            };
            add_to_total(sum, w, no + 1)?;
            copy.add_edge(vertex as NodeId, (nb - 1) as NodeId, w);
        }
        vertex += 1;
    }
    if vertex != n {
        return Err(parse_err(
            0,
            format!("expected {n} vertex lines, got {vertex}"),
        ));
    }
    let (edges, mirrored) = (b.into_merged_edges(), mirror.into_merged_edges());
    if edges != mirrored {
        // Both lists agree before index `k`, so the smaller key at `k`
        // is the first edge whose two copies differ.
        let k = edges
            .iter()
            .zip(&mirrored)
            .take_while(|(a, b)| a == b)
            .count();
        let (lo, up) = (edges.get(k), mirrored.get(k));
        let &(u, v, _) = lo
            .into_iter()
            .chain(up)
            .min_by_key(|e| (e.0, e.1))
            .expect("unequal lists have an entry at their first difference");
        let w = |e: Option<&(NodeId, NodeId, EdgeWeight)>| {
            e.filter(|e| (e.0, e.1) == (u, v)).map_or(0, |e| e.2)
        };
        let (u, v) = (u + 1, v + 1);
        return Err(parse_err(
            0,
            format!(
                "edge {u}-{v} has total weight {} in vertex {u}'s list but {} in vertex {v}'s",
                w(lo),
                w(up)
            ),
        ));
    }
    let g = CsrGraph::from_sorted_dedup_edges(n, &edges);
    if g.m() != m {
        return Err(parse_err(
            0,
            format!(
                "header says {m} edges but adjacency lists contain {}",
                g.m()
            ),
        ));
    }
    record_ingest(&mut span, bytes, start);
    Ok(g)
}

/// Writes METIS format (fmt `001` iff any weight differs from 1).
pub fn write_metis<W: Write>(g: &CsrGraph, mut writer: W) -> std::io::Result<()> {
    let weighted = (0..g.n() as NodeId).any(|v| g.neighbor_weights(v).iter().any(|&w| w != 1));
    if weighted {
        writeln!(writer, "{} {} 001", g.n(), g.m())?;
    } else {
        writeln!(writer, "{} {}", g.n(), g.m())?;
    }
    let mut line = String::new();
    for v in 0..g.n() as NodeId {
        line.clear();
        for (u, w) in g.arcs(v) {
            if !line.is_empty() {
                line.push(' ');
            }
            if weighted {
                let _ = write!(line, "{} {}", u + 1, w);
            } else {
                let _ = write!(line, "{}", u + 1);
            }
        }
        writeln!(writer, "{line}")?;
    }
    Ok(())
}

/// Reads a whitespace-separated edge list: `u v [w]` per line, 0-based ids,
/// `#` and `%` comments. The vertex count is `max id + 1` unless a larger
/// `n` is given. Self-loops (`u == v`), negative ids/weights and a total
/// edge weight above `EdgeWeight::MAX / 2` are parse errors, matching the
/// METIS reader's strictness.
pub fn read_edge_list<R: BufRead>(
    reader: R,
    n_hint: Option<usize>,
) -> Result<CsrGraph, GraphIoError> {
    let start = Instant::now();
    let mut span = mincut_obs::span("ingest/parse");
    span.arg("format", "edge-list");
    let mut bytes = 0u64;
    let mut edges: Vec<(NodeId, NodeId, EdgeWeight)> = Vec::new();
    let mut total: EdgeWeight = 0;
    let mut max_id: u64 = 0;
    for (no, line) in reader.lines().enumerate() {
        let line = line?;
        bytes += line.len() as u64 + 1;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let mut tok = t.split_whitespace();
        let u = tok
            .next()
            .ok_or_else(|| parse_err(no + 1, "missing source"))
            .and_then(|t| parse_unsigned(no + 1, t, "vertex id"))?;
        let v = tok
            .next()
            .ok_or_else(|| parse_err(no + 1, "missing target"))
            .and_then(|t| parse_unsigned(no + 1, t, "vertex id"))?;
        let w: EdgeWeight = match tok.next() {
            Some(t) => parse_unsigned(no + 1, t, "edge weight")?,
            None => 1,
        };
        if u > u32::MAX as u64 || v > u32::MAX as u64 {
            return Err(parse_err(no + 1, "vertex id exceeds u32"));
        }
        if u == v {
            return Err(parse_err(
                no + 1,
                format!("self-loop on vertex {u} not allowed"),
            ));
        }
        add_to_total(&mut total, w, no + 1)?;
        max_id = max_id.max(u).max(v);
        edges.push((u as NodeId, v as NodeId, w));
    }
    let n = match n_hint {
        Some(n) => {
            if !edges.is_empty() && n <= max_id as usize {
                return Err(parse_err(
                    0,
                    format!("n_hint {n} smaller than max id {max_id}"),
                ));
            }
            n
        }
        None => {
            if edges.is_empty() {
                0
            } else {
                max_id as usize + 1
            }
        }
    };
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    for (u, v, w) in edges {
        b.add_edge(u, v, w);
    }
    record_ingest(&mut span, bytes, start);
    Ok(b.build())
}

/// Writes an edge list `u v w` (0-based).
pub fn write_edge_list<W: Write>(g: &CsrGraph, mut writer: W) -> std::io::Result<()> {
    for (u, v, w) in g.edges() {
        writeln!(writer, "{u} {v} {w}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip_metis(g: &CsrGraph) -> CsrGraph {
        let mut buf = Vec::new();
        write_metis(g, &mut buf).unwrap();
        read_metis(Cursor::new(buf)).unwrap()
    }

    #[test]
    fn metis_roundtrip_weighted() {
        let g = CsrGraph::from_edges(4, &[(0, 1, 3), (1, 2, 1), (2, 3, 9), (0, 3, 2)]);
        assert_eq!(roundtrip_metis(&g), g);
    }

    #[test]
    fn metis_roundtrip_unweighted() {
        let g = CsrGraph::from_unweighted_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        assert_eq!(roundtrip_metis(&g), g);
    }

    #[test]
    fn metis_reads_reference_text() {
        // 3-vertex triangle, unweighted, with comments.
        let text = "% a comment\n3 3\n2 3\n1 3\n1 2\n";
        let g = read_metis(Cursor::new(text)).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
    }

    #[test]
    fn metis_reads_weighted_text() {
        let text = "2 1 001\n2 7\n1 7\n";
        let g = read_metis(Cursor::new(text)).unwrap();
        assert_eq!(g.edge_weight(0, 1), Some(7));
    }

    #[test]
    fn metis_rejects_bad_neighbor() {
        let text = "2 1\n3\n1\n";
        assert!(read_metis(Cursor::new(text)).is_err());
    }

    #[test]
    fn metis_rejects_wrong_edge_count() {
        let text = "3 5\n2\n1\n\n";
        assert!(read_metis(Cursor::new(text)).is_err());
    }

    #[test]
    fn metis_rejects_total_weight_past_the_bound() {
        // Path 1–2–3: W = 2^62 + (2^62 − 1) = EdgeWeight::MAX / 2 parses,
        // one more unit on the second edge is rejected at its record.
        let path = |w2: u64| format!("3 2 001\n2 {h}\n1 {h} 3 {w2}\n2 {w2}\n", h = 1u64 << 62);
        let g = read_metis(Cursor::new(path((1 << 62) - 1))).unwrap();
        assert_eq!(g.total_edge_weight(), EdgeWeight::MAX / 2);
        let err = read_metis(Cursor::new(path(1 << 62))).unwrap_err();
        assert!(matches!(err, GraphIoError::Parse { line: 3, .. }), "{err}");
    }

    #[test]
    fn metis_rejects_one_way_entries_and_weight_mismatches() {
        // Vertex 3 lists 1, but vertex 1 does not list 3.
        let err = read_metis(Cursor::new("3 1\n2\n1\n1\n")).unwrap_err();
        assert!(matches!(err, GraphIoError::Parse { .. }), "{err}");
        assert!(
            err.to_string()
                .contains("edge 1-3 has total weight 0 in vertex 1's list but 1 in vertex 3's"),
            "{err}"
        );
        // Edge 1-2 weighs 5 in vertex 1's list and 4 in vertex 2's.
        let err = read_metis(Cursor::new("3 3 1\n2 5 3 1\n1 4 3 2\n1 1 2 2\n")).unwrap_err();
        assert!(matches!(err, GraphIoError::Parse { .. }), "{err}");
        assert!(
            err.to_string()
                .contains("edge 1-2 has total weight 5 in vertex 1's list but 4 in vertex 2's"),
            "{err}"
        );
        // Symmetric parallel entries merge on both sides and still load.
        let g = read_metis(Cursor::new("3 2\n2 2 3\n1 1\n1\n")).unwrap();
        assert_eq!(g.edge_weight(0, 1), Some(2));
        assert_eq!(g.edge_weight(0, 2), Some(1));
    }

    #[test]
    fn edge_list_roundtrip() {
        let g = CsrGraph::from_edges(4, &[(0, 1, 3), (2, 3, 4)]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let h = read_edge_list(Cursor::new(buf), Some(4)).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn edge_list_comments_and_defaults() {
        let text = "# header\n0 1\n1 2 5\n% more\n";
        let g = read_edge_list(Cursor::new(text), None).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.edge_weight(0, 1), Some(1));
        assert_eq!(g.edge_weight(1, 2), Some(5));
    }

    #[test]
    fn edge_list_rejects_small_hint() {
        let text = "0 5\n";
        assert!(read_edge_list(Cursor::new(text), Some(3)).is_err());
    }

    #[test]
    fn self_loops_are_parse_errors_in_both_formats() {
        let err = read_edge_list(Cursor::new("0 1\n2 2\n"), None).unwrap_err();
        assert!(matches!(err, GraphIoError::Parse { line: 2, .. }), "{err}");
        // METIS: vertex 1's adjacency list names vertex 1 itself.
        let err = read_metis(Cursor::new("2 1\n1 2\n1\n")).unwrap_err();
        assert!(matches!(err, GraphIoError::Parse { line: 2, .. }), "{err}");
    }

    #[test]
    fn negative_weights_and_ids_are_named_in_the_error() {
        for text in ["0 1 -3\n", "-1 2\n", "0 -2 1\n"] {
            let err = read_edge_list(Cursor::new(text), None).unwrap_err();
            assert!(err.to_string().contains("negative"), "{err}");
        }
        let err = read_metis(Cursor::new("2 1 001\n2 -7\n1 -7\n")).unwrap_err();
        assert!(err.to_string().contains("negative"), "{err}");
    }
}

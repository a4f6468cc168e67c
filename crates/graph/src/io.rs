//! Edge-list text and binary graph IO.
//!
//! The text format is the de-facto standard of SNAP / NetworkRepository
//! dumps: one `u v` pair per line, `#`- or `%`-prefixed comment lines.
//! The binary format is a little-endian dump of the CSR arrays with a magic
//! header — loading it is O(read), matching the paper's "load CSR, answer
//! queries immediately" workflow.

use crate::csr::Csr;
use crate::{EdgeIdx, NodeId};
use std::fmt;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};

/// Magic bytes of the binary CSR format.
pub const CSR_MAGIC: &[u8; 8] = b"SAGECSR1";

/// Why a graph could not be read.
///
/// Malformed input is reported as a typed variant instead of a panic or a
/// stringly `io::ErrorKind::InvalidData`, so callers can distinguish "the
/// file is unreadable" from "the file is readable but not a graph".
#[derive(Debug)]
pub enum ReadError {
    /// The underlying reader failed (including truncation, surfaced as
    /// `UnexpectedEof`).
    Io(io::Error),
    /// A line that is neither a comment nor a well-formed record.
    Malformed {
        /// 1-based line number of the offending line.
        line: usize,
        /// The offending line's content.
        content: String,
    },
    /// The binary format's magic bytes are missing or wrong.
    BadHeader(String),
    /// The input parsed but its arrays violate the CSR invariants.
    InvalidCsr(String),
    /// The input declares more nodes (by its largest id) than its size can
    /// back; see [`node_budget`].
    TooManyNodes {
        /// Nodes the input declares.
        nodes: usize,
        /// Bytes of input read.
        bytes: usize,
    },
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "io error: {e}"),
            Self::Malformed { line, content } => {
                write!(f, "malformed record at line {line}: {content:?}")
            }
            Self::BadHeader(what) => write!(f, "bad header: {what}"),
            Self::InvalidCsr(why) => write!(f, "invalid CSR arrays: {why}"),
            Self::TooManyNodes { nodes, bytes } => write!(
                f,
                "{nodes} nodes declared by {bytes} bytes of input (at most {} accepted)",
                node_budget(*bytes)
            ),
        }
    }
}

impl std::error::Error for ReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// Nodes a text reader accepts above [`NODE_FLOOR`], per byte of input.
const NODES_PER_BYTE: usize = 16;

/// Nodes a text reader accepts whatever the input size.
const NODE_FLOOR: usize = 1 << 20;

/// The most nodes `bytes` of text input may declare. A text graph's node
/// count is only declared by its largest id, yet the CSR builder spends
/// about 20 bytes per node, so without a bound a one-line file could demand
/// gigabytes. An edge line names two nodes in at least four bytes, so real
/// dumps stay far below the budget.
#[must_use]
pub fn node_budget(bytes: usize) -> usize {
    bytes.saturating_mul(NODES_PER_BYTE).max(NODE_FLOOR)
}

/// Refuse a node count that `bytes` of input cannot back.
fn within_budget(nodes: usize, bytes: usize) -> Result<(), ReadError> {
    if nodes <= node_budget(bytes) {
        Ok(())
    } else {
        Err(ReadError::TooManyNodes { nodes, bytes })
    }
}

/// Parse an edge list from a reader.
///
/// # Errors
/// [`ReadError::Io`] on reader failures, [`ReadError::Malformed`] on lines
/// that are neither comments nor `u v` pairs, [`ReadError::TooManyNodes`]
/// when the largest id exceeds [`node_budget`].
pub fn read_edge_list<R: Read>(reader: R) -> Result<Csr, ReadError> {
    let mut num_nodes = 0usize;
    let mut bytes = 0usize;
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    for (lineno, line) in BufReader::new(reader).lines().enumerate() {
        let line = line?;
        bytes += line.len() + 1;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let parse = |s: Option<&str>| -> Result<NodeId, ReadError> {
            s.ok_or_else(|| bad_line(lineno, t))?
                .parse::<NodeId>()
                .map_err(|_| bad_line(lineno, t))
        };
        let u = parse(it.next())?;
        let v = parse(it.next())?;
        // id `NodeId::MAX` would need `NodeId::MAX + 1` nodes
        let top = u.max(v);
        if top == NodeId::MAX {
            return Err(bad_line(lineno, t));
        }
        num_nodes = num_nodes.max(top as usize + 1);
        edges.push((u, v));
    }
    within_budget(num_nodes, bytes)?;
    Ok(Csr::from_edges(num_nodes, &edges))
}

fn bad_line(lineno: usize, line: &str) -> ReadError {
    ReadError::Malformed {
        line: lineno + 1,
        content: line.to_string(),
    }
}

/// Write a graph as an edge list.
///
/// # Errors
/// Propagates IO errors.
pub fn write_edge_list<W: Write>(g: &Csr, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# nodes {} edges {}", g.num_nodes(), g.num_edges())?;
    for (u, v) in g.edges() {
        writeln!(w, "{u} {v}")?;
    }
    w.flush()
}

/// Write a graph in the binary CSR format.
///
/// # Errors
/// Propagates IO errors.
pub fn write_csr_binary<W: Write>(g: &Csr, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    w.write_all(CSR_MAGIC)?;
    w.write_all(&(g.num_nodes() as u64).to_le_bytes())?;
    w.write_all(&(g.num_edges() as u64).to_le_bytes())?;
    for &o in g.offsets() {
        w.write_all(&o.to_le_bytes())?;
    }
    for &t in g.targets() {
        w.write_all(&t.to_le_bytes())?;
    }
    w.flush()
}

/// Upper bound on elements pre-reserved from the (untrusted) binary header.
/// A fabricated huge count otherwise aborts the process inside
/// `Vec::with_capacity` before a single array byte is validated; past the
/// cap the vectors grow normally, so honest large graphs still load.
const MAX_PREALLOC: usize = 1 << 22;

/// Read a graph from the binary CSR format.
///
/// # Errors
/// [`ReadError::BadHeader`] on a wrong magic, [`ReadError::Io`] on
/// truncated input, [`ReadError::InvalidCsr`] on invariant violations in
/// the stored arrays.
pub fn read_csr_binary<R: Read>(reader: R) -> Result<Csr, ReadError> {
    let mut r = BufReader::new(reader);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != CSR_MAGIC {
        return Err(ReadError::BadHeader(format!(
            "expected magic {CSR_MAGIC:?}, found {magic:?}"
        )));
    }
    let mut buf8 = [0u8; 8];
    r.read_exact(&mut buf8)?;
    let n = u64::from_le_bytes(buf8) as usize;
    r.read_exact(&mut buf8)?;
    let m = u64::from_le_bytes(buf8) as usize;

    let mut buf4 = [0u8; 4];
    let mut offsets = Vec::with_capacity(n.saturating_add(1).min(MAX_PREALLOC));
    for _ in 0..=n {
        r.read_exact(&mut buf4)?;
        offsets.push(EdgeIdx::from_le_bytes(buf4));
    }
    let mut targets = Vec::with_capacity(m.min(MAX_PREALLOC));
    for _ in 0..m {
        r.read_exact(&mut buf4)?;
        targets.push(NodeId::from_le_bytes(buf4));
    }
    Csr::from_parts(offsets, targets).map_err(ReadError::InvalidCsr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sample() -> Csr {
        Csr::from_edges(5, &[(0, 1), (0, 4), (1, 2), (2, 3), (4, 0)])
    }

    #[test]
    fn edge_list_roundtrip() {
        let g = sample();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(Cursor::new(buf)).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn edge_list_skips_comments_and_blank_lines() {
        let text = "# comment\n% other comment\n\n0 1\n  1 2  \n";
        let g = read_edge_list(Cursor::new(text)).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn edge_list_rejects_garbage() {
        let e = read_edge_list(Cursor::new("# ok\n0 x\n")).unwrap_err();
        assert!(
            matches!(&e, ReadError::Malformed { line: 2, content } if content == "0 x"),
            "got {e:?}"
        );
        let e = read_edge_list(Cursor::new("42\n")).unwrap_err();
        assert!(
            matches!(e, ReadError::Malformed { line: 1, .. }),
            "got {e:?}"
        );
    }

    #[test]
    fn binary_roundtrip() {
        let g = sample();
        let mut buf = Vec::new();
        write_csr_binary(&g, &mut buf).unwrap();
        let g2 = read_csr_binary(Cursor::new(buf)).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let e = read_csr_binary(Cursor::new(b"NOTMAGIC".to_vec())).unwrap_err();
        assert!(matches!(e, ReadError::BadHeader(_)), "got {e:?}");
    }

    #[test]
    fn binary_rejects_truncation() {
        let g = sample();
        let mut buf = Vec::new();
        write_csr_binary(&g, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        let e = read_csr_binary(Cursor::new(buf)).unwrap_err();
        assert!(matches!(e, ReadError::Io(_)), "got {e:?}");
    }

    #[test]
    fn binary_rejects_corrupted_invariants() {
        let g = sample();
        let mut buf = Vec::new();
        write_csr_binary(&g, &mut buf).unwrap();
        // corrupt a target to an out-of-range node id
        let last = buf.len() - 1;
        buf[last] = 0xFF;
        let e = read_csr_binary(Cursor::new(buf)).unwrap_err();
        assert!(matches!(e, ReadError::InvalidCsr(_)), "got {e:?}");
    }

    #[test]
    fn binary_huge_header_fails_without_aborting() {
        // a fabricated node count far beyond the payload must surface as a
        // truncation error, not an allocation abort
        let mut buf = Vec::new();
        buf.extend_from_slice(CSR_MAGIC);
        buf.extend_from_slice(&u64::MAX.to_le_bytes()); // nodes
        buf.extend_from_slice(&u64::MAX.to_le_bytes()); // edges
        let e = read_csr_binary(Cursor::new(buf)).unwrap_err();
        assert!(matches!(e, ReadError::Io(_)), "got {e:?}");
    }

    #[test]
    fn edge_list_rejects_id_beyond_node_count_range() {
        let e = read_edge_list(Cursor::new("0 1\n4294967295 0\n")).unwrap_err();
        assert!(
            matches!(e, ReadError::Malformed { line: 2, .. }),
            "got {e:?}"
        );
    }

    #[test]
    fn text_readers_reject_node_counts_the_input_cannot_back() {
        let e = read_edge_list(Cursor::new("0 4000000000\n")).unwrap_err();
        assert!(matches!(e, ReadError::TooManyNodes { .. }), "got {e:?}");
        // the floor admits sparse ids in small files
        let g = read_edge_list(Cursor::new("0 65535\n")).unwrap();
        assert_eq!(g.num_nodes(), 65536);
        assert!(node_budget(10) >= NODE_FLOOR);
        assert_eq!(node_budget(1 << 20), 16 << 20);
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = Csr::from_edges(1, &[]);
        let mut buf = Vec::new();
        write_csr_binary(&g, &mut buf).unwrap();
        assert_eq!(read_csr_binary(Cursor::new(buf)).unwrap(), g);
    }
}

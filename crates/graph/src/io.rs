//! Edge-list text and binary graph IO.
//!
//! The text format is the de-facto standard of SNAP / NetworkRepository
//! dumps: one `u v` pair per line, `#`- or `%`-prefixed comment lines.
//! The binary format is a little-endian dump of the CSR arrays with a magic
//! header — loading it is O(read), matching the paper's "load CSR, answer
//! queries immediately" workflow.

use crate::coo::Coo;
use crate::csr::Csr;
use crate::{EdgeIdx, NodeId};
use std::fmt;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

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
    /// A missing or unrecognised header (binary magic, MatrixMarket banner,
    /// dimension line, DIMACS `p` line).
    BadHeader(String),
    /// The input parsed but its arrays violate the CSR invariants.
    InvalidCsr(String),
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

/// Parse an edge list from a reader.
///
/// # Errors
/// [`ReadError::Io`] on reader failures, [`ReadError::Malformed`] on lines
/// that are neither comments nor `u v` pairs.
pub fn read_edge_list<R: Read>(reader: R) -> Result<Csr, ReadError> {
    let mut num_nodes = 0usize;
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    for (lineno, line) in BufReader::new(reader).lines().enumerate() {
        let line = line?;
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
    Ok(Csr::from_edges(num_nodes, &edges))
}

/// A node count from a file header, checked to fit [`NodeId`] before any
/// array is sized by it.
fn node_count(n: usize) -> Result<usize, ReadError> {
    NodeId::try_from(n).map(|_| n).map_err(|_| {
        ReadError::BadHeader(format!(
            "node count {n} does not fit a {}-bit node id",
            NodeId::BITS
        ))
    })
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

/// Load an edge-list file.
///
/// # Errors
/// Propagates IO and parse errors.
pub fn load_edge_list(path: &Path) -> Result<Csr, ReadError> {
    read_edge_list(std::fs::File::open(path)?)
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

/// Parse a MatrixMarket coordinate file (`%%MatrixMarket matrix coordinate
/// ... general|symmetric`), the standard distribution format of
/// SuiteSparse graphs. Entries are 1-indexed; values (weights) are ignored;
/// `symmetric` matrices are mirrored.
///
/// # Errors
/// [`ReadError::BadHeader`] on a missing banner or dimension line,
/// [`ReadError::Malformed`] on a bad entry.
pub fn read_matrix_market<R: Read>(reader: R) -> Result<Csr, ReadError> {
    let mut lines = BufReader::new(reader).lines();
    let header = lines
        .next()
        .ok_or_else(|| ReadError::BadHeader("empty file".to_string()))??;
    if !header.starts_with("%%MatrixMarket matrix coordinate") {
        return Err(ReadError::BadHeader(format!(
            "not a MatrixMarket coordinate header: {header:?}"
        )));
    }
    let symmetric = header.contains("symmetric");

    let mut dims: Option<(usize, usize, usize)> = None;
    let mut coo = Coo::new(0);
    for (lineno, line) in lines.enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        if dims.is_none() {
            let parse = |s: Option<&str>| -> Result<usize, ReadError> {
                s.ok_or_else(|| bad_line(lineno, t))?
                    .parse::<usize>()
                    .map_err(|_| bad_line(lineno, t))
            };
            let rows = parse(it.next())?;
            let cols = parse(it.next())?;
            let nnz = parse(it.next())?;
            dims = Some((rows, cols, nnz));
            coo.num_nodes = node_count(rows.max(cols))?;
            continue;
        }
        let parse = |s: Option<&str>| -> Result<u64, ReadError> {
            s.ok_or_else(|| bad_line(lineno, t))?
                .parse::<u64>()
                .map_err(|_| bad_line(lineno, t))
        };
        let r = parse(it.next())?;
        let c = parse(it.next())?;
        if r == 0 || c == 0 || r as usize > coo.num_nodes || c as usize > coo.num_nodes {
            return Err(bad_line(lineno, t));
        }
        // 1-indexed; weights (third column) ignored
        coo.push((r - 1) as NodeId, (c - 1) as NodeId);
    }
    if dims.is_none() {
        return Err(ReadError::BadHeader("missing dimension line".to_string()));
    }
    Ok(if symmetric {
        Csr::from_coo_symmetric(&coo)
    } else {
        Csr::from_coo(&coo)
    })
}

/// Parse a DIMACS graph file (`p <type> <nodes> <edges>` header, `a`/`e`
/// edge lines, `c` comments). Node ids are 1-indexed; arc weights are
/// ignored.
///
/// # Errors
/// [`ReadError::BadHeader`] on a missing `p` line,
/// [`ReadError::Malformed`] on a bad edge line.
pub fn read_dimacs<R: Read>(reader: R) -> Result<Csr, ReadError> {
    let mut coo: Option<Coo> = None;
    for (lineno, line) in BufReader::new(reader).lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('c') {
            continue;
        }
        let mut it = t.split_whitespace();
        match it.next() {
            Some("p") => {
                let _kind = it.next().ok_or_else(|| bad_line(lineno, t))?;
                let n: usize = it
                    .next()
                    .ok_or_else(|| bad_line(lineno, t))?
                    .parse()
                    .map_err(|_| bad_line(lineno, t))?;
                coo = Some(Coo::new(node_count(n)?));
            }
            Some("a") | Some("e") => {
                let coo = coo
                    .as_mut()
                    .ok_or_else(|| ReadError::BadHeader("edge before p line".to_string()))?;
                let parse = |s: Option<&str>| -> Result<u64, ReadError> {
                    s.ok_or_else(|| bad_line(lineno, t))?
                        .parse::<u64>()
                        .map_err(|_| bad_line(lineno, t))
                };
                let u = parse(it.next())?;
                let v = parse(it.next())?;
                if u == 0 || v == 0 || u as usize > coo.num_nodes || v as usize > coo.num_nodes {
                    return Err(bad_line(lineno, t));
                }
                coo.push((u - 1) as NodeId, (v - 1) as NodeId);
            }
            _ => return Err(bad_line(lineno, t)),
        }
    }
    let coo = coo.ok_or_else(|| ReadError::BadHeader("missing p line".to_string()))?;
    Ok(Csr::from_coo(&coo))
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
    fn matrix_market_general() {
        let mm = "%%MatrixMarket matrix coordinate real general\n\
                  % a comment\n\
                  3 3 3\n1 2 0.5\n2 3 1.5\n3 1 2.5\n";
        let g = read_matrix_market(Cursor::new(mm)).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[2]);
        assert_eq!(g.neighbors(2), &[0]);
    }

    #[test]
    fn matrix_market_symmetric_mirrors() {
        let mm = "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n1 2\n";
        let g = read_matrix_market(Cursor::new(mm)).unwrap();
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
    }

    #[test]
    fn matrix_market_rejects_bad_input() {
        assert!(read_matrix_market(Cursor::new("garbage\n")).is_err());
        let no_dims = "%%MatrixMarket matrix coordinate real general\n";
        assert!(read_matrix_market(Cursor::new(no_dims)).is_err());
        let out_of_range = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        assert!(read_matrix_market(Cursor::new(out_of_range)).is_err());
    }

    #[test]
    fn dimacs_parses_arcs() {
        let d = "c comment\np sp 4 3\na 1 2 7\na 2 3 1\ne 3 4 9\n";
        let g = read_dimacs(Cursor::new(d)).unwrap();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[2]);
        assert_eq!(g.neighbors(2), &[3]);
    }

    #[test]
    fn dimacs_rejects_bad_input() {
        assert!(read_dimacs(Cursor::new("a 1 2\n")).is_err()); // edge before p
        assert!(read_dimacs(Cursor::new("x nonsense\n")).is_err());
        assert!(read_dimacs(Cursor::new("p sp 2 1\na 1 5 1\n")).is_err()); // range
        assert!(read_dimacs(Cursor::new("c only comments\n")).is_err());
    }

    #[test]
    fn matrix_market_rejects_node_count_beyond_node_id() {
        for rows in ["18446744073709551615", "4294967296"] {
            let mm = format!("%%MatrixMarket matrix coordinate real general\n{rows} 1 0\n");
            let e = read_matrix_market(Cursor::new(mm)).unwrap_err();
            assert!(matches!(e, ReadError::BadHeader(_)), "got {e:?}");
        }
    }

    #[test]
    fn dimacs_rejects_node_count_beyond_node_id() {
        for n in ["18446744073709551615", "4294967296"] {
            let e = read_dimacs(Cursor::new(format!("p sp {n} 0\n"))).unwrap_err();
            assert!(matches!(e, ReadError::BadHeader(_)), "got {e:?}");
        }
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
    fn empty_graph_roundtrips() {
        let g = Csr::from_edges(1, &[]);
        let mut buf = Vec::new();
        write_csr_binary(&g, &mut buf).unwrap();
        assert_eq!(read_csr_binary(Cursor::new(buf)).unwrap(), g);
    }
}

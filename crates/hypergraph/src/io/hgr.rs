//! hMetis `.hgr` reader and writer.
//!
//! Format (hMetis manual §5): the first non-comment line is
//! `num_nets num_vertices [fmt]` where `fmt` is `1` (net weights), `10`
//! (vertex weights) or `11` (both). Then one line per net: optional weight
//! followed by 1-based vertex indices; finally, with vertex weights, one
//! weight per line. Lines starting with `%` are comments.
//!
//! The reader streams: bytes flow through a fixed buffer straight into the
//! [`HypergraphBuilder`], so memory is bounded by the graph being built,
//! never by the file (no per-line `String`s, no vector of lines).

use std::io::{Read, Write};

use crate::io::scan::{Emitter, Scanner};
use crate::io::ParseError;
use crate::{Hypergraph, HypergraphBuilder, VertexId};

/// Largest element count we pre-reserve from a header before any data has
/// been seen — a malformed header must not allocate unbounded memory.
const MAX_HEADER_RESERVE: usize = 1 << 22;

/// Reads an hMetis-format hypergraph.
///
/// # Errors
/// Returns [`ParseError`] on I/O failure, malformed tokens, out-of-range
/// vertex indices, empty nets, or counts beyond the `u32` id range (the
/// compact CSR layout stores ids and offsets in 32 bits). Token-level
/// errors carry the absolute byte offset as well as the line number.
/// Duplicate pins within a net are tolerated (deduplicated), matching
/// hMetis behaviour.
///
/// # Example
/// ```
/// use vlsi_hypergraph::io::read_hgr;
/// let text = "% tiny\n2 3 11\n7 1 2\n3 2 3\n4\n5\n6\n";
/// let hg = read_hgr(text.as_bytes())?;
/// assert_eq!(hg.num_nets(), 2);
/// assert_eq!(hg.vertex_weight(vlsi_hypergraph::VertexId(0)), 4);
/// assert_eq!(hg.net_weight(vlsi_hypergraph::NetId(1)), 3);
/// # Ok::<(), vlsi_hypergraph::io::ParseError>(())
/// ```
pub fn read_hgr<R: Read>(reader: R) -> Result<Hypergraph, ParseError> {
    let mut sc = Scanner::new(reader, b"%");
    if !sc.next_content_line()? {
        return Err(ParseError::malformed(1, "missing header line"));
    }
    let num_nets = sc.expect_usize("net count")?;
    if num_nets > u32::MAX as usize {
        return Err(sc.err_at_tok(format!("net count {num_nets} exceeds the u32 id range")));
    }
    let num_vertices = sc.expect_usize("vertex count")?;
    if num_vertices > u32::MAX as usize {
        return Err(sc.err_at_tok(format!(
            "vertex count {num_vertices} exceeds the u32 id range"
        )));
    }
    let (net_weights, vertex_weights) = if sc.token()? {
        match sc.parse_u64("fmt field")? {
            0 => (false, false),
            1 => (true, false),
            10 => (false, true),
            11 => (true, true),
            other => {
                return Err(sc.err_at_tok(format!(
                    "unsupported fmt `{other}` (expected 0, 1, 10 or 11)"
                )))
            }
        }
    } else {
        (false, false)
    };
    sc.skip_rest_of_line()?;

    let mut builder = HypergraphBuilder::with_capacity(
        num_vertices.min(MAX_HEADER_RESERVE),
        num_nets.min(MAX_HEADER_RESERVE),
        0,
    );
    // Vertex weights come *after* the nets; create unit vertices now and
    // patch each weight as its line streams past.
    for _ in 0..num_vertices {
        builder.add_vertex(1);
    }

    let mut pins: Vec<VertexId> = Vec::new();
    for _ in 0..num_nets {
        if !sc.next_content_line()? {
            return Err(ParseError::malformed(
                sc.line(),
                "fewer net lines than declared",
            ));
        }
        let weight: u64 = if net_weights {
            sc.expect_u64("net weight")?
        } else {
            1
        };
        pins.clear();
        while sc.token()? {
            let idx = sc.parse_u64("vertex index")?;
            if idx == 0 || idx > num_vertices as u64 {
                return Err(sc.err_at_tok(format!(
                    "vertex index {idx} out of range 1..={num_vertices}"
                )));
            }
            pins.push(VertexId::from_index(idx as usize - 1));
        }
        if pins.is_empty() {
            return Err(ParseError::malformed(sc.line(), "net with no pins"));
        }
        builder.add_net_dedup(weight, pins.iter().copied())?;
    }

    if vertex_weights {
        for i in 0..num_vertices {
            if !sc.next_content_line()? {
                return Err(ParseError::malformed(
                    sc.line(),
                    "fewer vertex-weight lines than declared",
                ));
            }
            let w = sc.expect_u64("vertex weight")?;
            sc.skip_rest_of_line()?;
            builder.set_vertex_weight(VertexId::from_index(i), w);
        }
    }
    Ok(builder.build()?)
}

/// Writes a hypergraph in hMetis format (fmt 11: both weight kinds).
///
/// Output is buffered and integers are formatted without allocation, so a
/// million-net graph streams out in large writes.
///
/// # Errors
/// Propagates I/O errors from `writer`.
pub fn write_hgr<W: Write>(writer: W, hg: &Hypergraph) -> std::io::Result<()> {
    let mut e = Emitter::new(writer);
    e.int(hg.num_nets() as u64)?;
    e.byte(b' ')?;
    e.int(hg.num_vertices() as u64)?;
    e.str(" 11\n")?;
    for n in hg.nets() {
        e.int(hg.net_weight(n))?;
        for p in hg.net_pins(n) {
            e.byte(b' ')?;
            e.int(p.index() as u64 + 1)?;
        }
        e.byte(b'\n')?;
    }
    for v in hg.vertices() {
        e.int(hg.vertex_weight(v))?;
        e.byte(b'\n')?;
    }
    e.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetId;

    #[test]
    fn roundtrip() {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..4).map(|i| b.add_vertex(i as u64 + 1)).collect();
        b.add_net(5, [v[0], v[1], v[3]]).unwrap();
        b.add_net(1, [v[2], v[3]]).unwrap();
        let hg = b.build().unwrap();

        let mut out = Vec::new();
        write_hgr(&mut out, &hg).unwrap();
        let back = read_hgr(out.as_slice()).unwrap();
        assert_eq!(back.num_vertices(), 4);
        assert_eq!(back.num_nets(), 2);
        assert_eq!(back.net_weight(NetId(0)), 5);
        assert_eq!(back.net_pins(NetId(0)), hg.net_pins(NetId(0)));
        assert_eq!(back.vertex_weight(VertexId(2)), 3);
    }

    #[test]
    fn unweighted_fmt_defaults_to_ones() {
        let text = "2 3\n1 2\n2 3\n";
        let hg = read_hgr(text.as_bytes()).unwrap();
        assert_eq!(hg.net_weight(NetId(0)), 1);
        assert_eq!(hg.vertex_weight(VertexId(0)), 1);
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = "% header comment\n\n1 2 1\n% net comment\n9 1 2\n";
        let hg = read_hgr(text.as_bytes()).unwrap();
        assert_eq!(hg.net_weight(NetId(0)), 9);
    }

    #[test]
    fn out_of_range_index_rejected() {
        let text = "1 2\n1 3\n";
        let err = read_hgr(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn zero_index_rejected() {
        let text = "1 2\n0 1\n";
        assert!(read_hgr(text.as_bytes()).is_err());
    }

    #[test]
    fn missing_net_lines_rejected() {
        let text = "3 2\n1 2\n";
        let err = read_hgr(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("fewer net lines"));
    }

    #[test]
    fn bad_fmt_rejected() {
        let text = "1 2 99\n1 2\n";
        assert!(read_hgr(text.as_bytes()).is_err());
    }

    #[test]
    fn duplicate_pins_deduplicated() {
        let text = "1 2\n1 2 1\n";
        let hg = read_hgr(text.as_bytes()).unwrap();
        assert_eq!(hg.net_size(NetId(0)), 2);
    }

    #[test]
    fn errors_carry_byte_offsets() {
        // The bad index `9` sits at byte 6 of "1 2\n1 9\n".
        let err = read_hgr("1 2\n1 9\n".as_bytes()).unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 2 (byte 6): vertex index 9 out of range 1..=2"
        );
    }

    #[test]
    fn counts_beyond_u32_are_structured_errors() {
        let text = "1 5000000000\n1 2\n";
        let err = read_hgr(text.as_bytes()).unwrap_err();
        assert!(
            err.to_string().contains("exceeds the u32 id range"),
            "{err}"
        );
        let text = "5000000000 1\n";
        let err = read_hgr(text.as_bytes()).unwrap_err();
        assert!(
            err.to_string().contains("exceeds the u32 id range"),
            "{err}"
        );
    }

    #[test]
    fn vertex_weights_summing_past_u64_max_are_refused() {
        // fmt 10: two vertex weights of u64::MAX each.
        let text = "1 2 10\n1 2\n18446744073709551615\n18446744073709551615\n";
        let err = read_hgr(text.as_bytes()).unwrap_err();
        assert!(
            matches!(
                err,
                ParseError::Build(crate::BuildError::WeightOverflow { resource: 0 })
            ),
            "{err}"
        );
        assert_eq!(
            err.to_string(),
            "invalid hypergraph: vertex weights of resource 0 sum past u64::MAX"
        );
    }

    #[test]
    fn trailing_tokens_after_fmt_ignored() {
        let text = "1 2 1 extra stuff\n4 1 2\n";
        let hg = read_hgr(text.as_bytes()).unwrap();
        assert_eq!(hg.net_weight(NetId(0)), 4);
    }
}

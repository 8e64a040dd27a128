//! Request framing shared by every transport.
//!
//! A request line is the bytes before a `\n`. [`LineFramer`] splits the
//! byte stream of one session (stdio, or one TCP connection) into such
//! lines whatever the reads cut it into: each byte is scanned for the
//! newline once, a line that arrives in one read is handed over where it
//! lies, and only the start of a line still waiting for its `\n` is
//! buffered. At end of input an unterminated last line counts like a
//! terminated one. A line longer than [`MAX_LINE`] ends the session: the
//! framer refuses it as soon as its bytes pass the cap, so no buffer
//! grows past it.

use std::io::{self, BufRead};
use std::ops::ControlFlow;

/// Most bytes one request line may hold (its `\n` not counted). A line
/// this long is a protocol violation, not a big instance: `.hgr` files go
/// via `hypergraph_path`.
const MAX_LINE: usize = 64 << 20;

/// Splits one session's byte stream into request lines.
#[derive(Default)]
pub(crate) struct LineFramer {
    /// The start of a line whose `\n` has not arrived; never holds one.
    partial: Vec<u8>,
}

impl LineFramer {
    /// Takes the next `bytes` of the stream and hands each line they
    /// complete to `on_line`, in order, until it breaks. The bytes after
    /// the last `\n` wait for the next call.
    ///
    /// # Errors
    /// `InvalidData` once the line being read holds more than
    /// [`MAX_LINE`] bytes; the session must end there.
    pub(crate) fn feed<B>(
        &mut self,
        mut bytes: &[u8],
        mut on_line: impl FnMut(&[u8]) -> ControlFlow<B>,
    ) -> io::Result<ControlFlow<B>> {
        loop {
            let newline = newline(bytes);
            let head = &bytes[..newline.unwrap_or(bytes.len())];
            if self.partial.len() + head.len() > MAX_LINE {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "request line longer than 64 MiB",
                ));
            }
            let Some(end) = newline else {
                self.partial.extend_from_slice(bytes);
                return Ok(ControlFlow::Continue(()));
            };
            bytes = &bytes[end + 1..];
            let flow = if self.partial.is_empty() {
                on_line(head)
            } else {
                self.partial.extend_from_slice(head);
                let flow = on_line(&self.partial);
                self.partial.clear();
                flow
            };
            if flow.is_break() {
                return Ok(flow);
            }
        }
    }

    /// Ends the stream: an unterminated last line goes to `on_line` like
    /// a terminated one.
    pub(crate) fn finish<B>(
        &mut self,
        on_line: impl FnOnce(&[u8]) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        if self.partial.is_empty() {
            return ControlFlow::Continue(());
        }
        let flow = on_line(&self.partial);
        self.partial.clear();
        flow
    }
}

/// The index of the first `\n` in `bytes`. `skip_until` on a slice runs
/// std's `memchr`, several times faster than a byte loop on a long line.
fn newline(bytes: &[u8]) -> Option<usize> {
    let mut rest = bytes;
    let skipped = rest.skip_until(b'\n').unwrap_or_default();
    (skipped > 0 && bytes[skipped - 1] == b'\n').then(|| skipped - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds `chunks` and then ends the stream, collecting every line.
    fn lines(chunks: &[&[u8]]) -> io::Result<Vec<Vec<u8>>> {
        let mut framer = LineFramer::default();
        let mut out = Vec::new();
        let mut take = |line: &[u8]| {
            out.push(line.to_vec());
            ControlFlow::<()>::Continue(())
        };
        for chunk in chunks {
            let _ = framer.feed(chunk, &mut take)?;
        }
        let _ = framer.finish(&mut take);
        Ok(out)
    }

    #[test]
    fn lines_are_the_bytes_before_each_newline_however_the_reads_cut_them() {
        let want: Vec<Vec<u8>> = vec![b"ab".to_vec(), b"".to_vec(), b"c\r".to_vec(), b"d".to_vec()];
        let stream = b"ab\n\nc\r\nd";
        for cut in 0..=stream.len() {
            let (a, b) = stream.split_at(cut);
            assert_eq!(lines(&[a, b]).unwrap(), want, "cut at {cut}");
        }
        let bytes: Vec<&[u8]> = stream.chunks(1).collect();
        assert_eq!(lines(&bytes).unwrap(), want, "one byte per read");
        assert_eq!(
            lines(&[b"x\n"]).unwrap(),
            vec![b"x".to_vec()],
            "no empty last line"
        );
    }

    #[test]
    fn a_break_stops_the_lines_of_the_same_read() {
        let mut framer = LineFramer::default();
        let mut seen = Vec::new();
        let flow = framer.feed(b"a\nstop\nb\n", |line| {
            seen.push(line.to_vec());
            if line == b"stop" {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert!(flow.unwrap().is_break());
        assert_eq!(seen, vec![b"a".to_vec(), b"stop".to_vec()]);
    }

    #[test]
    fn the_cap_counts_one_line_and_refuses_the_byte_past_it() {
        // A line of exactly MAX_LINE bytes and the next one share a read:
        // both are lines, since the cap counts each line on its own.
        let mut stream = vec![b'x'; MAX_LINE];
        stream.extend_from_slice(b"\nyz\n");
        let mut lens = Vec::new();
        let flow = LineFramer::default().feed(&stream, |line| {
            lens.push(line.len());
            ControlFlow::<()>::Continue(())
        });
        assert!(flow.unwrap().is_continue());
        assert_eq!(lens, [MAX_LINE, 2]);

        // One byte more is refused whether it arrives with the line or
        // after the rest of it waits in the buffer.
        stream[MAX_LINE] = b'x';
        for cut in [1, MAX_LINE + 1] {
            let (a, b) = stream[..MAX_LINE + 1].split_at(cut);
            let err = lines(&[a, b]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {cut}");
        }
    }
}

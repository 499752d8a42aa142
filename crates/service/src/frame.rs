//! The one bounded frame reader every untrusted stream goes through.
//!
//! `crserve` speaks JSONL, so a *frame* is one `\n`-terminated line.
//! Before this module the stdio and TCP front-ends read lines ad hoc
//! (`BufRead::lines`), which is unbounded in both length and time: a
//! client writing an endless line ties up unbounded memory, and one
//! that stops mid-frame parks the connection thread forever. crlint
//! CR007 now bans the bare read methods in this crate; everything
//! funnels through [`FrameReader`], which enforces:
//!
//! * a **length bound** — a line longer than `max_line` bytes yields
//!   [`Frame::Oversized`] exactly once and the rest of the offending
//!   line is discarded without buffering it;
//! * a **time bound** — the reader never blocks longer than the
//!   underlying stream's read timeout (set by the TCP front-end); a
//!   timed-out read surfaces as [`Frame::Idle`] so the serve loop can
//!   poll the shutdown flag between frames;
//! * **torn-frame hygiene** — EOF with a buffered partial line hands
//!   the tail back ([`Frame::Eof`]) so the caller can answer it (the
//!   parser rejects a truncated request with one `malformed` response)
//!   and close cleanly instead of dying mid-loop.
//!
//! The reader also hosts the `serve::read` / `serve::write` failpoint
//! sites, so chaos tests can inject short reads, short writes, and
//! `io::Error`s on the exact syscall boundary production traffic uses.

use clockroute_core::failpoint::{self, FailAction};
use std::io::{self, Read, Write};

/// Read-chunk size; bounds per-call syscall traffic, not line length.
const CHUNK: usize = 4096;

/// One event from a [`FrameReader`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A complete line, `\n` (and any `\r`) stripped. May be blank.
    /// Invalid UTF-8 is replaced lossily — the request parser rejects
    /// the mangled line with a `malformed` response, which is the
    /// contract for garbage bytes.
    Line(String),
    /// The stream ended. `partial` carries an unterminated tail line,
    /// if any (`None` after a clean final `\n`).
    Eof {
        /// Bytes after the last `\n`, lossily decoded.
        partial: Option<String>,
    },
    /// A read timed out or would block; no frame is available yet.
    /// Buffered partial data is kept for the next call.
    Idle,
    /// A line exceeded the length bound. Emitted once per offending
    /// line; the line's remaining bytes are discarded as they arrive.
    Oversized {
        /// The configured bound, for the error message.
        limit: usize,
    },
}

/// Bounded line reader over any byte stream (see the module docs).
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
    buf: Vec<u8>,
    max_line: usize,
    /// Discarding the rest of an oversized line (until `\n`).
    skipping: bool,
}

impl<R: Read> FrameReader<R> {
    /// Wraps `inner`, bounding lines at `max_line` bytes (a zero bound
    /// is treated as 1 — a bound that admits nothing would livelock).
    pub fn new(inner: R, max_line: usize) -> FrameReader<R> {
        FrameReader {
            inner,
            buf: Vec::new(),
            max_line: max_line.max(1),
            skipping: false,
        }
    }

    /// Returns the next frame, blocking at most one underlying read.
    ///
    /// # Errors
    ///
    /// Real I/O errors from the stream (timeouts are [`Frame::Idle`],
    /// not errors). The reader is unusable after an error.
    pub fn next_frame(&mut self) -> io::Result<Frame> {
        loop {
            // Serve a complete buffered line first.
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=pos).collect();
                if self.skipping {
                    // Tail of an already-reported oversized line.
                    self.skipping = false;
                    continue;
                }
                if pos > self.max_line {
                    // The whole line arrived in one buffered chunk, so
                    // nothing is left to skip.
                    return Ok(Frame::Oversized {
                        limit: self.max_line,
                    });
                }
                return Ok(Frame::Line(decode(&line[..pos])));
            }
            if self.skipping {
                // Drop the partial oversized line we have so far.
                self.buf.clear();
            } else if self.buf.len() > self.max_line {
                self.buf.clear();
                self.skipping = true;
                return Ok(Frame::Oversized {
                    limit: self.max_line,
                });
            }
            let mut chunk = [0u8; CHUNK];
            let want = match failpoint::hit("serve::read") {
                Some(FailAction::IoError) => {
                    return Err(io::Error::other("injected fault at serve::read"));
                }
                // A short read: the kernel returned one byte. Never an
                // error — the loop simply comes back for more.
                Some(FailAction::ShortIo) => 1,
                Some(FailAction::Panic) => panic!("failpoint serve::read: forced panic"),
                _ => CHUNK,
            };
            match self.inner.read(&mut chunk[..want]) {
                Ok(0) => {
                    let partial = if self.buf.is_empty() || self.skipping {
                        None
                    } else {
                        Some(decode(&std::mem::take(&mut self.buf)))
                    };
                    return Ok(Frame::Eof { partial });
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(Frame::Idle);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                    // A signal landed mid-read (e.g. SIGTERM during
                    // drain); let the serve loop poll its flags.
                    return Ok(Frame::Idle);
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Strips a trailing `\r` and decodes lossily (see [`Frame::Line`]).
fn decode(bytes: &[u8]) -> String {
    let bytes = match bytes {
        [head @ .., b'\r'] => head,
        other => other,
    };
    String::from_utf8_lossy(bytes).into_owned()
}

/// Writes one response line plus `\n` and flushes — the single exit
/// point for response bytes, hosting the `serve::write` failpoint.
///
/// Line and newline leave in one `write` call. Written separately on a
/// TCP socket, the one-byte newline would sit behind Nagle's algorithm
/// until the client's delayed ACK of the line, about 40 ms, on every
/// response.
///
/// # Errors
///
/// Stream write errors, injected faults included. A short-write fault
/// transfers a prefix and then fails, simulating a torn frame; callers
/// treat any error as connection-fatal (the invariant covers completed
/// responses only).
pub fn write_line<W: Write>(writer: &mut W, line: &str) -> io::Result<()> {
    match failpoint::hit("serve::write") {
        Some(FailAction::IoError) => {
            return Err(io::Error::other("injected fault at serve::write"));
        }
        Some(FailAction::ShortIo) => {
            let half = line.len() / 2;
            writer.write_all(&line.as_bytes()[..half])?;
            let _ = writer.flush();
            return Err(io::Error::other("injected short write at serve::write"));
        }
        Some(FailAction::Panic) => panic!("failpoint serve::write: forced panic"),
        _ => {}
    }
    let mut frame = Vec::with_capacity(line.len() + 1);
    frame.extend_from_slice(line.as_bytes());
    frame.push(b'\n');
    writer.write_all(&frame)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(input: &[u8], max_line: usize) -> Vec<Frame> {
        let mut reader = FrameReader::new(input, max_line);
        let mut out = Vec::new();
        loop {
            let frame = reader.next_frame().unwrap();
            let eof = matches!(frame, Frame::Eof { .. });
            out.push(frame);
            if eof {
                return out;
            }
        }
    }

    #[test]
    fn splits_lines_and_strips_cr() {
        let got = frames(b"a\nbb\r\n\nccc", 100);
        assert_eq!(
            got,
            [
                Frame::Line("a".into()),
                Frame::Line("bb".into()),
                Frame::Line(String::new()),
                Frame::Eof {
                    partial: Some("ccc".into())
                },
            ]
        );
    }

    #[test]
    fn clean_eof_has_no_partial() {
        assert_eq!(
            frames(b"x\n", 100),
            [Frame::Line("x".into()), Frame::Eof { partial: None }]
        );
        assert_eq!(frames(b"", 100), [Frame::Eof { partial: None }]);
    }

    #[test]
    fn oversized_line_is_reported_once_and_skipped() {
        let mut input = vec![b'y'; 9000];
        input.extend_from_slice(b"\nok\n");
        let got = frames(&input, 16);
        assert_eq!(
            got,
            [
                Frame::Oversized { limit: 16 },
                Frame::Line("ok".into()),
                Frame::Eof { partial: None },
            ]
        );
    }

    #[test]
    fn oversized_line_at_eof_stays_silent_after_report() {
        let input = vec![b'z'; 50];
        let got = frames(&input, 16);
        assert_eq!(
            got,
            [Frame::Oversized { limit: 16 }, Frame::Eof { partial: None }]
        );
    }

    #[test]
    fn oversized_line_arriving_with_its_newline_is_still_bounded() {
        let got = frames(b"aaaaaaaaaaaaaaaaaaaaaaaa\nok\n", 16);
        assert_eq!(
            got,
            [
                Frame::Oversized { limit: 16 },
                Frame::Line("ok".into()),
                Frame::Eof { partial: None },
            ]
        );
    }

    #[test]
    fn exact_bound_is_not_oversized() {
        let mut input = vec![b'a'; 16];
        input.push(b'\n');
        assert_eq!(
            frames(&input, 16),
            [Frame::Line("a".repeat(16)), Frame::Eof { partial: None }]
        );
    }

    #[test]
    fn invalid_utf8_is_decoded_lossily_not_fatal() {
        let got = frames(b"\xff\xfe{\n", 100);
        match &got[0] {
            Frame::Line(l) => assert!(l.contains('\u{fffd}') && l.contains('{')),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn would_block_surfaces_as_idle() {
        struct Blocky(u8);
        impl Read for Blocky {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.0 += 1;
                match self.0 {
                    1 => Err(io::Error::from(io::ErrorKind::WouldBlock)),
                    2 => {
                        buf[..2].copy_from_slice(b"p\n");
                        Ok(2)
                    }
                    _ => Ok(0),
                }
            }
        }
        let mut reader = FrameReader::new(Blocky(0), 100);
        assert_eq!(reader.next_frame().unwrap(), Frame::Idle);
        assert_eq!(reader.next_frame().unwrap(), Frame::Line("p".into()));
        assert_eq!(reader.next_frame().unwrap(), Frame::Eof { partial: None });
    }

    #[test]
    fn injected_read_fault_is_an_error_short_read_is_not() {
        clockroute_core::failpoint::disarm_all();
        clockroute_core::failpoint::arm("serve::read", FailAction::IoError, 1);
        let mut reader = FrameReader::new(&b"q\n"[..], 100);
        assert!(reader.next_frame().is_err());
        clockroute_core::failpoint::arm("serve::read", FailAction::ShortIo, 1);
        let mut reader = FrameReader::new(&b"q\n"[..], 100);
        // The short read trickles in one byte at a time but still
        // assembles the full frame.
        assert_eq!(reader.next_frame().unwrap(), Frame::Line("q".into()));
        clockroute_core::failpoint::disarm_all();
    }

    /// Counts `write` calls and keeps the bytes.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_frame_is_one_write_call() {
        let mut out = CountingWriter::default();
        let report = "r".repeat(100_000);
        for (i, line) in ["{\"pong\":true}", "", report.as_str()].iter().enumerate() {
            write_line(&mut out, line).unwrap();
            assert_eq!(out.writes, i + 1, "frame {i} must be a single write");
        }
        assert_eq!(
            out.bytes,
            format!("{{\"pong\":true}}\n\n{report}\n").as_bytes()
        );
    }

    #[test]
    fn injected_write_faults() {
        clockroute_core::failpoint::disarm_all();
        let mut out = Vec::new();
        write_line(&mut out, "hello").unwrap();
        assert_eq!(out, b"hello\n");
        clockroute_core::failpoint::arm("serve::write", FailAction::ShortIo, 1);
        let mut torn = CountingWriter::default();
        assert!(write_line(&mut torn, "hello").is_err());
        assert_eq!(torn.bytes, b"he", "prefix written, frame torn");
        clockroute_core::failpoint::arm("serve::write", FailAction::IoError, 1);
        let mut none = Vec::new();
        assert!(write_line(&mut none, "hello").is_err());
        assert!(none.is_empty());
        clockroute_core::failpoint::disarm_all();
    }
}

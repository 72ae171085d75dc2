//! Newline framing shared by the fleet and serve wire protocols.

use std::io::{self, Read};

/// The longest line a [`LineReader`] accepts, not counting its `\n`.
///
/// Far above any legitimate message (a 1024-query serve `DECIDE` is about
/// 20 KB, a fleet `RECORD` a few KB) and small enough that a peer streaming
/// bytes without a newline cannot make the reader buffer without bound.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Timeout-safe, bounded line framing over any [`Read`].
///
/// `BufReader::read_line` cannot be used on a socket with a read timeout:
/// on `Err` its UTF-8 guard discards whatever partial bytes were already
/// appended, so a timeout mid-line silently eats the line's prefix. This
/// reader keeps partial data in its own buffer across
/// [`WouldBlock`](io::ErrorKind::WouldBlock)/[`TimedOut`](io::ErrorKind::TimedOut)
/// errors — the fleet queen and the serve server poll their sockets with a
/// short read timeout so they can notice shutdown — and resumes each line
/// exactly where it left off. Each byte is searched for `\n` once, however
/// many reads a line takes to arrive.
#[derive(Debug)]
pub struct LineReader<R> {
    inner: R,
    buf: Vec<u8>,
    /// Length of the prefix of `buf` already searched for `\n`.
    scanned: usize,
}

impl<R: Read> LineReader<R> {
    /// Wraps a byte stream.
    pub fn new(inner: R) -> LineReader<R> {
        LineReader {
            inner,
            buf: Vec::new(),
            scanned: 0,
        }
    }

    /// Reads the next `\n`-terminated line, without the newline (a
    /// trailing `\r` is also stripped). `Ok(None)` is end-of-stream; any
    /// unterminated bytes at EOF are a torn line from a dying peer and
    /// are dropped, exactly as the checkpoint scan drops a torn tail.
    ///
    /// # Errors
    ///
    /// Propagates the underlying read error. On
    /// [`WouldBlock`](io::ErrorKind::WouldBlock)/[`TimedOut`](io::ErrorKind::TimedOut)
    /// the partial line stays buffered; call again to continue it.
    /// [`InvalidData`](io::ErrorKind::InvalidData) for a line that is not
    /// UTF-8 or is longer than [`MAX_LINE_BYTES`]; after an over-long
    /// line the stream cannot be resynchronised, so drop the connection.
    pub fn read_line(&mut self) -> io::Result<Option<String>> {
        loop {
            if let Some(i) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
                let end = self.scanned + i;
                if end > MAX_LINE_BYTES {
                    return Err(too_long());
                }
                let mut line: Vec<u8> = self.buf.drain(..=end).collect();
                self.scanned = 0;
                line.pop(); // the newline
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                let line = String::from_utf8(line)
                    .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 line"))?;
                return Ok(Some(line));
            }
            self.scanned = self.buf.len();
            if self.scanned > MAX_LINE_BYTES {
                return Err(too_long());
            }
            let mut chunk = [0u8; 4096];
            match self.inner.read(&mut chunk) {
                Ok(0) => return Ok(None),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) => return Err(e),
            }
        }
    }
}

fn too_long() -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("line longer than {MAX_LINE_BYTES} bytes"),
    )
}

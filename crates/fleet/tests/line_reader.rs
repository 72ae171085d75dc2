//! Framing properties of the `LineReader` the fleet and serve protocols
//! share: however a message is split across reads, the lines that come
//! out are identical, and a line longer than `MAX_LINE_BYTES` is an
//! error rather than an unbounded buffer.
//!
//! The chaos transport's whole fault model rests on this — split writes
//! tear lines at arbitrary byte offsets, stalls inject `WouldBlock`
//! mid-line, and a reset can leave a torn tail — so the reader's
//! contract ("a line is a line whatever the packetization; an
//! unterminated tail at EOF is dropped") is pinned here exhaustively for
//! two-part splits and probabilistically for arbitrary ones.

use std::cell::Cell;
use std::collections::VecDeque;
use std::io::{self, Read};
use std::rc::Rc;

use cohmeleon_chaos::MAX_LINE_BYTES;
use cohmeleon_fleet::LineReader;
use proptest::prelude::*;

/// A reader that yields pre-scripted results in order, then EOF. A chunk
/// larger than the caller's buffer is handed out over several reads.
struct Scripted {
    chunks: VecDeque<io::Result<Vec<u8>>>,
    /// Bytes of the front chunk already handed out.
    offset: usize,
    /// `WouldBlock` errors handed out so far.
    stalls: Rc<Cell<usize>>,
}

impl Scripted {
    fn new(chunks: Vec<io::Result<Vec<u8>>>) -> Scripted {
        Scripted {
            chunks: chunks.into(),
            offset: 0,
            stalls: Rc::default(),
        }
    }
}

impl Read for Scripted {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.chunks.front() {
            None => Ok(0),
            Some(Err(_)) => {
                let e = self.chunks.pop_front().unwrap().unwrap_err();
                if e.kind() == io::ErrorKind::WouldBlock {
                    self.stalls.set(self.stalls.get() + 1);
                }
                Err(e)
            }
            Some(Ok(bytes)) => {
                let rest = &bytes[self.offset..];
                let n = rest.len().min(buf.len());
                buf[..n].copy_from_slice(&rest[..n]);
                self.offset += n;
                if self.offset == bytes.len() {
                    self.chunks.pop_front();
                    self.offset = 0;
                }
                Ok(n)
            }
        }
    }
}

/// A realistic wire burst: several complete fleet lines, then a torn
/// RECORD a dying worker never finished.
const MESSAGE: &[u8] = b"HELLO fleet/1 worker-7\nLEASE\nRECORD 3 {\"scenario\":\"soc1\",\"seed\":9}\nHEARTBEAT 3\nDONE 3\nRECORD 4 {\"to";

/// The lines every split of [`MESSAGE`] must produce — the torn
/// `RECORD 4` tail is never one of them.
fn expected_lines() -> Vec<String> {
    vec![
        "HELLO fleet/1 worker-7".to_string(),
        "LEASE".to_string(),
        "RECORD 3 {\"scenario\":\"soc1\",\"seed\":9}".to_string(),
        "HEARTBEAT 3".to_string(),
        "DONE 3".to_string(),
    ]
}

/// Drains a scripted stream to EOF, retrying through any `WouldBlock`.
fn collect_lines(chunks: Vec<io::Result<Vec<u8>>>) -> Vec<String> {
    match collect_until_error(chunks) {
        (lines, None) => lines,
        (_, Some(kind)) => panic!("unexpected read error: {kind:?}"),
    }
}

/// Drains a scripted stream to EOF or to its first error other than
/// `WouldBlock`, returning the lines read and that error's kind.
///
/// The queen and the server poll for shutdown between reads, so every
/// stall the stream delivered must reach the caller as a `WouldBlock`
/// rather than be retried inside the reader, and a stream read to its end
/// has delivered every stall injected into it; this asserts both.
fn collect_until_error(chunks: Vec<io::Result<Vec<u8>>>) -> (Vec<String>, Option<io::ErrorKind>) {
    let injected = chunks
        .iter()
        .filter(|c| matches!(c, Err(e) if e.kind() == io::ErrorKind::WouldBlock))
        .count();
    let source = Scripted::new(chunks);
    let delivered = Rc::clone(&source.stalls);
    let mut reader = LineReader::new(source);
    let mut lines = Vec::new();
    let mut seen = 0;
    let outcome = loop {
        match reader.read_line() {
            Ok(Some(line)) => lines.push(line),
            Ok(None) => break None,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => seen += 1,
            Err(e) => break Some(e.kind()),
        }
    };
    assert_eq!(seen, delivered.get(), "a stall was swallowed by the reader");
    if outcome.is_none() {
        assert_eq!(
            delivered.get(),
            injected,
            "the stream ended with stalls unread"
        );
    }
    (lines, outcome)
}

/// Bytes of [`MESSAGE`] before the `NOTE` line [`with_note`] inserts.
const NOTE_AT: usize = b"HELLO fleet/1 worker-7\nLEASE\n".len();

/// [`MESSAGE`] with a newline-free `NOTE` line of `len` bytes after
/// `LEASE`, and the outcome reading it must have: every line, or — if
/// the note is longer than [`MAX_LINE_BYTES`] — the lines before it and
/// then `InvalidData`.
fn with_note(len: usize) -> (Vec<u8>, (Vec<String>, Option<io::ErrorKind>)) {
    let note = format!("NOTE {}", "x".repeat(len - 5));
    let mut message = MESSAGE[..NOTE_AT].to_vec();
    message.extend_from_slice(note.as_bytes());
    message.push(b'\n');
    message.extend_from_slice(&MESSAGE[NOTE_AT..]);
    let mut lines = expected_lines();
    let outcome = if len > MAX_LINE_BYTES {
        lines.truncate(2);
        (lines, Some(io::ErrorKind::InvalidData))
    } else {
        lines.insert(2, note);
        (lines, None)
    };
    (message, outcome)
}

#[test]
fn every_two_part_split_yields_identical_lines() {
    let expected = expected_lines();
    for cut in 0..=MESSAGE.len() {
        let mut chunks = Vec::new();
        if cut > 0 {
            chunks.push(Ok(MESSAGE[..cut].to_vec()));
        }
        if cut < MESSAGE.len() {
            chunks.push(Ok(MESSAGE[cut..].to_vec()));
        }
        assert_eq!(
            collect_lines(chunks),
            expected,
            "split at byte {cut} changed the framing"
        );
    }
}

#[test]
fn every_uniform_chunk_size_yields_identical_lines() {
    let expected = expected_lines();
    for size in 1..=MESSAGE.len() {
        let chunks = MESSAGE
            .chunks(size)
            .map(|c| Ok(c.to_vec()))
            .collect::<Vec<_>>();
        assert_eq!(
            collect_lines(chunks),
            expected,
            "chunk size {size} changed the framing"
        );
    }
}

#[test]
fn a_line_at_the_limit_passes_and_one_byte_more_fails() {
    for len in [MAX_LINE_BYTES, MAX_LINE_BYTES + 1] {
        let (message, expected) = with_note(len);
        // The whole message in one read, and the note's newline held back
        // behind a stall: the bound holds whether or not the newline has
        // arrived when the line crosses it.
        let at_once = vec![Ok(message.clone())];
        let held_back = vec![
            Ok(message[..NOTE_AT + len].to_vec()),
            Err(io::Error::new(io::ErrorKind::WouldBlock, "stall")),
            Ok(message[NOTE_AT + len..].to_vec()),
        ];
        for chunks in [at_once, held_back] {
            assert_eq!(collect_until_error(chunks), expected, "note of {len} bytes");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary multi-way splits with `WouldBlock` timeouts scattered
    /// between (and inside) lines — exactly what a chaos split-write plus
    /// a read stall produces — still frame identically. A `NOTE` line of
    /// random length rides along: short, or within 2 KiB either side of
    /// [`MAX_LINE_BYTES`], so the reader also sees long newline-free
    /// chunks and chunks larger than its own read buffer, and must reject
    /// exactly the notes over the limit.
    #[test]
    fn random_splits_with_timeouts_yield_identical_lines(
        cuts in proptest::collection::vec(any::<u32>(), 0..8),
        stall_mask in any::<u16>(),
        (near_limit, pad) in (any::<bool>(), 0usize..4096),
    ) {
        let len = if near_limit { MAX_LINE_BYTES - 2048 + pad } else { 5 + pad };
        let (message, expected) = with_note(len);
        let mut cuts: Vec<usize> = cuts.iter().map(|&c| c as usize % message.len()).collect();
        cuts.sort_unstable();
        cuts.dedup();
        let mut chunks: Vec<io::Result<Vec<u8>>> = Vec::new();
        let mut start = 0;
        for (i, &cut) in cuts.iter().chain(std::iter::once(&message.len())).enumerate() {
            if stall_mask & (1 << (i as u32 % 16)) != 0 {
                chunks.push(Err(io::Error::new(io::ErrorKind::WouldBlock, "stall")));
            }
            if cut > start {
                chunks.push(Ok(message[start..cut].to_vec()));
            }
            start = cut;
        }
        prop_assert_eq!(collect_until_error(chunks), expected);
    }
}

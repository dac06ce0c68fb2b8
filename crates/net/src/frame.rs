//! Length-prefixed framing over byte streams.
//!
//! A frame is `u32_le body_len` followed by `body_len` bytes. The reader
//! is *incremental*: it accumulates whatever the stream yields and pops
//! complete frames when available, so a read timeout in the middle of a
//! frame (the server's shutdown-observation tick) loses nothing — the
//! partial bytes stay buffered and the next fill continues where the
//! stream left off.

use bytes::Bytes;
use std::io::{Read, Write};

/// Hard cap on one frame body; larger prefixes are a protocol error
/// (protects the server from a garbage length burning 4 GiB).
pub(crate) const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Frame-body mode byte: fire-and-forget, no response. The body is
/// `[MODE_CAST][request]`.
pub const MODE_CAST: u8 = 1;
/// Mode byte of a call without an epoch; bit 0 set adds the epoch.
const MODE_CALL: u8 = 2;

/// The header of a call frame body:
/// `[mode][u32_le seq][u64_le epoch iff mode bit 0][request]`, answered
/// by a frame `[u32_le seq][response]`. The sequence id lets many calls
/// share one connection and resolve in any order. The epoch is the
/// caller's membership epoch: the server refuses a placement-dependent
/// request stamped with a stale one (`MetaError::WrongEpoch`). It lives
/// in the *frame*, not in `RegistryRequest`, so the simulator's
/// wire-size accounting (and the repro pipeline's byte-identical CSVs)
/// never see it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CallHeader {
    /// Per-connection sequence id, echoed ahead of the response.
    pub seq: u32,
    /// Membership epoch the caller planned under; `None` for requests
    /// that must work from stale clients.
    pub epoch: Option<u64>,
}

impl CallHeader {
    /// Bytes a header carrying `epoch` occupies.
    pub(crate) fn encoded_len(epoch: Option<u64>) -> usize {
        1 + 4 + if epoch.is_some() { 8 } else { 0 }
    }

    /// Append the header to `out`.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(MODE_CALL | u8::from(self.epoch.is_some()));
        out.extend_from_slice(&self.seq.to_le_bytes());
        if let Some(epoch) = self.epoch {
            out.extend_from_slice(&epoch.to_le_bytes());
        }
    }

    /// Split a call frame body into its header and the offset of the
    /// request behind it. `None` — a mode byte that is not a call, or a
    /// body shorter than its header — is a protocol violation: there is
    /// no sequence id to answer under, so the connection is dropped.
    pub fn parse(body: &[u8]) -> Option<(CallHeader, usize)> {
        let mode = *body.first()?;
        if mode & !1 != MODE_CALL {
            return None;
        }
        let seq = u32::from_le_bytes(body.get(1..5)?.try_into().ok()?);
        let epoch = match mode & 1 {
            0 => None,
            _ => Some(u64::from_le_bytes(body.get(5..13)?.try_into().ok()?)),
        };
        Some((CallHeader { seq, epoch }, CallHeader::encoded_len(epoch)))
    }
}

/// Write one frame whose body is a mode byte followed by `body` — without
/// materializing the concatenation (the cast path would otherwise copy
/// every encoded message just to prepend one byte). Two writes: a 5-byte
/// stack header, then the payload. The mode byte counts against
/// [`MAX_FRAME`]: the frame body on the wire is `body.len() + 1` bytes.
/// An oversized body is refused with `InvalidData` — in release builds
/// too; the peer would reject the length prefix mid-stream, which is a
/// far worse failure than refusing to send.
pub fn write_frame_with_mode(w: &mut impl Write, mode: u8, body: &[u8]) -> std::io::Result<()> {
    if body.len() + 1 > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame body {} exceeds cap {MAX_FRAME}", body.len() + 1),
        ));
    }
    let mut head = [0u8; 5];
    head[..4].copy_from_slice(&((body.len() + 1) as u32).to_le_bytes());
    head[4] = mode;
    w.write_all(&head)?;
    w.write_all(body)
}

/// What one [`FrameReader::fill`] call observed on the stream.
#[derive(Debug, PartialEq, Eq)]
pub enum Fill {
    /// Bytes arrived and filled all the space offered: more may be
    /// waiting, so a draining loop fills again.
    Progress,
    /// Bytes arrived, fewer than offered: the stream is drained for now.
    /// A readiness loop stops here instead of paying one more read to be
    /// told `WouldBlock`; the level-triggered poller re-fires for anything
    /// that lands later, a FIN included.
    Short,
    /// The peer closed the stream cleanly.
    Eof,
    /// The read timed out / would block; buffered state is intact.
    Idle,
}

/// Least space one [`FrameReader::fill`] offers the stream.
const READ_CHUNK: usize = 16 * 1024;
/// Max fills per [`FrameReader::drain`]: bounds how long one firehose
/// connection can hold the thread that reads it.
pub(crate) const MAX_FILLS_PER_PASS: usize = 16;

/// Incremental frame decoder for a nonblocking or timeout-armed stream.
///
/// The buffer is kept initialised to its full length and `end` marks how
/// far it holds stream bytes, so a fill reads straight into the tail: no
/// per-call scratch to zero and no second copy. Consumed frames advance
/// `start` instead of memmoving the tail, so popping N pipelined frames
/// is O(total bytes), not O(N × buffered). The one remaining copy per
/// frame (buffer → owned `Bytes`, [`FrameReader::materialize`]) is what
/// lets a decoded message's `MetaStr` views outlive the read buffer.
#[derive(Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Start of unconsumed bytes in `buf`.
    start: usize,
    /// One past the last stream byte in `buf`; the rest is spare room.
    end: usize,
}

impl FrameReader {
    /// A fresh reader with no buffered bytes.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Pull more bytes off `r`, offering it at least [`READ_CHUNK`] bytes
    /// of room. Timeouts surface as [`Fill::Idle`] rather than errors so
    /// callers can poll a shutdown flag and carry on.
    pub fn fill(&mut self, r: &mut impl Read) -> std::io::Result<Fill> {
        self.make_room();
        let room = self.buf.len() - self.end;
        match r.read(&mut self.buf[self.end..]) {
            Ok(0) => Ok(Fill::Eof),
            Ok(n) => {
                self.end += n;
                Ok(if n == room {
                    Fill::Progress
                } else {
                    Fill::Short
                })
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Ok(Fill::Idle)
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => Ok(Fill::Idle),
            Err(e) => Err(e),
        }
    }

    /// One readiness pass: fill until the stream is drained for now (a
    /// short read or `WouldBlock`), the peer closes (`Ok(true)`), or
    /// [`MAX_FILLS_PER_PASS`] reads. A level-triggered poller re-fires for
    /// whatever the pass leaves behind, a FIN after a short read included.
    pub(crate) fn drain(&mut self, r: &mut impl Read) -> std::io::Result<bool> {
        for _ in 0..MAX_FILLS_PER_PASS {
            match self.fill(r)? {
                Fill::Progress => continue,
                Fill::Short | Fill::Idle => break,
                Fill::Eof => return Ok(true),
            }
        }
        Ok(false)
    }

    /// Reclaim consumed space (amortized: only when fully drained or the
    /// dead prefix has grown past a threshold), then grow the buffer if
    /// the tail is shorter than one read chunk. Growth doubles, so the
    /// zeroing `resize` does is paid once per byte of high-water mark.
    fn make_room(&mut self) {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        } else if self.start > 64 * 1024 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.buf.len() - self.end < READ_CHUNK {
            let grown = (self.buf.len() * 2).max(self.end + READ_CHUNK);
            self.buf.resize(grown, 0);
        }
    }

    /// Pop one complete frame as an owned `Bytes`:
    /// [`FrameReader::next_frame_range`] + [`FrameReader::materialize`],
    /// for callers that keep the body past the next fill.
    pub fn next_frame(&mut self) -> std::io::Result<Option<Bytes>> {
        Ok(self
            .next_frame_range()?
            .map(|range| self.materialize(range)))
    }

    /// Pop one complete frame if buffered, as a *range into the internal
    /// buffer*; `Err` on an implausible length prefix (the connection
    /// should be dropped). The range stays valid until the next
    /// [`FrameReader::fill`] (the only call that may compact or grow); a batch
    /// loop pops every buffered range, resolves them through
    /// [`FrameReader::view`], and only then fills again. No owned `Bytes`
    /// is built, so popping a frame does not touch the heap.
    pub fn next_frame_range(&mut self) -> std::io::Result<Option<std::ops::Range<usize>>> {
        let avail = &self.buf[self.start..self.end];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
        if len > MAX_FRAME {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                // Error path: an implausible length kills the connection, never steady state.
                format!("frame length {len} exceeds cap {MAX_FRAME}"),
            ));
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let at = self.start + 4;
        self.start += 4 + len;
        Ok(Some(at..at + len))
    }

    /// Resolve a range from [`FrameReader::next_frame_range`] to its bytes.
    pub fn view(&self, range: std::ops::Range<usize>) -> &[u8] {
        &self.buf[range]
    }

    /// Copy a popped range into an owned `Bytes` — for the frames whose
    /// decoded form must outlive the read buffer (`MetaStr` views into
    /// the message body escape into the registry).
    pub(crate) fn materialize(&self, range: std::ops::Range<usize>) -> Bytes {
        Bytes::copy_from_slice(&self.buf[range])
    }

    /// Whether any partial bytes are buffered.
    #[cfg(test)]
    pub(crate) fn is_clean(&self) -> bool {
        self.start == self.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A Read that yields its script one slice per call, then EOF.
    struct Script {
        parts: Vec<Vec<u8>>,
        at: usize,
    }
    impl Read for Script {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            if self.at >= self.parts.len() {
                return Ok(0);
            }
            let part = &self.parts[self.at];
            out[..part.len()].copy_from_slice(part);
            self.at += 1;
            Ok(part.len())
        }
    }

    fn framed(body: &[u8]) -> Vec<u8> {
        let mut v = (body.len() as u32).to_le_bytes().to_vec();
        v.extend_from_slice(body);
        v
    }

    #[test]
    fn frames_survive_arbitrary_fragmentation() {
        let wire: Vec<u8> = [framed(b"hello"), framed(b""), framed(b"world!")].concat();
        // Split the wire at every byte boundary pair.
        for split in 0..wire.len() {
            let mut r = FrameReader::new();
            let mut src = Script {
                parts: vec![wire[..split].to_vec(), wire[split..].to_vec()]
                    .into_iter()
                    .filter(|p| !p.is_empty())
                    .collect(),
                at: 0,
            };
            let mut got = Vec::new();
            loop {
                while let Some(f) = r.next_frame().unwrap() {
                    got.push(f);
                }
                match r.fill(&mut src).unwrap() {
                    Fill::Eof => break,
                    _ => continue,
                }
            }
            assert_eq!(got.len(), 3, "split at {split}");
            assert_eq!(&got[0][..], b"hello");
            assert_eq!(&got[1][..], b"");
            assert_eq!(&got[2][..], b"world!");
            assert!(r.is_clean());
        }
    }

    #[test]
    fn oversized_prefix_is_an_error_not_an_allocation() {
        let mut r = FrameReader::new();
        let mut src = Script {
            parts: vec![u32::MAX.to_le_bytes().to_vec()],
            at: 0,
        };
        assert_eq!(r.fill(&mut src).unwrap(), Fill::Short);
        assert!(r.next_frame().is_err());
    }

    #[test]
    fn mode_framing_matches_concatenation() {
        let mut wire = Vec::new();
        write_frame_with_mode(&mut wire, 7, &[1, 2, 3]).unwrap();
        assert_eq!(wire, framed(&[7u8, 1, 2, 3]));
    }

    #[test]
    fn oversized_writes_are_refused_in_release_builds_too() {
        // The mode byte counts against the cap.
        let body = vec![0u8; MAX_FRAME];
        let mut sink = Vec::new();
        let err = write_frame_with_mode(&mut sink, 0, &body).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(sink.is_empty(), "nothing reaches the wire");
        // A mode-framed body of MAX_FRAME - 1 is the largest that fits,
        // and the reader accepts it back.
        let mut wire = Vec::new();
        write_frame_with_mode(&mut wire, 3, &body[..MAX_FRAME - 1]).unwrap();
        let mut r = FrameReader::new();
        let mut src = Script {
            parts: wire.chunks(16 * 1024).map(|c| c.to_vec()).collect(),
            at: 0,
        };
        loop {
            if let Some(f) = r.next_frame().unwrap() {
                assert_eq!(f.len(), MAX_FRAME);
                assert_eq!(f[0], 3);
                break;
            }
            assert!(matches!(
                r.fill(&mut src).unwrap(),
                Fill::Progress | Fill::Short
            ));
        }
    }

    /// A drained nonblocking socket: hands out as much of one byte string
    /// as fits, then reports `WouldBlock`. Counts the reads it was asked for.
    struct Nonblocking {
        bytes: Vec<u8>,
        reads: usize,
    }
    impl Read for Nonblocking {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            if self.bytes.is_empty() {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let n = out.len().min(self.bytes.len());
            out[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes.drain(..n);
            Ok(n)
        }
    }

    #[test]
    fn a_pass_stops_at_a_short_read_but_not_at_an_exactly_full_one() {
        let socket = |bytes: Vec<u8>| Nonblocking { bytes, reads: 0 };
        // One frame sized to the reader's first offer, to the byte: the
        // stream is drained, but the reader cannot know — it reports
        // Progress, so the pass reads once more and learns it from Idle.
        let body = vec![7u8; READ_CHUNK - 4];
        let mut src = socket(framed(&body));
        let mut r = FrameReader::new();
        assert_eq!(r.fill(&mut src).unwrap(), Fill::Progress);
        assert_eq!(r.fill(&mut src).unwrap(), Fill::Idle);
        assert_eq!(&r.next_frame().unwrap().unwrap()[..], &body[..]);
        let (mut r, mut src) = (FrameReader::new(), socket(framed(&body)));
        assert!(!r.drain(&mut src).unwrap());
        assert_eq!(src.reads, 2, "an exactly full read is followed by another");
        assert_eq!(r.next_frame().unwrap().unwrap().len(), body.len());
        // A byte less than the offer is a short read: the pass ends there,
        // without a read that only collects `WouldBlock`.
        let mut src = socket(framed(&body[1..]));
        assert!(!r.drain(&mut src).unwrap());
        assert_eq!(src.reads, 1, "a short read ends the pass");
        assert_eq!(r.next_frame().unwrap().unwrap().len(), body.len() - 1);
        assert!(r.is_clean());
        // More than one offer: Progress until the tail, then Short.
        let mut src = socket(framed(&vec![9u8; 5 * READ_CHUNK]));
        let mut fills = Vec::new();
        while r.next_frame_range().unwrap().is_none() {
            fills.push(r.fill(&mut src).unwrap());
        }
        let (last, before) = fills.split_last().unwrap();
        assert_eq!(*last, Fill::Short);
        assert!(before.iter().all(|f| *f == Fill::Progress));
    }

    #[test]
    fn call_header_roundtrips_and_rejects_everything_else() {
        for (epoch, mode, len) in [(None, 2u8, 5usize), (Some(0xDEAD_BEEF_0042), 3, 13)] {
            let header = CallHeader {
                seq: 0x0102_0304,
                epoch,
            };
            let mut body = Vec::new();
            header.encode_into(&mut body);
            // The byte values every deployed client already sends.
            assert_eq!(body[0], mode);
            assert_eq!(body.len(), len);
            assert_eq!(body.len(), CallHeader::encoded_len(epoch));
            body.extend_from_slice(b"req");
            assert_eq!(CallHeader::parse(&body), Some((header, len)));
            assert_eq!(&body[len..], b"req");
            // A body shorter than its header has no usable seq: drop.
            for cut in 0..len {
                assert_eq!(CallHeader::parse(&body[..cut]), None, "cut at {cut}");
            }
        }
        // Only 2 and 3 are calls; a full-length body does not help.
        for mode in (0u8..=1).chain(4..=255) {
            let mut body = vec![mode];
            body.extend_from_slice(&[0u8; 16]);
            assert_eq!(CallHeader::parse(&body), None, "mode {mode}");
        }
    }

    #[test]
    fn range_frames_match_owned_frames() {
        let wire: Vec<u8> = [framed(b"hello"), framed(b""), framed(b"world!")].concat();
        let mut owned = FrameReader::new();
        let mut ranged = FrameReader::new();
        let mut src_a = Script {
            parts: vec![wire.clone()],
            at: 0,
        };
        let mut src_b = Script {
            parts: vec![wire],
            at: 0,
        };
        owned.fill(&mut src_a).unwrap();
        ranged.fill(&mut src_b).unwrap();
        // Pop every buffered range first — they must all stay valid
        // (and correct) until the next fill.
        let mut ranges = Vec::new();
        while let Some(r) = ranged.next_frame_range().unwrap() {
            ranges.push(r);
        }
        let mut i = 0;
        while let Some(f) = owned.next_frame().unwrap() {
            assert_eq!(&f[..], ranged.view(ranges[i].clone()));
            assert_eq!(&f[..], &ranged.materialize(ranges[i].clone())[..]);
            i += 1;
        }
        assert_eq!(i, ranges.len());
        assert!(ranged.is_clean());
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut wire = Vec::new();
        write_frame_with_mode(&mut wire, b'a', b"bc").unwrap();
        write_frame_with_mode(&mut wire, 0, &[0u8; 99]).unwrap();
        let mut r = FrameReader::new();
        let mut src = Script {
            parts: vec![wire],
            at: 0,
        };
        r.fill(&mut src).unwrap();
        assert_eq!(&r.next_frame().unwrap().unwrap()[..], b"abc");
        assert_eq!(r.next_frame().unwrap().unwrap().len(), 100);
        assert_eq!(r.next_frame().unwrap(), None);
    }
}

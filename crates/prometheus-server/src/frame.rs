//! Framed transport: length-prefixed, CRC-protected binary frames.
//!
//! The wire frame deliberately mirrors the redo-log frame of
//! `prometheus_storage::log` so the whole system speaks one envelope format;
//! since protocol v8 the body opens with a fixed 128-bit trace id so every
//! request and response carries its distributed trace context without
//! touching the message payloads:
//!
//! ```text
//! +-------------+---------------+----------------+----------------+------------------+
//! | len: u32 LE | crc32: u32 LE | trace_hi: u64  | trace_lo: u64  | payload          |
//! +-------------+---------------+----------------+----------------+------------------+
//! |             |               |<------------- len bytes, CRC-protected ----------->|
//! ```
//!
//! `len` counts the trace words plus the payload (so it is always ≥ 16) and
//! the CRC covers both — a flipped trace bit is caught exactly like a
//! flipped payload bit. An all-zero trace id is [`TraceId::NONE`]: "no
//! trace context" (a client that doesn't care, or tracing disabled).
//!
//! The payload is a [`crate::protocol`] message encoded with
//! `prometheus_storage::codec`. As in the log reader, a maximum frame length
//! guards against a corrupted (or hostile) length word committing us to a
//! gigabyte-sized read.

use crate::error::{ServerError, ServerResult};
use prometheus_storage::codec;
use prometheus_storage::crc::crc32;
use prometheus_trace::TraceId;
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::io::{Read, Write};

/// Maximum body (trace words + payload) the reader accepts — same guard
/// idea as the redo log's `MAX_FRAME_LEN`, sized for query results rather
/// than log records.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Bytes of trace context at the head of every frame body.
const TRACE_BYTES: usize = 16;

/// Frame `msg` under `trace` into `out` (shared by the blocking writer and
/// the sans-io encoder, so there is one envelope).
fn frame_into<T: Serialize>(out: &mut Vec<u8>, trace: TraceId, msg: &T) -> ServerResult<()> {
    let payload = codec::to_bytes(msg)?;
    let body_len = TRACE_BYTES as u64 + payload.len() as u64;
    if body_len > MAX_FRAME_LEN as u64 {
        return Err(ServerError::Frame(format!(
            "message of {} bytes exceeds maximum frame size",
            payload.len()
        )));
    }
    let mut body = Vec::with_capacity(body_len as usize);
    body.extend_from_slice(&trace.hi.to_le_bytes());
    body.extend_from_slice(&trace.lo.to_le_bytes());
    body.extend_from_slice(&payload);
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out.extend_from_slice(&body);
    Ok(())
}

/// What [`parse_frame`] found at the front of a byte slice.
enum Parsed<T> {
    /// One whole frame of `len` bytes, decoded.
    Frame { len: usize, trace: TraceId, msg: T },
    /// Not yet: the slice must hold this many bytes before parsing can go on
    /// (the header, then the whole frame once the length word is known).
    Need(usize),
}

/// Parse the frame at the front of `avail` — the one place a frame from the
/// wire is validated, shared by the blocking [`read_msg`] and the incremental
/// [`FrameDecoder`]: the [`MAX_FRAME_LEN`] guard on the length word (before
/// anyone allocates or waits for that many bytes), the CRC over the body, the
/// trace envelope, then the payload codec.
fn parse_frame<T: DeserializeOwned>(avail: &[u8]) -> ServerResult<Parsed<T>> {
    if avail.len() < 8 {
        return Ok(Parsed::Need(8));
    }
    let len = u32::from_le_bytes(avail[0..4].try_into().unwrap());
    let crc = u32::from_le_bytes(avail[4..8].try_into().unwrap());
    if len > MAX_FRAME_LEN {
        return Err(ServerError::Frame(format!(
            "declared frame length {len} exceeds maximum {MAX_FRAME_LEN}"
        )));
    }
    let total = 8 + len as usize;
    if avail.len() < total {
        return Ok(Parsed::Need(total));
    }
    let body = &avail[8..total];
    if crc32(body) != crc {
        return Err(ServerError::Frame("frame failed CRC check".into()));
    }
    if body.len() < TRACE_BYTES {
        return Err(ServerError::Frame(format!(
            "frame body of {} bytes is shorter than the trace envelope",
            body.len()
        )));
    }
    let hi = u64::from_le_bytes(body[0..8].try_into().unwrap());
    let lo = u64::from_le_bytes(body[8..16].try_into().unwrap());
    let msg =
        codec::from_bytes(&body[TRACE_BYTES..]).map_err(|e| ServerError::Codec(e.to_string()))?;
    Ok(Parsed::Frame {
        len: total,
        trace: TraceId::from_words(hi, lo),
        msg,
    })
}

/// Encode `msg` and write it as one frame stamped with `trace`
/// ([`TraceId::NONE`] for "no trace context").
pub fn write_msg<W: Write, T: Serialize>(w: &mut W, trace: TraceId, msg: &T) -> ServerResult<()> {
    let mut frame = Vec::new();
    frame_into(&mut frame, trace, msg)?;
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Read one frame and decode it as its trace id plus a `T`.
///
/// A clean EOF *between* frames maps to [`ServerError::Disconnected`]; EOF
/// inside a frame (a torn header or payload) is a [`ServerError::Frame`].
pub fn read_msg<R: Read, T: DeserializeOwned>(r: &mut R) -> ServerResult<(TraceId, T)> {
    let mut frame = Vec::new();
    loop {
        match parse_frame(&frame)? {
            Parsed::Frame { trace, msg, .. } => return Ok((trace, msg)),
            Parsed::Need(total) => {
                let have = frame.len();
                frame.resize(total, 0);
                read_exact_or_disconnect(r, &mut frame[have..], have == 0)?;
            }
        }
    }
}

/// Incremental, sans-io frame decoder: feed it bytes in whatever chunks the
/// transport produces and pull complete messages out.
///
/// The client's [`read_msg`] owns its socket and can simply block for the
/// rest of a frame; a server cannot — a read hands it arbitrary slices
/// (often one syscall's worth, sometimes a single byte, sometimes half a
/// frame followed by a deadline) and it needs to know whether a whole frame
/// has arrived yet. Both server transports feed one of these. It buffers
/// input across calls and validates through the same private parser as
/// `read_msg`, so decode results are identical to the blocking reader's for
/// any split of the byte stream (property-tested in
/// `tests/frame_streaming.rs`).
///
/// ```
/// use prometheus_server::{FrameDecoder, Request};
/// use prometheus_server::frame::write_msg;
/// use prometheus_trace::TraceId;
///
/// let mut wire: Vec<u8> = Vec::new();
/// write_msg(&mut wire, TraceId::NONE, &Request::Ping).unwrap();
/// write_msg(&mut wire, TraceId::from_words(0, 7), &Request::Stats).unwrap();
///
/// let mut dec = FrameDecoder::new();
/// let (head, tail) = wire.split_at(3); // arbitrary split mid-header
/// dec.extend(head);
/// assert!(dec.next_msg::<Request>().unwrap().is_none()); // incomplete
/// dec.extend(tail);
/// assert_eq!(
///     dec.next_msg::<Request>().unwrap(),
///     Some((TraceId::NONE, Request::Ping))
/// );
/// assert_eq!(
///     dec.next_msg::<Request>().unwrap(),
///     Some((TraceId::from_words(0, 7), Request::Stats))
/// );
/// assert!(dec.at_boundary()); // clean EOF here would be a polite close
/// ```
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted lazily so `next` is O(frame), not
    /// O(buffer), even when many frames arrive in one read.
    start: usize,
}

impl FrameDecoder {
    /// An empty decoder, positioned at a frame boundary.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Append transport bytes to the internal buffer.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Reclaim the consumed prefix before growing: the buffer never holds
        // more than one partial frame plus whatever arrived with it.
        if self.start > 0 && (self.start == self.buf.len() || self.start >= 4096) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Decode the next complete frame, if one is buffered, as its trace id
    /// plus the message.
    ///
    /// `Ok(None)` means more bytes are needed. Errors are [`read_msg`]'s:
    /// an oversized length word or CRC mismatch is a fatal
    /// [`ServerError::Frame`] / [`ServerError::Codec`] — the stream is
    /// desynchronised and the connection must close.
    pub fn next_msg<T: DeserializeOwned>(&mut self) -> ServerResult<Option<(TraceId, T)>> {
        match parse_frame(&self.buf[self.start..])? {
            Parsed::Frame { len, trace, msg } => {
                self.start += len;
                Ok(Some((trace, msg)))
            }
            Parsed::Need(_) => Ok(None),
        }
    }

    /// Whether the buffer sits exactly at a frame boundary — an EOF here is
    /// a polite close ([`ServerError::Disconnected`] in the blocking
    /// reader's taxonomy), while an EOF mid-frame is a torn frame.
    pub fn at_boundary(&self) -> bool {
        self.start == self.buf.len()
    }

    /// Bytes buffered but not yet consumed by a decoded frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }
}

/// Incremental, sans-io frame encoder: queue messages, then drain the byte
/// buffer as fast as the transport accepts it.
///
/// The blocking [`write_msg`] writes and flushes in one call; an
/// event-driven writer may manage only a partial write before the socket
/// reports `WouldBlock`, and must keep the rest for the next writability
/// event. `FrameEncoder` is that carry-over buffer: [`FrameEncoder::push`]
/// frames a message exactly as `write_msg` does (same envelope, same
/// [`MAX_FRAME_LEN`] refusal), [`FrameEncoder::pending`] exposes what still
/// has to go out, and [`FrameEncoder::consume`] records transport progress.
///
/// ```
/// use prometheus_server::{FrameEncoder, Response};
/// use prometheus_trace::TraceId;
///
/// let mut enc = FrameEncoder::new();
/// enc.push(TraceId::NONE, &Response::Pong).unwrap();
/// let n = enc.pending().len(); // pretend the socket took every byte
/// enc.consume(n);
/// assert!(enc.is_empty());
/// ```
#[derive(Debug, Default)]
pub struct FrameEncoder {
    buf: Vec<u8>,
    start: usize,
}

impl FrameEncoder {
    /// An empty encoder.
    pub fn new() -> FrameEncoder {
        FrameEncoder::default()
    }

    /// Frame `msg` under `trace` and queue its bytes for the transport.
    pub fn push<T: Serialize>(&mut self, trace: TraceId, msg: &T) -> ServerResult<()> {
        if self.start > 0 && self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        frame_into(&mut self.buf, trace, msg)
    }

    /// Bytes queued but not yet taken by the transport.
    pub fn pending(&self) -> &[u8] {
        &self.buf[self.start..]
    }

    /// Record that the transport accepted the first `n` pending bytes.
    pub fn consume(&mut self, n: usize) {
        self.start += n.min(self.buf.len() - self.start);
        if self.start == self.buf.len() && self.start >= 4096 {
            self.buf.clear();
            self.start = 0;
        }
    }

    /// Whether everything queued has been handed to the transport.
    pub fn is_empty(&self) -> bool {
        self.start == self.buf.len()
    }
}

/// `read_exact` that distinguishes a clean close (no bytes read, and we are
/// at a frame boundary) from a torn frame.
fn read_exact_or_disconnect<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    at_boundary: bool,
) -> ServerResult<()> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if at_boundary && filled == 0 {
                    ServerError::Disconnected
                } else {
                    ServerError::Frame("connection closed mid-frame".into())
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ServerError::Io(e)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Request, Response};

    const T7: TraceId = TraceId::from_words(3, 7);

    #[test]
    fn frames_round_trip_through_a_buffer() {
        let mut buf: Vec<u8> = Vec::new();
        let req = Request::Query {
            pool: "select t from CT t".into(),
        };
        write_msg(&mut buf, T7, &req).unwrap();
        let (trace, back): (TraceId, Request) = read_msg(&mut &buf[..]).unwrap();
        assert_eq!(back, req);
        assert_eq!(trace, T7);
    }

    #[test]
    fn several_frames_stream_in_order() {
        let mut buf: Vec<u8> = Vec::new();
        write_msg(&mut buf, TraceId::NONE, &Request::Ping).unwrap();
        write_msg(&mut buf, T7, &Request::Stats).unwrap();
        let mut cursor = &buf[..];
        assert_eq!(
            read_msg::<_, Request>(&mut cursor).unwrap(),
            (TraceId::NONE, Request::Ping)
        );
        assert_eq!(
            read_msg::<_, Request>(&mut cursor).unwrap(),
            (T7, Request::Stats)
        );
        assert!(matches!(
            read_msg::<_, Request>(&mut cursor),
            Err(ServerError::Disconnected)
        ));
    }

    #[test]
    fn corrupt_payload_fails_crc() {
        let mut buf: Vec<u8> = Vec::new();
        write_msg(&mut buf, T7, &Response::Pong).unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0xFF;
        assert!(matches!(
            read_msg::<_, Response>(&mut &buf[..]),
            Err(ServerError::Frame(_))
        ));
    }

    #[test]
    fn corrupt_trace_word_fails_crc() {
        let mut buf: Vec<u8> = Vec::new();
        write_msg(&mut buf, T7, &Response::Pong).unwrap();
        buf[9] ^= 0xFF; // second byte of trace_hi
        assert!(matches!(
            read_msg::<_, Response>(&mut &buf[..]),
            Err(ServerError::Frame(_))
        ));
    }

    #[test]
    fn body_shorter_than_the_trace_envelope_is_rejected() {
        // A well-formed pre-v8 frame (no trace words) now fails cleanly.
        let payload = prometheus_storage::codec::to_bytes(&Request::Ping).unwrap();
        let mut buf = Vec::new();
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&crc32(&payload).to_le_bytes());
        buf.extend_from_slice(&payload);
        assert!(matches!(
            read_msg::<_, Request>(&mut &buf[..]),
            Err(ServerError::Frame(_))
        ));
    }

    #[test]
    fn oversized_length_word_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            read_msg::<_, Request>(&mut &buf[..]),
            Err(ServerError::Frame(_))
        ));
    }

    #[test]
    fn decoder_assembles_frames_from_single_bytes() {
        let mut wire: Vec<u8> = Vec::new();
        let req = Request::Query {
            pool: "select t from CT t".into(),
        };
        write_msg(&mut wire, T7, &req).unwrap();
        write_msg(&mut wire, TraceId::NONE, &Request::Ping).unwrap();
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for b in &wire {
            dec.extend(std::slice::from_ref(b));
            while let Some(msg) = dec.next_msg::<Request>().unwrap() {
                out.push(msg);
            }
        }
        assert_eq!(out, vec![(T7, req), (TraceId::NONE, Request::Ping)]);
        assert!(dec.at_boundary());
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn decoder_rejects_oversized_and_corrupt_frames() {
        let mut dec = FrameDecoder::new();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        dec.extend(&bytes);
        assert!(matches!(
            dec.next_msg::<Request>(),
            Err(ServerError::Frame(_))
        ));

        let mut wire: Vec<u8> = Vec::new();
        write_msg(&mut wire, T7, &Response::Pong).unwrap();
        let last = wire.len() - 1;
        wire[last] ^= 0xFF;
        let mut dec = FrameDecoder::new();
        dec.extend(&wire);
        assert!(matches!(
            dec.next_msg::<Response>(),
            Err(ServerError::Frame(_))
        ));
    }

    #[test]
    fn encoder_output_matches_write_msg_and_survives_partial_drains() {
        let msgs = vec![
            (TraceId::NONE, Request::Ping),
            (T7, Request::Stats),
            (TraceId::from_words(u64::MAX, 1), Request::UnitBegin),
        ];
        let mut blocking: Vec<u8> = Vec::new();
        let mut enc = FrameEncoder::new();
        for (trace, m) in &msgs {
            write_msg(&mut blocking, *trace, m).unwrap();
            enc.push(*trace, m).unwrap();
        }
        // Drain in awkward chunk sizes; the byte stream must be identical.
        let mut drained = Vec::new();
        while !enc.is_empty() {
            let take = enc.pending().len().min(5);
            drained.extend_from_slice(&enc.pending()[..take]);
            enc.consume(take);
        }
        assert_eq!(drained, blocking);
    }

    #[test]
    fn torn_frame_is_not_a_clean_disconnect() {
        let mut buf: Vec<u8> = Vec::new();
        write_msg(&mut buf, T7, &Request::Ping).unwrap();
        let torn = &buf[..buf.len() - 1];
        assert!(matches!(
            read_msg::<_, Request>(&mut &torn[..]),
            Err(ServerError::Frame(_))
        ));
    }
}

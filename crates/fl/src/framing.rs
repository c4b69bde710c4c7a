//! Length-prefixed frame layer — the unit of transmission on every
//! transport backend.
//!
//! A frame is a 4-byte little-endian length header followed by exactly
//! that many payload bytes. The header is capped at [`MAX_FRAME_BYTES`]
//! so a corrupt or hostile length can never trigger a multi-gigabyte
//! allocation: the cap is checked *before* any buffer is reserved, and
//! a torn read (stream ends mid-header or mid-payload) is a typed
//! [`FrameError::Truncated`], never a panic.
//!
//! Frame format v2 adds an optional distributed-tracing context: when
//! bit 31 of the length word ([`FRAME_FLAG_CTX`]) is set, a fixed
//! [`TRACE_CTX_BYTES`]-byte [`TraceCtx`] block sits between the header
//! and the payload. The payload cap is far below 2^31, so the flag bit
//! can never be part of a legitimate v1 length — v1 frames parse
//! unchanged through the same decoder, and a v2-aware reader skips the
//! context transparently for callers that don't want it. The context
//! block is fixed-size and read into a stack buffer, so hostile or
//! truncated context bytes are rejected before any allocation.
//!
//! Every transport backend moves the same frame bytes, and
//! `FrameHead` is the one writer of the head. A socket backend writes
//! the head and then the encoded payload in place, so a model-sized
//! payload is never copied to be framed; the channel backend, which
//! ships owned buffers through an in-process queue, copies it once into
//! its frame. Framing bugs and in-flight damage behave identically on
//! all of them.
//!
//! A socket connection reads every frame into one buffer it keeps
//! ([`read_frame_traced_into`]); the buffer grows with the payload
//! bytes that actually arrive, never with what a header claims.

use std::io::{IoSlice, Read, Write};

/// Hard cap on a frame's payload length. Anything larger is rejected at
/// encode time and, crucially, at decode time before allocation — a
/// corrupted length header errors cleanly instead of attempting the
/// allocation it claims to need.
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// Bytes of framing prepended to every payload (the length header).
pub const FRAME_HEADER_BYTES: usize = 4;

/// Size of the wire trace-context block carried by flagged (v2) frames:
/// five little-endian u64s — trace id, span id, parent span id, logical
/// round, and the sender's send timestamp in ns since its obs epoch.
pub const TRACE_CTX_BYTES: usize = 40;

/// Bit 31 of the length word marks a frame that carries a
/// [`TraceCtx`] block between the header and the payload.
/// `MAX_FRAME_BYTES` is 2^26, so this bit is never set by a legitimate
/// v1 length — old frames parse unchanged.
pub const FRAME_FLAG_CTX: u32 = 1 << 31;

/// Compact trace context embedded in a v2 frame header: enough to
/// causally link the sender's span to every downstream event the frame
/// triggers on the receiver, and to align the two process clocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCtx {
    /// Run-wide trace id (shared by every process of one seeded run).
    pub trace: u64,
    /// Id of this frame's own wire span — unique per frame, including
    /// per retry attempt, so dropped attempts are distinguishable.
    pub span: u64,
    /// Id of the sender-side span this frame was sent under (0 = none).
    pub parent: u64,
    /// Logical federation round at send time.
    pub round: u64,
    /// Send timestamp: ns since the *sender's* obs epoch. Receivers
    /// record it next to their own clock for offset estimation.
    pub send_ts_ns: u64,
}

impl TraceCtx {
    /// Serialize to the fixed wire block.
    pub fn to_bytes(&self) -> [u8; TRACE_CTX_BYTES] {
        let mut b = [0u8; TRACE_CTX_BYTES];
        for (i, v) in [
            self.trace,
            self.span,
            self.parent,
            self.round,
            self.send_ts_ns,
        ]
        .into_iter()
        .enumerate()
        {
            b[i * 8..i * 8 + 8].copy_from_slice(&v.to_le_bytes());
        }
        b
    }

    /// Deserialize from the fixed wire block. Infallible: the block is
    /// validated to be exactly [`TRACE_CTX_BYTES`] long by the caller,
    /// and every bit pattern is a valid context.
    pub fn from_bytes(b: &[u8; TRACE_CTX_BYTES]) -> Self {
        let word = |i: usize| u64::from_le_bytes(b[i * 8..i * 8 + 8].try_into().unwrap());
        Self {
            trace: word(0),
            span: word(1),
            parent: word(2),
            round: word(3),
            send_ts_ns: word(4),
        }
    }
}

/// A decoded frame: its optional trace context plus the payload bytes.
pub type TracedFrame = (Option<TraceCtx>, Vec<u8>);

/// Errors in the frame layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// A length header larger than [`MAX_FRAME_BYTES`] — corrupt or
    /// hostile. Rejected before any allocation happens.
    Oversize {
        /// The length the header claimed.
        len: u64,
    },
    /// The stream or buffer ended mid-header or mid-payload (a torn
    /// read / partial write on the other side).
    Truncated,
    /// The underlying transport failed.
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversize { len } => write!(
                f,
                "frame header claims {len} bytes (cap {MAX_FRAME_BYTES}) — corrupt or hostile"
            ),
            FrameError::Truncated => write!(f, "frame truncated mid-read"),
            FrameError::Io(kind) => write!(f, "frame I/O failed: {kind}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            FrameError::Truncated
        } else {
            FrameError::Io(e.kind())
        }
    }
}

/// Bytes a frame puts before its payload: the length word, then the
/// trace-context block if the frame carries one. Built only by
/// [`FrameHead::new`], the one place the head format is written; the
/// payload follows it on the wire as it is, never copied behind it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FrameHead {
    bytes: [u8; FRAME_HEADER_BYTES + TRACE_CTX_BYTES],
    len: usize,
}

impl FrameHead {
    /// The head of a frame carrying `payload_len` bytes, optionally
    /// tagged with a trace context (a v2 flagged frame). Context bytes
    /// are framing overhead — they never count toward the payload
    /// length in the header. An oversize payload is rejected here,
    /// before anything is written.
    pub fn new(payload_len: usize, ctx: Option<&TraceCtx>) -> Result<Self, FrameError> {
        if payload_len > MAX_FRAME_BYTES {
            return Err(FrameError::Oversize {
                len: payload_len as u64,
            });
        }
        let mut bytes = [0u8; FRAME_HEADER_BYTES + TRACE_CTX_BYTES];
        let mut word = payload_len as u32;
        let mut len = FRAME_HEADER_BYTES;
        if let Some(c) = ctx {
            word |= FRAME_FLAG_CTX;
            bytes[FRAME_HEADER_BYTES..].copy_from_slice(&c.to_bytes());
            len += TRACE_CTX_BYTES;
        }
        bytes[..FRAME_HEADER_BYTES].copy_from_slice(&word.to_le_bytes());
        Ok(Self { bytes, len })
    }

    /// The head's bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len]
    }

    /// The whole frame, head and `payload`, as one owned buffer.
    pub fn frame(&self, payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.len + payload.len());
        buf.extend_from_slice(self.as_bytes());
        buf.extend_from_slice(payload);
        buf
    }

    /// Write the head and then `payload` in place (one vectored write
    /// where the writer supports it), and flush.
    pub fn write_with<W: Write>(&self, w: &mut W, payload: &[u8]) -> std::io::Result<()> {
        let mut slices = [IoSlice::new(self.as_bytes()), IoSlice::new(payload)];
        let mut rest = &mut slices[..];
        while !rest.is_empty() {
            match w.write_vectored(rest) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => IoSlice::advance_slices(&mut rest, n),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        w.flush()
    }
}

/// Wrap a payload in a frame, optionally tagging it with a trace
/// context, as one owned buffer — what a transport that moves owned
/// frames (the channel backend) ships.
pub fn encode_frame_traced(payload: &[u8], ctx: Option<&TraceCtx>) -> Result<Vec<u8>, FrameError> {
    Ok(FrameHead::new(payload.len(), ctx)?.frame(payload))
}

/// Write one frame to a stream.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), FrameError> {
    write_frame_traced(w, payload, None)
}

/// Write one optionally-tagged frame to a stream: the head, then the
/// payload in place.
pub fn write_frame_traced<W: Write>(
    w: &mut W,
    payload: &[u8],
    ctx: Option<&TraceCtx>,
) -> Result<(), FrameError> {
    FrameHead::new(payload.len(), ctx)?.write_with(w, payload)?;
    Ok(())
}

/// Read one frame from a stream into a fresh buffer, discarding any
/// trace context. See [`read_frame_traced_into`] for the
/// close/truncation contract.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, FrameError> {
    let mut payload = Vec::new();
    Ok(read_frame_traced_into(r, &mut payload)?.map(|_| payload))
}

/// Bytes a frame read asks to reserve beyond what has arrived: a
/// claimed length is only a promise, so the payload buffer grows with
/// the bytes actually received. (A `Vec` grows at least twofold, so
/// its capacity stays within twice what arrived, or one step.)
const READ_STEP: usize = 256 * 1024;

/// Read one frame from a stream into `payload`, replacing its contents
/// and keeping its allocation — a connection reads every frame into the
/// same buffer. Returns the frame's trace context, if it carries one.
/// `Ok(None)` is a clean close — the stream ended exactly on a frame
/// boundary. A stream that ends after one or more
/// header/context/payload bytes is [`FrameError::Truncated`]. The
/// payload length is validated and the context block is read into a
/// stack buffer before anything is reserved, and the payload buffer
/// grows only as payload bytes arrive — to at most twice what arrived,
/// or 256 KiB — so a hostile length can neither allocate nor pin memory
/// the peer did not actually send.
pub fn read_frame_traced_into<R: Read>(
    r: &mut R,
    payload: &mut Vec<u8>,
) -> Result<Option<Option<TraceCtx>>, FrameError> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    let mut got = 0usize;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) => {
                return if got == 0 {
                    Ok(None) // clean close at a frame boundary
                } else {
                    Err(FrameError::Truncated)
                };
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let word = u32::from_le_bytes(header);
    let len = (word & !FRAME_FLAG_CTX) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::Oversize { len: len as u64 });
    }
    let ctx = if word & FRAME_FLAG_CTX != 0 {
        let mut block = [0u8; TRACE_CTX_BYTES];
        r.read_exact(&mut block)?;
        Some(TraceCtx::from_bytes(&block))
    } else {
        None
    };
    payload.clear();
    while payload.len() < len {
        if payload.len() == payload.capacity() {
            payload.reserve((len - payload.len()).min(READ_STEP));
        }
        // Read straight into the spare capacity (no zero-fill), never
        // past the frame's end.
        let room = (len.min(payload.capacity()) - payload.len()) as u64;
        if r.by_ref().take(room).read_to_end(payload)? == 0 {
            return Err(FrameError::Truncated);
        }
    }
    Ok(Some(ctx))
}

/// Incremental frame decoder for transports that deliver arbitrary byte
/// chunks (interleaved partial reads). Feed bytes in any fragmentation;
/// complete frames come out exactly as sent. An oversize header is
/// reported as soon as the four header bytes are present — before the
/// claimed payload is buffered.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
}

impl FrameDecoder {
    /// Fresh decoder with no buffered bytes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append raw bytes from the transport.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pop the next complete frame, if one is fully buffered, with its
    /// trace context (if tagged).
    /// The oversize check runs on the masked length as soon as the four
    /// header bytes are present — before the claimed payload (or its
    /// context block) is waited for.
    pub fn next_frame_traced(&mut self) -> Result<Option<TracedFrame>, FrameError> {
        if self.buf.len() < FRAME_HEADER_BYTES {
            return Ok(None);
        }
        let word = u32::from_le_bytes(self.buf[..FRAME_HEADER_BYTES].try_into().unwrap());
        let len = (word & !FRAME_FLAG_CTX) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(FrameError::Oversize { len: len as u64 });
        }
        let ctx_len = if word & FRAME_FLAG_CTX != 0 {
            TRACE_CTX_BYTES
        } else {
            0
        };
        let total = FRAME_HEADER_BYTES + ctx_len + len;
        if self.buf.len() < total {
            return Ok(None);
        }
        let ctx = (ctx_len > 0).then(|| {
            TraceCtx::from_bytes(
                self.buf[FRAME_HEADER_BYTES..FRAME_HEADER_BYTES + TRACE_CTX_BYTES]
                    .try_into()
                    .unwrap(),
            )
        });
        let payload = self.buf[FRAME_HEADER_BYTES + ctx_len..total].to_vec();
        self.buf.drain(..total);
        Ok(Some((ctx, payload)))
    }

    /// Whether the decoder holds no partial data — a peer that closes
    /// while this is `false` tore a frame mid-send.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrips_via_stream() {
        let payload = b"hello frames".to_vec();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        assert_eq!(wire.len(), FRAME_HEADER_BYTES + payload.len());
        let mut r = wire.as_slice();
        assert_eq!(read_frame(&mut r).unwrap(), Some(payload));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean close");
    }

    #[test]
    fn empty_payload_roundtrips() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &[]).unwrap();
        let mut r = wire.as_slice();
        assert_eq!(read_frame(&mut r).unwrap(), Some(Vec::new()));
    }

    #[test]
    fn oversize_header_rejected_before_allocation() {
        // A header claiming u32::MAX bytes: must error, not allocate
        // gigabytes. Bit 31 is the ctx flag, so the claimed length is
        // the masked word — still far beyond the cap.
        let wire = u32::MAX.to_le_bytes().to_vec();
        let claimed = u64::from(!FRAME_FLAG_CTX);
        let mut r = wire.as_slice();
        assert_eq!(
            read_frame(&mut r).unwrap_err(),
            FrameError::Oversize { len: claimed }
        );
        let mut d = FrameDecoder::new();
        d.feed(&wire);
        assert!(matches!(
            d.next_frame_traced().unwrap_err(),
            FrameError::Oversize { .. }
        ));
    }

    #[test]
    fn a_hostile_length_reserves_only_what_arrives() {
        // A header claiming the full cap, then 10 payload bytes and EOF:
        // Truncated, and the buffer grew with the bytes that came, not
        // with the claim — through the fresh-buffer reader too.
        let mut wire = (MAX_FRAME_BYTES as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&[7u8; 10]);
        let _tracking = fedknow_obs::alloc::track();
        let (_, before) = fedknow_obs::alloc::thread_totals();
        assert_eq!(
            read_frame(&mut wire.as_slice()).unwrap_err(),
            FrameError::Truncated
        );
        let (_, after) = fedknow_obs::alloc::thread_totals();
        assert!(
            after - before < 1 << 20,
            "a 10-byte frame body allocated {} bytes",
            after - before
        );
        let mut payload = Vec::new();
        assert_eq!(
            read_frame_traced_into(&mut wire.as_slice(), &mut payload).unwrap_err(),
            FrameError::Truncated
        );
        assert!(payload.capacity() < 1 << 20, "{}", payload.capacity());
    }

    #[test]
    fn a_kept_buffer_reads_each_frame_exactly() {
        // Large, then small, then empty, then large again into one
        // buffer: no stale tail, and the allocation is kept.
        let frames: Vec<Vec<u8>> = vec![
            (0..600_000).map(|i| i as u8).collect(),
            b"short".to_vec(),
            Vec::new(),
            vec![9u8; 300_000],
        ];
        let mut wire = Vec::new();
        for f in &frames {
            write_frame_traced(&mut wire, f, Some(&ctx())).unwrap();
        }
        let mut r = wire.as_slice();
        let mut payload = Vec::new();
        for f in &frames {
            let got = read_frame_traced_into(&mut r, &mut payload).unwrap();
            assert_eq!(got, Some(Some(ctx())));
            assert_eq!(&payload, f);
        }
        assert!(payload.capacity() >= 600_000);
        assert_eq!(read_frame_traced_into(&mut r, &mut payload).unwrap(), None);
    }

    #[test]
    fn oversize_payload_rejected_at_encode() {
        // Claim only — don't materialize 64 MiB; write_frame checks len.
        let big = vec![0u8; MAX_FRAME_BYTES + 1];
        assert!(matches!(
            encode_frame_traced(&big, None).unwrap_err(),
            FrameError::Oversize { .. }
        ));
        let mut sink = Vec::new();
        assert!(matches!(
            write_frame(&mut sink, &big).unwrap_err(),
            FrameError::Oversize { .. }
        ));
    }

    #[test]
    fn torn_reads_are_typed_errors() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"0123456789").unwrap();
        for cut in 1..wire.len() {
            let mut r = &wire[..cut];
            assert_eq!(
                read_frame(&mut r).unwrap_err(),
                FrameError::Truncated,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn decoder_handles_interleaved_partial_feeds() {
        let frames: Vec<Vec<u8>> = vec![b"a".to_vec(), b"".to_vec(), vec![7u8; 300]];
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f).unwrap();
        }
        // Feed one byte at a time — worst-case fragmentation.
        let mut d = FrameDecoder::new();
        let mut out = Vec::new();
        for &b in &wire {
            d.feed(&[b]);
            while let Some((_, f)) = d.next_frame_traced().unwrap() {
                out.push(f);
            }
        }
        assert_eq!(out, frames);
        assert!(d.is_empty());
    }

    fn ctx() -> TraceCtx {
        TraceCtx {
            trace: 0xABCD_1234,
            span: 7,
            parent: 3,
            round: 12,
            send_ts_ns: 1_000_000_007,
        }
    }

    #[test]
    fn traced_frame_roundtrips_via_stream_and_decoder() {
        let payload = b"traced payload".to_vec();
        let mut wire = Vec::new();
        write_frame_traced(&mut wire, &payload, Some(&ctx())).unwrap();
        assert_eq!(
            wire.len(),
            FRAME_HEADER_BYTES + TRACE_CTX_BYTES + payload.len()
        );

        let mut r = wire.as_slice();
        let mut got = Vec::new();
        let got_ctx = read_frame_traced_into(&mut r, &mut got).unwrap().unwrap();
        assert_eq!(got_ctx, Some(ctx()));
        assert_eq!(got, payload);
        assert_eq!(
            read_frame_traced_into(&mut r, &mut got).unwrap(),
            None,
            "clean close"
        );

        // Byte-at-a-time through the incremental decoder.
        let mut d = FrameDecoder::new();
        let mut out = None;
        for &b in &wire {
            d.feed(&[b]);
            if let Some(f) = d.next_frame_traced().unwrap() {
                out = Some(f);
            }
        }
        assert_eq!(out, Some((Some(ctx()), payload)));
        assert!(d.is_empty());
    }

    #[test]
    fn untraced_reader_skips_the_context() {
        // The v1-shaped reader still works on v2 frames: ctx is dropped
        // (the decoder hands it over with the payload).
        let mut wire = Vec::new();
        write_frame_traced(&mut wire, b"x", Some(&ctx())).unwrap();
        let mut r = wire.as_slice();
        assert_eq!(read_frame(&mut r).unwrap(), Some(b"x".to_vec()));
        let mut d = FrameDecoder::new();
        d.feed(&wire);
        assert_eq!(
            d.next_frame_traced().unwrap(),
            Some((Some(ctx()), b"x".to_vec()))
        );
    }

    #[test]
    fn mixed_version_streams_interleave() {
        // v1 and v2 frames on the same stream, decoded in order by one
        // reader — old frames still parse.
        let mut wire = Vec::new();
        write_frame(&mut wire, b"old").unwrap();
        write_frame_traced(&mut wire, b"new", Some(&ctx())).unwrap();
        write_frame(&mut wire, b"old2").unwrap();
        let mut r = wire.as_slice();
        let mut got = Vec::new();
        for (want_ctx, want) in [(None, &b"old"[..]), (Some(ctx()), b"new"), (None, b"old2")] {
            assert_eq!(
                read_frame_traced_into(&mut r, &mut got).unwrap(),
                Some(want_ctx)
            );
            assert_eq!(got, want);
        }
        assert_eq!(read_frame_traced_into(&mut r, &mut got).unwrap(), None);
    }

    #[test]
    fn torn_context_is_a_typed_error() {
        // Cut the stream at every offset inside the context block and
        // the payload: always Truncated, never a panic or partial frame.
        let mut wire = Vec::new();
        write_frame_traced(&mut wire, b"0123456789", Some(&ctx())).unwrap();
        for cut in 1..wire.len() {
            let mut r = &wire[..cut];
            assert_eq!(
                read_frame_traced_into(&mut r, &mut Vec::new()).unwrap_err(),
                FrameError::Truncated,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn trace_ctx_bytes_roundtrip() {
        let c = ctx();
        assert_eq!(TraceCtx::from_bytes(&c.to_bytes()), c);
        let zero = TraceCtx::default();
        assert_eq!(TraceCtx::from_bytes(&zero.to_bytes()), zero);
    }

    #[test]
    fn error_messages_name_the_problem() {
        let shown = FrameError::Oversize { len: 1 << 40 }.to_string();
        assert!(shown.contains("corrupt or hostile"), "{shown}");
        assert!(FrameError::Truncated.to_string().contains("truncated"));
        let io = FrameError::from(std::io::Error::from(std::io::ErrorKind::UnexpectedEof));
        assert_eq!(io, FrameError::Truncated);
    }
}

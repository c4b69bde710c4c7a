//! Length-prefixed frame layer — the unit of transmission on every
//! transport backend.
//!
//! A frame is a 4-byte little-endian payload length and exactly that
//! many payload bytes: `[u32 length][payload]`. The length is capped at
//! [`MAX_FRAME_BYTES`] so a corrupt or hostile header can never trigger
//! a multi-gigabyte allocation: the cap is checked as soon as the four
//! length bytes are in, *before* any buffer is reserved, and a torn
//! read (stream ends mid-header or mid-payload) is a typed
//! [`FrameError::Truncated`], never a panic.
//!
//! `FrameHead` is the one writer of a frame's head. A sender writes the
//! head and then the encoded payload in place, so a model-sized payload
//! is never copied to be framed, and [`read_frame_into`] is the one
//! parser: a socket connection reads every frame into one buffer it
//! keeps, which grows with the payload bytes that actually arrive,
//! never with what a header claims.

use std::io::{IoSlice, Read, Write};

/// Hard cap on a frame's payload length. Anything larger is rejected at
/// encode time and, crucially, at decode time before allocation — a
/// corrupted length header errors cleanly instead of attempting the
/// allocation it claims to need.
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// Bytes of a frame's length word — the whole framing overhead.
pub const FRAME_HEADER_BYTES: usize = 4;

/// Errors in the frame layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// A length header larger than [`MAX_FRAME_BYTES`] — corrupt or
    /// hostile. Rejected before any allocation happens.
    Oversize {
        /// The length the header claimed.
        len: u64,
    },
    /// The stream ended mid-header or mid-payload (a torn read /
    /// partial write on the other side).
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

/// A frame's head: the length word. Built only by [`FrameHead::new`],
/// the one place the head format is written; the payload follows it on
/// the wire as it is, never copied behind it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FrameHead([u8; FrameHead::BYTES]);

impl FrameHead {
    /// Bytes of framing before every payload.
    pub const BYTES: usize = FRAME_HEADER_BYTES;

    /// The head of a frame carrying `payload_len` bytes. An oversize
    /// payload is rejected here, before anything is written.
    pub fn new(payload_len: usize) -> Result<Self, FrameError> {
        if payload_len > MAX_FRAME_BYTES {
            return Err(FrameError::Oversize {
                len: payload_len as u64,
            });
        }
        Ok(Self((payload_len as u32).to_le_bytes()))
    }

    /// Write the head and then `payload` in place (one vectored write
    /// where the writer supports it), and flush.
    pub fn write_with<W: Write>(&self, w: &mut W, payload: &[u8]) -> std::io::Result<()> {
        let mut slices = [IoSlice::new(&self.0), IoSlice::new(payload)];
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

/// Write one frame to a stream: the head, then the payload in place.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), FrameError> {
    FrameHead::new(payload.len())?.write_with(w, payload)?;
    Ok(())
}

/// Read one frame from a stream into a fresh buffer. See
/// [`read_frame_into`] for the close/truncation contract.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, FrameError> {
    let mut payload = Vec::new();
    Ok(read_frame_into(r, &mut payload)?.then_some(payload))
}

/// Bytes a frame read asks to reserve beyond what has arrived: a
/// claimed length is only a promise, so the payload buffer grows with
/// the bytes actually received. (A `Vec` grows at least twofold, so
/// its capacity stays within twice what arrived, or one step.)
const READ_STEP: usize = 256 * 1024;

/// Read one frame from a stream into `payload`, replacing its contents
/// and keeping its allocation — a connection reads every frame into the
/// same buffer. Returns `Ok(true)` for a frame and `Ok(false)` for a
/// clean close — the stream ended exactly on a frame boundary. A stream
/// that ends after one or more header/payload bytes is
/// [`FrameError::Truncated`]. A read the OS interrupts is retried. The
/// payload length is validated before anything is reserved, and the
/// payload buffer grows only as payload bytes arrive — to at most twice
/// what arrived, or 256 KiB — so a hostile length can neither allocate
/// nor pin memory the peer did not actually send.
pub fn read_frame_into<R: Read>(r: &mut R, payload: &mut Vec<u8>) -> Result<bool, FrameError> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    let mut got = 0usize;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) => {
                return if got == 0 {
                    Ok(false) // clean close at a frame boundary
                } else {
                    Err(FrameError::Truncated)
                };
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::Oversize { len: len as u64 });
    }
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
    Ok(true)
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
        assert_eq!(wire[..FRAME_HEADER_BYTES], 12u32.to_le_bytes());
        assert_eq!(&wire[FRAME_HEADER_BYTES..], &payload[..]);
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
        // gigabytes.
        let wire = u32::MAX.to_le_bytes().to_vec();
        let mut payload = Vec::new();
        assert_eq!(
            read_frame_into(&mut wire.as_slice(), &mut payload).unwrap_err(),
            FrameError::Oversize {
                len: u64::from(u32::MAX)
            }
        );
        assert_eq!(payload.capacity(), 0);
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
            read_frame_into(&mut wire.as_slice(), &mut payload).unwrap_err(),
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
            write_frame(&mut wire, f).unwrap();
        }
        let mut r = wire.as_slice();
        let mut payload = Vec::new();
        for f in &frames {
            assert!(read_frame_into(&mut r, &mut payload).unwrap());
            assert_eq!(&payload, f);
        }
        assert!(payload.capacity() >= 600_000);
        assert!(!read_frame_into(&mut r, &mut payload).unwrap());
    }

    #[test]
    fn oversize_payload_rejected_at_encode() {
        // Claim only — don't materialize 64 MiB; write_frame checks len.
        let big = vec![0u8; MAX_FRAME_BYTES + 1];
        let mut sink = Vec::new();
        assert!(matches!(
            write_frame(&mut sink, &big).unwrap_err(),
            FrameError::Oversize { .. }
        ));
        assert!(sink.is_empty(), "nothing is written");
    }

    #[test]
    fn torn_reads_are_typed_errors() {
        // Cut the stream at every offset inside the head and the
        // payload: always Truncated, never a panic or partial frame.
        let mut wire = Vec::new();
        write_frame(&mut wire, b"0123456789").unwrap();
        for cut in 1..wire.len() {
            let mut r = &wire[..cut];
            assert_eq!(
                read_frame_into(&mut r, &mut Vec::new()).unwrap_err(),
                FrameError::Truncated,
                "cut at {cut}"
            );
        }
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

//! Swappable message transports for the federation actors.
//!
//! A [`Transport`] hands out full-duplex connections that carry typed
//! [`WireMsg`]s as length-prefixed frames (see [`framing`]). Two socket
//! backends exist, moving the *same frame bytes* through the same
//! connection code — they differ only in how a stream is dialed and
//! accepted:
//!
//! * **Tcp** — TCP sockets (loopback, or a remote server's address).
//! * **Unix** — Unix-domain sockets (unix targets only).
//!
//! (The in-process case is [`Simulation`], which needs no wire.)
//!
//! Fault injection lives at this seam: [`send_upload_faulty`] realizes
//! a round's drawn [`RoundFaults`] on the wire — lost attempts are
//! frames dropped before delivery (their bytes still burned and
//! counted). Crashes are realized by the client actor closing its
//! connection.
//!
//! Every send is tallied in a [`WireStats`] ledger split into
//! *data-plane* bytes (model parameters and payloads — the portion the
//! [`CommModel`] models) and *overhead* (frame headers, message tags,
//! metadata), mirrored into the `transport.*` obs counters.
//!
//! A connection's buffers live as long as it does: [`MsgTx`] encodes
//! every message into one kept buffer, and [`MsgRx`] reads every frame
//! into one and decodes each parameter vector into storage handed back
//! by whoever consumed the previous one (see DESIGN.md, "Buffer
//! ownership on the wire").
//!
//! [`framing`]: crate::framing
//! [`CommModel`]: crate::comm::CommModel
//! [`Simulation`]: crate::sim::Simulation

use crate::faults::RoundFaults;
use crate::framing::{read_frame_into, FrameError, FrameHead};
use crate::proto::{decode_msg_into, encode_msg_into, DecodeError, Encoded, WireMsg};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Which transport backend to run the federation over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// TCP over loopback.
    Tcp,
    /// Unix-domain sockets.
    #[cfg(unix)]
    Unix,
}

impl TransportKind {
    /// Parse a CLI flag value (`tcp`, `unix`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "tcp" => Some(Self::Tcp),
            #[cfg(unix)]
            "unix" => Some(Self::Unix),
            _ => None,
        }
    }

    /// The flag value this kind parses from.
    pub fn label(&self) -> &'static str {
        match self {
            Self::Tcp => "tcp",
            #[cfg(unix)]
            Self::Unix => "unix",
        }
    }
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A transport operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The frame layer rejected or lost data (oversize header, torn
    /// read, I/O failure).
    Frame(FrameError),
    /// A frame arrived but its bytes are not a valid message.
    Decode(DecodeError),
    /// The peer is gone: sending on a closed connection.
    Closed,
    /// No connection arrived within the accept deadline.
    AcceptTimeout,
    /// Setting up the endpoint failed.
    Setup(std::io::ErrorKind),
    /// This client never connected to the server.
    NeverConnected(u32),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Frame(e) => write!(f, "frame layer: {e}"),
            TransportError::Decode(e) => write!(f, "malformed message: {e}"),
            TransportError::Closed => write!(f, "connection closed by peer"),
            TransportError::AcceptTimeout => write!(f, "no connection within the accept deadline"),
            TransportError::Setup(k) => write!(f, "endpoint setup failed: {k}"),
            TransportError::NeverConnected(c) => write!(f, "client {c} never connected"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<FrameError> for TransportError {
    fn from(e: FrameError) -> Self {
        TransportError::Frame(e)
    }
}

impl From<DecodeError> for TransportError {
    fn from(e: DecodeError) -> Self {
        TransportError::Decode(e)
    }
}

/// Wire-seam byte ledger, shared across every connection of one
/// federation run. Counted at the send seam — bytes put on the wire,
/// including frames the fault injector drops before delivery (a lost
/// radio frame still burned its bytes).
#[derive(Debug, Default)]
pub struct WireStats {
    payload: AtomicU64,
    overhead: AtomicU64,
    frames: AtomicU64,
    frames_dropped: AtomicU64,
    bytes_dropped: AtomicU64,
    send_failures: AtomicU64,
    malformed_frames: AtomicU64,
}

/// A point-in-time copy of a [`WireStats`] ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireStatsSnapshot {
    /// Data-plane bytes sent (parameters + payloads).
    pub payload: u64,
    /// Framing and protocol overhead bytes sent.
    pub overhead: u64,
    /// Frames put on the wire.
    pub frames: u64,
    /// Frames the fault injector dropped before delivery.
    pub frames_dropped: u64,
    /// Total bytes of those dropped frames.
    pub bytes_dropped: u64,
    /// Sends that failed because the peer was gone.
    pub send_failures: u64,
    /// Frames quarantined because they would not decode.
    pub malformed_frames: u64,
}

impl WireStats {
    /// Fresh, zeroed ledger.
    pub fn new() -> Self {
        Self::default()
    }

    fn on_send(&self, data_bytes: u64, total_frame: u64, delivered: bool) {
        let overhead = total_frame - data_bytes;
        self.payload.fetch_add(data_bytes, Ordering::Relaxed);
        self.overhead.fetch_add(overhead, Ordering::Relaxed);
        self.frames.fetch_add(1, Ordering::Relaxed);
        fedknow_obs::count("transport.bytes.payload", data_bytes);
        fedknow_obs::count("transport.bytes.overhead", overhead);
        fedknow_obs::count("transport.frames", 1);
        fedknow_obs::record("transport.frame_bytes", total_frame);
        if !delivered {
            self.frames_dropped.fetch_add(1, Ordering::Relaxed);
            self.bytes_dropped.fetch_add(total_frame, Ordering::Relaxed);
            fedknow_obs::count("transport.frames_dropped", 1);
            fedknow_obs::count("transport.bytes_dropped", total_frame);
        }
    }

    /// Record a send that failed because the peer is gone.
    fn on_send_failure(&self) {
        self.send_failures.fetch_add(1, Ordering::Relaxed);
        fedknow_obs::count("transport.send_failures", 1);
    }

    /// Record a frame that arrived but would not decode.
    pub fn on_malformed(&self) {
        self.malformed_frames.fetch_add(1, Ordering::Relaxed);
        fedknow_obs::count("transport.malformed_frames", 1);
    }

    /// Copy the current tallies.
    pub fn snapshot(&self) -> WireStatsSnapshot {
        WireStatsSnapshot {
            payload: self.payload.load(Ordering::Relaxed),
            overhead: self.overhead.load(Ordering::Relaxed),
            frames: self.frames.load(Ordering::Relaxed),
            frames_dropped: self.frames_dropped.load(Ordering::Relaxed),
            bytes_dropped: self.bytes_dropped.load(Ordering::Relaxed),
            send_failures: self.send_failures.load(Ordering::Relaxed),
            malformed_frames: self.malformed_frames.load(Ordering::Relaxed),
        }
    }
}

/// The sending half of a connection.
pub struct MsgTx {
    stream: Box<dyn Write + Send>,
    stats: Arc<WireStats>,
    /// Every message this half sends is encoded here, and the buffer
    /// stays as large as the largest one.
    enc: Encoded,
}

impl MsgTx {
    fn new(stream: Box<dyn Write + Send>, stats: Arc<WireStats>) -> Self {
        Self {
            stream,
            stats,
            enc: Encoded::default(),
        }
    }

    /// Encode `msg` into this half's kept buffer and hand it to `f`.
    fn with_encoded<T>(&mut self, msg: &WireMsg, f: impl FnOnce(&mut Self, &Encoded) -> T) -> T {
        let mut enc = std::mem::take(&mut self.enc);
        encode_msg_into(msg, &mut enc);
        let out = f(self, &enc);
        self.enc = enc;
        out
    }

    /// Encode and send one message as one frame.
    pub fn send(&mut self, msg: &WireMsg) -> Result<(), TransportError> {
        self.with_encoded(msg, |tx, enc| tx.send_encoded(enc))
    }

    /// Send an already-encoded message as one frame: the frame head and
    /// then `enc.buf`, written in place in one vectored write. Counts
    /// the frame in the wire ledger whether or not the peer is still
    /// there to receive it; the head counts as framing overhead, never
    /// data-plane bytes, so byte parity with the comm model holds.
    pub fn send_encoded(&mut self, enc: &Encoded) -> Result<(), TransportError> {
        let head = FrameHead::new(enc.buf.len())?;
        self.stats.on_send(enc.data_bytes, frame_bytes(enc), true);
        head.write_with(&mut self.stream, &enc.buf)
            .map_err(socket_error)
    }

    /// Burn an encoded message's bytes without delivering it — the wire
    /// fault injector's dropped frame.
    fn drop_encoded(&mut self, enc: &Encoded) {
        self.stats.on_send(enc.data_bytes, frame_bytes(enc), false);
    }

    /// Send an encoded message, retrying a few times with a short real
    /// backoff — the server's guard against transient send failures; a
    /// peer that is genuinely gone stays [`TransportError::Closed`]. One
    /// encoding is sent to many peers, and resent on every retry.
    pub(crate) fn send_encoded_with_retry(
        &mut self,
        enc: &Encoded,
        retries: u32,
    ) -> Result<(), TransportError> {
        let mut wait = Duration::from_millis(1);
        let mut last = self.send_encoded(enc);
        for _ in 0..retries {
            if last.is_ok() {
                return Ok(());
            }
            std::thread::sleep(wait);
            wait *= 2;
            last = self.send_encoded(enc);
        }
        if last.is_err() {
            self.stats.on_send_failure();
        }
        last
    }
}

/// Bytes `enc` takes on the wire once framed.
fn frame_bytes(enc: &Encoded) -> u64 {
    (FrameHead::BYTES + enc.buf.len()) as u64
}

/// A failed socket write: a peer that hung up is [`TransportError::Closed`],
/// anything else a frame-layer I/O error.
fn socket_error(e: std::io::Error) -> TransportError {
    match e.kind() {
        std::io::ErrorKind::BrokenPipe
        | std::io::ErrorKind::ConnectionReset
        | std::io::ErrorKind::ConnectionAborted
        | std::io::ErrorKind::NotConnected => TransportError::Closed,
        k => TransportError::Frame(FrameError::Io(k)),
    }
}

/// Parameter vectors a receiver decodes into: whoever consumes a
/// decoded model hands its storage back here, and the next model's
/// decode takes it instead of allocating. Clones share one stack — the
/// server's reader threads share the one its round engine refills with
/// spent uploads.
#[derive(Clone, Default)]
pub(crate) struct Spares(Arc<Mutex<Vec<Vec<f32>>>>);

impl Spares {
    /// Hand a consumed vector's storage back (an empty one has none).
    pub fn put(&self, v: Vec<f32>) {
        if v.capacity() > 0 {
            lock(&self.0).push(v);
        }
    }

    /// Storage to decode the next vector into: a spent one if any is
    /// waiting, else a new empty one.
    fn take(&self) -> Vec<f32> {
        lock(&self.0).pop().unwrap_or_default()
    }
}

/// A poison-tolerant lock, for state whose every critical section is
/// one push, pop or drain: a panic elsewhere on the holder's thread
/// leaves it whole, so a poisoned lock is still sound to use.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The receiving half of a connection.
pub struct MsgRx {
    stream: Box<dyn Read + Send>,
    /// Every frame is read into this one buffer.
    frame: Vec<u8>,
    /// Where decoded parameter vectors come from and go back to.
    spares: Spares,
}

impl MsgRx {
    fn new(stream: Box<dyn Read + Send>) -> Self {
        Self {
            stream,
            frame: Vec::new(),
            spares: Spares::default(),
        }
    }

    /// Decode parameter vectors into (and take them back through)
    /// `spares` — shared with the other connections holding a clone.
    pub(crate) fn share_spares(&mut self, spares: Spares) {
        self.spares = spares;
    }

    /// Hand a decoded parameter vector back once it has been consumed:
    /// the next one this connection decodes reuses its storage.
    pub(crate) fn recycle(&self, v: Vec<f32>) {
        self.spares.put(v);
    }

    /// Block for the next message. `Ok(None)` is a clean close (the
    /// peer shut the connection on a frame boundary); torn frames,
    /// oversize headers, and undecodable bytes are typed errors.
    pub fn recv(&mut self) -> Result<Option<WireMsg>, TransportError> {
        if !read_frame_into(&mut self.stream, &mut self.frame)? {
            return Ok(None);
        }
        let mut spare = self.spares.take();
        let decoded = decode_msg_into(&self.frame, &mut spare);
        self.spares.put(spare);
        Ok(Some(decoded?))
    }
}

/// One full-duplex connection.
pub struct Conn {
    /// Sending half.
    pub tx: MsgTx,
    /// Receiving half.
    pub rx: MsgRx,
}

impl Conn {
    /// Run `send` with the receiving half's frame buffer as the sending
    /// half's encode buffer. A peer that reads and writes one message
    /// at a time (a client) needs one byte buffer for both directions,
    /// sized by its largest frame either way.
    pub(crate) fn send_via_frame_buffer<T>(&mut self, send: impl FnOnce(&mut MsgTx) -> T) -> T {
        std::mem::swap(&mut self.tx.enc.buf, &mut self.rx.frame);
        let out = send(&mut self.tx);
        std::mem::swap(&mut self.tx.enc.buf, &mut self.rx.frame);
        out
    }
}

/// Client-side connection factory. Cloneable across client actor
/// threads via `Arc`.
pub trait Transport: Send + Sync {
    /// Open a fresh connection to the server endpoint.
    fn connect(&self) -> Result<Conn, TransportError>;
    /// Which backend this is.
    fn kind(&self) -> TransportKind;
}

/// Server-side accept endpoint.
pub trait TransportListener: Send {
    /// Wait up to `timeout` for the next inbound connection.
    fn accept(&mut self, timeout: Duration) -> Result<Conn, TransportError>;
}

/// A bound endpoint: the client-side connector and the server-side
/// listener.
pub type Endpoint = (Arc<dyn Transport>, Box<dyn TransportListener>);

/// Bind an endpoint of the given kind, returning the client-side
/// connector and the server-side listener. All connections share the
/// `stats` ledger.
pub fn bind(kind: TransportKind, stats: Arc<WireStats>) -> Result<Endpoint, TransportError> {
    match kind {
        TransportKind::Tcp => {
            let listener = TcpListener::bind("127.0.0.1:0").map_err(setup)?;
            let addr = listener.local_addr().map_err(setup)?;
            Ok((
                Arc::new(TcpTransport {
                    addr,
                    stats: stats.clone(),
                    dial_window: Duration::ZERO,
                }),
                Acceptor::boxed(listener, None, stats)?,
            ))
        }
        #[cfg(unix)]
        TransportKind::Unix => {
            static SOCK_SEQ: AtomicU64 = AtomicU64::new(0);
            let path = std::env::temp_dir().join(format!(
                "fedknow-{}-{}.sock",
                std::process::id(),
                SOCK_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = std::fs::remove_file(&path);
            let listener = std::os::unix::net::UnixListener::bind(&path).map_err(setup)?;
            Ok((
                Arc::new(UnixTransport {
                    path: path.clone(),
                    stats: stats.clone(),
                }),
                Acceptor::boxed(listener, Some(path), stats)?,
            ))
        }
    }
}

/// Bind a TCP listener at a *fixed* address for a multi-process
/// federation server. Unlike [`bind`], which picks an ephemeral
/// loopback port for same-process endpoints, this is the seam remote
/// client processes dial.
pub fn bind_tcp_at(
    addr: &str,
    stats: Arc<WireStats>,
) -> Result<Box<dyn TransportListener>, TransportError> {
    Acceptor::boxed(TcpListener::bind(addr).map_err(setup)?, None, stats)
}

/// A TCP connector dialing a remote server at `addr` from a client
/// process. Redials refused connections for up to ten seconds, so a
/// client launched a beat before the server still joins.
pub fn tcp_connector(
    addr: &str,
    stats: Arc<WireStats>,
) -> Result<Arc<dyn Transport>, TransportError> {
    let addr: std::net::SocketAddr = addr
        .parse()
        .map_err(|_| TransportError::Setup(std::io::ErrorKind::InvalidInput))?;
    Ok(Arc::new(TcpTransport {
        addr,
        stats,
        dial_window: Duration::from_secs(10),
    }))
}

/// An endpoint that could not be set up.
fn setup(e: std::io::Error) -> TransportError {
    TransportError::Setup(e.kind())
}

/// A connected stream socket, as a [`Conn`] runs over it.
trait Socket: Read + Write + Send + Sized + 'static {
    /// A second handle on the same socket, for the receiving half.
    fn read_half(&self) -> std::io::Result<Self>;
    /// Make a freshly connected or accepted stream ready for frames:
    /// blocking, and sent without delay.
    fn ready(&self);
}

impl Socket for TcpStream {
    fn read_half(&self) -> std::io::Result<Self> {
        self.try_clone()
    }

    fn ready(&self) {
        self.set_nonblocking(false).ok();
        self.set_nodelay(true).ok();
    }
}

#[cfg(unix)]
impl Socket for std::os::unix::net::UnixStream {
    fn read_half(&self) -> std::io::Result<Self> {
        self.try_clone()
    }

    fn ready(&self) {
        self.set_nonblocking(false).ok();
    }
}

/// The one connection constructor: the socket is the sending half, a
/// clone of it the receiving half.
fn conn<S: Socket>(stream: S, stats: Arc<WireStats>) -> Result<Conn, TransportError> {
    stream.ready();
    let read_half = stream.read_half().map_err(setup)?;
    Ok(Conn {
        tx: MsgTx::new(Box::new(stream), stats),
        rx: MsgRx::new(Box::new(read_half)),
    })
}

/// A listening socket that [`Acceptor`] polls.
trait Listen: Send + 'static {
    /// The streams it accepts.
    type Stream: Socket;
    /// Accept one pending connection, `WouldBlock` if none is waiting.
    fn accept_stream(&self) -> std::io::Result<Self::Stream>;
    /// Stop blocking in `accept`, so the acceptor can keep a deadline.
    fn poll_mode(&self) -> std::io::Result<()>;
}

impl Listen for TcpListener {
    type Stream = TcpStream;

    fn accept_stream(&self) -> std::io::Result<TcpStream> {
        self.accept().map(|(s, _)| s)
    }

    fn poll_mode(&self) -> std::io::Result<()> {
        self.set_nonblocking(true)
    }
}

#[cfg(unix)]
impl Listen for std::os::unix::net::UnixListener {
    type Stream = std::os::unix::net::UnixStream;

    fn accept_stream(&self) -> std::io::Result<Self::Stream> {
        self.accept().map(|(s, _)| s)
    }

    fn poll_mode(&self) -> std::io::Result<()> {
        self.set_nonblocking(true)
    }
}

/// The one accept loop, over a non-blocking listening socket.
struct Acceptor<L> {
    listener: L,
    /// The socket file a Unix listener is bound to, removed on drop.
    socket_file: Option<std::path::PathBuf>,
    stats: Arc<WireStats>,
}

impl<L: Listen> Acceptor<L> {
    /// Put `listener` in poll mode behind the listener seam.
    fn boxed(
        listener: L,
        socket_file: Option<std::path::PathBuf>,
        stats: Arc<WireStats>,
    ) -> Result<Box<dyn TransportListener>, TransportError> {
        listener.poll_mode().map_err(setup)?;
        Ok(Box::new(Self {
            listener,
            socket_file,
            stats,
        }))
    }
}

impl<L: Listen> TransportListener for Acceptor<L> {
    fn accept(&mut self, timeout: Duration) -> Result<Conn, TransportError> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.listener.accept_stream() {
                Ok(stream) => return conn(stream, self.stats.clone()),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(TransportError::AcceptTimeout);
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(e) => return Err(setup(e)),
            }
        }
    }
}

impl<L> Drop for Acceptor<L> {
    fn drop(&mut self) {
        if let Some(path) = &self.socket_file {
            let _ = std::fs::remove_file(path);
        }
    }
}

struct TcpTransport {
    addr: std::net::SocketAddr,
    stats: Arc<WireStats>,
    /// How long `connect` keeps redialing a refused address. Zero for
    /// same-process endpoints (the listener is already bound); a grace
    /// window for remote client processes racing the server's bind.
    dial_window: Duration,
}

impl Transport for TcpTransport {
    fn connect(&self) -> Result<Conn, TransportError> {
        let deadline = Instant::now() + self.dial_window;
        let stream = loop {
            match TcpStream::connect(self.addr) {
                Ok(s) => break s,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::ConnectionRefused | std::io::ErrorKind::ConnectionReset
                    ) && Instant::now() < deadline =>
                {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => return Err(setup(e)),
            }
        };
        conn(stream, self.stats.clone())
    }

    fn kind(&self) -> TransportKind {
        TransportKind::Tcp
    }
}

#[cfg(unix)]
struct UnixTransport {
    path: std::path::PathBuf,
    stats: Arc<WireStats>,
}

#[cfg(unix)]
impl Transport for UnixTransport {
    fn connect(&self) -> Result<Conn, TransportError> {
        let stream = std::os::unix::net::UnixStream::connect(&self.path).map_err(setup)?;
        conn(stream, self.stats.clone())
    }

    fn kind(&self) -> TransportKind {
        TransportKind::Unix
    }
}

/// Send an upload through the wire fault injector, realizing this
/// round's lost attempts at the transport seam: each lost transmission
/// burns its bytes in the wire ledger but the frame is dropped before
/// delivery.
///
/// Returns whether a frame was actually delivered (`false` when every
/// attempt was lost — the caller then reports the loss through the
/// reliable control plane). The upload is encoded once, into `tx`'s
/// kept buffer.
pub fn send_upload_faulty(
    tx: &mut MsgTx,
    msg: &WireMsg,
    f: &RoundFaults,
) -> Result<bool, TransportError> {
    tx.with_encoded(msg, |tx, enc| {
        for _ in 0..f.lost_attempts {
            tx.drop_encoded(enc);
        }
        if f.upload_lost {
            return Ok(false);
        }
        tx.send_encoded(enc)?;
        Ok(true)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::FRAME_HEADER_BYTES;
    use crate::proto::UploadMeta;
    use std::io::Write;

    fn kinds() -> Vec<TransportKind> {
        let mut k = vec![TransportKind::Tcp];
        #[cfg(unix)]
        k.push(TransportKind::Unix);
        k
    }

    fn upload(params: Vec<f32>) -> WireMsg {
        WireMsg::Upload {
            round: 1,
            client: 0,
            meta: UploadMeta {
                had_params: true,
                ..Default::default()
            },
            params: Some(params),
            payloads: vec![],
        }
    }

    #[test]
    fn every_backend_roundtrips_messages() {
        for kind in kinds() {
            let stats = Arc::new(WireStats::new());
            let (transport, mut listener) = bind(kind, stats.clone()).expect("bind");
            let client = transport.connect().expect("connect");
            let mut server = listener.accept(Duration::from_secs(5)).expect("accept");
            let (mut ctx, mut crx) = (client.tx, client.rx);

            let msg = upload(vec![1.0, -2.0, 3.5]);
            ctx.send(&msg).expect("send");
            assert_eq!(server.rx.recv().expect("recv"), Some(msg), "{kind}");

            let reply = WireMsg::Ack {
                round: 1,
                client: 0,
            };
            server.tx.send(&reply).expect("reply");
            assert_eq!(crx.recv().expect("recv reply"), Some(reply), "{kind}");

            // Client closes: the server sees a clean close, not an error.
            drop(ctx);
            drop(crx);
            assert_eq!(server.rx.recv().expect("close"), None, "{kind}");

            let s = stats.snapshot();
            assert_eq!(s.frames, 2);
            assert_eq!(s.payload, 12, "3 f32 params are the data plane");
            assert!(s.overhead > 0);

            // Kept buffers: the same sequence on a connection and then
            // on a redialed one (a rejoin), whose server half decodes
            // into the spares the first one handed back.
            let spares = Spares::default();
            for _ in 0..2 {
                let mut client = transport.connect().expect("connect");
                let mut server = listener.accept(Duration::from_secs(5)).expect("accept");
                server.rx.share_spares(spares.clone());
                kept_buffers_carry_nothing(&mut client, &mut server, kind);
            }
        }
    }

    fn model(n: usize, first: f32) -> Vec<f32> {
        (0..n).map(|i| first + i as f32 * 0.25).collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Each message lands in buffers an earlier, larger one left behind,
    /// on both halves, and must decode to exactly what was sent: a
    /// model-sized broadcast, a smaller one, a resync, then a
    /// model-sized upload followed by a smaller one (encoded, as a
    /// client does, into the buffer its frames are read into). Every
    /// decoded model is handed back for the next decode.
    fn kept_buffers_carry_nothing(client: &mut Conn, server: &mut Conn, kind: TransportKind) {
        let down = [
            WireMsg::Broadcast {
                round: 2,
                global: Some(model(70_000, 1.0)),
                payloads: vec![],
            },
            WireMsg::Broadcast {
                round: 3,
                global: Some(model(5, -3.0)),
                payloads: vec![],
            },
            WireMsg::Resync {
                round: 4,
                global: model(1000, 7.0),
            },
        ];
        // A model-sized frame outgrows a socket's buffer: the sender
        // runs beside the receiver.
        for msg in &down {
            let got = std::thread::scope(|s| {
                s.spawn(|| server.tx.send(msg).expect("send"));
                client.rx.recv().expect("recv").expect("a message")
            });
            assert_eq!(&got, msg, "{kind}: {}", msg.label());
            if let WireMsg::Broadcast {
                global: Some(g), ..
            }
            | WireMsg::Resync { global: g, .. } = got
            {
                client.rx.recycle(g);
            }
        }
        for want in [model(70_000, 2.0), model(7, -5.0)] {
            let got = std::thread::scope(|s| {
                s.spawn(|| {
                    let delivered = client
                        .send_via_frame_buffer(|tx| {
                            send_upload_faulty(tx, &upload(want.clone()), &RoundFaults::none())
                        })
                        .expect("send");
                    assert!(delivered);
                });
                server.rx.recv().expect("recv").expect("a message")
            });
            match got {
                WireMsg::Upload {
                    params: Some(p), ..
                } => {
                    assert_eq!(bits(&p), bits(&want), "{kind}: {} floats", want.len());
                    server.rx.recycle(p);
                }
                other => panic!("{kind}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn accept_times_out_without_a_connection() {
        for kind in kinds() {
            let (_transport, mut listener) = bind(kind, Arc::new(WireStats::new())).expect("bind");
            let err = match listener.accept(Duration::from_millis(30)) {
                Err(e) => e,
                Ok(_) => panic!("accept must time out ({kind})"),
            };
            assert_eq!(err, TransportError::AcceptTimeout, "{kind}");
        }
    }

    #[test]
    fn lost_attempts_burn_bytes_but_never_arrive() {
        let stats = Arc::new(WireStats::new());
        let (transport, mut listener) = bind(TransportKind::Tcp, stats.clone()).expect("bind");
        let mut client = transport.connect().expect("connect");
        let mut server = listener.accept(Duration::from_secs(1)).expect("accept");

        // All attempts lost.
        let f = RoundFaults {
            lost_attempts: 3,
            upload_lost: true,
            ..RoundFaults::none()
        };
        let delivered =
            send_upload_faulty(&mut client.tx, &upload(vec![1.0; 8]), &f).expect("inject");
        assert!(!delivered);
        let s = stats.snapshot();
        assert_eq!(s.frames_dropped, 3);
        assert_eq!(s.payload, 3 * 32, "each lost attempt burned 8 f32s");
        // Every attempt's overhead is the 4-byte length word plus what
        // the encoding adds around the 8 floats.
        let enc = crate::proto::encode_msg(&upload(vec![1.0; 8]));
        let per_frame = FRAME_HEADER_BYTES as u64 + enc.buf.len() as u64 - enc.data_bytes;
        assert_eq!(per_frame, 91, "4 head bytes and the upload's fixed fields");
        assert_eq!(s.overhead, 3 * per_frame);
        assert_eq!(s.bytes_dropped, 3 * (per_frame + enc.data_bytes));

        // One retry then success: exactly one frame arrives.
        let f = RoundFaults {
            lost_attempts: 1,
            upload_lost: false,
            ..RoundFaults::none()
        };
        let delivered =
            send_upload_faulty(&mut client.tx, &upload(vec![2.0; 8]), &f).expect("inject");
        assert!(delivered);
        let got = server.rx.recv().expect("recv").expect("msg");
        match got {
            WireMsg::Upload { params, .. } => assert_eq!(params.unwrap(), vec![2.0; 8]),
            other => panic!("unexpected {other:?}"),
        }
        let s = stats.snapshot();
        assert_eq!(s.frames_dropped, 4);
        assert_eq!(s.frames, 5, "3 + 1 dropped, 1 delivered, counted once each");
        assert_eq!(
            s.overhead,
            5 * per_frame,
            "a delivered frame costs a dropped one's"
        );
    }

    #[test]
    fn torn_socket_frame_is_a_typed_error() {
        // Write a raw, truncated frame straight onto a TCP socket and
        // kill the connection: the receiver must get Truncated, never
        // panic or hang.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            // Header claims 100 bytes; send only 10 payload bytes, then
            // slam the door.
            s.write_all(&100u32.to_le_bytes()).unwrap();
            s.write_all(&[7u8; 10]).unwrap();
        });
        let (stream, _) = listener.accept().unwrap();
        let mut rx = MsgRx::new(Box::new(stream));
        writer.join().unwrap();
        assert_eq!(
            rx.recv().unwrap_err(),
            TransportError::Frame(FrameError::Truncated)
        );
    }

    #[test]
    fn garbage_frame_is_a_decode_error_not_a_panic() {
        let stats = Arc::new(WireStats::new());
        let (transport, mut listener) = bind(TransportKind::Tcp, stats.clone()).expect("bind");
        let client = transport.connect().expect("connect");
        let mut server = listener.accept(Duration::from_secs(1)).expect("accept");
        let mut tx = client.tx;
        // A framed buffer of garbage: valid frame, invalid message.
        tx.send_encoded(&Encoded {
            buf: vec![250, 1, 2, 3],
            data_bytes: 0,
        })
        .expect("send");
        match server.rx.recv().unwrap_err() {
            TransportError::Decode(DecodeError::BadTag(250)) => {}
            other => panic!("unexpected {other:?}"),
        }
        stats.on_malformed();
        assert_eq!(stats.snapshot().malformed_frames, 1);
    }

    #[test]
    fn transport_kind_parses_its_own_labels() {
        for kind in kinds() {
            assert_eq!(TransportKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(TransportKind::parse("carrier-pigeon"), None);
    }
}

//! Swappable message transports for the federation actors.
//!
//! A [`Transport`] hands out full-duplex connections that carry typed
//! [`WireMsg`]s as length-prefixed frames (see [`framing`]). Three
//! backends exist, all moving the *same frame bytes*:
//!
//! * **Channel** — in-process byte queues; the reference backend.
//! * **Tcp** — loopback TCP sockets; real streams, real closes.
//! * **Unix** — Unix-domain sockets (unix targets only).
//!
//! Fault injection lives at this seam: [`send_upload_faulty`] realizes
//! a round's drawn [`RoundFaults`] on the wire — lost attempts are
//! frames dropped before delivery (their bytes still burned and
//! counted), corruption damages the parameter bytes inside the encoded
//! frame in flight, and stragglers delay delivery. Crashes are realized
//! by the client actor closing its connection.
//!
//! Every send is tallied in a [`WireStats`] ledger split into
//! *data-plane* bytes (model parameters and payloads — the portion the
//! [`CommModel`] models) and *overhead* (frame headers, message tags,
//! metadata), mirrored into the `transport.*` obs counters.
//!
//! [`framing`]: crate::framing
//! [`CommModel`]: crate::comm::CommModel

use crate::faults::RoundFaults;
use crate::framing::{
    encode_frame_traced, read_frame_traced, FrameDecoder, FrameError, TraceCtx, FRAME_HEADER_BYTES,
    TRACE_CTX_BYTES,
};
use crate::proto::{decode_msg, encode_msg, DecodeError, Encoded, WireMsg};
use crate::wiretrace;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Which transport backend to run the federation over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// In-process byte channels (the reference backend).
    Channel,
    /// TCP over loopback.
    Tcp,
    /// Unix-domain sockets.
    #[cfg(unix)]
    Unix,
}

impl TransportKind {
    /// Parse a CLI flag value (`channel`, `tcp`, `unix`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "channel" => Some(Self::Channel),
            "tcp" => Some(Self::Tcp),
            #[cfg(unix)]
            "unix" => Some(Self::Unix),
            _ => None,
        }
    }

    /// The flag value this kind parses from.
    pub fn label(&self) -> &'static str {
        match self {
            Self::Channel => "channel",
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
    pub fn on_send_failure(&self) {
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

enum TxInner {
    Channel(mpsc::Sender<Vec<u8>>),
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixStream),
}

/// The sending half of a connection.
pub struct MsgTx {
    inner: TxInner,
    stats: Arc<WireStats>,
    /// The peer's client id, once known (set after Hello/accept) —
    /// carried by the wire lifecycle records.
    peer: Option<u32>,
}

impl MsgTx {
    /// Attribute this half to a peer client id (trace events carry it
    /// from now on).
    pub fn set_peer(&mut self, client: u32) {
        self.peer = Some(client);
    }

    /// Encode and send one message as one frame.
    pub fn send(&mut self, msg: &WireMsg) -> Result<(), TransportError> {
        let enc = encode_msg(msg);
        self.send_encoded_labeled(&enc, msg.label())
    }

    /// Send an already-encoded message. Counts the frame in the wire
    /// ledger whether or not the peer is still there to receive it.
    pub fn send_encoded(&mut self, enc: &Encoded) -> Result<(), TransportError> {
        self.send_encoded_labeled(enc, "raw")
    }

    /// [`Self::send_encoded`] with a message-kind label for the wire
    /// lifecycle records. Every frame leaves with a freshly stamped
    /// trace context (v2 flagged frame); the context bytes count as
    /// framing overhead, never data-plane bytes, so byte parity with
    /// the comm model is untouched.
    pub(crate) fn send_encoded_labeled(
        &mut self,
        enc: &Encoded,
        label: &str,
    ) -> Result<(), TransportError> {
        let ctx = wiretrace::ctx_for_send();
        wiretrace::record_send("enq", &ctx, self.peer, label, enc.data_bytes);
        let frame = encode_frame_traced(&enc.buf, Some(&ctx))?;
        self.stats.on_send(enc.data_bytes, frame.len() as u64, true);
        self.transmit(frame)?;
        wiretrace::record_send("out", &ctx, self.peer, label, enc.data_bytes);
        Ok(())
    }

    /// Burn an encoded message's bytes without delivering it — the wire
    /// fault injector's dropped frame.
    pub fn drop_encoded(&mut self, enc: &Encoded) {
        self.drop_encoded_labeled(enc, "raw");
    }

    /// [`Self::drop_encoded`] with a message-kind label. The dropped
    /// attempt gets its own span id and a `drop` lifecycle record — in
    /// a merged trace it shows up as a flow that starts and never
    /// finishes (a terminated flow).
    pub(crate) fn drop_encoded_labeled(&mut self, enc: &Encoded, label: &str) {
        let ctx = wiretrace::ctx_for_send();
        let total = (FRAME_HEADER_BYTES + TRACE_CTX_BYTES + enc.buf.len()) as u64;
        self.stats.on_send(enc.data_bytes, total, false);
        wiretrace::record_send("drop", &ctx, self.peer, label, enc.data_bytes);
    }

    /// Retry a send a few times with a short real backoff — the
    /// server's guard against transient send failures; a peer that is
    /// genuinely gone stays [`TransportError::Closed`].
    pub fn send_with_retry(&mut self, msg: &WireMsg, retries: u32) -> Result<(), TransportError> {
        let enc = encode_msg(msg);
        let mut wait = Duration::from_millis(1);
        let mut last = self.send_encoded_labeled(&enc, msg.label());
        for _ in 0..retries {
            if last.is_ok() {
                return Ok(());
            }
            std::thread::sleep(wait);
            wait *= 2;
            last = self.send_encoded_labeled(&enc, msg.label());
        }
        if last.is_err() {
            self.stats.on_send_failure();
        }
        last
    }

    fn transmit(&mut self, frame: Vec<u8>) -> Result<(), TransportError> {
        match &mut self.inner {
            TxInner::Channel(tx) => tx.send(frame).map_err(|_| TransportError::Closed),
            TxInner::Tcp(s) => write_all_frame(s, &frame),
            #[cfg(unix)]
            TxInner::Unix(s) => write_all_frame(s, &frame),
        }
    }
}

fn write_all_frame<W: Write>(w: &mut W, frame: &[u8]) -> Result<(), TransportError> {
    w.write_all(frame)
        .and_then(|_| w.flush())
        .map_err(|e| match e.kind() {
            std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::NotConnected => TransportError::Closed,
            k => TransportError::Frame(FrameError::Io(k)),
        })
}

enum RxInner {
    Channel {
        rx: mpsc::Receiver<Vec<u8>>,
        decoder: FrameDecoder,
    },
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixStream),
}

/// The receiving half of a connection.
pub struct MsgRx {
    inner: RxInner,
    /// The peer's client id, once known — tags wire-in records.
    peer: Option<u32>,
}

impl MsgRx {
    /// Attribute this half to a peer client id.
    pub fn set_peer(&mut self, client: u32) {
        self.peer = Some(client);
    }

    /// Block for the next message. `Ok(None)` is a clean close (the
    /// peer shut the connection on a frame boundary); torn frames,
    /// oversize headers, and undecodable bytes are typed errors.
    pub fn recv(&mut self) -> Result<Option<WireMsg>, TransportError> {
        Ok(self.recv_traced()?.map(|(msg, _)| msg))
    }

    /// [`Self::recv`], surfacing the frame's trace context so the
    /// caller can record the `handled` lifecycle point. The `in` point
    /// (frame off the wire, message decoded) is recorded here.
    pub fn recv_traced(&mut self) -> Result<Option<(WireMsg, Option<TraceCtx>)>, TransportError> {
        let (ctx, payload) = match &mut self.inner {
            RxInner::Channel { rx, decoder } => loop {
                if let Some(frame) = decoder.next_frame_traced()? {
                    break frame;
                }
                match rx.recv() {
                    Ok(bytes) => decoder.feed(&bytes),
                    Err(_) => {
                        if decoder.is_empty() {
                            return Ok(None);
                        }
                        return Err(TransportError::Frame(FrameError::Truncated));
                    }
                }
            },
            RxInner::Tcp(s) => match read_frame_traced(s)? {
                Some(p) => p,
                None => return Ok(None),
            },
            #[cfg(unix)]
            RxInner::Unix(s) => match read_frame_traced(s)? {
                Some(p) => p,
                None => return Ok(None),
            },
        };
        let msg = decode_msg(&payload)?;
        if let Some(c) = &ctx {
            wiretrace::record_recv("in", c, self.peer, msg.label(), payload.len() as u64);
        }
        Ok(Some((msg, ctx)))
    }
}

/// One full-duplex connection.
pub struct Conn {
    /// Sending half.
    pub tx: MsgTx,
    /// Receiving half.
    pub rx: MsgRx,
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
        TransportKind::Channel => {
            let (reg_tx, reg_rx) = mpsc::channel();
            Ok((
                Arc::new(ChannelTransport {
                    reg: Mutex::new(reg_tx),
                    stats: stats.clone(),
                }),
                Box::new(ChannelListener { reg: reg_rx, stats }),
            ))
        }
        TransportKind::Tcp => {
            let listener =
                TcpListener::bind("127.0.0.1:0").map_err(|e| TransportError::Setup(e.kind()))?;
            let addr = listener
                .local_addr()
                .map_err(|e| TransportError::Setup(e.kind()))?;
            listener
                .set_nonblocking(true)
                .map_err(|e| TransportError::Setup(e.kind()))?;
            Ok((
                Arc::new(TcpTransport {
                    addr,
                    stats: stats.clone(),
                    dial_window: Duration::ZERO,
                }),
                Box::new(TcpAcceptor { listener, stats }),
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
            let listener = std::os::unix::net::UnixListener::bind(&path)
                .map_err(|e| TransportError::Setup(e.kind()))?;
            listener
                .set_nonblocking(true)
                .map_err(|e| TransportError::Setup(e.kind()))?;
            Ok((
                Arc::new(UnixTransport {
                    path: path.clone(),
                    stats: stats.clone(),
                }),
                Box::new(UnixAcceptor {
                    listener,
                    path,
                    stats,
                }),
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
    let listener = TcpListener::bind(addr).map_err(|e| TransportError::Setup(e.kind()))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| TransportError::Setup(e.kind()))?;
    Ok(Box::new(TcpAcceptor { listener, stats }))
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

/// The two stream halves a channel `connect` hands the server side.
type ChannelHalves = (mpsc::Sender<Vec<u8>>, mpsc::Receiver<Vec<u8>>);

struct ChannelTransport {
    /// Registration queue: each connect pushes the server's two halves.
    reg: Mutex<mpsc::Sender<ChannelHalves>>,
    stats: Arc<WireStats>,
}

impl Transport for ChannelTransport {
    fn connect(&self) -> Result<Conn, TransportError> {
        let (to_server_tx, to_server_rx) = mpsc::channel();
        let (to_client_tx, to_client_rx) = mpsc::channel();
        self.reg
            .lock()
            .expect("registration lock")
            .send((to_client_tx, to_server_rx))
            .map_err(|_| TransportError::Closed)?;
        Ok(Conn {
            tx: MsgTx {
                inner: TxInner::Channel(to_server_tx),
                stats: self.stats.clone(),
                peer: None,
            },
            rx: MsgRx {
                inner: RxInner::Channel {
                    rx: to_client_rx,
                    decoder: FrameDecoder::new(),
                },
                peer: None,
            },
        })
    }

    fn kind(&self) -> TransportKind {
        TransportKind::Channel
    }
}

struct ChannelListener {
    reg: mpsc::Receiver<ChannelHalves>,
    stats: Arc<WireStats>,
}

impl TransportListener for ChannelListener {
    fn accept(&mut self, timeout: Duration) -> Result<Conn, TransportError> {
        let (tx, rx) = self
            .reg
            .recv_timeout(timeout)
            .map_err(|_| TransportError::AcceptTimeout)?;
        Ok(Conn {
            tx: MsgTx {
                inner: TxInner::Channel(tx),
                stats: self.stats.clone(),
                peer: None,
            },
            rx: MsgRx {
                inner: RxInner::Channel {
                    rx,
                    decoder: FrameDecoder::new(),
                },
                peer: None,
            },
        })
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
                Err(e) => return Err(TransportError::Setup(e.kind())),
            }
        };
        stream.set_nodelay(true).ok();
        tcp_conn(stream, self.stats.clone())
    }

    fn kind(&self) -> TransportKind {
        TransportKind::Tcp
    }
}

fn tcp_conn(stream: TcpStream, stats: Arc<WireStats>) -> Result<Conn, TransportError> {
    let read_half = stream
        .try_clone()
        .map_err(|e| TransportError::Setup(e.kind()))?;
    Ok(Conn {
        tx: MsgTx {
            inner: TxInner::Tcp(stream),
            stats,
            peer: None,
        },
        rx: MsgRx {
            inner: RxInner::Tcp(read_half),
            peer: None,
        },
    })
}

struct TcpAcceptor {
    listener: TcpListener,
    stats: Arc<WireStats>,
}

impl TransportListener for TcpAcceptor {
    fn accept(&mut self, timeout: Duration) -> Result<Conn, TransportError> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false).ok();
                    stream.set_nodelay(true).ok();
                    return tcp_conn(stream, self.stats.clone());
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(TransportError::AcceptTimeout);
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(e) => return Err(TransportError::Setup(e.kind())),
            }
        }
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
        let stream = std::os::unix::net::UnixStream::connect(&self.path)
            .map_err(|e| TransportError::Setup(e.kind()))?;
        unix_conn(stream, self.stats.clone())
    }

    fn kind(&self) -> TransportKind {
        TransportKind::Unix
    }
}

#[cfg(unix)]
fn unix_conn(
    stream: std::os::unix::net::UnixStream,
    stats: Arc<WireStats>,
) -> Result<Conn, TransportError> {
    let read_half = stream
        .try_clone()
        .map_err(|e| TransportError::Setup(e.kind()))?;
    Ok(Conn {
        tx: MsgTx {
            inner: TxInner::Unix(stream),
            stats,
            peer: None,
        },
        rx: MsgRx {
            inner: RxInner::Unix(read_half),
            peer: None,
        },
    })
}

#[cfg(unix)]
struct UnixAcceptor {
    listener: std::os::unix::net::UnixListener,
    path: std::path::PathBuf,
    stats: Arc<WireStats>,
}

#[cfg(unix)]
impl TransportListener for UnixAcceptor {
    fn accept(&mut self, timeout: Duration) -> Result<Conn, TransportError> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false).ok();
                    return unix_conn(stream, self.stats.clone());
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(TransportError::AcceptTimeout);
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(e) => return Err(TransportError::Setup(e.kind())),
            }
        }
    }
}

#[cfg(unix)]
impl Drop for UnixAcceptor {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Send an upload through the wire fault injector, realizing this
/// round's drawn faults at the transport seam:
///
/// * **Straggle** — delivery is delayed by a real (small) sleep scaled
///   with the drawn slowdown.
/// * **Lost attempts** — each lost transmission burns its bytes in the
///   wire ledger but the frame is dropped before delivery.
/// * **Corruption** — the parameter bytes inside the *final, delivered*
///   frame are damaged in flight ([`Corruption::apply_bytes`]), so the
///   server receives genuinely corrupt data and its own validation must
///   quarantine it.
///
/// Returns whether a frame was actually delivered (`false` when every
/// attempt was lost — the caller then reports the loss through the
/// reliable control plane).
///
/// [`Corruption::apply_bytes`]: crate::faults::Corruption::apply_bytes
pub fn send_upload_faulty(
    tx: &mut MsgTx,
    msg: &WireMsg,
    f: &RoundFaults,
    straggle_delay_unit: Duration,
) -> Result<bool, TransportError> {
    let mut enc = encode_msg(msg);
    if f.slowdown > 1.0 && !straggle_delay_unit.is_zero() {
        // Bounded so pathological slowdowns cannot wedge a test run.
        let scale = (f.slowdown - 1.0).min(16.0);
        std::thread::sleep(straggle_delay_unit.mul_f64(scale));
    }
    if let (Some(corr), Some((off, len))) = (f.corruption, enc.params_span) {
        corr.apply_bytes(&mut enc.buf[off..off + len]);
    }
    for _ in 0..f.lost_attempts {
        tx.drop_encoded_labeled(&enc, msg.label());
    }
    if f.upload_lost {
        return Ok(false);
    }
    tx.send_encoded_labeled(&enc, msg.label())?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{Corruption, CorruptionMode};
    use crate::proto::UploadMeta;

    fn kinds() -> Vec<TransportKind> {
        let mut k = vec![TransportKind::Channel, TransportKind::Tcp];
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
        let (transport, mut listener) = bind(TransportKind::Channel, stats.clone()).expect("bind");
        let mut client = transport.connect().expect("connect");
        let mut server = listener.accept(Duration::from_secs(1)).expect("accept");

        // All attempts lost.
        let f = RoundFaults {
            lost_attempts: 3,
            upload_lost: true,
            ..RoundFaults::none()
        };
        let delivered =
            send_upload_faulty(&mut client.tx, &upload(vec![1.0; 8]), &f, Duration::ZERO)
                .expect("inject");
        assert!(!delivered);
        let s = stats.snapshot();
        assert_eq!(s.frames_dropped, 3);
        assert_eq!(s.payload, 3 * 32, "each lost attempt burned 8 f32s");

        // One retry then success: exactly one frame arrives.
        let f = RoundFaults {
            lost_attempts: 1,
            upload_lost: false,
            ..RoundFaults::none()
        };
        let delivered =
            send_upload_faulty(&mut client.tx, &upload(vec![2.0; 8]), &f, Duration::ZERO)
                .expect("inject");
        assert!(delivered);
        let got = server.rx.recv().expect("recv").expect("msg");
        match got {
            WireMsg::Upload { params, .. } => assert_eq!(params.unwrap(), vec![2.0; 8]),
            other => panic!("unexpected {other:?}"),
        }
        let s = stats.snapshot();
        assert_eq!(s.frames_dropped, 4);
        assert_eq!(s.frames, 5, "3 + 1 dropped, 1 delivered, counted once each");
    }

    #[test]
    fn corruption_damages_bytes_in_flight_exactly_like_in_process() {
        let corr = Corruption {
            mode: CorruptionMode::BitFlip,
            pos_fraction: 0.5,
            bit: 31,
        };
        let clean: Vec<f32> = (0..6).map(|i| i as f32 + 0.5).collect();
        let mut expected = clean.clone();
        corr.apply(&mut expected);

        let stats = Arc::new(WireStats::new());
        let (transport, mut listener) = bind(TransportKind::Tcp, stats).expect("bind");
        let mut client = transport.connect().expect("connect");
        let mut server = listener.accept(Duration::from_secs(5)).expect("accept");
        let f = RoundFaults {
            corruption: Some(corr),
            ..RoundFaults::none()
        };
        send_upload_faulty(&mut client.tx, &upload(clean), &f, Duration::ZERO).expect("inject");
        match server.rx.recv().expect("recv").expect("msg") {
            WireMsg::Upload { params, .. } => {
                let got = params.unwrap();
                let bits = |s: &[f32]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&expected));
            }
            other => panic!("unexpected {other:?}"),
        }
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
            // Header claims 100 bytes; send only 10 and slam the door.
            s.write_all(&100u32.to_le_bytes()).unwrap();
            s.write_all(&[7u8; 10]).unwrap();
        });
        let (stream, _) = listener.accept().unwrap();
        let mut rx = MsgRx {
            inner: RxInner::Tcp(stream),
            peer: None,
        };
        writer.join().unwrap();
        assert_eq!(
            rx.recv().unwrap_err(),
            TransportError::Frame(FrameError::Truncated)
        );
    }

    #[test]
    fn garbage_frame_is_a_decode_error_not_a_panic() {
        let stats = Arc::new(WireStats::new());
        let (transport, mut listener) = bind(TransportKind::Channel, stats.clone()).expect("bind");
        let client = transport.connect().expect("connect");
        let mut server = listener.accept(Duration::from_secs(1)).expect("accept");
        let mut tx = client.tx;
        // A framed buffer of garbage: valid frame, invalid message.
        tx.send_encoded(&Encoded {
            buf: vec![250, 1, 2, 3],
            data_bytes: 0,
            params_span: None,
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

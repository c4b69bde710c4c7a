//! The wire link: server and clients as actor threads.
//!
//! [`FederationRuntime`] drives the one round `engine` over a
//! `ClientLink` that, instead of calling clients as functions,
//! exchanges [`WireMsg`] frames with one actor thread (or process) per
//! client over a [`Transport`]. This module is only that wire half:
//! connections, the server inbox, send fan-outs and reply collection on
//! one side, the client's message loop on the other. The ledger — fault
//! log, byte accounting, simulated deadline math — is the engine's, so
//! a seeded run reports the same on every backend as in process.
//!
//! Faults are realized at the wire seam from the pure [`FaultPlan`]
//! both sides draw from: a crash is a genuinely closed connection
//! followed by a `Rejoin` redial, a lost upload is a frame dropped in
//! flight (with the bookkeeping arriving over the reliable
//! `UploadFailed` control message), corruption damages the parameter
//! bytes inside the frame, and stragglers delay delivery. Liveness
//! comes from physical signals (uploads, control messages, connection
//! closes); a generous wall-clock deadline per wait is only a safety
//! net — when it fires, the link hands the engine no reply for that
//! client (counting `transport.round_timeouts`) instead of hanging.
//!
//! Malformed frames — bytes that fail frame or message decoding —
//! quarantine the connection: the reader stops, the event is counted
//! (`transport.malformed_frames`) and marked in the flight recorder,
//! and the peer is treated as disconnected. No [`FaultKind`] is logged
//! for them: the fault ledger stays a pure function of the seed.
//!
//! [`Transport`]: crate::transport::Transport
//! [`FaultKind`]: crate::faults::FaultKind

use crate::client::{FclClient, Payload};
use crate::comm::CommModel;
use crate::device::DeviceProfile;
use crate::engine::{self, client_round, ClientLink, RoundContribution, RoundEnv, RunState};
use crate::faults::{FaultPlan, RoundFaults};
use crate::framing::TraceCtx;
use crate::proto::{DecodeError, WireMsg};
use crate::sim::{SimConfig, SimError, SimReport, Simulation};
use crate::transport::{
    bind, send_upload_faulty, MsgRx, MsgTx, Transport, TransportError, TransportKind,
    TransportListener, WireStats, WireStatsSnapshot,
};
use crate::wiretrace;
use fedknow_data::ClientDataset;
use rand::rngs::StdRng;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

// Wall-clock bounds of the actor threads. None of them touches the
// simulated ledger — they only bound how long real threads wait.

/// Safety-net deadline per wait (a connection, uploads, task-done rows,
/// eval rows). When it fires the server proceeds without the missing
/// clients instead of hanging.
const ROUND_DEADLINE: Duration = Duration::from_secs(30);
/// Real delay per unit of drawn straggler slowdown applied before a
/// straggler's upload leaves the client.
const STRAGGLE_DELAY: Duration = Duration::from_millis(1);
/// Retries (with backoff) for server-side sends.
const SEND_RETRIES: u32 = 3;

/// What a connection's reader thread forwards into the server inbox.
/// `epoch` identifies the connection (monotonically increasing per
/// accept), so a stale close racing a crash-redial cannot clobber the
/// fresh connection's registration.
enum NetEvent {
    Connected {
        client: u32,
        epoch: u64,
        rejoin: bool,
        base_down: u64,
        tx: Box<MsgTx>,
    },
    Msg {
        client: u32,
        msg: WireMsg,
        /// The frame's wire-trace context, when the peer sent one: the
        /// server records the `handled` lifecycle point against it at
        /// the moment the event leaves the inbox.
        ctx: Option<TraceCtx>,
    },
    /// The connection ended: a clean close, or a quarantine after a
    /// frame that would not decode.
    Closed { client: u32, epoch: u64 },
}

/// The transport-backed federation. Construction is that of
/// [`Simulation::new`]; [`Self::run`] drives the same round engine over
/// the wire link, so its [`SimReport`] is bit-identical (fault log
/// included) to the in-process one for the same seed and configuration.
///
/// [`Simulation::new`]: crate::sim::Simulation::new
pub struct FederationRuntime {
    /// The clients, data, devices, link model and configuration — what
    /// a [`Simulation`] holds, here run over a wire.
    ///
    /// [`Simulation`]: crate::sim::Simulation
    fleet: Simulation,
    kind: TransportKind,
}

impl FederationRuntime {
    /// Assemble a runtime. Same invariants as [`Simulation::new`].
    ///
    /// [`Simulation::new`]: crate::sim::Simulation::new
    pub fn new(
        clients: Vec<Box<dyn FclClient>>,
        data: Vec<ClientDataset>,
        devices: Vec<DeviceProfile>,
        comm: CommModel,
        cfg: SimConfig,
        model_bytes: u64,
        kind: TransportKind,
    ) -> Self {
        let fleet = Simulation::new(clients, data, devices, comm, cfg, model_bytes);
        Self { fleet, kind }
    }

    /// Run the federation over the transport and report, exactly as
    /// [`Simulation::run`] would.
    ///
    /// [`Simulation::run`]: crate::sim::Simulation::run
    pub fn run(self) -> Result<SimReport, SimError> {
        self.run_with_stats().map(|(report, _)| report)
    }

    /// Run and also return the wire-seam byte ledger — the actual
    /// data-plane/overhead bytes this run put on the transport.
    pub fn run_with_stats(self) -> Result<(SimReport, WireStatsSnapshot), SimError> {
        let stats = Arc::new(WireStats::new());
        let (transport, listener) = bind(self.kind, stats.clone())?;
        self.run_inner(listener, stats, Some(transport))
    }

    /// Serve a multi-process federation: listen at a fixed TCP address
    /// and wait for every client to dial in from its own process (see
    /// [`run_remote_client`]) instead of spawning local actor threads.
    /// The fault plan, ledger, and report are the same pure function of
    /// the seed as [`Self::run_with_stats`] — only which side of the
    /// wire the clients live on changes.
    pub fn serve_at(self, addr: &str) -> Result<(SimReport, WireStatsSnapshot), SimError> {
        let stats = Arc::new(WireStats::new());
        let listener = crate::transport::bind_tcp_at(addr, stats.clone())?;
        self.run_inner(listener, stats, None)
    }

    /// The shared server body behind [`Self::run_with_stats`] (local
    /// actor threads over `transport`) and [`Self::serve_at`] (remote
    /// client processes; `transport` is `None` and nothing local is
    /// spawned).
    fn run_inner(
        self,
        listener: Box<dyn TransportListener>,
        stats: Arc<WireStats>,
        transport: Option<Arc<dyn Transport>>,
    ) -> Result<(SimReport, WireStatsSnapshot), SimError> {
        let Simulation {
            clients,
            data,
            devices,
            comm,
            cfg,
            model_bytes,
        } = self.fleet;
        wiretrace::seed_trace_id(cfg.seed);
        let n = clients.len();
        let num_tasks = data[0].tasks.len();
        let method = clients[0].method_name();
        let env = RoundEnv {
            devices: &devices,
            comm: &comm,
            cfg: &cfg,
        };
        let report = engine::run_reported(&env, method, RunState::fresh(n), |st| {
            if fedknow_obs::is_enabled() {
                let kind = transport.as_ref().map_or(TransportKind::Tcp, |t| t.kind());
                fedknow_obs::set_context("sim.transport", kind.label());
            }
            // Reader threads register here so teardown can join them.
            let readers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
                Arc::new(Mutex::new(Vec::new()));
            let stop = Arc::new(AtomicBool::new(false));
            let depth = Arc::new(AtomicU64::new(0));
            let (inbox_tx, inbox_rx) = mpsc::channel();
            let pump = {
                let (readers, stop, stats, depth) =
                    (readers.clone(), stop.clone(), stats.clone(), depth.clone());
                std::thread::spawn(move || {
                    accept_pump(listener, inbox_tx, readers, stop, stats, depth)
                })
            };

            // One actor thread per client, each owning its algorithm
            // instance, dataset, and seeded RNG substream. In serve mode
            // the clients live in other processes and dial in instead.
            let mut client_threads = Vec::with_capacity(n);
            if let Some(transport) = transport {
                for (c, (client, data)) in clients.into_iter().zip(data).enumerate() {
                    let actor = ClientActor::new(
                        c as u32,
                        client,
                        data,
                        &cfg,
                        model_bytes,
                        transport.clone(),
                    );
                    client_threads.push(std::thread::spawn(move || actor.run()));
                }
            }

            let mut server = ServerActor {
                n,
                inbox: inbox_rx,
                depth,
                txs: (0..n).map(|_| None).collect(),
                epoch_of: vec![0; n],
                rejoin_base_down: vec![0; n],
                stash: VecDeque::new(),
                round_scope: None,
            };
            let result = match server.await_hellos() {
                Ok(()) => engine::advance(&mut server, &env, st, num_tasks),
                Err(e) => Err(e.into()),
            };

            // Teardown: clients exit on Shutdown (or on their dead
            // connections), which unblocks their readers; the pump stops
            // on the flag.
            for c in 0..n {
                server.send(c, &WireMsg::Shutdown);
            }
            stop.store(true, Ordering::Relaxed);
            drop(server);
            for t in client_threads {
                let _ = t.join();
            }
            let _ = pump.join();
            for r in readers.lock().expect("reader registry").drain(..) {
                let _ = r.join();
            }
            result
        })?;
        Ok((report, stats.snapshot()))
    }
}

/// Run one client as its own OS process's worker: dial the server over
/// `transport`, identify as client `id`, and play the protocol to
/// `Shutdown`. The fault plan is rebuilt from `cfg` — the same pure
/// function of the seed the server constructs — so a multi-process run
/// injects the identical fault sequence as the in-process backends.
/// Anything short of a `Shutdown` — the dial failing, the server
/// vanishing, a message this client cannot honour — is an error.
pub fn run_remote_client(
    transport: Arc<dyn Transport>,
    id: u32,
    client: Box<dyn FclClient>,
    data: ClientDataset,
    cfg: &SimConfig,
    model_bytes: u64,
) -> Result<(), TransportError> {
    fedknow_obs::init_from_env();
    wiretrace::seed_trace_id(cfg.seed);
    let result = ClientActor::new(id, client, data, cfg, model_bytes, transport).run();
    fedknow_obs::flush();
    result
}

/// Accept connections for the whole run, spawning a reader thread per
/// connection. Each accept gets a fresh epoch.
fn accept_pump(
    mut listener: Box<dyn TransportListener>,
    inbox: mpsc::Sender<NetEvent>,
    readers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    stop: Arc<AtomicBool>,
    stats: Arc<WireStats>,
    depth: Arc<AtomicU64>,
) {
    let mut epoch = 0u64;
    while !stop.load(Ordering::Relaxed) {
        match listener.accept(Duration::from_millis(25)) {
            Ok(conn) => {
                epoch += 1;
                let (inbox, stats, depth) = (inbox.clone(), stats.clone(), depth.clone());
                let handle = std::thread::spawn(move || {
                    reader(conn.rx, conn.tx, epoch, inbox, stats, depth)
                });
                readers.lock().expect("reader registry").push(handle);
            }
            Err(TransportError::AcceptTimeout) => continue,
            Err(_) => return,
        }
    }
}

/// Forward one event into the server inbox, growing the tracked queue
/// depth. The matching decrement happens when the server pops it.
/// `Err(())` means the server hung up and the reader should stop.
fn inbox_push(inbox: &mpsc::Sender<NetEvent>, depth: &AtomicU64, ev: NetEvent) -> Result<(), ()> {
    let d = depth.fetch_add(1, Ordering::Relaxed) + 1;
    fedknow_obs::observe_queue_depth(d as f64);
    if inbox.send(ev).is_err() {
        depth.fetch_sub(1, Ordering::Relaxed);
        return Err(());
    }
    Ok(())
}

/// Drain one connection into the server inbox. The first message must
/// identify the peer (`Hello` or `Rejoin`); anything else quarantines
/// the connection on the spot. A clean close forwards `Closed`; a torn
/// frame or undecodable message is counted, then also forwards `Closed`
/// — the connection is quarantined.
fn reader(
    mut rx: MsgRx,
    mut tx: MsgTx,
    epoch: u64,
    inbox: mpsc::Sender<NetEvent>,
    stats: Arc<WireStats>,
    depth: Arc<AtomicU64>,
) {
    let (client, rejoin, base_down) = match rx.recv_traced() {
        Ok(Some((WireMsg::Hello { client }, _))) => (client, false, 0),
        Ok(Some((WireMsg::Rejoin { client, base_down }, _))) => (client, true, base_down),
        Ok(Some(_)) | Err(_) => {
            // Unidentified or hostile peer: quarantine silently.
            stats.on_malformed();
            fedknow_obs::mark("transport.quarantine unidentified peer");
            fedknow_obs::dump_trigger("transport_malformed");
            return;
        }
        Ok(None) => return,
    };
    tx.set_peer(client);
    rx.set_peer(client);
    let connected = NetEvent::Connected {
        client,
        epoch,
        rejoin,
        base_down,
        tx: Box::new(tx),
    };
    if inbox_push(&inbox, &depth, connected).is_err() {
        return;
    }
    loop {
        match rx.recv_traced() {
            Ok(Some((msg, ctx))) => {
                if inbox_push(&inbox, &depth, NetEvent::Msg { client, msg, ctx }).is_err() {
                    return;
                }
            }
            Ok(None) => {
                let _ = inbox_push(&inbox, &depth, NetEvent::Closed { client, epoch });
                return;
            }
            Err(e) => {
                stats.on_malformed();
                fedknow_obs::mark(&format!(
                    "transport.quarantine client {client} epoch {epoch}: {e}"
                ));
                fedknow_obs::dump_trigger("transport_malformed");
                let _ = inbox_push(&inbox, &depth, NetEvent::Closed { client, epoch });
                return;
            }
        }
    }
}

/// One client as an actor: connects, identifies itself, then reacts to
/// server messages until `Shutdown`. Crashes drawn from the plan are
/// realized by slamming the connection shut and redialing with
/// `Rejoin`.
struct ClientActor {
    id: u32,
    client: Box<dyn FclClient>,
    data: ClientDataset,
    rng: StdRng,
    plan: FaultPlan,
    model_bytes: u64,
    iters_per_round: usize,
    transport: Arc<dyn Transport>,
    /// When the last round's upload (or its `UploadFailed` fallback)
    /// hit the wire — the server's `Ack` closes the RTT sample.
    upload_sent_at: Option<Instant>,
}

impl ClientActor {
    fn new(
        id: u32,
        client: Box<dyn FclClient>,
        data: ClientDataset,
        cfg: &SimConfig,
        model_bytes: u64,
        transport: Arc<dyn Transport>,
    ) -> Self {
        Self {
            id,
            client,
            data,
            rng: engine::client_rng(cfg.seed, id as usize),
            plan: FaultPlan::new(cfg.seed, cfg.faults),
            model_bytes,
            iters_per_round: cfg.iters_per_round,
            transport,
            upload_sent_at: None,
        }
    }

    fn connect(&self) -> Result<crate::transport::Conn, TransportError> {
        let mut conn = self.transport.connect()?;
        conn.tx.set_peer(self.id);
        conn.rx.set_peer(self.id);
        Ok(conn)
    }

    /// The task a server-sent index names. The index is outside input:
    /// one past this client's stream is rejected like a malformed frame.
    fn task(&self, index: u32) -> Result<usize, TransportError> {
        let index = index as usize;
        if index < self.data.tasks.len() {
            Ok(index)
        } else {
            Err(DecodeError::Invalid("task index past the client's stream").into())
        }
    }

    /// Play the protocol to `Shutdown`. Any other way out — the server
    /// gone, the stream damaged, an index this client cannot honour —
    /// drops the connection and returns the error.
    fn run(mut self) -> Result<(), TransportError> {
        let mut conn = self.connect()?;
        conn.tx.send(&WireMsg::Hello { client: self.id })?;
        let mut step = 0usize;
        loop {
            let (msg, ctx) = conn.rx.recv_traced()?.ok_or(TransportError::Closed)?;
            // The client consumes synchronously: `handled` immediately
            // follows `in`.
            if let Some(c) = &ctx {
                wiretrace::record_recv("handled", c, Some(self.id), msg.label(), 0);
            }
            match msg {
                WireMsg::StartTask { task } => {
                    step = self.task(task)?;
                    self.client
                        .start_task(&self.data.tasks[step], &mut self.rng);
                }
                WireMsg::Resync { global, .. } => {
                    self.client.receive_global(&global, &mut self.rng);
                }
                WireMsg::RoundStart { round } => {
                    // Keep this process's ambient round current even
                    // when the server lives in another process: sent
                    // frames stamp it into their trace context.
                    fedknow_obs::set_round(round);
                    let f = if self.plan.config().is_inert() {
                        RoundFaults::none()
                    } else {
                        self.plan.draw(self.id as usize, round)
                    };
                    if f.crash {
                        // Crash for the round: close the connection for
                        // real, then redial as a rejoiner. No training,
                        // no RNG draws — exactly the in-process skip.
                        drop(conn);
                        conn = self.connect()?;
                        let base_down = self.client.base_comm(self.model_bytes).down;
                        conn.tx.send(&WireMsg::Rejoin {
                            client: self.id,
                            base_down,
                        })?;
                        continue;
                    }
                    self.round(round, step, &f, &mut conn.tx)?;
                }
                WireMsg::Ack { .. } => {
                    // Upload → Ack round trip: one RTT sample for the
                    // health engine and the RTT histogram.
                    if let Some(t0) = self.upload_sent_at.take() {
                        let rtt = t0.elapsed();
                        fedknow_obs::observe_message_rtt(rtt.as_secs_f64());
                        fedknow_obs::record("transport.rtt_ns", rtt.as_nanos() as u64);
                    }
                }
                WireMsg::Broadcast {
                    global, payloads, ..
                } => {
                    if let Some(g) = global {
                        self.client.receive_global(&g, &mut self.rng);
                    }
                    if !payloads.is_empty() {
                        self.client.payloads_in(&payloads, &mut self.rng);
                    }
                }
                WireMsg::FinishTask => {
                    self.client.finish_task(&mut self.rng);
                    conn.tx.send(&WireMsg::TaskDone {
                        client: self.id,
                        retained: self.client.retained_bytes(),
                    })?;
                }
                WireMsg::Eval { upto } => {
                    let row: Vec<f64> = (0..=self.task(upto)?)
                        .map(|k| self.client.evaluate(&self.data.tasks[k]))
                        .collect();
                    conn.tx.send(&WireMsg::EvalRow {
                        client: self.id,
                        row,
                    })?;
                }
                WireMsg::Shutdown => return Ok(()),
                // The server never sends anything else.
                _ => {}
            }
        }
    }

    /// Train the round and ship the upload through the wire fault
    /// injector. A fully lost upload is reported over the reliable
    /// `UploadFailed` control message — the bookkeeping (and the method
    /// payloads, which the protocol exchanges regardless of upload
    /// loss) must still reach the server.
    fn round(
        &mut self,
        round: u64,
        step: usize,
        f: &RoundFaults,
        tx: &mut MsgTx,
    ) -> Result<(), TransportError> {
        let RoundContribution {
            meta,
            params,
            payloads,
        } = client_round(
            self.id as usize,
            self.client.as_mut(),
            &self.data.tasks[step],
            &mut self.rng,
            self.iters_per_round,
            self.model_bytes,
        );
        // One logical upload per round: every frame it produces — lost
        // retry attempts, the delivery, the UploadFailed fallback —
        // shares this parent span, so the merged timeline groups them.
        let _upload_scope = wiretrace::parent_scope(wiretrace::next_span_id());
        let msg = WireMsg::Upload {
            round,
            client: self.id,
            meta,
            params,
            payloads,
        };
        if !meta.had_params {
            // Nothing to lose on the wire: the bookkeeping travels the
            // control plane untouched by upload faults.
            tx.send(&msg)?;
        } else if !send_upload_faulty(tx, &msg, f, STRAGGLE_DELAY)? {
            let WireMsg::Upload { payloads, .. } = msg else {
                unreachable!("built as an Upload above");
            };
            tx.send(&WireMsg::UploadFailed {
                round,
                client: self.id,
                meta,
                payloads,
            })?;
        }
        self.upload_sent_at = Some(Instant::now());
        Ok(())
    }
}

/// The wire half of the server: connections, the inbox the reader
/// threads feed, and the send/collect fan-outs that carry the round
/// engine's calls as framed messages. It holds no ledger state — that
/// is the engine's [`RunState`].
struct ServerActor {
    n: usize,
    inbox: mpsc::Receiver<NetEvent>,
    /// Inbox backlog gauge; readers increment on push, [`Self::popped`]
    /// decrements on pop.
    depth: Arc<AtomicU64>,
    txs: Vec<Option<Box<MsgTx>>>,
    epoch_of: Vec<u64>,
    rejoin_base_down: Vec<u64>,
    /// Solicited client messages that arrived while a bookkeeping wait
    /// (e.g. [`Self::ensure_conn`] blocking on a crash redial) was
    /// draining the inbox. Collect loops consume this before the inbox
    /// so one client's prompt reply is never discarded while the server
    /// waits on another client's reconnection.
    stash: VecDeque<NetEvent>,
    /// `(round, span)`: every server frame of one round — Resync,
    /// RoundStart fan-out, upload Acks, the aggregate Broadcast —
    /// carries one round-scoped parent span.
    round_scope: Option<(u64, u64)>,
}

impl ServerActor {
    /// Bookkeeping events every phase handles identically. `Msg` events
    /// do not come through here — collect loops match them directly;
    /// anything unexpected is counted and dropped.
    fn handle(&mut self, ev: NetEvent) {
        match ev {
            NetEvent::Connected {
                client,
                epoch,
                rejoin,
                base_down,
                tx,
            } => {
                let c = client as usize;
                if c >= self.n {
                    fedknow_obs::count("transport.unknown_peer", 1);
                    return;
                }
                self.txs[c] = Some(tx);
                self.epoch_of[c] = epoch;
                if rejoin {
                    self.rejoin_base_down[c] = base_down;
                }
            }
            NetEvent::Closed { client, epoch } => {
                let c = client as usize;
                if c < self.n && self.epoch_of[c] == epoch {
                    self.txs[c] = None;
                }
            }
            NetEvent::Msg { .. } => {
                fedknow_obs::count("transport.unexpected_msgs", 1);
            }
        }
    }

    /// Bookkeeping for an event leaving the inbox: shrink the backlog
    /// gauge and close the message lifecycle — a traced `Msg` popped
    /// here is `handled`, the fourth and final lifecycle point.
    fn popped(&self, ev: &NetEvent) {
        self.depth.fetch_sub(1, Ordering::Relaxed);
        if let NetEvent::Msg {
            client,
            msg,
            ctx: Some(ctx),
        } = ev
        {
            wiretrace::record_recv("handled", ctx, Some(*client), msg.label(), 0);
        }
    }

    /// Wait until `deadline` for the next inbox event.
    fn recv_until(&mut self, deadline: Instant) -> Option<NetEvent> {
        let now = Instant::now();
        if now >= deadline {
            return None;
        }
        let ev = self.inbox.recv_timeout(deadline - now).ok()?;
        self.popped(&ev);
        Some(ev)
    }

    /// Drain events already queued, without blocking.
    fn drain_pending(&mut self) {
        while let Ok(ev) = self.inbox.try_recv() {
            self.popped(&ev);
            self.handle(ev);
        }
    }

    /// Pop the next event for a collect loop: stashed messages first
    /// (replies that arrived during a bookkeeping wait), then the inbox.
    fn next_event(&mut self, deadline: Instant) -> Option<NetEvent> {
        let stashed = self.stash.pop_front();
        stashed.or_else(|| self.recv_until(deadline))
    }

    /// Block (bounded) until client `c` has a live connection — e.g. a
    /// crashed client's `Rejoin` redial that has not been accepted yet.
    /// Client messages arriving meanwhile are stashed, not dropped:
    /// they are replies another collect loop is still owed.
    fn ensure_conn(&mut self, c: usize) -> bool {
        let deadline = Instant::now() + ROUND_DEADLINE;
        while self.txs[c].is_none() {
            let Some(ev) = self.recv_until(deadline) else {
                fedknow_obs::count("transport.round_timeouts", 1);
                fedknow_obs::mark(&format!("transport.timeout waiting for client {c}"));
                fedknow_obs::dump_trigger("transport_timeout");
                return false;
            };
            if matches!(ev, NetEvent::Msg { .. }) {
                self.stash.push_back(ev);
            } else {
                self.handle(ev);
            }
        }
        true
    }

    /// Send to client `c` with retry/backoff; on terminal failure the
    /// connection is marked dead and the degradation counted.
    fn send(&mut self, c: usize, msg: &WireMsg) -> bool {
        let Some(tx) = self.txs[c].as_mut() else {
            return false;
        };
        if tx.send_with_retry(msg, SEND_RETRIES).is_ok() {
            return true;
        }
        fedknow_obs::mark(&format!("transport.send_failed client {c}"));
        fedknow_obs::dump_trigger("transport_send_failed");
        self.txs[c] = None;
        false
    }

    /// Wait for every client's Hello before the first task.
    fn await_hellos(&mut self) -> Result<(), TransportError> {
        match (0..self.n).find(|&c| !self.ensure_conn(c)) {
            Some(c) => Err(TransportError::NeverConnected(c as u32)),
            None => Ok(()),
        }
    }

    /// Make `round`'s span the ambient wire parent, allocating it the
    /// first time the round is seen.
    fn enter_round(&mut self, round: u64) -> wiretrace::ParentGuard {
        let span = match self.round_scope {
            Some((r, span)) if r == round => span,
            _ => wiretrace::next_span_id(),
        };
        self.round_scope = Some((round, span));
        wiretrace::parent_scope(span)
    }

    /// Send `msg` to every client `mask` selects, waiting (bounded)
    /// for a crashed client's redial first.
    fn fan_out(&mut self, mask: &[bool], msg: &WireMsg) {
        self.drain_pending();
        for c in (0..self.n).filter(|&c| mask[c]) {
            if self.ensure_conn(c) {
                self.send(c, msg);
            }
        }
    }

    /// Wait until every client `pending` selects has sent the reply
    /// `take` claims (a message that is not the one owed comes back as
    /// `Some`). Crash closes and rejoin redials are absorbed as
    /// bookkeeping. The wall deadline degrades gracefully: a missing
    /// client is counted and marked, never ledgered.
    fn collect(
        &mut self,
        mut pending: Vec<bool>,
        what: &str,
        mut take: impl FnMut(&mut Self, usize, WireMsg) -> Option<WireMsg>,
    ) {
        let mut missing = pending.iter().filter(|&&p| p).count();
        let deadline = Instant::now() + ROUND_DEADLINE;
        while missing > 0 {
            let Some(ev) = self.next_event(deadline) else {
                for c in (0..self.n).filter(|&c| pending[c]) {
                    fedknow_obs::count("transport.round_timeouts", 1);
                    fedknow_obs::mark(&format!("transport.degraded: no {what} from client {c}"));
                }
                fedknow_obs::dump_trigger("transport_timeout");
                break;
            };
            match ev {
                NetEvent::Msg { client, msg, ctx }
                    if (client as usize) < self.n && pending[client as usize] =>
                {
                    match take(self, client as usize, msg) {
                        None => {
                            pending[client as usize] = false;
                            missing -= 1;
                        }
                        Some(msg) => self.handle(NetEvent::Msg { client, msg, ctx }),
                    }
                }
                other => self.handle(other),
            }
        }
    }
}

impl ClientLink for ServerActor {
    fn start_task(&mut self, step: usize, active: &[bool]) {
        self.fan_out(active, &WireMsg::StartTask { task: step as u32 });
    }

    fn resync(&mut self, c: usize, round: u64, global: &[f32]) -> u64 {
        let _scope = self.enter_round(round);
        self.drain_pending();
        if self.ensure_conn(c) {
            let global = global.to_vec();
            self.send(c, &WireMsg::Resync { round, global });
        }
        self.rejoin_base_down[c]
    }

    fn round(
        &mut self,
        round: u64,
        _step: usize,
        part: &[bool],
        faults: &[RoundFaults],
    ) -> Vec<Option<RoundContribution>> {
        let _scope = self.enter_round(round);
        self.drain_pending();
        // The round begins for every active client, crashed ones
        // included (`faults` draws a crash only for an active client) —
        // they realize the crash by closing their connection on
        // receipt. The server knows the plan too: a crashed client's
        // connection is doomed, so stop using it now rather than racing
        // its close (a frame sent after the client slams the socket is
        // silently gone). The next send to that client goes through
        // `ensure_conn`, which synchronizes on the rejoin redial.
        for c in 0..self.n {
            if (part[c] || faults[c].crash) && self.ensure_conn(c) {
                self.send(c, &WireMsg::RoundStart { round });
                if faults[c].crash {
                    self.txs[c] = None;
                }
            }
        }
        // Collect: physical liveness. Every participant owes exactly
        // one Upload or UploadFailed control message, and an Ack goes
        // back for whichever arrives; crashed clients owe nothing
        // (their close is the signal). The wall deadline only degrades,
        // never ledgers.
        let mut out: Vec<Option<RoundContribution>> = part.iter().map(|_| None).collect();
        self.collect(part.to_vec(), "upload", |server, c, msg| {
            let (meta, params, payloads) = match msg {
                WireMsg::Upload {
                    round: r,
                    meta,
                    params,
                    payloads,
                    ..
                } if r == round => (meta, params, payloads),
                WireMsg::UploadFailed {
                    round: r,
                    meta,
                    payloads,
                    ..
                } if r == round => (meta, None, payloads),
                other => return Some(other),
            };
            out[c] = Some(RoundContribution {
                meta,
                params,
                payloads,
            });
            let client = c as u32;
            server.send(c, &WireMsg::Ack { round, client });
            None
        });
        out
    }

    fn broadcast(
        &mut self,
        part: &[bool],
        round: u64,
        global: Option<&[f32]>,
        payloads: Vec<Payload>,
    ) {
        let _scope = self.enter_round(round);
        // The message always goes out (it closes the client's round);
        // the modeled download is only charged when a global exists.
        let bcast = WireMsg::Broadcast {
            round,
            global: global.map(<[f32]>::to_vec),
            payloads,
        };
        for c in (0..self.n).filter(|&c| part[c]) {
            self.send(c, &bcast);
        }
    }

    fn finish_task(&mut self, active: &[bool]) -> Vec<Option<u64>> {
        self.fan_out(active, &WireMsg::FinishTask);
        let mut retained = vec![None; self.n];
        self.collect(active.to_vec(), "TaskDone", |_, c, msg| match msg {
            WireMsg::TaskDone { retained: r, .. } => {
                retained[c] = Some(r);
                None
            }
            other => Some(other),
        });
        retained
    }

    fn evaluate(&mut self, step: usize) -> Vec<Option<Vec<f64>>> {
        let all = vec![true; self.n];
        self.fan_out(&all, &WireMsg::Eval { upto: step as u32 });
        let mut rows = vec![None; self.n];
        self.collect(all, "eval row", |_, c, msg| match msg {
            WireMsg::EvalRow { row, .. } if row.len() == step + 1 => {
                rows[c] = Some(row);
                None
            }
            other => Some(other),
        });
        rows
    }

    fn queue_depth(&self) -> u64 {
        self.depth.load(Ordering::Relaxed)
    }
}

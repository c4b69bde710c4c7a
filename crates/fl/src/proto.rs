//! Typed messages of the federation wire protocol.
//!
//! Every exchange between the server actor and a client actor is one
//! [`WireMsg`], encoded to a flat little-endian buffer and shipped as
//! one frame (see [`framing`]). The encoding is designed so the
//! *data-plane* portion of each message — model parameters and method
//! payloads — occupies exactly the bytes the [`CommModel`] ledger
//! charges for them (`4 · len` for a parameter vector, `16 + 8 · nnz`
//! per payload), which is what makes the byte-accounting parity test
//! possible: message tags, counts, and upload metadata are *overhead*,
//! reported separately.
//!
//! Encoding reserves the whole buffer once (the fixed fields' bound
//! plus the data plane's exact size) and writes a parameter vector in
//! bulk, a stack chunk of little-endian floats per copy. The two
//! messages the server sends from its own aggregate have per-kind
//! encoders over a borrowed slice, `encode_resync` and
//! `encode_broadcast`, which [`encode_msg`] uses too: a round's
//! broadcast is encoded once and the same bytes go to every client.
//! Each encoder writes into an [`Encoded`] its caller keeps
//! ([`encode_msg_into`]), and [`decode_msg_into`] decodes a parameter
//! vector into storage its caller hands back, so a connection moves
//! model after model without allocating one; [`encode_msg`] and
//! [`decode_msg`] are those forms over fresh buffers.
//!
//! Decoding never trusts the peer: lengths are validated against the
//! remaining buffer before allocation, sparse payload indices are
//! validated before constructing a [`SparseVec`], and any violation is
//! a typed [`DecodeError`] the server quarantines — never a panic.
//! Parameter values are deliberately *not* validated here: a NaN from a
//! diverged client must reach the aggregator's own quarantine, the same
//! validation seam the in-process driver exercises.
//!
//! [`framing`]: crate::framing
//! [`CommModel`]: crate::comm::CommModel

use crate::client::Payload;
use fedknow_math::SparseVec;

/// Upload bookkeeping the ledger needs from the client even when the
/// upload's data plane never arrives (all attempts lost): the FedAvg
/// weight, round compute and loss, and the client's modeled comm sizes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct UploadMeta {
    /// FedAvg weight (the client's training-sample count this task).
    pub weight: u64,
    /// FLOPs spent on local training this round.
    pub flops: u64,
    /// Sum of per-iteration losses this round.
    pub loss_sum: f64,
    /// Local iterations run this round.
    pub iters: u64,
    /// Modeled base model bytes up (one attempt).
    pub base_up: u64,
    /// Modeled base model bytes down (one broadcast).
    pub base_down: u64,
    /// Method extra bytes up this round.
    pub extra_up: u64,
    /// Method extra bytes down this round.
    pub extra_down: u64,
    /// Whether the client produced an upload at all — distinguishes "no
    /// parameters to send" from "sent but lost on the wire".
    pub had_params: bool,
}

/// One protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMsg {
    /// First message on a fresh connection: who is calling.
    Hello {
        /// Client id.
        client: u32,
    },
    /// First message on a *re*-connection after a crash. Carries the
    /// client's modeled broadcast download size so the server can
    /// charge the eventual resync exactly as the in-process ledger
    /// does.
    Rejoin {
        /// Client id.
        client: u32,
        /// Modeled base model bytes down (one broadcast).
        base_down: u64,
    },
    /// Server → client: begin the given task.
    StartTask {
        /// Task step.
        task: u32,
    },
    /// Server → rejoining client: the broadcast it missed.
    Resync {
        /// Global round the resync happens in.
        round: u64,
        /// The current global model.
        global: Vec<f32>,
    },
    /// Server → client: the round begins.
    RoundStart {
        /// Global round index.
        round: u64,
    },
    /// Client → server: local training finished; parameters attached
    /// (unless the client had none to send).
    Upload {
        /// Global round index.
        round: u64,
        /// Client id.
        client: u32,
        /// Ledger bookkeeping.
        meta: UploadMeta,
        /// Flat parameters; `None` when the method had nothing to send.
        params: Option<Vec<f32>>,
        /// Method payloads published this round.
        payloads: Vec<Payload>,
    },
    /// Client → server control message: every transmission attempt of
    /// the upload was lost; the bookkeeping (and payloads, which travel
    /// the reliable control plane) still arrive.
    UploadFailed {
        /// Global round index.
        round: u64,
        /// Client id.
        client: u32,
        /// Ledger bookkeeping.
        meta: UploadMeta,
        /// Method payloads published this round.
        payloads: Vec<Payload>,
    },
    /// Server → client: your upload was received this round.
    Ack {
        /// Global round index.
        round: u64,
        /// Client id.
        client: u32,
    },
    /// Server → client: the round's aggregate and the payload set.
    Broadcast {
        /// Global round index.
        round: u64,
        /// The aggregated model; `None` when nothing was accepted.
        global: Option<Vec<f32>>,
        /// All payloads published this round (client order).
        payloads: Vec<Payload>,
    },
    /// Server → client: consolidate the task.
    FinishTask,
    /// Client → server: task consolidated; retained bytes for the OOM
    /// check.
    TaskDone {
        /// Client id.
        client: u32,
        /// Retained state bytes after consolidation.
        retained: u64,
    },
    /// Server → client: evaluate tasks `0..=upto`.
    Eval {
        /// Last learned task step.
        upto: u32,
    },
    /// Client → server: one accuracy-matrix row.
    EvalRow {
        /// Client id.
        client: u32,
        /// Accuracy per learned task.
        row: Vec<f64>,
    },
    /// Server → client: the run is over.
    Shutdown,
}

impl WireMsg {
    /// Stable short name for trace events and per-message telemetry —
    /// a closed set, so it can never blow the metric-name budget.
    pub fn label(&self) -> &'static str {
        match self {
            WireMsg::Hello { .. } => "hello",
            WireMsg::Rejoin { .. } => "rejoin",
            WireMsg::StartTask { .. } => "start_task",
            WireMsg::Resync { .. } => "resync",
            WireMsg::RoundStart { .. } => "round_start",
            WireMsg::Upload { .. } => "upload",
            WireMsg::UploadFailed { .. } => "upload_failed",
            WireMsg::Ack { .. } => "ack",
            WireMsg::Broadcast { .. } => "broadcast",
            WireMsg::FinishTask => "finish_task",
            WireMsg::TaskDone { .. } => "task_done",
            WireMsg::Eval { .. } => "eval",
            WireMsg::EvalRow { .. } => "eval_row",
            WireMsg::Shutdown => "shutdown",
        }
    }
}

/// A message encoded for the wire, with the split the byte-accounting
/// ledger needs: `data_bytes` is the portion the [`CommModel`] charges
/// (parameters and payloads), everything else is framing/protocol
/// overhead.
///
/// [`CommModel`]: crate::comm::CommModel
#[derive(Debug, Clone, Default)]
pub struct Encoded {
    /// The message bytes (unframed).
    pub buf: Vec<u8>,
    /// Data-plane bytes within `buf` (modeled by the comm ledger).
    pub data_bytes: u64,
}

/// A peer sent bytes that do not decode to a [`WireMsg`]. The server
/// treats this as a malformed frame and quarantines the connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the message did.
    Truncated,
    /// Unknown message tag.
    BadTag(u8),
    /// A structurally invalid field (e.g. non-increasing sparse
    /// indices).
    Invalid(&'static str),
    /// Bytes left over after the message — a framing confusion.
    TrailingBytes,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "message truncated"),
            DecodeError::BadTag(t) => write!(f, "unknown message tag {t}"),
            DecodeError::Invalid(what) => write!(f, "invalid field: {what}"),
            DecodeError::TrailingBytes => write!(f, "trailing bytes after message"),
        }
    }
}

impl std::error::Error for DecodeError {}

const TAG_HELLO: u8 = 0;
const TAG_REJOIN: u8 = 1;
const TAG_START_TASK: u8 = 2;
const TAG_RESYNC: u8 = 3;
const TAG_ROUND_START: u8 = 4;
const TAG_UPLOAD: u8 = 5;
const TAG_UPLOAD_FAILED: u8 = 6;
const TAG_ACK: u8 = 7;
const TAG_BROADCAST: u8 = 8;
const TAG_FINISH_TASK: u8 = 9;
const TAG_TASK_DONE: u8 = 10;
const TAG_EVAL: u8 = 11;
const TAG_EVAL_ROW: u8 = 12;
const TAG_SHUTDOWN: u8 = 13;

/// Upper bound on the fixed-size fields of any message (tag, round,
/// client, upload metadata, presence flags) — with the data plane's
/// exact size, the one reservation an encoding makes.
const FIXED_BYTES_MAX: usize = 96;

/// Floats converted per stack chunk by [`put_f32s`].
const F32_CHUNK: usize = 1024;

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append `vals` little-endian a stack chunk at a time: one bulk copy
/// per chunk instead of one `extend_from_slice` per float.
fn put_f32s(buf: &mut Vec<u8>, vals: &[f32]) {
    let mut chunk = [0u8; 4 * F32_CHUNK];
    for run in vals.chunks(F32_CHUNK) {
        let bytes = &mut chunk[..4 * run.len()];
        for (dst, v) in bytes.chunks_exact_mut(4).zip(run) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
        buf.extend_from_slice(bytes);
    }
}

fn put_meta(buf: &mut Vec<u8>, m: &UploadMeta) {
    put_u64(buf, m.weight);
    put_u64(buf, m.flops);
    put_f64(buf, m.loss_sum);
    put_u64(buf, m.iters);
    put_u64(buf, m.base_up);
    put_u64(buf, m.base_down);
    put_u64(buf, m.extra_up);
    put_u64(buf, m.extra_down);
    buf.push(u8::from(m.had_params));
}

/// Encoded size of a length-prefixed parameter vector.
fn params_bytes(params: &[f32]) -> usize {
    4 + 4 * params.len()
}

/// Encoded size of a payload list (count prefix, then per payload a
/// 20-byte header and `8 · nnz` index/value bytes).
fn payloads_bytes(ps: &[Payload]) -> usize {
    4 + ps.iter().map(|p| 20 + 8 * p.sparse.nnz()).sum::<usize>()
}

/// Append the flat parameter vector; returns its data-plane size
/// (`4 · len`) — the `len` prefix itself is overhead.
fn put_params(buf: &mut Vec<u8>, params: &[f32]) -> u64 {
    put_u32(buf, params.len() as u32);
    put_f32s(buf, params);
    (params.len() * 4) as u64
}

/// Append one payload. Data-plane portion: a 16-byte header
/// (from_client, tag, dense_len) plus `8 · nnz` index/value bytes —
/// exactly [`Payload::size_bytes`]. The nnz count is overhead.
fn put_payload(buf: &mut Vec<u8>, p: &Payload) -> u64 {
    put_u32(buf, p.sparse.nnz() as u32); // overhead
    put_u32(buf, p.from_client as u32);
    put_u64(buf, p.tag);
    put_u32(buf, p.sparse.dense_len() as u32);
    for i in p.sparse.indices() {
        put_u32(buf, *i);
    }
    put_f32s(buf, p.sparse.values());
    p.size_bytes()
}

fn put_payloads(buf: &mut Vec<u8>, ps: &[Payload]) -> u64 {
    put_u32(buf, ps.len() as u32); // overhead
    ps.iter().map(|p| put_payload(buf, p)).sum()
}

impl Encoded {
    /// Empty this encoding, keeping its buffer, and make room for
    /// `data` variable-length bytes plus any message's fixed fields, so
    /// encoding never reallocates (and a buffer already that large
    /// never allocates).
    fn start(&mut self, data: usize) {
        self.buf.clear();
        self.buf.reserve(FIXED_BYTES_MAX + data);
        self.data_bytes = 0;
    }
}

/// Encode [`WireMsg::Resync`] from a borrowed model into `enc` — the
/// bytes [`encode_msg`] produces for the owned message, without the
/// copy that building one would take.
pub(crate) fn encode_resync(round: u64, global: &[f32], enc: &mut Encoded) {
    enc.start(params_bytes(global));
    enc.buf.push(TAG_RESYNC);
    put_u64(&mut enc.buf, round);
    enc.data_bytes += put_params(&mut enc.buf, global);
}

/// Encode [`WireMsg::Broadcast`] from a borrowed aggregate into `enc` —
/// the bytes [`encode_msg`] produces for the owned message. The server
/// encodes a round's broadcast once and sends the result to every
/// participant.
pub(crate) fn encode_broadcast(
    round: u64,
    global: Option<&[f32]>,
    payloads: &[Payload],
    enc: &mut Encoded,
) {
    enc.start(global.map_or(0, params_bytes) + payloads_bytes(payloads));
    enc.buf.push(TAG_BROADCAST);
    put_u64(&mut enc.buf, round);
    match global {
        Some(g) => {
            enc.buf.push(1);
            enc.data_bytes += put_params(&mut enc.buf, g);
        }
        None => enc.buf.push(0),
    }
    enc.data_bytes += put_payloads(&mut enc.buf, payloads);
}

/// Encode a message for the wire, into one buffer reserved up front.
pub fn encode_msg(msg: &WireMsg) -> Encoded {
    let mut enc = Encoded::default();
    encode_msg_into(msg, &mut enc);
    enc
}

/// Encode a message into `enc`, replacing its contents and keeping its
/// buffer: a sender that encodes every message into the same
/// [`Encoded`] allocates only while the buffer grows to its largest
/// message.
pub fn encode_msg_into(msg: &WireMsg, enc: &mut Encoded) {
    let data = match msg {
        WireMsg::Resync { round, global } => return encode_resync(*round, global, enc),
        WireMsg::Broadcast {
            round,
            global,
            payloads,
        } => return encode_broadcast(*round, global.as_deref(), payloads, enc),
        WireMsg::Upload {
            params, payloads, ..
        } => params.as_deref().map_or(0, params_bytes) + payloads_bytes(payloads),
        WireMsg::UploadFailed { payloads, .. } => payloads_bytes(payloads),
        WireMsg::EvalRow { row, .. } => 4 + 8 * row.len(),
        _ => 0,
    };
    enc.start(data);
    let Encoded { buf, data_bytes } = enc;
    match msg {
        WireMsg::Hello { client } => {
            buf.push(TAG_HELLO);
            put_u32(buf, *client);
        }
        WireMsg::Rejoin { client, base_down } => {
            buf.push(TAG_REJOIN);
            put_u32(buf, *client);
            put_u64(buf, *base_down);
        }
        WireMsg::StartTask { task } => {
            buf.push(TAG_START_TASK);
            put_u32(buf, *task);
        }
        WireMsg::RoundStart { round } => {
            buf.push(TAG_ROUND_START);
            put_u64(buf, *round);
        }
        WireMsg::Upload {
            round,
            client,
            meta,
            params,
            payloads,
        } => {
            buf.push(TAG_UPLOAD);
            put_u64(buf, *round);
            put_u32(buf, *client);
            put_meta(buf, meta);
            match params {
                Some(p) => {
                    buf.push(1);
                    *data_bytes += put_params(buf, p);
                }
                None => buf.push(0),
            }
            *data_bytes += put_payloads(buf, payloads);
        }
        WireMsg::UploadFailed {
            round,
            client,
            meta,
            payloads,
        } => {
            buf.push(TAG_UPLOAD_FAILED);
            put_u64(buf, *round);
            put_u32(buf, *client);
            put_meta(buf, meta);
            *data_bytes += put_payloads(buf, payloads);
        }
        WireMsg::Ack { round, client } => {
            buf.push(TAG_ACK);
            put_u64(buf, *round);
            put_u32(buf, *client);
        }
        WireMsg::FinishTask => buf.push(TAG_FINISH_TASK),
        WireMsg::TaskDone { client, retained } => {
            buf.push(TAG_TASK_DONE);
            put_u32(buf, *client);
            put_u64(buf, *retained);
        }
        WireMsg::Eval { upto } => {
            buf.push(TAG_EVAL);
            put_u32(buf, *upto);
        }
        WireMsg::EvalRow { client, row } => {
            buf.push(TAG_EVAL_ROW);
            put_u32(buf, *client);
            put_u32(buf, row.len() as u32);
            for v in row {
                put_f64(buf, *v);
            }
        }
        WireMsg::Shutdown => buf.push(TAG_SHUTDOWN),
        WireMsg::Resync { .. } | WireMsg::Broadcast { .. } => unreachable!("encoded above"),
    }
}

/// Cursor over an untrusted message buffer.
struct Rd<'a> {
    b: &'a [u8],
}

impl<'a> Rd<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.b.len() < n {
            return Err(DecodeError::Truncated);
        }
        let (head, tail) = self.b.split_at(n);
        self.b = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn meta(&mut self) -> Result<UploadMeta, DecodeError> {
        Ok(UploadMeta {
            weight: self.u64()?,
            flops: self.u64()?,
            loss_sum: self.f64()?,
            iters: self.u64()?,
            base_up: self.u64()?,
            base_down: self.u64()?,
            extra_up: self.u64()?,
            extra_down: self.u64()?,
            had_params: self.u8()? != 0,
        })
    }

    /// A length-prefixed `f32` vector, decoded into `spare`'s storage
    /// (taken, leaving `spare` empty); the length is validated against
    /// the remaining buffer *before* anything is reserved.
    fn params(&mut self, spare: &mut Vec<f32>) -> Result<Vec<f32>, DecodeError> {
        let len = self.u32()? as usize;
        let raw = self.take(len * 4)?;
        let mut out = std::mem::take(spare);
        out.clear();
        out.extend(
            raw.chunks_exact(4)
                .map(|w| f32::from_le_bytes(w.try_into().unwrap())),
        );
        Ok(out)
    }

    fn payload(&mut self) -> Result<Payload, DecodeError> {
        let nnz = self.u32()? as usize;
        let from_client = self.u32()? as usize;
        let tag = self.u64()?;
        let dense_len = self.u32()? as usize;
        let raw_idx = self.take(nnz * 4)?;
        let indices: Vec<u32> = raw_idx
            .chunks_exact(4)
            .map(|w| u32::from_le_bytes(w.try_into().unwrap()))
            .collect();
        // SparseVec::new asserts these invariants; an untrusted peer
        // must get an error, not a panic.
        for w in indices.windows(2) {
            if w[0] >= w[1] {
                return Err(DecodeError::Invalid("payload indices not increasing"));
            }
        }
        if let Some(&last) = indices.last() {
            if last as usize >= dense_len {
                return Err(DecodeError::Invalid("payload index out of range"));
            }
        }
        let raw_val = self.take(nnz * 4)?;
        let values: Vec<f32> = raw_val
            .chunks_exact(4)
            .map(|w| f32::from_le_bytes(w.try_into().unwrap()))
            .collect();
        Ok(Payload {
            from_client,
            tag,
            sparse: SparseVec::new(dense_len, indices, values),
        })
    }

    fn payloads(&mut self) -> Result<Vec<Payload>, DecodeError> {
        let n = self.u32()? as usize;
        // Each payload needs ≥ 20 bytes; cap the preallocation by what
        // the buffer could possibly hold.
        let mut out = Vec::with_capacity(n.min(self.b.len() / 20 + 1));
        for _ in 0..n {
            out.push(self.payload()?);
        }
        Ok(out)
    }
}

/// Decode one message. The whole buffer must be consumed.
pub fn decode_msg(buf: &[u8]) -> Result<WireMsg, DecodeError> {
    decode_msg_into(buf, &mut Vec::new())
}

/// Decode one message, the whole buffer consumed, decoding its
/// parameter vector (a `Resync`'s or `Broadcast`'s global, an
/// `Upload`'s params) into `spare`'s storage: the vector moves into the
/// message and `spare` is left empty. A message without one leaves
/// `spare` as it was. A receiver that hands each decoded vector back
/// as the next `spare` decodes every model without allocating.
pub fn decode_msg_into(buf: &[u8], spare: &mut Vec<f32>) -> Result<WireMsg, DecodeError> {
    let mut rd = Rd { b: buf };
    let tag = rd.u8()?;
    let msg = match tag {
        TAG_HELLO => WireMsg::Hello { client: rd.u32()? },
        TAG_REJOIN => WireMsg::Rejoin {
            client: rd.u32()?,
            base_down: rd.u64()?,
        },
        TAG_START_TASK => WireMsg::StartTask { task: rd.u32()? },
        TAG_RESYNC => WireMsg::Resync {
            round: rd.u64()?,
            global: rd.params(spare)?,
        },
        TAG_ROUND_START => WireMsg::RoundStart { round: rd.u64()? },
        TAG_UPLOAD => {
            let round = rd.u64()?;
            let client = rd.u32()?;
            let meta = rd.meta()?;
            let params = if rd.u8()? != 0 {
                Some(rd.params(spare)?)
            } else {
                None
            };
            let payloads = rd.payloads()?;
            WireMsg::Upload {
                round,
                client,
                meta,
                params,
                payloads,
            }
        }
        TAG_UPLOAD_FAILED => WireMsg::UploadFailed {
            round: rd.u64()?,
            client: rd.u32()?,
            meta: rd.meta()?,
            payloads: rd.payloads()?,
        },
        TAG_ACK => WireMsg::Ack {
            round: rd.u64()?,
            client: rd.u32()?,
        },
        TAG_BROADCAST => {
            let round = rd.u64()?;
            let global = if rd.u8()? != 0 {
                Some(rd.params(spare)?)
            } else {
                None
            };
            let payloads = rd.payloads()?;
            WireMsg::Broadcast {
                round,
                global,
                payloads,
            }
        }
        TAG_FINISH_TASK => WireMsg::FinishTask,
        TAG_TASK_DONE => WireMsg::TaskDone {
            client: rd.u32()?,
            retained: rd.u64()?,
        },
        TAG_EVAL => WireMsg::Eval { upto: rd.u32()? },
        TAG_EVAL_ROW => {
            let client = rd.u32()?;
            let n = rd.u32()? as usize;
            let mut row = Vec::with_capacity(n.min(rd.b.len() / 8 + 1));
            for _ in 0..n {
                row.push(rd.f64()?);
            }
            WireMsg::EvalRow { client, row }
        }
        TAG_SHUTDOWN => WireMsg::Shutdown,
        t => return Err(DecodeError::BadTag(t)),
    };
    if !rd.b.is_empty() {
        return Err(DecodeError::TrailingBytes);
    }
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::write_frame;

    fn sample_payload(from: usize) -> Payload {
        Payload {
            from_client: from,
            tag: 42,
            sparse: SparseVec::new(10, vec![1, 3, 7], vec![0.5, -1.5, 3.25]),
        }
    }

    fn roundtrip(msg: &WireMsg) -> Encoded {
        let enc = encode_msg(msg);
        let back = decode_msg(&enc.buf).expect("decodes");
        assert_eq!(&back, msg);
        enc
    }

    /// One of every message kind (both arms of each optional field).
    fn all_messages() -> Vec<WireMsg> {
        let meta = UploadMeta {
            weight: 100,
            flops: 12_345,
            loss_sum: 1.5,
            iters: 6,
            base_up: 400,
            base_down: 400,
            extra_up: 8,
            extra_down: 16,
            had_params: true,
        };
        vec![
            WireMsg::Hello { client: 3 },
            WireMsg::Rejoin {
                client: 1,
                base_down: 400,
            },
            WireMsg::StartTask { task: 2 },
            WireMsg::Resync {
                round: 7,
                global: vec![1.0, -2.0, 3.5],
            },
            WireMsg::RoundStart { round: 9 },
            WireMsg::Upload {
                round: 9,
                client: 0,
                meta,
                params: Some(vec![0.25; 5]),
                payloads: vec![sample_payload(0)],
            },
            WireMsg::Upload {
                round: 9,
                client: 2,
                meta,
                params: None,
                payloads: vec![],
            },
            WireMsg::UploadFailed {
                round: 9,
                client: 1,
                meta,
                payloads: vec![sample_payload(1), sample_payload(1)],
            },
            WireMsg::Ack {
                round: 9,
                client: 0,
            },
            WireMsg::Broadcast {
                round: 9,
                global: Some(vec![0.125; 4]),
                payloads: vec![sample_payload(0), sample_payload(2)],
            },
            WireMsg::Broadcast {
                round: 10,
                global: None,
                payloads: vec![],
            },
            WireMsg::FinishTask,
            WireMsg::TaskDone {
                client: 2,
                retained: 9000,
            },
            WireMsg::Eval { upto: 2 },
            WireMsg::EvalRow {
                client: 1,
                row: vec![0.5, 0.75, 0.875],
            },
            WireMsg::Shutdown,
        ]
    }

    #[test]
    fn all_messages_roundtrip() {
        for m in &all_messages() {
            roundtrip(m);
        }
    }

    #[test]
    fn frames_written_in_place_equal_the_copied_frame() {
        for m in &all_messages() {
            let enc = encode_msg(m);
            // The frame assembled by copying: length word, payload.
            let mut copied = (enc.buf.len() as u32).to_le_bytes().to_vec();
            copied.extend_from_slice(&enc.buf);
            let mut wire = Vec::new();
            write_frame(&mut wire, &enc.buf).unwrap();
            assert_eq!(wire, copied, "{}", m.label());
        }
    }

    fn same(a: &Encoded, b: &Encoded, what: &str) {
        assert_eq!(a.buf, b.buf, "{what}");
        assert_eq!(a.data_bytes, b.data_bytes, "{what}");
    }

    #[test]
    fn borrowed_encoders_equal_the_owned_messages() {
        // One kept buffer for every encoding, as a sender holds it.
        let mut enc = Encoded::default();
        for m in &all_messages() {
            match m {
                WireMsg::Resync { round, global } => {
                    encode_resync(*round, global, &mut enc);
                    same(&enc, &encode_msg(m), "resync");
                }
                WireMsg::Broadcast {
                    round,
                    global,
                    payloads,
                } => {
                    encode_broadcast(*round, global.as_deref(), payloads, &mut enc);
                    same(&enc, &encode_msg(m), "broadcast");
                }
                _ => {}
            }
        }
    }

    #[test]
    fn kept_buffers_carry_nothing_between_messages() {
        // Largest first, so every later message lands in a buffer that
        // still holds a longer one's bytes.
        let big = WireMsg::Broadcast {
            round: 1,
            global: Some((0..1000).map(|i| i as f32).collect()),
            payloads: vec![sample_payload(0)],
        };
        let mut msgs = vec![big];
        msgs.extend(all_messages());
        let mut enc = Encoded::default();
        let mut spare = Vec::new();
        for m in &msgs {
            encode_msg_into(m, &mut enc);
            same(&enc, &encode_msg(m), m.label());
            let back = decode_msg_into(&enc.buf, &mut spare).expect("decodes");
            assert_eq!(&back, m, "{}", m.label());
            // Hand the decoded vector back, as a receiver does.
            match back {
                WireMsg::Resync { global, .. }
                | WireMsg::Broadcast {
                    global: Some(global),
                    ..
                }
                | WireMsg::Upload {
                    params: Some(global),
                    ..
                } => spare = global,
                _ => {}
            }
        }
        assert!(
            spare.capacity() >= 1000,
            "the first model's storage is kept"
        );
    }

    #[test]
    fn a_model_sized_encoding_reserves_once() {
        let params: Vec<f32> = (0..100_003).map(|i| i as f32 * 0.5 - 7.0).collect();
        let payloads = vec![sample_payload(0), sample_payload(1)];
        let msgs = [
            WireMsg::Upload {
                round: 2,
                client: 1,
                meta: UploadMeta::default(),
                params: Some(params.clone()),
                payloads: payloads.clone(),
            },
            WireMsg::Broadcast {
                round: 2,
                global: Some(params.clone()),
                payloads,
            },
            WireMsg::Resync {
                round: 2,
                global: params,
            },
        ];
        for m in &msgs {
            let enc = roundtrip(m);
            // A buffer that had grown would hold about twice its length.
            assert!(
                enc.buf.capacity() <= enc.buf.len() + FIXED_BYTES_MAX,
                "{}: {} bytes in a {}-byte buffer",
                m.label(),
                enc.buf.len(),
                enc.buf.capacity()
            );
        }
    }

    #[test]
    fn data_plane_bytes_match_the_comm_model() {
        // Upload: 4 bytes per parameter plus Payload::size_bytes per
        // payload — exactly the ledger's modeled charge.
        let enc = roundtrip(&WireMsg::Upload {
            round: 0,
            client: 0,
            meta: UploadMeta::default(),
            params: Some(vec![1.0; 100]),
            payloads: vec![sample_payload(0)],
        });
        assert_eq!(enc.data_bytes, 400 + sample_payload(0).size_bytes());
        // Broadcast mirrors it on the download side.
        let enc = roundtrip(&WireMsg::Broadcast {
            round: 0,
            global: Some(vec![1.0; 100]),
            payloads: vec![sample_payload(0), sample_payload(1)],
        });
        assert_eq!(enc.data_bytes, 400 + 2 * sample_payload(0).size_bytes());
        // Control messages are pure overhead.
        let enc = roundtrip(&WireMsg::Ack {
            round: 1,
            client: 2,
        });
        assert_eq!(enc.data_bytes, 0);
        assert!(!enc.buf.is_empty());
    }

    #[test]
    fn truncation_is_a_typed_error_at_every_offset() {
        let enc = encode_msg(&WireMsg::Upload {
            round: 1,
            client: 0,
            meta: UploadMeta::default(),
            params: Some(vec![1.0; 8]),
            payloads: vec![sample_payload(0)],
        });
        for cut in 0..enc.buf.len() {
            assert!(
                decode_msg(&enc.buf[..cut]).is_err(),
                "cut at {cut} must not decode"
            );
        }
    }

    #[test]
    fn hostile_inputs_error_instead_of_panicking() {
        // Unknown tag.
        assert_eq!(decode_msg(&[200]), Err(DecodeError::BadTag(200)));
        // Claimed huge vector with no bytes behind it: must not allocate.
        let mut buf = vec![TAG_RESYNC];
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_msg(&buf), Err(DecodeError::Truncated));
        // Payload with non-increasing indices: SparseVec's assert must
        // never be reached.
        let bad = Payload {
            from_client: 0,
            tag: 0,
            sparse: SparseVec::new(10, vec![1, 2], vec![1.0, 2.0]),
        };
        let mut enc = encode_msg(&WireMsg::UploadFailed {
            round: 0,
            client: 0,
            meta: UploadMeta::default(),
            payloads: vec![bad],
        });
        // Overwrite the second index (= first index bytes + 4) with 1,
        // making indices [1, 1].
        let idx_area = enc.buf.len() - 16; // 2 idx (8) + 2 val (8)
        enc.buf[idx_area + 4..idx_area + 8].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(decode_msg(&enc.buf), Err(DecodeError::Invalid(_))));
        // Trailing garbage is rejected.
        let mut ok = encode_msg(&WireMsg::Shutdown).buf;
        ok.push(0);
        assert_eq!(decode_msg(&ok), Err(DecodeError::TrailingBytes));
    }
}

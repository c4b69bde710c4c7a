//! Federated continual learning simulation engine.
//!
//! This crate is the testbed stand-in: where the paper runs 20–100
//! physical Jetson/Raspberry-Pi clients against a central server over a
//! real network, we run the same round structure in-process with
//! byte-accurate communication accounting and a FLOP-based device clock.
//!
//! * [`client::FclClient`] — the interface every method (FedKNOW and all
//!   11 baselines) implements: per-iteration local training, model
//!   upload/download, task transitions, evaluation.
//! * [`trainer::LocalTrainer`] — shared batch/forward/backward plumbing
//!   so algorithm crates only write their *algorithm*.
//! * [`server`] — FedAvg aggregation (the paper's global aggregator).
//! * [`device`] — Jetson AGX/NX/TX2/Nano and Raspberry-Pi profiles; the
//!   simulated clock charges each client `3 × forward-FLOPs / throughput`
//!   per iteration and models out-of-memory dropout for retained state.
//! * [`comm`] — bandwidth model; communication time is bytes-on-wire over
//!   bandwidth, per client, per round.
//! * [`metrics`] — the accuracy matrix, average accuracy, and the paper's
//!   forgetting-rate definition (§V-D).
//! * `engine` (private) — the one synchronized task/round/iteration
//!   loop and its ledger, written over a small client-link seam.
//! * [`sim`] — [`Simulation`]: that loop over direct calls, with clients
//!   trained in parallel threads; checkpoint/resume.
//! * [`framing`] / [`proto`] / [`transport`] / [`actor`] —
//!   [`FederationRuntime`]: the same loop over framed messages:
//!   length-prefixed frames, typed wire messages, swappable
//!   channel/TCP/Unix-socket backends with fault injection at the wire
//!   seam, and the server/client actor threads.

pub mod actor;
pub mod client;
pub mod comm;
pub mod device;
mod engine;
pub mod faults;
pub mod framing;
pub mod metrics;
pub mod proto;
mod protocol;
pub mod server;
pub mod sim;
pub mod trainer;
pub mod transport;
pub mod wiretrace;

pub use actor::{run_remote_client, FederationRuntime};
pub use client::{CommBytes, FclClient, IterationStats, ModelTemplate, Payload};
pub use comm::{CommModel, InvalidBandwidth};
pub use device::DeviceProfile;
pub use faults::{
    Corruption, CorruptionMode, FaultConfig, FaultEvent, FaultKind, FaultPlan, RoundFaults,
};
pub use framing::{
    FrameDecoder, FrameError, TraceCtx, FRAME_HEADER_BYTES, MAX_FRAME_BYTES, TRACE_CTX_BYTES,
};
pub use metrics::{AccuracyMatrix, RowLengthMismatch};
pub use proto::{DecodeError, Encoded, UploadMeta, WireMsg};
pub use server::{AggregateError, Aggregation, RejectReason, RejectedUpload};
pub use sim::{
    PhaseBreakdown, PhaseStat, SimCheckpoint, SimConfig, SimError, SimReport, Simulation,
};
pub use trainer::LocalTrainer;
pub use transport::{TransportError, TransportKind, WireStats, WireStatsSnapshot};

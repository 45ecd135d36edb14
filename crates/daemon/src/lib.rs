//! # tibfit-daemon
//!
//! A supervised, self-healing trust service: hosts many independent
//! TIBFIT multi-cluster fields as tenants, ingests newline-framed
//! sensor reports from a replay file, stdin, or a socket, and serves
//! trust/decision queries while running.
//!
//! The crate is organised around four guarantees:
//!
//! - **Crash-anywhere resume** ([`state`], [`supervisor`]): every
//!   tenant snapshots atomically at tick boundaries (engine state +
//!   dedup highwaters + counters in one container); on restart the
//!   decision log is truncated to the snapshot and the re-streamed
//!   input regenerates the rest byte-identically.
//! - **Bounded ingest with deterministic shedding** ([`queue`]):
//!   explicit backpressure at tick boundaries, per-tick admission by
//!   trust impact, and shed records advancing the dedup highwater so
//!   the shed set is a pure function of `(seed, stream)`.
//! - **Watchdog supervision** ([`supervisor`]): an Impact-style
//!   per-tenant trust level over missed progress checks; wedged or
//!   panicked workers restart from snapshot + recovery buffer,
//!   crash-loopers are quarantined and later reintegrated on
//!   probation, without disturbing other tenants.
//! - **Typed, panic-free ingest** ([`wire`]): every malformed line is
//!   a counted [`wire::IngestError`], never an abort.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use tibfit_experiments::checkpoint::CheckpointError;
use tibfit_experiments::multicluster::MultiClusterError;
use tibfit_sim::snapshot::SnapshotError;

pub mod backoff;
pub mod fleet;
pub mod latency;
pub mod migrate;
pub mod net_io;
pub mod queue;
pub mod state;
pub mod supervisor;
pub mod tenant;
pub mod wire;

pub use supervisor::{Daemon, DaemonConfig, DaemonReport, TenantSummary, WatchdogPolicy, WorkerFault};
pub use tenant::EngineKind;

/// Every way the daemon itself can fail (worker/ingest faults are
/// contained and counted, not raised).
#[derive(Debug)]
pub enum DaemonError {
    /// Filesystem or stream I/O.
    Io(std::io::Error),
    /// The engine rejected its deployment.
    Engine(MultiClusterError),
    /// A snapshot container failed to encode or decode.
    Snapshot(SnapshotError),
    /// A checkpoint file failed to read, write, or restore.
    Checkpoint(CheckpointError),
    /// A retry schedule's total-deadline budget ran out.
    RetryExhausted(backoff::RetryExhausted),
    /// A live migration transfer failed (the source tenant is left
    /// intact and serving).
    Migrate(migrate::MigrateError),
    /// Invalid configuration.
    Config(String),
    /// A state file contradicts the configuration (e.g. seed
    /// mismatch) or is otherwise unusable.
    State(String),
}

impl fmt::Display for DaemonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DaemonError::Io(e) => write!(f, "I/O failed: {e}"),
            DaemonError::Engine(e) => write!(f, "engine rejected: {e}"),
            DaemonError::Snapshot(e) => write!(f, "snapshot rejected: {e}"),
            DaemonError::Checkpoint(e) => write!(f, "checkpoint failed: {e}"),
            DaemonError::RetryExhausted(e) => write!(f, "gave up: {e}"),
            DaemonError::Migrate(e) => write!(f, "migration failed: {e}"),
            DaemonError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            DaemonError::State(msg) => write!(f, "unusable state: {msg}"),
        }
    }
}

impl std::error::Error for DaemonError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DaemonError::Io(e) => Some(e),
            DaemonError::Engine(e) => Some(e),
            DaemonError::Snapshot(e) => Some(e),
            DaemonError::Checkpoint(e) => Some(e),
            DaemonError::RetryExhausted(e) => Some(e),
            DaemonError::Migrate(e) => Some(e),
            DaemonError::Config(_) | DaemonError::State(_) => None,
        }
    }
}

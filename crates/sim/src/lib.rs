//! # tibfit-sim
//!
//! A small, deterministic discrete-event simulation (DES) kernel used as the
//! substrate for the TIBFIT reproduction. The original paper evaluates the
//! protocol inside ns-2; this crate provides the pieces of ns-2 the protocol
//! actually exercises:
//!
//! * a simulated clock with integer-tick resolution ([`SimTime`]),
//! * an engine that pops scheduled events in time order, FIFO among
//!   same-time events ([`Engine`]),
//! * seedable, reproducible randomness and the distributions the paper's
//!   workloads need ([`rng::SimRng`]),
//! * statistics accumulators for building the paper's figures
//!   ([`stats::Running`], [`stats::Series`]),
//! * a versioned, CRC-framed binary container for checkpoint blobs
//!   ([`snapshot::SnapshotWriter`], [`snapshot::SnapshotReader`]).
//!
//! Everything is deterministic: the same seed produces the same simulation,
//! which the test-suite relies on.
//!
//! ## Example
//!
//! ```rust
//! use tibfit_sim::{Engine, SimTime};
//!
//! // Count how many timers fire before t = 100.
//! let mut engine: Engine<&'static str> = Engine::new();
//! engine.schedule_at(SimTime::from_ticks(10), "a");
//! engine.schedule_at(SimTime::from_ticks(20), "b");
//! let mut fired = Vec::new();
//! while let Some((t, ev)) = engine.pop() {
//!     fired.push((t.ticks(), ev));
//! }
//! assert_eq!(fired, vec![(10, "a"), (20, "b")]);
//! ```

// `unsafe` is denied crate-wide; the sanctioned exceptions are the
// `signal(2)` binding in `shutdown.rs` and the one call into the
// PCLMULQDQ CRC32 fold in `snapshot.rs`, made only after the CPU
// features it is compiled for were detected (the fold itself is safe
// code). Each site carries its own safety argument.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod engine;

pub mod rng;
pub mod shutdown;
pub mod snapshot;
pub mod stats;
pub mod trace;

pub use clock::{Duration, SimTime};
pub use engine::Engine;

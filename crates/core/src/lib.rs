//! # tibfit-core
//!
//! The TIBFIT protocol (Krasniewski et al., DSN 2005): trust-index based
//! fault tolerance for arbitrary data faults in event-driven sensor
//! networks.
//!
//! TIBFIT replaces stateless majority voting at the cluster head with
//! *stateful* voting: each sensing node carries a **trust index**
//! `TI = e^(−λ·v)` reflecting its track record, and event decisions compare
//! the **cumulative trust** of the group reporting an event against the
//! group staying silent. Nodes judged wrong lose trust; nodes judged right
//! regain it (up to 1). Once state accumulates, a trusted minority outvotes
//! a compromised majority — the paper's headline result is accurate event
//! detection with more than 50% of the network compromised.
//!
//! ## Module map (paper section → module)
//!
//! | Paper | Module |
//! |---|---|
//! | §3 trust index model | [`trust`] |
//! | §3.1 binary events | [`binary`] |
//! | §3.2 location determination (report clustering) | [`location`] |
//! | §3.3 concurrent events | [`concurrent`] |
//! | §3.4 unreliable cluster heads (shadow CHs) | [`shadow`] |
//! | baseline majority voting (§4, §5) | [`vote`] / [`engine`] |
//!
//! ## Quick start
//!
//! ```rust
//! use tibfit_core::trust::{TrustParams, TrustTable};
//! use tibfit_core::binary::decide_binary;
//! use tibfit_core::vote::Weighting;
//! use tibfit_net::topology::NodeId;
//!
//! // A 5-node cluster; nodes 3 and 4 have been lying for a while.
//! let params = TrustParams::new(0.5, 0.1);
//! let mut table = TrustTable::new(params, 5);
//! for _ in 0..10 {
//!     table.record_faulty(NodeId(3));
//!     table.record_faulty(NodeId(4));
//! }
//!
//! // A real event: only the three honest nodes report.
//! let neighbors: Vec<NodeId> = (0..5).map(NodeId).collect();
//! let reporters = vec![NodeId(0), NodeId(1), NodeId(2)];
//! let outcome = decide_binary(&neighbors, &reporters, &Weighting::Trust(&table));
//! assert!(outcome.event_declared);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

// The decision path's test reference (`location/reference.rs`) names this
// crate `tibfit_core`, so the experiments crate's tests can include the
// same file.
#[cfg(test)]
extern crate self as tibfit_core;

pub mod binary;
pub mod concurrent;
pub mod engine;
pub mod lifecycle;
pub mod location;
pub mod shadow;
pub mod simd_kernel;
pub mod trust;
pub mod vote;

pub use engine::{Aggregator, BaselineEngine, TibfitEngine};
pub use trust::{TrustParams, TrustTable};

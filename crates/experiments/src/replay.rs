//! Replay streams: turning the scripted experiment workloads into
//! newline-framed ingest files the daemon can consume.
//!
//! The DES experiments drive an engine with a seeded in-memory event
//! schedule; a *replay file* is that same schedule written out as one
//! record per line, so the identical workload can be streamed into a
//! long-running `tibfit-daemon` process — over stdin, a socket, or the
//! file itself — and the daemon's decisions can be diffed against the
//! scripted run.
//!
//! ## Wire format (one frame per line)
//!
//! ```text
//! # comment — ignored
//! R <tenant> <time> <src> <seq> <x> <y>    sensor report / event stimulus
//! T                                         tick boundary (admission batch)
//! ```
//!
//! `tenant` routes the record to one hosted field, `time` is the logical
//! tick it belongs to, `(src, seq)` identify it idempotently (`src` is
//! the upstream feed, `seq` increases monotonically per feed — replays
//! and reconnects dedup on it), and `(x, y)` is the event stimulus. The
//! coordinates are printed with Rust's shortest round-trip `f64`
//! formatting, so parsing them back yields bit-identical values — a
//! replayed run is *exactly* the scripted run.
//!
//! This module owns the scenario builder and the writer; the parser
//! lives in the `tibfit-daemon` crate, with a round-trip test pinning
//! the two to the same grammar.

use std::io;
use std::path::Path;

use tibfit_adversary::behavior::NodeBehavior;
use tibfit_adversary::{CorrectNode, Level0Config, Level0Node};
use tibfit_net::channel::BernoulliLoss;
use tibfit_net::geometry::Point;
use tibfit_net::topology::Topology;
use tibfit_sim::rng::SimRng;

use crate::multicluster::{grid_sites, MultiClusterConfig, MultiClusterError, MultiClusterSim};

/// A deployment recipe the engine is built from — the mobile scenario
/// the daemon's tenants and the crash harnesses use (drift,
/// re-election, lossy channels, level-0 liars).
#[derive(Debug, Clone, PartialEq)]
pub struct FieldScenario {
    /// Deployed nodes.
    pub nodes: usize,
    /// Cluster count.
    pub clusters: usize,
    /// Square field side length.
    pub field: f64,
    /// How many nodes lie (level-0 behaviour).
    pub faulty: usize,
    /// Honest nodes' location noise σ.
    pub noise_sigma: f64,
    /// Bernoulli channel loss probability.
    pub loss: f64,
    /// Per-round position drift σ.
    pub drift_sigma: f64,
    /// Re-election cadence in rounds.
    pub reelect_every: u64,
    /// Master seed: behaviours, channels, and the event stream all
    /// derive from it.
    pub seed: u64,
}

impl FieldScenario {
    /// The standard mobile field: 64 nodes, 4 clusters, 25% liars.
    #[must_use]
    pub fn mobile(seed: u64) -> Self {
        FieldScenario {
            nodes: 64,
            clusters: 4,
            field: 80.0,
            faulty: 16,
            noise_sigma: 1.6,
            loss: 0.005,
            drift_sigma: 0.6,
            reelect_every: 3,
            seed,
        }
    }

    /// The deployment configuration this scenario builds.
    #[must_use]
    pub fn config(&self) -> MultiClusterConfig {
        MultiClusterConfig::paper().mobile(self.drift_sigma, self.reelect_every)
    }

    fn behaviors(&self) -> Vec<Box<dyn NodeBehavior + Send>> {
        // Membership mask, as in `exp6_scale`: the same assignment in
        // O(nodes) instead of a `contains` scan per node.
        let mut is_faulty = vec![false; self.nodes];
        for i in SimRng::seed_from(self.seed ^ 0xFA).choose_indices(self.nodes, self.faulty) {
            is_faulty[i] = true;
        }
        (0..self.nodes)
            .map(|i| -> Box<dyn NodeBehavior + Send> {
                if is_faulty[i] {
                    Box::new(Level0Node::new(Level0Config::experiment2(4.25)))
                } else {
                    Box::new(CorrectNode::new(0.0, self.noise_sigma))
                }
            })
            .collect()
    }

    /// Builds the engine.
    ///
    /// # Errors
    ///
    /// Anything [`MultiClusterSim::try_new`] rejects.
    pub fn sequential(&self) -> Result<MultiClusterSim, MultiClusterError> {
        MultiClusterSim::try_new(
            self.config(),
            Topology::uniform_grid(self.nodes, self.field, self.field),
            grid_sites(self.clusters, self.field),
            self.behaviors(),
            |_| Box::new(BernoulliLoss::new(self.loss)),
            self.seed,
        )
    }

    /// The seeded event stimulus stream (the `^ 0xE7` idiom the crash
    /// harness uses): call with increasing `count` to extend the same
    /// stream.
    #[must_use]
    pub fn events(&self, count: usize) -> Vec<Point> {
        let mut rng = SimRng::seed_from(self.seed ^ 0xE7);
        (0..count)
            .map(|_| {
                Point::new(
                    rng.uniform_range(0.0, self.field),
                    rng.uniform_range(0.0, self.field),
                )
            })
            .collect()
    }
}

/// The per-tenant scenario seed for tenant `t` of a daemon run seeded
/// with `master`: independent streams, reproducible from the pair.
#[must_use]
pub fn tenant_seed(master: u64, tenant: usize) -> u64 {
    master ^ (tenant as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// One replay record: an event stimulus addressed to one tenant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayRecord {
    /// Which hosted field receives it.
    pub tenant: usize,
    /// Logical tick (admission batch) it belongs to.
    pub time: u64,
    /// Upstream feed id (dedup key, with `seq`).
    pub src: u64,
    /// Monotone per-`src` sequence number.
    pub seq: u64,
    /// Event stimulus x.
    pub x: f64,
    /// Event stimulus y.
    pub y: f64,
}

/// Generates the replay for a daemon hosting `tenants` mobile fields:
/// `per_tick` records per tenant per tick for `ticks` ticks, each
/// tenant's stimuli drawn from its own [`FieldScenario::events`] stream.
///
/// `per_tick = 1` reproduces the scripted one-event-per-round workload;
/// `per_tick > budget` is the overload generator the shedding tests and
/// the 10× sustained-overload harness use.
#[must_use]
pub fn replay_records(tenants: usize, master_seed: u64, ticks: u64, per_tick: u32) -> Vec<ReplayRecord> {
    let mut streams: Vec<Vec<Point>> = (0..tenants)
        .map(|t| {
            FieldScenario::mobile(tenant_seed(master_seed, t))
                .events(ticks as usize * per_tick as usize)
        })
        .collect();
    let mut out = Vec::with_capacity(tenants * ticks as usize * per_tick as usize);
    let mut cursor = vec![0usize; tenants];
    for time in 0..ticks {
        for (tenant, stream) in streams.iter_mut().enumerate() {
            for k in 0..u64::from(per_tick) {
                let p = stream[cursor[tenant]];
                cursor[tenant] += 1;
                out.push(ReplayRecord {
                    tenant,
                    time,
                    src: tenant as u64,
                    seq: time * u64::from(per_tick) + k + 1,
                    x: p.x,
                    y: p.y,
                });
            }
        }
    }
    out
}

/// Renders records as replay text: records grouped by `time`, a `T`
/// line closing each tick. Input must be sorted by `time` (as
/// [`replay_records`] produces); the renderer asserts it.
///
/// # Panics
///
/// Panics if `records` is not sorted by `time`.
#[must_use]
pub fn render_replay(records: &[ReplayRecord]) -> String {
    let mut out = String::from("# tibfit replay v1\n");
    let mut current_tick: Option<u64> = None;
    for r in records {
        if let Some(t) = current_tick {
            assert!(r.time >= t, "replay records must be sorted by time");
            if r.time > t {
                out.push_str("T\n");
            }
        }
        current_tick = Some(r.time);
        out.push_str(&format!(
            "R {} {} {} {} {} {}\n",
            r.tenant, r.time, r.src, r.seq, r.x, r.y
        ));
    }
    if current_tick.is_some() {
        out.push_str("T\n");
    }
    out
}

/// Writes a replay file (creating parent directories as needed).
///
/// # Errors
///
/// Any I/O error from creating directories or writing the file.
pub fn write_replay(path: &Path, records: &[ReplayRecord]) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, render_replay(records))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_cover_every_tenant_and_tick() {
        let records = replay_records(3, 42, 5, 2);
        assert_eq!(records.len(), 3 * 5 * 2);
        for t in 0..3 {
            let per_tenant: Vec<_> = records.iter().filter(|r| r.tenant == t).collect();
            assert_eq!(per_tenant.len(), 10);
            // seq strictly increases per src.
            for w in per_tenant.windows(2) {
                assert!(w[1].seq > w[0].seq);
            }
        }
    }

    #[test]
    fn stimuli_match_the_scripted_stream() {
        let records = replay_records(2, 7, 4, 1);
        let scripted = FieldScenario::mobile(tenant_seed(7, 1)).events(4);
        let tenant1: Vec<Point> = records
            .iter()
            .filter(|r| r.tenant == 1)
            .map(|r| Point::new(r.x, r.y))
            .collect();
        assert_eq!(tenant1, scripted);
    }

    #[test]
    fn rendered_floats_round_trip_exactly() {
        let records = replay_records(1, 99, 3, 1);
        let text = render_replay(&records);
        let mut parsed = Vec::new();
        for line in text.lines() {
            let mut it = line.split_ascii_whitespace();
            if it.next() != Some("R") {
                continue;
            }
            let fields: Vec<&str> = it.collect();
            let x: f64 = fields[4].parse().unwrap();
            let y: f64 = fields[5].parse().unwrap();
            parsed.push((x.to_bits(), y.to_bits()));
        }
        let original: Vec<(u64, u64)> =
            records.iter().map(|r| (r.x.to_bits(), r.y.to_bits())).collect();
        assert_eq!(parsed, original);
    }

    #[test]
    fn tick_markers_close_every_batch() {
        let text = render_replay(&replay_records(2, 1, 3, 1));
        assert_eq!(text.matches("\nT\n").count() + usize::from(text.starts_with("T\n")), 3);
    }

    #[test]
    fn tenant_seeds_differ() {
        let a = tenant_seed(42, 0);
        let b = tenant_seed(42, 1);
        assert_ne!(a, b);
        assert_eq!(a, tenant_seed(42, 0));
    }
}

//! Differential coverage for the production-scale sharding machinery:
//! the batched cross-shard mailbox flush, the SoA trust accumulation,
//! and the lattice-accelerated nearest-site path must all be invisible
//! — the sharded engine stays bit-identical to the sequential reference
//! at every thread count, and snapshots taken through the new layout
//! restore into the old engine without a bit of drift.
//!
//! The scenarios here are shaped to stress exactly those paths: many
//! clusters (long mailbox runs per destination, complete site lattices),
//! heavy drift (re-election handoffs crossing shards every stretch),
//! and heavy fault fractions (quarantine transitions through the -0.0
//! participation sentinel in the SoA weight vector).

use tibfit_adversary::behavior::NodeBehavior;
use tibfit_adversary::{CorrectNode, Level0Config, Level0Node};
use tibfit_experiments::checkpoint::{
    restore_sequential, restore_sharded, save_sequential, save_sharded,
};
use tibfit_experiments::multicluster::{grid_sites, MultiClusterConfig, MultiClusterSim};
use tibfit_experiments::sharded::ShardedMultiCluster;
use tibfit_net::channel::BernoulliLoss;
use tibfit_net::geometry::Point;
use tibfit_net::topology::Topology;
use tibfit_sim::rng::SimRng;

/// A deployment recipe both engines are built from.
#[derive(Debug, Clone)]
struct Scenario {
    nodes: usize,
    clusters: usize,
    field: f64,
    faulty: usize,
    noise_sigma: f64,
    loss: f64,
    drift_sigma: f64,
    reelect_every: u64,
    rounds: usize,
    seed: u64,
}

impl Scenario {
    /// Nine clusters on a complete 3x3 site lattice (so both engines
    /// take the windowed nearest-site path), heavy drift so re-election
    /// handoffs cross shard boundaries every stretch — the workload
    /// that keeps the batched mailbox flush full of multi-envelope runs.
    fn mailbox_heavy(seed: u64) -> Self {
        Scenario {
            nodes: 144,
            clusters: 9,
            field: 120.0,
            faulty: 36,
            noise_sigma: 1.6,
            loss: 0.01,
            drift_sigma: 0.9,
            reelect_every: 2,
            rounds: 10,
            seed,
        }
    }

    /// Five clusters (no complete lattice: the linear nearest-site
    /// fallback) with a 40% fault fraction, so trust counters cross the
    /// quarantine threshold and the SoA weight vector exercises its
    /// -0.0 participation sentinel in both directions.
    fn quarantine_heavy(seed: u64) -> Self {
        Scenario {
            nodes: 100,
            clusters: 5,
            field: 100.0,
            faulty: 40,
            noise_sigma: 1.8,
            loss: 0.005,
            drift_sigma: 0.5,
            reelect_every: 3,
            rounds: 10,
            seed,
        }
    }

    fn config(&self) -> MultiClusterConfig {
        MultiClusterConfig::paper().mobile(self.drift_sigma, self.reelect_every)
    }

    fn behaviors(&self) -> Vec<Box<dyn NodeBehavior + Send>> {
        let faulty = SimRng::seed_from(self.seed ^ 0xFA).choose_indices(self.nodes, self.faulty);
        (0..self.nodes)
            .map(|i| -> Box<dyn NodeBehavior + Send> {
                if faulty.contains(&i) {
                    Box::new(Level0Node::new(Level0Config::experiment2(4.25)))
                } else {
                    Box::new(CorrectNode::new(0.0, self.noise_sigma))
                }
            })
            .collect()
    }

    fn sequential(&self) -> MultiClusterSim {
        MultiClusterSim::try_new(
            self.config(),
            Topology::uniform_grid(self.nodes, self.field, self.field),
            grid_sites(self.clusters, self.field),
            self.behaviors(),
            |_| Box::new(BernoulliLoss::new(self.loss)),
            self.seed,
        )
        .expect("scenario configs are valid")
    }

    fn sharded(&self, threads: usize) -> ShardedMultiCluster {
        ShardedMultiCluster::try_new(
            self.config(),
            Topology::uniform_grid(self.nodes, self.field, self.field),
            grid_sites(self.clusters, self.field),
            self.behaviors(),
            |_| Box::new(BernoulliLoss::new(self.loss)),
            self.seed,
            threads,
        )
        .expect("scenario configs are valid")
    }

    fn events(&self) -> Vec<Point> {
        let mut rng = SimRng::seed_from(self.seed ^ 0xE7);
        (0..self.rounds)
            .map(|_| {
                Point::new(
                    rng.uniform_range(0.0, self.field),
                    rng.uniform_range(0.0, self.field),
                )
            })
            .collect()
    }
}

/// Runs the scenario on both engines, asserting lockstep equality of
/// decisions, trust bits, positions, and trace counters every round.
fn assert_lockstep(scenario: &Scenario, threads: usize) {
    let mut seq = scenario.sequential();
    let mut par = scenario.sharded(threads);
    let ctx = format!("scenario {scenario:?} threads={threads}");
    for (round, &event) in scenario.events().iter().enumerate() {
        let a = seq.run_event(event);
        let b = par.run_event(event);
        assert_eq!(a, b, "decision diverged at round {round}: {ctx}");
        assert_eq!(
            seq.trust_snapshot(),
            par.trust_snapshot(),
            "trust trajectory diverged at round {round}: {ctx}"
        );
    }
    assert_eq!(seq.counters(), par.counters(), "trace counters diverged: {ctx}");
}

#[test]
fn batched_mailbox_flush_ten_seeds() {
    for seed in 0..10u64 {
        let scenario = Scenario::mailbox_heavy(7000 + seed);
        for threads in [1, 4] {
            assert_lockstep(&scenario, threads);
        }
    }
}

#[test]
fn soa_trust_layout_under_quarantine_churn_ten_seeds() {
    for seed in 0..10u64 {
        let scenario = Scenario::quarantine_heavy(8000 + seed);
        for threads in [1, 4] {
            assert_lockstep(&scenario, threads);
        }
    }
}

#[test]
fn sharded_snapshot_restores_into_sequential_engine() {
    // Run the sharded engine (SoA trust, batched flush, arena-backed
    // scratch) halfway, snapshot it, and restore the blob into the
    // *sequential* engine: the new in-memory layout must serialize to
    // the same canonical form the old engine reads, and the restored
    // run must stay in lockstep with the uninterrupted sharded one.
    for seed in [0u64, 1, 2] {
        let scenario = Scenario::mailbox_heavy(9000 + seed);
        let events = scenario.events();
        let (head, tail) = events.split_at(events.len() / 2);
        let mut par = scenario.sharded(4);
        for &event in head {
            par.run_event(event);
        }
        let blob = save_sharded(&par).expect("sharded engine snapshots");
        let mut restored = restore_sequential(&blob).expect("blob restores sequentially");
        assert_eq!(restored.trust_snapshot(), par.trust_snapshot(), "seed {seed}");
        for (round, &event) in tail.iter().enumerate() {
            assert_eq!(
                par.run_event(event),
                restored.run_event(event),
                "post-restore round {round}: seed {seed}"
            );
            assert_eq!(
                par.trust_snapshot(),
                restored.trust_snapshot(),
                "post-restore trust round {round}: seed {seed}"
            );
        }
        assert_eq!(par.counters(), restored.counters(), "seed {seed}");
    }
}

#[test]
fn sequential_snapshot_restores_into_sharded_engine() {
    // The reverse direction: an old-engine snapshot resumes on the new
    // sharded layout, at more than one thread count.
    let scenario = Scenario::quarantine_heavy(9100);
    let events = scenario.events();
    let (head, tail) = events.split_at(events.len() / 2);
    let mut seq = scenario.sequential();
    for &event in head {
        seq.run_event(event);
    }
    let blob = save_sequential(&seq).expect("sequential engine snapshots");
    for threads in [1, 4] {
        let mut restored = restore_sharded(&blob, threads).expect("blob restores sharded");
        let mut reference = restore_sequential(&blob).expect("blob restores sequentially");
        for (round, &event) in tail.iter().enumerate() {
            assert_eq!(
                reference.run_event(event),
                restored.run_event(event),
                "post-restore round {round}: threads {threads}"
            );
        }
        assert_eq!(reference.trust_snapshot(), restored.trust_snapshot());
        assert_eq!(reference.counters(), restored.counters());
    }
}

//! The two decision engines the paper evaluates: TIBFIT (stateful,
//! trust-weighted) and the baseline (stateless majority voting), behind a
//! common [`Aggregator`] interface so experiments can swap them freely.

use crate::binary::{decide_binary, judge_binary};
use crate::location::{DecisionScratch, LocatedDecision, LocatedReport};
use crate::trust::{Judgement, TrustParams, TrustTable};
use crate::vote::{VoteOutcome, Weighting};
use tibfit_net::topology::{NodeId, Topology};

/// Result of one binary decision round.
#[derive(Debug, Clone, PartialEq)]
pub struct BinaryRound {
    /// The vote outcome (whether the event was declared, group weights).
    pub outcome: VoteOutcome,
    /// How each event neighbor was judged — these feed the trust table and
    /// are observable by smart adversaries mirroring it.
    pub judgements: Vec<(NodeId, Judgement)>,
}

/// Result of one located decision round (possibly multiple candidate
/// events).
#[derive(Debug, Clone, PartialEq)]
pub struct LocatedRound {
    /// Per-cluster decisions.
    pub decisions: Vec<LocatedDecision>,
    /// Combined judgements across all clusters.
    pub judgements: Vec<(NodeId, Judgement)>,
}

impl LocatedRound {
    /// The allocating form of a decision left in `scratch`.
    fn from_scratch(scratch: &DecisionScratch) -> Self {
        LocatedRound {
            decisions: scratch.located_decisions(),
            judgements: scratch.judgements().to_vec(),
        }
    }

    /// All locations where an event was declared this round.
    #[must_use]
    pub fn declared_locations(&self) -> Vec<tibfit_net::geometry::Point> {
        self.decisions
            .iter()
            .filter(|d| d.event_declared)
            .map(|d| d.location)
            .collect()
    }
}

/// A cluster-head decision engine: consumes a round's reports, produces a
/// verdict and per-node judgements.
///
/// Implementations are free to keep state between rounds (TIBFIT's trust
/// table) or not (the baseline).
pub trait Aggregator {
    /// Short display name for experiment output ("TIBFIT" / "Baseline").
    fn name(&self) -> &'static str;

    /// Runs one §3.1 binary round: `neighbors` are the event neighbors the
    /// CH computed, `reporters` the subset it heard from within `T_out`.
    fn binary_round(&mut self, neighbors: &[NodeId], reporters: &[NodeId]) -> BinaryRound;

    /// Runs one §3.2 located round over all reports received in a `T_out`
    /// window.
    fn located_round(
        &mut self,
        topo: &Topology,
        r_s: f64,
        r_error: f64,
        reports: &[LocatedReport],
    ) -> LocatedRound;

    /// The engine's current trust estimate for a node, if it keeps one.
    fn trust_of(&self, node: NodeId) -> Option<f64>;

    /// Nodes the engine has diagnosed and isolated, if it diagnoses.
    fn isolated_nodes(&self) -> Vec<NodeId>;
}

/// The TIBFIT engine: trust-weighted voting with a persistent
/// [`TrustTable`].
///
/// ```rust
/// use tibfit_core::engine::{Aggregator, TibfitEngine};
/// use tibfit_core::trust::TrustParams;
/// use tibfit_net::topology::NodeId;
///
/// let mut engine = TibfitEngine::new(TrustParams::new(0.25, 0.1), 5);
/// let neighbors: Vec<NodeId> = (0..5).map(NodeId).collect();
/// let round = engine.binary_round(&neighbors, &[NodeId(0), NodeId(1), NodeId(2)]);
/// assert!(round.outcome.event_declared);
/// assert!(engine.trust_of(NodeId(4)).unwrap() < 1.0); // silent node penalized
/// ```
#[derive(Debug, Clone)]
pub struct TibfitEngine {
    table: TrustTable,
}

impl TibfitEngine {
    /// Creates an engine tracking `n` nodes.
    #[must_use]
    pub fn new(params: TrustParams, n: usize) -> Self {
        TibfitEngine {
            table: TrustTable::new(params, n),
        }
    }

    /// Enables diagnosis: nodes below `threshold` are isolated from votes.
    #[must_use]
    pub fn with_isolation_threshold(mut self, threshold: f64) -> Self {
        self.table = self.table.with_isolation_threshold(threshold);
        self
    }

    /// Wraps an existing trust table — the checkpoint-restore path,
    /// where the table is rebuilt bit-for-bit by
    /// [`TrustTable::from_state`](crate::trust::TrustTable::from_state)
    /// rather than grown from fresh.
    #[must_use]
    pub fn from_table(table: TrustTable) -> Self {
        TibfitEngine { table }
    }

    /// Read access to the trust table.
    #[must_use]
    pub fn table(&self) -> &TrustTable {
        &self.table
    }

    /// Mutable access to the trust table (trust hand-off between cluster
    /// heads, §3.4 CH penalties).
    pub fn table_mut(&mut self) -> &mut TrustTable {
        &mut self.table
    }

    /// [`Aggregator::located_round`] into a caller-owned scratch: decides
    /// the batch against the current trust, then applies every
    /// judgement. The decisions and judgements stay in `scratch`
    /// ([`DecisionScratch::decisions`], [`DecisionScratch::judgements`]).
    pub fn located_round_into(
        &mut self,
        topo: &Topology,
        r_s: f64,
        r_error: f64,
        reports: &[LocatedReport],
        scratch: &mut DecisionScratch,
    ) {
        scratch.decide(topo, r_s, r_error, reports, &Weighting::Trust(&self.table));
        self.table.apply_judgements(scratch.judgements());
    }
}

impl Aggregator for TibfitEngine {
    fn name(&self) -> &'static str {
        "TIBFIT"
    }

    fn binary_round(&mut self, neighbors: &[NodeId], reporters: &[NodeId]) -> BinaryRound {
        let outcome = decide_binary(neighbors, reporters, &Weighting::Trust(&self.table));
        let judgements = judge_binary(&outcome);
        self.table.apply_judgements(&judgements);
        BinaryRound {
            outcome,
            judgements,
        }
    }

    fn located_round(
        &mut self,
        topo: &Topology,
        r_s: f64,
        r_error: f64,
        reports: &[LocatedReport],
    ) -> LocatedRound {
        let mut scratch = DecisionScratch::default();
        self.located_round_into(topo, r_s, r_error, reports, &mut scratch);
        LocatedRound::from_scratch(&scratch)
    }

    fn trust_of(&self, node: NodeId) -> Option<f64> {
        Some(self.table.trust_of(node))
    }

    fn isolated_nodes(&self) -> Vec<NodeId> {
        self.table.isolated_nodes()
    }
}

/// The paper's baseline: stateless majority voting. Judgements are still
/// computed (smart adversaries may watch them) but no state is kept.
#[derive(Debug, Clone, Copy, Default)]
pub struct BaselineEngine;

impl BaselineEngine {
    /// Creates the baseline engine.
    #[must_use]
    pub fn new() -> Self {
        BaselineEngine
    }
}

impl Aggregator for BaselineEngine {
    fn name(&self) -> &'static str {
        "Baseline"
    }

    fn binary_round(&mut self, neighbors: &[NodeId], reporters: &[NodeId]) -> BinaryRound {
        let outcome = decide_binary(neighbors, reporters, &Weighting::Uniform);
        let judgements = judge_binary(&outcome);
        BinaryRound {
            outcome,
            judgements,
        }
    }

    fn located_round(
        &mut self,
        topo: &Topology,
        r_s: f64,
        r_error: f64,
        reports: &[LocatedReport],
    ) -> LocatedRound {
        let mut scratch = DecisionScratch::default();
        scratch.decide(topo, r_s, r_error, reports, &Weighting::Uniform);
        LocatedRound::from_scratch(&scratch)
    }

    fn trust_of(&self, _node: NodeId) -> Option<f64> {
        None
    }

    fn isolated_nodes(&self) -> Vec<NodeId> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tibfit_net::geometry::Point;

    fn ids(v: &[usize]) -> Vec<NodeId> {
        v.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn tibfit_accumulates_state_across_rounds() {
        let mut e = TibfitEngine::new(TrustParams::new(0.25, 0.0), 5);
        let neighbors = ids(&[0, 1, 2, 3, 4]);
        // Node 4 misses every event.
        for _ in 0..5 {
            e.binary_round(&neighbors, &ids(&[0, 1, 2, 3]));
        }
        let t4 = e.trust_of(NodeId(4)).unwrap();
        assert!(t4 < 0.3, "trust of persistent misser should decay, got {t4}");
        assert_eq!(e.trust_of(NodeId(0)), Some(1.0));
    }

    #[test]
    fn baseline_keeps_no_state() {
        let mut e = BaselineEngine::new();
        let neighbors = ids(&[0, 1, 2]);
        for _ in 0..10 {
            e.binary_round(&neighbors, &ids(&[2]));
        }
        assert_eq!(e.trust_of(NodeId(2)), None);
        assert!(e.isolated_nodes().is_empty());
        // Still pure majority: one reporter of three loses.
        let round = e.binary_round(&neighbors, &ids(&[2]));
        assert!(!round.outcome.event_declared);
    }

    #[test]
    fn tibfit_outperforms_baseline_after_history() {
        // 3 of 5 nodes turn faulty after the trust table has seen them
        // lie for a while; TIBFIT detects the real event, baseline misses.
        let neighbors = ids(&[0, 1, 2, 3, 4]);
        let mut tibfit = TibfitEngine::new(TrustParams::new(0.25, 0.0), 5);
        // History: nodes 2, 3, 4 fail one at a time (every 10 rounds), so
        // the trust table sees each liar while honest nodes still dominate.
        for round in 0..30 {
            let n_faulty = 1 + round / 10; // 1, then 2, then 3 faulty nodes
            let reporters: Vec<NodeId> = (0..5 - n_faulty).map(NodeId).collect();
            tibfit.binary_round(&neighbors, &reporters);
        }
        let mut baseline = BaselineEngine::new();
        let t_round = tibfit.binary_round(&neighbors, &ids(&[0, 1]));
        let b_round = baseline.binary_round(&neighbors, &ids(&[0, 1]));
        assert!(t_round.outcome.event_declared, "TIBFIT should detect");
        assert!(!b_round.outcome.event_declared, "baseline should miss");
    }

    #[test]
    fn located_round_produces_decisions_and_judgements() {
        let topo = Topology::uniform_grid(100, 100.0, 100.0);
        let mut e = TibfitEngine::new(TrustParams::experiment2(), 100);
        let event = Point::new(50.0, 50.0);
        let neighbors = topo.event_neighbors(event, 20.0);
        let reports: Vec<LocatedReport> = neighbors
            .iter()
            .map(|&n| LocatedReport::new(n, event))
            .collect();
        let round = e.located_round(&topo, 20.0, 5.0, &reports);
        assert_eq!(round.declared_locations().len(), 1);
        assert_eq!(round.judgements.len(), neighbors.len());
    }

    /// The CTI cache makes the §3 weighting `TI = e^(−λ·v)` cheap: a
    /// decision pays one `exp()` per counter that moved, not one per
    /// weight read. Of the 12 event neighbours of `(50, 50)`, the first
    /// tenth (one node) reports `(90, 90)` every round; honest nodes stay
    /// at the `v = 0` floor. Exact counts, the same on every machine.
    #[test]
    fn cti_cache_pays_one_exp_per_moved_counter() {
        const DECISIONS: u64 = 1000;
        let topo = Topology::uniform_grid(100, 100.0, 100.0);
        let mut e = TibfitEngine::new(TrustParams::experiment2(), 100);
        let event = Point::new(50.0, 50.0);
        let neighbors = topo.event_neighbors(event, 20.0);
        assert_eq!(neighbors.len(), 12);
        let wrong = Point::new(90.0, 90.0);
        let reports: Vec<LocatedReport> = neighbors
            .iter()
            .enumerate()
            .map(|(i, &n)| LocatedReport::new(n, if i == 0 { wrong } else { event }))
            .collect();
        for _ in 0..DECISIONS {
            e.located_round(&topo, 20.0, 5.0, &reports);
        }
        let (exp_evals, ti_reads) = (e.table().exp_evals(), e.table().ti_reads());
        assert_eq!(exp_evals, 2 * DECISIONS, "exp() paid");
        assert_eq!(ti_reads, 20 * DECISIONS, "trust-index reads served");
        assert!(ti_reads >= 5 * exp_evals, "the cache saves at least 5x the exp() calls");
    }

    #[test]
    fn isolation_surfaces_through_engine() {
        let mut e =
            TibfitEngine::new(TrustParams::new(0.5, 0.0), 4).with_isolation_threshold(0.4);
        let neighbors = ids(&[0, 1, 2, 3]);
        for _ in 0..10 {
            // Node 3 false-alarms alone; real state is "no event".
            e.binary_round(&neighbors, &ids(&[3]));
        }
        assert_eq!(e.isolated_nodes(), vec![NodeId(3)]);
    }

    #[test]
    fn engines_are_object_safe() {
        let mut engines: Vec<Box<dyn Aggregator>> = vec![
            Box::new(TibfitEngine::new(TrustParams::new(0.25, 0.1), 3)),
            Box::new(BaselineEngine::new()),
        ];
        let neighbors = ids(&[0, 1, 2]);
        for e in &mut engines {
            let round = e.binary_round(&neighbors, &ids(&[0, 1]));
            assert!(round.outcome.event_declared, "{}", e.name());
        }
    }
}

//! Exhaustive bounded-enumeration model checker for the TIBFIT protocol
//! core.
//!
//! Property tests *sample* the protocol's state space; this crate
//! *enumerates* it. Over small bounded configurations (a handful of
//! nodes, a few decision rounds, every fault assignment, every
//! cluster-head action) the checker drives the **real production types**
//! — [`TrustTable`], the CTI fold, `run_vote` — through every reachable
//! interleaving of the quarantine/probation/reintegration schedule and
//! the CH-failover/shadow-resync recovery paths, and asserts three
//! invariants on every distinct state it reaches:
//!
//! 1. **Single-fault safety** — a quarantined node can never flip a CTI
//!    decision, ties always resolve to "no event", and any node whose
//!    weight is below half the decision margin cannot flip it by
//!    switching sides.
//! 2. **Liveness of reintegration** — from any reachable state, ticking
//!    the schedule with no further judgements walks every node
//!    Quarantined → Probation → Active through exactly the legal
//!    transitions; nothing wedges. On probation entry the trust lands at
//!    the isolation threshold, and one probationary relapse always
//!    re-quarantines.
//! 3. **Trust-mass conservation across failover** — extracting every
//!    node's record and installing it into a fresh table reproduces
//!    counters and statuses bit-for-bit, and a lose-then-resync recovery
//!    from a handoff snapshot never restores *more* trust than the
//!    snapshot held.
//!
//! Bounded enumeration is not a proof for unbounded configurations —
//! see DESIGN.md §15 for exactly what it does and does not establish.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashSet;

use tibfit_core::trust::{NodeStatus, TrustParams, TrustTable};
use tibfit_core::vote::{run_vote, Weighting};
use tibfit_net::topology::NodeId;

/// One bounded configuration to enumerate.
#[derive(Debug, Clone, Copy)]
pub struct ModelConfig {
    /// Cluster size (every node is an event neighbor).
    pub nodes: usize,
    /// Decision rounds to explore (the enumeration depth).
    pub rounds: usize,
    /// Trust decay constant λ.
    pub lambda: f64,
    /// Natural error rate `f_r`.
    pub fault_rate: f64,
    /// Isolation threshold.
    pub threshold: f64,
    /// Quarantine length in rounds.
    pub quarantine_rounds: u64,
    /// Probation length in rounds.
    pub probation_rounds: u64,
}

impl ModelConfig {
    /// A short human-readable tag for reports.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "n={} rounds={} λ={} f_r={} th={} policy=({},{})",
            self.nodes,
            self.rounds,
            self.lambda,
            self.fault_rate,
            self.threshold,
            self.quarantine_rounds,
            self.probation_rounds
        )
    }
}

/// A falsified invariant, with the action sequence that reached it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant failed.
    pub invariant: &'static str,
    /// What exactly went wrong.
    pub detail: String,
    /// The action sequence from the initial state to the bad state.
    pub trace: Vec<String>,
}

/// The outcome of enumerating one configuration.
#[derive(Debug)]
pub struct CheckReport {
    /// The configuration's [`ModelConfig::label`].
    pub label: String,
    /// States visited (including revisits pruned by memoization).
    pub states: u64,
    /// Distinct states on which the invariants were checked.
    pub distinct: u64,
    /// Invariant violations (empty on success).
    pub violations: Vec<Violation>,
}

impl CheckReport {
    /// `true` when every invariant held on every distinct state.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Checks the CTI decision-rule invariant on one table under an
/// arbitrary decision predicate `decide(rw, nrw)`.
///
/// The production rule is strict `rw > nrw`; the predicate is a
/// parameter so tests can verify the checker *detects* a broken rule
/// (e.g. ties declaring the event). Returns the first violation found:
///
/// - a tied partition that declares the event,
/// - a quarantined node whose side-switch changes a decision, or
/// - a node with `2·weight < |margin|` whose side-switch changes a
///   decision (a single report below half the margin can never flip).
#[must_use]
pub fn cti_decision_violation(
    table: &TrustTable,
    decide: &dyn Fn(f64, f64) -> bool,
) -> Option<String> {
    let n = table.len();
    let all: Vec<NodeId> = (0..n).map(NodeId).collect();
    let (mut r, mut nr) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for mask in 0u32..(1 << n) {
        r.clear();
        nr.clear();
        for node in &all {
            if mask & (1 << node.index()) != 0 {
                r.push(*node);
            } else {
                nr.push(*node);
            }
        }
        let rw = table.cumulative_trust(&r);
        let nrw = table.cumulative_trust(&nr);
        let decision = decide(rw, nrw);
        if rw == nrw && decision {
            return Some(format!(
                "tie declared the event: mask={mask:#b} rw={rw} nrw={nrw}"
            ));
        }
        for m in &all {
            let quarantined = table.is_isolated(*m);
            let weight = if quarantined { 0.0 } else { table.trust_of(*m) };
            let robust = quarantined || 2.0 * weight < (rw - nrw).abs() - 1e-9;
            if !robust {
                continue;
            }
            // Move m to the other side and re-run the real folds.
            let flipped = mask ^ (1 << m.index());
            r.clear();
            nr.clear();
            for node in &all {
                if flipped & (1 << node.index()) != 0 {
                    r.push(*node);
                } else {
                    nr.push(*node);
                }
            }
            let frw = table.cumulative_trust(&r);
            let fnrw = table.cumulative_trust(&nr);
            if decide(frw, fnrw) != decision {
                return Some(format!(
                    "single report flipped the decision: mask={mask:#b} node={} weight={weight} \
                     margin={} → {} vs {}",
                    m.index(),
                    rw - nrw,
                    decide(frw, fnrw),
                    decision,
                ));
            }
        }
    }
    None
}

/// Model state: the trust table after a judgement history, plus the
/// last CH handoff snapshot (if any).
#[derive(Clone)]
struct State {
    table: TrustTable,
    /// The `(node, TI)` export captured by the last Handoff action.
    snapshot: Option<Vec<(NodeId, f64)>>,
}

/// Cluster-head actions interleaved with the decision rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChAction {
    /// The head survives the round.
    None,
    /// Leadership rotates: the outgoing head exports a trust snapshot.
    Handoff,
    /// The head crashes, the incoming head's table is wiped, and the
    /// last handoff snapshot is replayed through `resync_to_ti` (a
    /// no-op without a snapshot — that variant is skipped).
    LoseAndResync,
}

const CH_ACTIONS: [ChAction; 3] = [ChAction::None, ChAction::Handoff, ChAction::LoseAndResync];

struct Checker {
    cfg: ModelConfig,
    visited: HashSet<Vec<u64>>,
    states: u64,
    violations: Vec<Violation>,
    trace: Vec<String>,
}

/// Cap on collected counterexamples per configuration; one is enough to
/// act on, a few help triangulate, thousands are noise.
const MAX_VIOLATIONS: usize = 4;

impl Checker {
    fn nodes(&self) -> Vec<NodeId> {
        (0..self.cfg.nodes).map(NodeId).collect()
    }

    fn fail(&mut self, invariant: &'static str, detail: String) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(Violation {
                invariant,
                detail,
                trace: self.trace.clone(),
            });
        }
    }

    fn done(&self) -> bool {
        self.violations.len() >= MAX_VIOLATIONS
    }

    /// An exact fingerprint of a state: every counter bit, every status,
    /// and the snapshot contents. Two states with equal keys behave
    /// identically under every future action, so revisits are pruned.
    fn key(&self, s: &State) -> Vec<u64> {
        let mut k = Vec::with_capacity(4 * self.cfg.nodes + 2);
        for i in 0..self.cfg.nodes {
            let node = NodeId(i);
            k.push(s.table.counter_of(node).to_bits());
            match s.table.status_of(node) {
                NodeStatus::Active => {
                    k.push(0);
                    k.push(0);
                }
                NodeStatus::Quarantined { remaining } => {
                    k.push(1);
                    k.push(remaining);
                }
                NodeStatus::Probation { remaining } => {
                    k.push(2);
                    k.push(remaining);
                }
            }
        }
        match &s.snapshot {
            None => k.push(0),
            Some(snap) => {
                k.push(1);
                for (_, ti) in snap {
                    k.push(ti.to_bits());
                }
            }
        }
        k
    }

    // ---- invariant 1: single-fault safety of the CTI rule ----

    fn check_decision_rule(&mut self, s: &State) {
        let table = &s.table;
        if let Some(detail) = cti_decision_violation(table, &|rw, nrw| rw > nrw) {
            self.fail("single-fault safety", detail);
        }
        // One run_vote sanity probe per state ties the raw folds back to
        // the production vote path.
        let all = self.nodes();
        let mask = (self.states % (1 << self.cfg.nodes)) as u32;
        let (r, nr): (Vec<NodeId>, Vec<NodeId>) =
            all.iter().partition(|node| mask & (1 << node.index()) != 0);
        let out = run_vote(&all, &r, &Weighting::Trust(table));
        let direct = table.cumulative_trust(&r) > table.cumulative_trust(&nr);
        if out.event_declared != direct {
            self.fail(
                "single-fault safety",
                format!("run_vote disagrees with the direct fold at mask={mask:#b}"),
            );
        }
    }

    // ---- invariant 2: the reintegration schedule never wedges ----

    fn check_liveness(&mut self, s: &State) {
        let budget = self.cfg.quarantine_rounds + self.cfg.probation_rounds;
        let mut t = s.table.clone();
        for tick in 0..budget {
            let before: Vec<NodeStatus> =
                (0..self.cfg.nodes).map(|i| t.status_of(NodeId(i))).collect();
            t.tick_round();
            for (i, prev) in before.iter().enumerate() {
                let node = NodeId(i);
                let now = t.status_of(node);
                let legal = match (*prev, now) {
                    (NodeStatus::Active, NodeStatus::Active) => true,
                    (
                        NodeStatus::Quarantined { remaining: a },
                        NodeStatus::Quarantined { remaining: b },
                    ) => a > 1 && b == a - 1,
                    (NodeStatus::Quarantined { remaining }, NodeStatus::Probation { remaining: p }) => {
                        remaining <= 1 && p == self.cfg.probation_rounds
                    }
                    (
                        NodeStatus::Probation { remaining: a },
                        NodeStatus::Probation { remaining: b },
                    ) => a > 1 && b == a - 1,
                    (NodeStatus::Probation { remaining }, NodeStatus::Active) => remaining <= 1,
                    _ => false,
                };
                if !legal {
                    self.fail(
                        "reintegration liveness",
                        format!("illegal transition {prev:?} → {now:?} at tick {tick}"),
                    );
                    return;
                }
                // On probation entry: trust lands at the threshold, and
                // one relapse must re-quarantine immediately.
                let entered_probation = matches!(prev, NodeStatus::Quarantined { remaining } if *remaining <= 1);
                if entered_probation {
                    let ti = t.trust_of(node);
                    let th = self.cfg.threshold;
                    if (ti - th).abs() >= 1e-9 {
                        self.fail(
                            "reintegration liveness",
                            format!("probation entry TI {ti} not pinned to threshold {th}"),
                        );
                    }
                    let mut relapse = t.clone();
                    relapse.record_faulty(node);
                    if !relapse.is_isolated(node) {
                        self.fail(
                            "reintegration liveness",
                            format!("probationary relapse of node {i} did not re-quarantine"),
                        );
                    }
                }
            }
        }
        for i in 0..self.cfg.nodes {
            if t.status_of(NodeId(i)) != NodeStatus::Active {
                self.fail(
                    "reintegration liveness",
                    format!(
                        "node {i} wedged in {:?} after {budget} quiet ticks",
                        t.status_of(NodeId(i))
                    ),
                );
            }
        }
    }

    // ---- invariant 3: failover conserves trust mass ----

    fn check_conservation(&mut self, s: &State) {
        let table = &s.table;
        let mut fresh = TrustTable::new(*table.params(), self.cfg.nodes)
            .with_isolation_threshold(self.cfg.threshold)
            .with_reintegration(self.cfg.quarantine_rounds, self.cfg.probation_rounds);
        for i in 0..self.cfg.nodes {
            let node = NodeId(i);
            fresh.install(node, table.extract(node));
        }
        for i in 0..self.cfg.nodes {
            let node = NodeId(i);
            if fresh.counter_of(node).to_bits() != table.counter_of(node).to_bits()
                || fresh.status_of(node) != table.status_of(node)
                || fresh.trust_of(node).to_bits() != table.trust_of(node).to_bits()
            {
                self.fail(
                    "failover trust conservation",
                    format!(
                        "extract→install changed node {i}: counter {} → {}, status {:?} → {:?}",
                        table.counter_of(node),
                        fresh.counter_of(node),
                        table.status_of(node),
                        fresh.status_of(node),
                    ),
                );
            }
        }
    }

    fn check_invariants(&mut self, s: &State) {
        self.check_decision_rule(s);
        self.check_liveness(s);
        self.check_conservation(s);
    }

    /// Applies one round (judgement mask, tick, CH action) to a copy of
    /// `s`; returns `None` when the action is a no-op variant to skip.
    fn apply(&mut self, s: &State, mask: u32, ch: ChAction) -> Option<State> {
        if ch == ChAction::LoseAndResync && s.snapshot.is_none() {
            return None;
        }
        let mut next = s.clone();
        for i in 0..self.cfg.nodes {
            let node = NodeId(i);
            // Quarantined nodes issue no reports, so they receive no
            // judgements; masks touching them are non-canonical and
            // were filtered by the caller.
            if next.table.is_isolated(node) {
                continue;
            }
            if mask & (1 << i) != 0 {
                next.table.record_faulty(node);
            } else {
                next.table.record_correct(node);
            }
        }
        next.table.tick_round();
        match ch {
            ChAction::None => {}
            ChAction::Handoff => {
                next.snapshot = Some(next.table.export());
            }
            ChAction::LoseAndResync => {
                let snapshot = next.snapshot.clone().expect("checked above");
                for i in 0..self.cfg.nodes {
                    next.table.set_counter(NodeId(i), 0.0);
                }
                for &(node, ti) in &snapshot {
                    next.table.resync_to_ti(node, ti);
                    let restored = next.table.trust_of(node);
                    if restored > ti + 1e-9 {
                        self.fail(
                            "failover trust conservation",
                            format!("resync restored {restored} > snapshot {ti} for node {}", node.index()),
                        );
                    }
                }
            }
        }
        Some(next)
    }

    fn dfs(&mut self, s: &State, depth: usize) {
        if depth == self.cfg.rounds || self.done() {
            return;
        }
        let quarantined: u32 = (0..self.cfg.nodes)
            .filter(|&i| s.table.is_isolated(NodeId(i)))
            .map(|i| 1 << i)
            .sum();
        for mask in 0u32..(1 << self.cfg.nodes) {
            if mask & quarantined != 0 {
                continue; // non-canonical: judges a silent node
            }
            for ch in CH_ACTIONS {
                self.trace.push(format!(
                    "round {}: faulty-mask={mask:#06b} ch={ch:?}",
                    depth + 1
                ));
                if let Some(next) = self.apply(s, mask, ch) {
                    self.states += 1;
                    let key = self.key(&next);
                    if self.visited.insert(key) {
                        self.check_invariants(&next);
                        self.dfs(&next, depth + 1);
                    }
                }
                self.trace.pop();
                if self.done() {
                    return;
                }
            }
        }
    }
}

/// Exhaustively enumerates one configuration and checks all three
/// invariants on every distinct reachable state.
///
/// # Panics
///
/// Panics if the configuration is degenerate (zero nodes/rounds, more
/// than 16 nodes, or invalid trust parameters).
#[must_use]
pub fn check(cfg: ModelConfig) -> CheckReport {
    assert!(cfg.nodes > 0 && cfg.nodes <= 16, "bounded model: 1..=16 nodes");
    assert!(cfg.rounds > 0, "bounded model: at least one round");
    let initial = State {
        table: TrustTable::new(TrustParams::new(cfg.lambda, cfg.fault_rate), cfg.nodes)
            .with_isolation_threshold(cfg.threshold)
            .with_reintegration(cfg.quarantine_rounds, cfg.probation_rounds),
        snapshot: None,
    };
    let mut checker = Checker {
        cfg,
        visited: HashSet::new(),
        states: 0,
        violations: Vec::new(),
        trace: Vec::new(),
    };
    let key = checker.key(&initial);
    checker.visited.insert(key);
    checker.check_invariants(&initial);
    checker.dfs(&initial, 0);
    CheckReport {
        label: cfg.label(),
        states: checker.states + 1,
        distinct: checker.visited.len() as u64,
        violations: checker.violations,
    }
}

/// The configuration sweep for a given bound profile: two decay rates
/// (fast and slow trust loss) under three quarantine/probation policies.
#[must_use]
pub fn sweep(nodes: usize, rounds: usize) -> Vec<ModelConfig> {
    let mut configs = Vec::new();
    for lambda in [0.9, 0.35] {
        for (q, p) in [(1, 1), (2, 1), (1, 2)] {
            configs.push(ModelConfig {
                nodes,
                rounds,
                lambda,
                fault_rate: 0.1,
                threshold: 0.5,
                quarantine_rounds: q,
                probation_rounds: p,
            });
        }
    }
    configs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ModelConfig {
        ModelConfig {
            nodes: 2,
            rounds: 2,
            lambda: 0.9,
            fault_rate: 0.1,
            threshold: 0.5,
            quarantine_rounds: 1,
            probation_rounds: 1,
        }
    }

    #[test]
    fn tiny_config_has_no_violations() {
        let report = check(tiny());
        assert!(report.ok(), "{:?}", report.violations);
        assert!(report.distinct > 1);
    }

    #[test]
    fn three_node_sweep_is_clean() {
        for cfg in sweep(3, 2) {
            let report = check(cfg);
            assert!(report.ok(), "{}: {:?}", report.label, report.violations);
        }
    }

    #[test]
    fn mutant_decision_rule_is_caught() {
        // The checker must *detect* a broken rule, not just bless the
        // real one: a rule that declares the event on ties violates
        // single-fault safety on the very first (all-equal-trust) state.
        // Even node count: a fresh table then has tied partitions
        // (e.g. {0,1} vs {2,3} at full trust).
        let table = TrustTable::new(TrustParams::new(0.9, 0.1), 4);
        assert!(cti_decision_violation(&table, &|rw, nrw| rw > nrw).is_none());
        let violation = cti_decision_violation(&table, &|rw, nrw| rw >= nrw);
        assert!(violation.unwrap().contains("tie declared the event"));
    }

    #[test]
    fn lose_without_snapshot_is_skipped() {
        // LoseAndResync before any Handoff must be pruned, not panic.
        let mut cfg = tiny();
        cfg.rounds = 1;
        let report = check(cfg);
        assert!(report.ok(), "{:?}", report.violations);
    }
}

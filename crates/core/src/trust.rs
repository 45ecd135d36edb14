//! The trust-index model (paper §3).
//!
//! Each node's trust index is `TI = e^(−λ·v)` where the fault counter `v`
//! starts at zero (so TI starts at one) and moves on every judged report:
//!
//! * report judged **faulty** → `v += 1 − f_r`
//! * report judged **correct** → `v -= f_r` (floored at zero)
//!
//! `f_r` is the *natural error rate* the protocol is calibrated for: a
//! correct node erring once every `1/f_r` events has `E[Δv] = 0`, so its TI
//! hovers near one, while a node erring more often drifts down
//! exponentially. The exponential form penalizes early mistakes heavily and
//! makes regaining trust slow — the paper argues this beats a linear model
//! where a 50%-liar still periodically reaches TI = 1.

use std::cell::Cell;
use std::fmt;

use tibfit_net::topology::NodeId;

/// The weight-slot sentinel marking a quarantined node: `-0.0`, whose
/// addition leaves a non-negative IEEE-754 accumulator bit-identical,
/// so branch-free CTI folds skip quarantined members for free. The sign
/// bit doubles as the participation flag — every real TI, even one
/// underflowed to `+0.0`, is sign-positive.
pub const QUARANTINE_WEIGHT: f64 = -0.0;

/// Whether a dense weight slot holds the quarantine sentinel rather
/// than a voting weight. This is the *only* sanctioned way to interpret
/// a weight slot's sign bit; both the CTI fold
/// ([`TrustTable::cumulative_trust`]) and `vote::group_weight`'s ±0.0
/// normalization go through it, so the two cannot diverge on what
/// "quarantined" looks like.
#[must_use]
pub fn is_quarantined_weight(w: f64) -> bool {
    w.is_sign_negative()
}

/// The exponent `λ·v` at and beyond which `e^(−λ·v)` underflows to
/// `+0.0` (the smallest subnormal f64 is `e^(−744.4)`).
const UNDERFLOW_EXPONENT: f64 = 746.0;

/// The CTI fold behind [`TrustTable::cumulative_trust`], returning
/// `(sum, reads)`. It seeds `-0.0` (like `Iterator::sum::<f64>`) and
/// adds strictly in group order; only the order-free gathers and read
/// counting are unrolled, in chunks of 4.
///
/// # Panics
///
/// Panics if any index is out of range for `weights`.
#[inline]
fn fold_group_f64(weights: &[f64], group: &[NodeId]) -> (f64, u64) {
    let mut sum = -0.0f64;
    let mut reads = 0u64;
    let mut chunks = group.chunks_exact(4);
    for c in chunks.by_ref() {
        let w0 = weights[c[0].index()];
        let w1 = weights[c[1].index()];
        let w2 = weights[c[2].index()];
        let w3 = weights[c[3].index()];
        reads += u64::from(!is_quarantined_weight(w0))
            + u64::from(!is_quarantined_weight(w1))
            + u64::from(!is_quarantined_weight(w2))
            + u64::from(!is_quarantined_weight(w3));
        sum += w0;
        sum += w1;
        sum += w2;
        sum += w3;
    }
    for n in chunks.remainder() {
        let w = weights[n.index()];
        reads += u64::from(!is_quarantined_weight(w));
        sum += w;
    }
    (sum, reads)
}

/// Why a [`TrustParams`] value was rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrustParamsError {
    /// `lambda` was NaN, infinite, or not strictly positive.
    InvalidLambda(f64),
    /// `fault_rate` was NaN or outside `[0, 1)`.
    InvalidFaultRate(f64),
}

impl fmt::Display for TrustParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrustParamsError::InvalidLambda(x) => {
                write!(f, "lambda must be positive and finite, got {x}")
            }
            TrustParamsError::InvalidFaultRate(x) => {
                write!(f, "fault_rate must be in [0, 1), got {x}")
            }
        }
    }
}

impl std::error::Error for TrustParamsError {}

/// Calibration constants of the trust model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrustParams {
    /// The exponential decay constant λ (paper: 0.1 in Experiment 1,
    /// 0.25 in Experiments 2–3).
    pub lambda: f64,
    /// The natural error rate `f_r` the model tolerates. The paper sets it
    /// equal to the correct nodes' NER in Experiment 1 and to 0.1 in
    /// Experiment 2 (to absorb wireless-channel losses).
    pub fault_rate: f64,
}

impl TrustParams {
    /// Creates a parameter set.
    ///
    /// # Panics
    ///
    /// Panics unless `lambda > 0` and `0 <= fault_rate < 1`. Use
    /// [`TrustParams::try_new`] to handle bad inputs as values.
    #[must_use]
    pub fn new(lambda: f64, fault_rate: f64) -> Self {
        match TrustParams::try_new(lambda, fault_rate) {
            Ok(p) => p,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible constructor: rejects NaN, infinite, and out-of-range
    /// calibration values instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`TrustParamsError::InvalidLambda`] unless `lambda` is
    /// finite and strictly positive, and
    /// [`TrustParamsError::InvalidFaultRate`] unless `fault_rate` is in
    /// `[0, 1)` (NaN is rejected by both checks).
    pub fn try_new(lambda: f64, fault_rate: f64) -> Result<Self, TrustParamsError> {
        if !(lambda.is_finite() && lambda > 0.0) {
            return Err(TrustParamsError::InvalidLambda(lambda));
        }
        if !(0.0..1.0).contains(&fault_rate) {
            return Err(TrustParamsError::InvalidFaultRate(fault_rate));
        }
        Ok(TrustParams { lambda, fault_rate })
    }

    /// Experiment-1 calibration (λ = 0.1, `f_r` = the given NER).
    #[must_use]
    pub fn experiment1(natural_error_rate: f64) -> Self {
        TrustParams::new(0.1, natural_error_rate)
    }

    /// Experiment-2/3 calibration (λ = 0.25, `f_r` = 0.1).
    #[must_use]
    pub fn experiment2() -> Self {
        TrustParams::new(0.25, 0.1)
    }

    /// The increment applied to `v` on a faulty report: `1 − f_r`.
    #[must_use]
    pub fn faulty_increment(&self) -> f64 {
        1.0 - self.fault_rate
    }

    /// The decrement applied to `v` on a correct report: `f_r`.
    #[must_use]
    pub fn correct_decrement(&self) -> f64 {
        self.fault_rate
    }
}

/// The trust state of a single node: the fault counter `v`.
///
/// ```rust
/// use tibfit_core::trust::{TrustIndex, TrustParams};
/// let params = TrustParams::new(0.25, 0.1);
/// let mut ti = TrustIndex::new();
/// assert_eq!(ti.value(&params), 1.0);
/// ti.record_faulty(&params);
/// assert!(ti.value(&params) < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TrustIndex {
    v: f64,
}

impl TrustIndex {
    /// A fresh index: `v = 0`, `TI = 1`.
    #[must_use]
    pub fn new() -> Self {
        TrustIndex { v: 0.0 }
    }

    /// Rebuilds an index from a raw counter value (checkpoint restore).
    /// Returns `None` for a negative or non-finite counter, which no
    /// healthy index can hold.
    #[must_use]
    pub fn from_counter(v: f64) -> Option<Self> {
        (v.is_finite() && v >= 0.0).then_some(TrustIndex { v })
    }

    /// The raw fault counter `v`.
    #[must_use]
    pub fn counter(&self) -> f64 {
        self.v
    }

    /// The trust index `e^(−λ·v)`, in `[0, 1]`: it underflows to `+0.0`
    /// once `λ·v` passes ~745.
    #[must_use]
    pub fn value(&self, params: &TrustParams) -> f64 {
        (-params.lambda * self.v).exp()
    }

    /// Registers a report the cluster head judged faulty: `v += 1 − f_r`.
    pub fn record_faulty(&mut self, params: &TrustParams) {
        self.v += params.faulty_increment();
    }

    /// Registers a report the cluster head judged correct: `v -= f_r`,
    /// floored at zero (so TI never exceeds one).
    pub fn record_correct(&mut self, params: &TrustParams) {
        self.v = (self.v - params.correct_decrement()).max(0.0);
    }
}

/// How the cluster head judged one node's behaviour in a decision round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Judgement {
    /// The node sided with the winning group.
    Correct,
    /// The node sided with the losing group (or reported a bad location).
    Faulty,
}

/// Membership state of a node under diagnosis (paper §3.1 extended with a
/// recovery path for the fault-injection experiments).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeStatus {
    /// Full member: reports count, trust evolves normally.
    Active,
    /// Diagnosed faulty and excluded from votes. With a reintegration
    /// policy the sentence is finite; without one it is permanent.
    Quarantined {
        /// Decision rounds left to serve (ignored without a policy).
        remaining: u64,
    },
    /// Served its quarantine and re-admitted on probation: the node votes
    /// again at reduced trust, but a relapse below the isolation
    /// threshold sends it straight back to quarantine.
    Probation {
        /// Decision rounds left before the node returns to full standing.
        remaining: u64,
    },
}

/// Recovery schedule for quarantined nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ReintegrationPolicy {
    quarantine_rounds: u64,
    probation_rounds: u64,
}

/// The cluster head's per-node trust table, including diagnosis state.
///
/// Nodes whose trust index falls below the isolation threshold are
/// *diagnosed* as faulty and can be removed from the network (paper §3.1:
/// "the system can identify a faulty node when its TI falls below a certain
/// threshold. It can then be removed from the network"). By default removal
/// is permanent; [`TrustTable::with_reintegration`] adds the
/// quarantine → probation → reintegration recovery path used by the
/// fault-injection experiments, so a transiently-faulted node (e.g. one
/// that crashed and rebooted) can earn its way back in.
///
/// ```rust
/// use tibfit_core::trust::{TrustParams, TrustTable};
/// use tibfit_net::topology::NodeId;
///
/// let mut table = TrustTable::new(TrustParams::new(0.5, 0.1), 3);
/// assert_eq!(table.trust_of(NodeId(1)), 1.0);
/// table.record_faulty(NodeId(1));
/// assert!(table.trust_of(NodeId(1)) < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct TrustTable {
    params: TrustParams,
    /// Raw fault counters `v`, one dense slot per node (SoA layout: the
    /// counters, the cached TIs, and the voting weights live in three
    /// parallel arrays so each access pattern touches only the array it
    /// needs).
    counters: Vec<f64>,
    /// Write-through cache of `e^(−λ·v)` per node, refreshed only when a
    /// node's fault counter actually changes. Every cached value is
    /// produced by the exact expression [`TrustIndex::value`] would
    /// evaluate at read time, so reads through the cache are bit-identical
    /// to recomputation — the cache changes *when* the exponential is
    /// paid, never its result.
    cached_ti: Vec<f64>,
    /// Dense voting-weight slots: `cached_ti[i]` while node `i`
    /// participates in votes (active or probationary), `-0.0` while it is
    /// quarantined. CTI accumulation reads only this array — no status
    /// branch, no second lookup. Adding `-0.0` (or an underflowed `+0.0`)
    /// to a non-negative IEEE-754 accumulator is bit-identical to skipping
    /// the node, so the branch-free sum reproduces the filtered sum
    /// exactly; the sign bit doubles as the participation flag (every real
    /// TI is `>= +0.0`), which is how reads are counted without touching
    /// `status`.
    weights: Vec<f64>,
    status: Vec<NodeStatus>,
    isolation_threshold: Option<f64>,
    reintegration: Option<ReintegrationPolicy>,
    /// Number of `exp()` evaluations performed so far (cache refreshes).
    exp_evals: u64,
    /// Number of trust-index *reads* served from the cache — exactly the
    /// `exp()` count the uncached implementation would have paid. A
    /// `Cell` because reads go through `&self`; the table is `Send` but
    /// not shared across threads.
    ti_reads: Cell<u64>,
}

impl TrustTable {
    /// Creates a table for `n` nodes, all starting at full trust, with
    /// diagnosis disabled.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(params: TrustParams, n: usize) -> Self {
        assert!(n > 0, "trust table needs at least one node");
        TrustTable {
            params,
            counters: vec![0.0; n],
            // e^(−λ·0) is exactly 1.0, so fresh entries need no exp().
            cached_ti: vec![1.0; n],
            weights: vec![1.0; n],
            status: vec![NodeStatus::Active; n],
            isolation_threshold: None,
            reintegration: None,
            exp_evals: 0,
            ti_reads: Cell::new(0),
        }
    }

    /// Recomputes one node's cached trust index after its counter moved
    /// (one paid exponential).
    fn refresh_cache(&mut self, i: usize) {
        self.cached_ti[i] = TrustIndex { v: self.counters[i] }.value(&self.params);
        // The bookkeeping counters wrap at `u64::MAX` in every build: a
        // restored table starts them wherever its checkpoint said.
        self.exp_evals = self.exp_evals.wrapping_add(1);
        self.sync_weight(i);
    }

    /// Re-derives one node's voting-weight slot from its status and
    /// cached TI. Called on every cache refresh and status transition —
    /// the weight array is write-through, never recomputed at read time.
    fn sync_weight(&mut self, i: usize) {
        self.weights[i] = if matches!(self.status[i], NodeStatus::Quarantined { .. }) {
            QUARANTINE_WEIGHT
        } else {
            self.cached_ti[i]
        };
    }

    /// Total `exp()` evaluations paid so far. Reads ([`TrustTable::trust_of`],
    /// [`TrustTable::cumulative_trust`], [`TrustTable::export`]) are served
    /// from the cache and cost none; only an actual change to a node's
    /// fault counter triggers one, against the uncached cost of one
    /// exponential per weight read ([`TrustTable::ti_reads`]).
    #[must_use]
    pub fn exp_evals(&self) -> u64 {
        self.exp_evals
    }

    /// Total trust-index reads served from the cache so far. Before the
    /// cache, each of these evaluated one exponential, so
    /// `ti_reads − exp_evals` is the number of `exp()` calls avoided.
    #[must_use]
    pub fn ti_reads(&self) -> u64 {
        self.ti_reads.get()
    }

    /// Enables diagnosis: nodes whose TI drops below `threshold` are
    /// marked isolated and excluded from future votes.
    ///
    /// # Panics
    ///
    /// Panics unless `threshold` is in `(0, 1)`.
    #[must_use]
    pub fn with_isolation_threshold(mut self, threshold: f64) -> Self {
        assert!(
            threshold > 0.0 && threshold < 1.0,
            "isolation threshold must be in (0, 1), got {threshold}"
        );
        self.isolation_threshold = Some(threshold);
        self
    }

    /// Enables the recovery path: an isolated node serves
    /// `quarantine_rounds` decision rounds in quarantine, then re-enters
    /// on probation for `probation_rounds` rounds (with its trust reset
    /// to the isolation threshold, not to one — trust is earned back, not
    /// granted). A probationary relapse below the threshold restarts the
    /// quarantine. Call [`TrustTable::tick_round`] once per decision
    /// round to advance the schedule.
    ///
    /// # Panics
    ///
    /// Panics if either duration is zero.
    #[must_use]
    pub fn with_reintegration(mut self, quarantine_rounds: u64, probation_rounds: u64) -> Self {
        assert!(quarantine_rounds > 0, "quarantine must last at least one round");
        assert!(probation_rounds > 0, "probation must last at least one round");
        self.reintegration = Some(ReintegrationPolicy {
            quarantine_rounds,
            probation_rounds,
        });
        self
    }

    /// The calibration parameters.
    #[must_use]
    pub fn params(&self) -> &TrustParams {
        &self.params
    }

    /// Number of tracked nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// `true` if the table tracks no nodes (not constructible publicly).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// The trust index of a node.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn trust_of(&self, node: NodeId) -> f64 {
        self.ti_reads.set(self.ti_reads.get().wrapping_add(1));
        self.cached_ti[node.index()]
    }

    /// The raw fault counter of a node.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn counter_of(&self, node: NodeId) -> f64 {
        self.counters[node.index()]
    }

    /// Whether diagnosis has isolated this node (quarantined nodes are
    /// isolated; probationary nodes participate again).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn is_isolated(&self, node: NodeId) -> bool {
        matches!(self.status[node.index()], NodeStatus::Quarantined { .. })
    }

    /// The full membership state of a node.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn status_of(&self, node: NodeId) -> NodeStatus {
        self.status[node.index()]
    }

    /// All currently isolated (quarantined) nodes.
    #[must_use]
    pub fn isolated_nodes(&self) -> Vec<NodeId> {
        self.status
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, NodeStatus::Quarantined { .. }))
            .map(|(i, _)| NodeId(i))
            .collect()
    }

    /// Cumulative trust index of a group (the paper's CTI).
    ///
    /// Isolated nodes contribute zero.
    ///
    /// One branch-free gather over the dense weight slots: quarantined
    /// nodes hold `-0.0`, whose addition leaves a non-negative IEEE-754
    /// accumulator bit-identical, so the unfiltered left-to-right fold
    /// equals the status-filtered sum exactly. The fold stays in group
    /// order (float addition does not commute bitwise). Reads are
    /// counted from the sign bit (`-0.0` marks quarantine; every real
    /// TI, even one underflowed to `+0.0`, is sign-positive), so only
    /// non-isolated members cost a read. An empty or all-quarantined
    /// group sums to the `-0.0` seed.
    #[must_use]
    pub fn cumulative_trust(&self, group: &[NodeId]) -> f64 {
        let (sum, reads) = fold_group_f64(&self.weights, group);
        self.ti_reads.set(self.ti_reads.get().wrapping_add(reads));
        sum
    }

    /// Records a faulty judgement and runs diagnosis.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn record_faulty(&mut self, node: NodeId) {
        let i = node.index();
        self.counters[i] += self.params.faulty_increment();
        self.refresh_cache(i);
        if let Some(th) = self.isolation_threshold {
            if self.cached_ti[i] < th {
                let remaining = self
                    .reintegration
                    .map_or(u64::MAX, |p| p.quarantine_rounds);
                self.status[i] = NodeStatus::Quarantined { remaining };
                self.sync_weight(i);
            }
        }
    }

    /// Advances the quarantine/probation schedule by one decision round
    /// and returns the nodes that completed probation this round — the
    /// fully reintegrated ones (the `quarantine.reintegrated` trace
    /// counter in the chaos experiment counts these).
    ///
    /// Quarantined nodes whose sentence expires re-enter on probation
    /// with their fault counter reset so their TI equals the isolation
    /// threshold: trusted just enough to vote, one relapse from
    /// re-quarantine. A no-op without a reintegration policy.
    pub fn tick_round(&mut self) -> Vec<NodeId> {
        let Some(policy) = self.reintegration else {
            return Vec::new();
        };
        let mut reintegrated = Vec::new();
        for i in 0..self.status.len() {
            match self.status[i] {
                NodeStatus::Active => {}
                NodeStatus::Quarantined { remaining } => {
                    if remaining <= 1 {
                        // Probationary trust: TI = threshold, i.e.
                        // v = −ln(threshold)/λ.
                        if let Some(th) = self.isolation_threshold {
                            self.counters[i] = -th.ln() / self.params.lambda;
                            self.refresh_cache(i);
                        }
                        self.status[i] = NodeStatus::Probation {
                            remaining: policy.probation_rounds,
                        };
                        self.sync_weight(i);
                    } else {
                        self.status[i] = NodeStatus::Quarantined {
                            remaining: remaining - 1,
                        };
                    }
                }
                NodeStatus::Probation { remaining } => {
                    if remaining <= 1 {
                        self.status[i] = NodeStatus::Active;
                        reintegrated.push(NodeId(i));
                    } else {
                        self.status[i] = NodeStatus::Probation {
                            remaining: remaining - 1,
                        };
                    }
                }
            }
        }
        reintegrated
    }

    /// Records a correct judgement.
    ///
    /// An isolated node stays isolated (re-admission is not part of the
    /// paper's protocol), but its counter still improves.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn record_correct(&mut self, node: NodeId) {
        let i = node.index();
        // A node already at the v = 0 floor stays there — no counter
        // change, no cache refresh, no exp(). In an honest-majority
        // cluster this is the common case, and it is what makes a vote
        // cost O(actually-moved counters) exponentials instead of
        // O(nodes).
        let before = self.counters[i];
        self.counters[i] = (before - self.params.correct_decrement()).max(0.0);
        if self.counters[i] != before {
            self.refresh_cache(i);
        }
    }

    /// Applies a batch of judgements from a decision round.
    pub fn apply_judgements(&mut self, judgements: &[(NodeId, Judgement)]) {
        for &(node, j) in judgements {
            match j {
                Judgement::Correct => self.record_correct(node),
                Judgement::Faulty => self.record_faulty(node),
            }
        }
    }

    /// Replaces a node's trust state (used when a new cluster head receives
    /// the table from the base station, or in tests).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range or `counter` is negative/non-finite.
    pub fn set_counter(&mut self, node: NodeId, counter: f64) {
        assert!(
            counter.is_finite() && counter >= 0.0,
            "counter must be non-negative and finite"
        );
        let i = node.index();
        self.counters[i] = counter;
        self.refresh_cache(i);
    }

    /// Resynchronizes one node's trust from an exported TI value — the
    /// receiving side of a [`TrustTable::export`] handoff after the
    /// working table was lost.
    ///
    /// The restored trust never exceeds the snapshot: trust is earned
    /// back, not granted by recovery. A positive TI is inverted through
    /// `ln()` (accurate to a ~1e-12 round-trip). A TI of `0.0` — an
    /// `exp()` underflow, reachable once `λ·v` passes ~745 — restores a
    /// counter whose TI underflows too. A *negative* TI is outside the
    /// export domain and defensively restores full trust.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range or `ti` is not finite.
    pub fn resync_to_ti(&mut self, node: NodeId, ti: f64) {
        assert!(ti.is_finite(), "handoff TI must be finite");
        let v = if ti > 0.0 {
            -ti.ln() / self.params.lambda
        } else if ti == 0.0 {
            // Capped so the counter stays finite.
            (UNDERFLOW_EXPONENT / self.params.lambda).min(f64::MAX)
        } else {
            0.0
        };
        self.set_counter(node, v.max(0.0));
    }

    /// Exports `(node, TI)` pairs — the payload of the base-station
    /// hand-off when leadership rotates.
    #[must_use]
    pub fn export(&self) -> Vec<(NodeId, f64)> {
        self.ti_reads
            .set(self.ti_reads.get() + self.counters.len() as u64);
        (0..self.counters.len())
            .map(|i| (NodeId(i), self.cached_ti[i]))
            .collect()
    }

    /// Extracts one node's full trust state for hand-off to another
    /// cluster head. Unlike [`TrustTable::export`], the record carries
    /// the raw fault counter (lossless — TI would round-trip through a
    /// logarithm) and the diagnosis state, so a quarantined node cannot
    /// launder its sentence by drifting across a cluster border.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn extract(&self, node: NodeId) -> TrustRecord {
        TrustRecord {
            counter: self.counters[node.index()],
            status: self.status[node.index()],
        }
    }

    /// Removes the nodes `keep` rejects, renumbering the survivors
    /// densely in their old order — the sending side of a re-election,
    /// done in place. `keep` sees every id once, in ascending order.
    ///
    /// The result is exactly the table `TrustTable::new(params, kept)`
    /// followed by [`TrustTable::install`] of each survivor's
    /// [`TrustTable::extract`]ed record would build: the same counters,
    /// cached TIs, weights and statuses, `exp_evals` equal to the new
    /// length (one paid exponential per install), `ti_reads` zero, and
    /// no isolation threshold or reintegration policy. Survivors keep
    /// their cached TI rather than recomputing it — the write-through
    /// cache already holds exactly what a fresh install would compute —
    /// and the buffers keep their capacity.
    ///
    /// # Panics
    ///
    /// Panics if `keep` rejects every node (a table is never empty).
    pub fn retain_nodes(&mut self, mut keep: impl FnMut(NodeId) -> bool) {
        let mut kept = 0;
        for i in 0..self.counters.len() {
            if !keep(NodeId(i)) {
                continue;
            }
            self.counters[kept] = self.counters[i];
            self.cached_ti[kept] = self.cached_ti[i];
            self.status[kept] = self.status[i];
            self.weights[kept] = self.weights[i];
            kept += 1;
        }
        assert!(kept > 0, "trust table needs at least one node");
        self.counters.truncate(kept);
        self.cached_ti.truncate(kept);
        self.status.truncate(kept);
        self.weights.truncate(kept);
        self.reset_as_installed();
    }

    /// Inserts a hand-off record as node `at`, shifting every later id
    /// up by one — the receiving side of a re-election, done in place.
    ///
    /// The result is exactly the table `TrustTable::new(params, len + 1)`
    /// followed by [`TrustTable::install`] of every record in the new
    /// order would build (see [`TrustTable::retain_nodes`] for what that
    /// covers); only the arrival pays an exponential. Every buffer grows
    /// by exactly one slot when full, never by doubling.
    ///
    /// # Panics
    ///
    /// Panics if `at > len` or the record's counter is negative or
    /// non-finite.
    pub fn insert_node(&mut self, at: usize, record: TrustRecord) {
        assert!(at <= self.counters.len(), "insert position out of range");
        self.counters.reserve_exact(1);
        self.counters.insert(at, 0.0);
        self.cached_ti.reserve_exact(1);
        self.cached_ti.insert(at, 1.0);
        self.status.reserve_exact(1);
        self.status.insert(at, NodeStatus::Active);
        self.weights.reserve_exact(1);
        self.weights.insert(at, 1.0);
        self.install(NodeId(at), record);
        self.reset_as_installed();
    }

    /// The bookkeeping a freshly built table holds after one
    /// [`TrustTable::install`] per node: one paid exponential each, no
    /// reads, diagnosis disabled.
    fn reset_as_installed(&mut self) {
        self.exp_evals = self.counters.len() as u64;
        self.ti_reads.set(0);
        self.isolation_threshold = None;
        self.reintegration = None;
    }

    /// Installs a hand-off record under a (possibly different) local id —
    /// the receiving side of [`TrustTable::extract`].
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range or the record's counter is
    /// negative/non-finite.
    pub fn install(&mut self, node: NodeId, record: TrustRecord) {
        assert!(
            record.counter.is_finite() && record.counter >= 0.0,
            "hand-off counter must be non-negative and finite"
        );
        let i = node.index();
        self.counters[i] = record.counter;
        self.refresh_cache(i);
        self.status[i] = record.status;
        self.sync_weight(i);
    }
}

/// Why a [`TrustTableState`] was rejected by [`TrustTable::from_state`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrustStateError {
    /// The per-node vectors are empty or of different lengths.
    LengthMismatch,
    /// `lambda`/`fault_rate` fail [`TrustParams::try_new`].
    BadParams,
    /// A fault counter is negative or non-finite.
    BadCounter,
    /// A cached TI does not equal `e^(−λ·v)` recomputed from its own
    /// counter — the write-through invariant every healthy table holds.
    CacheMismatch,
    /// The isolation threshold is outside `(0, 1)`.
    BadThreshold,
    /// A reintegration duration is zero.
    BadReintegration,
}

impl TrustStateError {
    /// A static description (handy for mapping into other error types).
    #[must_use]
    pub fn message(&self) -> &'static str {
        match self {
            TrustStateError::LengthMismatch => "trust state vectors empty or mismatched",
            TrustStateError::BadParams => "trust state carries invalid calibration params",
            TrustStateError::BadCounter => "trust state fault counter negative or non-finite",
            TrustStateError::CacheMismatch => "cached trust index disagrees with its counter",
            TrustStateError::BadThreshold => "isolation threshold outside (0, 1)",
            TrustStateError::BadReintegration => "reintegration durations must be positive",
        }
    }
}

impl fmt::Display for TrustStateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.message())
    }
}

impl std::error::Error for TrustStateError {}

/// The complete, lossless state of a [`TrustTable`] — the checkpoint
/// payload. Unlike [`TrustTable::export`] (TI only) or per-node
/// [`TrustRecord`]s (installed through the cache-refreshing hand-off
/// path), restoring from this struct reproduces the table bit-for-bit:
/// raw counters, the cached TI values verbatim, diagnosis state, and
/// both bookkeeping counters (`exp_evals`, `ti_reads`), so a restored
/// run pays exponentials exactly where the uninterrupted run would.
#[derive(Debug, Clone, PartialEq)]
pub struct TrustTableState {
    /// Decay constant λ.
    pub lambda: f64,
    /// Natural error rate `f_r`.
    pub fault_rate: f64,
    /// Raw fault counter `v` per node.
    pub counters: Vec<f64>,
    /// Cached `e^(−λ·v)` per node, captured verbatim.
    pub cached_ti: Vec<f64>,
    /// Diagnosis state per node.
    pub status: Vec<NodeStatus>,
    /// Diagnosis threshold, if enabled.
    pub isolation_threshold: Option<f64>,
    /// `(quarantine_rounds, probation_rounds)`, if recovery is enabled.
    pub reintegration: Option<(u64, u64)>,
    /// `exp()` evaluations paid so far.
    pub exp_evals: u64,
    /// Cached trust-index reads served so far.
    pub ti_reads: u64,
}

/// A [`TrustTableState`] read in place: the same fields, borrowing the
/// table's per-node columns instead of copying them — what a checkpoint
/// encoder writes from.
#[derive(Debug, Clone, Copy)]
pub struct TrustTableStateRef<'a> {
    /// Raw fault counter `v` per node.
    pub counters: &'a [f64],
    /// Cached `e^(−λ·v)` per node.
    pub cached_ti: &'a [f64],
    /// Diagnosis state per node.
    pub status: &'a [NodeStatus],
    /// Diagnosis threshold, if enabled.
    pub isolation_threshold: Option<f64>,
    /// `(quarantine_rounds, probation_rounds)`, if recovery is enabled.
    pub reintegration: Option<(u64, u64)>,
    /// `exp()` evaluations paid so far.
    pub exp_evals: u64,
    /// Cached trust-index reads served so far.
    pub ti_reads: u64,
}

impl TrustTable {
    /// Captures the table's complete state for a checkpoint.
    #[must_use]
    pub fn export_state(&self) -> TrustTableState {
        let r = self.state_ref();
        TrustTableState {
            lambda: self.params.lambda,
            fault_rate: self.params.fault_rate,
            counters: r.counters.to_vec(),
            cached_ti: r.cached_ti.to_vec(),
            status: r.status.to_vec(),
            isolation_threshold: r.isolation_threshold,
            reintegration: r.reintegration,
            exp_evals: r.exp_evals,
            ti_reads: r.ti_reads,
        }
    }

    /// The table's complete state, read in place (λ and `f_r` are in
    /// [`Self::params`]).
    #[must_use]
    pub fn state_ref(&self) -> TrustTableStateRef<'_> {
        TrustTableStateRef {
            counters: &self.counters,
            cached_ti: &self.cached_ti,
            status: &self.status,
            isolation_threshold: self.isolation_threshold,
            reintegration: self
                .reintegration
                .map(|p| (p.quarantine_rounds, p.probation_rounds)),
            exp_evals: self.exp_evals,
            ti_reads: self.ti_reads.get(),
        }
    }

    /// Rebuilds a table from checkpointed state, bit-for-bit, moving
    /// the state's per-node vectors in.
    ///
    /// Cached TI values are restored verbatim (after verifying each one
    /// against recomputation from its counter), *not* recomputed through
    /// [`TrustTable::install`]/[`TrustTable::set_counter`] — those paths
    /// bump `exp_evals`, and a restored table must report the same
    /// eval counts the original would. A zero counter (every node that
    /// has never been judged faulty) is checked against 1.0, which is
    /// exactly `e^(−0)`, without calling `exp`.
    ///
    /// # Errors
    ///
    /// A [`TrustStateError`] naming the first invariant the state
    /// violates; corrupt blobs are rejected here rather than producing a
    /// subtly wrong table.
    pub fn from_state(state: TrustTableState) -> Result<Self, TrustStateError> {
        let n = state.counters.len();
        if n == 0 || state.cached_ti.len() != n || state.status.len() != n {
            return Err(TrustStateError::LengthMismatch);
        }
        let params = TrustParams::try_new(state.lambda, state.fault_rate)
            .map_err(|_| TrustStateError::BadParams)?;
        if let Some(th) = state.isolation_threshold {
            if !(th > 0.0 && th < 1.0) {
                return Err(TrustStateError::BadThreshold);
            }
        }
        if let Some((q, p)) = state.reintegration {
            if q == 0 || p == 0 {
                return Err(TrustStateError::BadReintegration);
            }
        }
        for (&v, &cached) in state.counters.iter().zip(&state.cached_ti) {
            if !(v.is_finite() && v >= 0.0) {
                return Err(TrustStateError::BadCounter);
            }
            let ti = if v == 0.0 { 1.0 } else { (-params.lambda * v).exp() };
            if cached.to_bits() != ti.to_bits() {
                return Err(TrustStateError::CacheMismatch);
            }
        }
        // The weight slots are derived state (cached TI gated by status),
        // not part of the snapshot format — rebuilding them here keeps the
        // container layout byte-compatible with pre-SoA checkpoints.
        let weights: Vec<f64> = state
            .status
            .iter()
            .zip(&state.cached_ti)
            .map(|(s, &ti)| {
                if matches!(s, NodeStatus::Quarantined { .. }) {
                    QUARANTINE_WEIGHT
                } else {
                    ti
                }
            })
            .collect();
        Ok(TrustTable {
            params,
            counters: state.counters,
            cached_ti: state.cached_ti,
            weights,
            status: state.status,
            isolation_threshold: state.isolation_threshold,
            reintegration: state.reintegration.map(|(quarantine_rounds, probation_rounds)| {
                ReintegrationPolicy {
                    quarantine_rounds,
                    probation_rounds,
                }
            }),
            exp_evals: state.exp_evals,
            ti_reads: Cell::new(state.ti_reads),
        })
    }
}

/// One node's complete trust state, as moved between cluster heads when
/// the node's affiliation changes (mobile networks, §2 of the paper: the
/// base station relays trust state so a node "cannot escape its past" by
/// joining a new cluster).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrustRecord {
    /// The raw fault counter `v` (not the TI — lossless).
    pub counter: f64,
    /// Diagnosis state, including any remaining quarantine or probation
    /// rounds.
    pub status: NodeStatus,
}

impl TrustRecord {
    /// The record of a brand-new node: zero counter, active.
    #[must_use]
    pub fn fresh() -> Self {
        TrustRecord {
            counter: 0.0,
            status: NodeStatus::Active,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> TrustParams {
        TrustParams::new(0.25, 0.1)
    }

    #[test]
    fn fresh_index_is_one() {
        assert_eq!(TrustIndex::new().value(&params()), 1.0);
    }

    #[test]
    fn faulty_report_lowers_ti() {
        let p = params();
        let mut ti = TrustIndex::new();
        ti.record_faulty(&p);
        // v = 0.9, TI = e^(-0.25 * 0.9)
        let expected = (-0.25f64 * 0.9).exp();
        assert!((ti.value(&p) - expected).abs() < 1e-12);
    }

    #[test]
    fn correct_report_cannot_exceed_one() {
        let p = params();
        let mut ti = TrustIndex::new();
        for _ in 0..20 {
            ti.record_correct(&p);
        }
        assert_eq!(ti.value(&p), 1.0);
        assert_eq!(ti.counter(), 0.0);
    }

    #[test]
    fn recovery_is_slower_than_decay() {
        // One faulty report takes (1 - f_r)/f_r = 9 correct reports to undo.
        let p = params();
        let mut ti = TrustIndex::new();
        ti.record_faulty(&p);
        let mut steps = 0;
        while ti.value(&p) < 1.0 - 1e-12 {
            ti.record_correct(&p);
            steps += 1;
            assert!(steps < 100, "never recovered");
        }
        assert_eq!(steps, 9);
    }

    #[test]
    fn expected_drift_at_natural_error_rate_is_zero() {
        // E[Δv] = f_r·(1−f_r) − (1−f_r)·f_r = 0: a node erring exactly at
        // the natural rate keeps its trust in expectation.
        let p = params();
        let fr = p.fault_rate;
        let drift = fr * p.faulty_increment() - (1.0 - fr) * p.correct_decrement();
        assert!(drift.abs() < 1e-12);
    }

    #[test]
    fn ti_formula_matches_paper() {
        // After k faulty reports with no recovery, v = k(1−f_r) and
        // TI = e^(−λk(1−f_r)). With f_r → 0 this is the paper's e^(−kλ).
        let p = TrustParams::new(0.25, 0.0);
        let mut ti = TrustIndex::new();
        for _ in 0..4 {
            ti.record_faulty(&p);
        }
        assert!((ti.value(&p) - (-4.0f64 * 0.25).exp()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "lambda must be positive")]
    fn rejects_nonpositive_lambda() {
        let _ = TrustParams::new(0.0, 0.1);
    }

    #[test]
    #[should_panic(expected = "fault_rate must be in")]
    fn rejects_fault_rate_of_one() {
        let _ = TrustParams::new(0.1, 1.0);
    }

    #[test]
    fn table_cumulative_trust_sums_members() {
        let mut t = TrustTable::new(params(), 4);
        t.record_faulty(NodeId(0));
        let group = vec![NodeId(0), NodeId(1)];
        let expected = t.trust_of(NodeId(0)) + 1.0;
        assert!((t.cumulative_trust(&group) - expected).abs() < 1e-12);
    }

    #[test]
    fn isolation_triggers_below_threshold() {
        let mut t = TrustTable::new(params(), 2).with_isolation_threshold(0.5);
        // Drive node 0's TI below 0.5: e^(-0.25 v) < 0.5 → v > 2.77 → 4
        // faulty reports (v = 3.6).
        for _ in 0..4 {
            t.record_faulty(NodeId(0));
        }
        assert!(t.is_isolated(NodeId(0)));
        assert!(!t.is_isolated(NodeId(1)));
        assert_eq!(t.isolated_nodes(), vec![NodeId(0)]);
    }

    #[test]
    fn isolated_node_contributes_zero_cti() {
        let mut t = TrustTable::new(params(), 2).with_isolation_threshold(0.9);
        t.record_faulty(NodeId(0));
        assert!(t.is_isolated(NodeId(0)));
        assert_eq!(t.cumulative_trust(&[NodeId(0)]), 0.0);
        // An all-quarantined group, like an empty one, keeps the -0.0
        // seed: the sentinel bits survive the fold.
        assert!(is_quarantined_weight(t.cumulative_trust(&[NodeId(0)])));
        assert!(is_quarantined_weight(t.cumulative_trust(&[])));
    }

    #[test]
    fn no_isolation_without_threshold() {
        let mut t = TrustTable::new(params(), 1);
        for _ in 0..100 {
            t.record_faulty(NodeId(0));
        }
        assert!(!t.is_isolated(NodeId(0)));
    }

    #[test]
    fn apply_judgements_batch() {
        use Judgement::*;
        let mut t = TrustTable::new(params(), 3);
        t.apply_judgements(&[(NodeId(0), Faulty), (NodeId(1), Correct), (NodeId(2), Faulty)]);
        assert!(t.trust_of(NodeId(0)) < 1.0);
        assert_eq!(t.trust_of(NodeId(1)), 1.0);
        assert!(t.trust_of(NodeId(2)) < 1.0);
    }

    #[test]
    fn export_round_trips_via_set_counter() {
        let mut a = TrustTable::new(params(), 3);
        a.record_faulty(NodeId(1));
        a.record_faulty(NodeId(1));
        let mut b = TrustTable::new(params(), 3);
        for i in 0..3 {
            b.set_counter(NodeId(i), a.counter_of(NodeId(i)));
        }
        for (id, ti) in a.export() {
            assert!((b.trust_of(id) - ti).abs() < 1e-12);
        }
    }

    #[test]
    fn try_new_rejects_nan_and_out_of_range() {
        assert!(matches!(
            TrustParams::try_new(f64::NAN, 0.1).unwrap_err(),
            TrustParamsError::InvalidLambda(x) if x.is_nan()
        ));
        assert_eq!(
            TrustParams::try_new(f64::INFINITY, 0.1).unwrap_err(),
            TrustParamsError::InvalidLambda(f64::INFINITY)
        );
        assert!(matches!(
            TrustParams::try_new(0.25, f64::NAN).unwrap_err(),
            TrustParamsError::InvalidFaultRate(_)
        ));
        assert_eq!(
            TrustParams::try_new(0.25, -0.1).unwrap_err(),
            TrustParamsError::InvalidFaultRate(-0.1)
        );
        assert!(TrustParams::try_new(0.25, 0.1).is_ok());
        assert!(TrustParamsError::InvalidLambda(0.0)
            .to_string()
            .contains("lambda must be positive"));
    }

    #[test]
    fn quarantine_is_permanent_without_policy() {
        let mut t = TrustTable::new(params(), 2).with_isolation_threshold(0.5);
        for _ in 0..4 {
            t.record_faulty(NodeId(0));
        }
        assert!(t.is_isolated(NodeId(0)));
        for _ in 0..100 {
            assert!(t.tick_round().is_empty());
        }
        assert!(t.is_isolated(NodeId(0)));
    }

    #[test]
    fn quarantine_then_probation_then_reintegration() {
        let mut t = TrustTable::new(params(), 2)
            .with_isolation_threshold(0.5)
            .with_reintegration(3, 2);
        for _ in 0..4 {
            t.record_faulty(NodeId(0));
        }
        assert!(t.is_isolated(NodeId(0)));
        // Serve the 3-round quarantine.
        assert!(t.tick_round().is_empty());
        assert!(t.tick_round().is_empty());
        assert!(t.is_isolated(NodeId(0)));
        assert!(t.tick_round().is_empty());
        // Now probationary: votes again at threshold trust.
        assert!(!t.is_isolated(NodeId(0)));
        assert!(matches!(
            t.status_of(NodeId(0)),
            NodeStatus::Probation { remaining: 2 }
        ));
        assert!((t.trust_of(NodeId(0)) - 0.5).abs() < 1e-12);
        // Behaves for 2 rounds → fully reintegrated.
        assert!(t.tick_round().is_empty());
        assert_eq!(t.tick_round(), vec![NodeId(0)]);
        assert_eq!(t.status_of(NodeId(0)), NodeStatus::Active);
        // Node 1 was never touched.
        assert_eq!(t.status_of(NodeId(1)), NodeStatus::Active);
    }

    #[test]
    fn probation_relapse_restarts_quarantine() {
        let mut t = TrustTable::new(params(), 1)
            .with_isolation_threshold(0.5)
            .with_reintegration(2, 5);
        for _ in 0..4 {
            t.record_faulty(NodeId(0));
        }
        t.tick_round();
        t.tick_round();
        assert!(matches!(t.status_of(NodeId(0)), NodeStatus::Probation { .. }));
        // One more lie at threshold trust → straight back to quarantine.
        t.record_faulty(NodeId(0));
        assert!(matches!(
            t.status_of(NodeId(0)),
            NodeStatus::Quarantined { remaining: 2 }
        ));
    }

    #[test]
    fn probationary_node_counts_toward_cti() {
        let mut t = TrustTable::new(params(), 1)
            .with_isolation_threshold(0.5)
            .with_reintegration(1, 3);
        for _ in 0..4 {
            t.record_faulty(NodeId(0));
        }
        assert_eq!(t.cumulative_trust(&[NodeId(0)]), 0.0);
        t.tick_round();
        assert!((t.cumulative_trust(&[NodeId(0)]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn extract_install_round_trips_counter_and_status() {
        let mut a = TrustTable::new(params(), 3)
            .with_isolation_threshold(0.5)
            .with_reintegration(3, 2);
        for _ in 0..4 {
            a.record_faulty(NodeId(1)); // quarantined, 3 rounds left
        }
        a.record_faulty(NodeId(2)); // degraded but active
        let mut b = TrustTable::new(params(), 5)
            .with_isolation_threshold(0.5)
            .with_reintegration(3, 2);
        // Node moves: global node 1 becomes local node 4 in cluster b.
        b.install(NodeId(4), a.extract(NodeId(1)));
        b.install(NodeId(0), a.extract(NodeId(2)));
        assert_eq!(b.counter_of(NodeId(4)), a.counter_of(NodeId(1)));
        assert_eq!(b.status_of(NodeId(4)), a.status_of(NodeId(1)));
        assert!(b.is_isolated(NodeId(4)), "quarantine survives the hand-off");
        assert_eq!(b.counter_of(NodeId(0)), a.counter_of(NodeId(2)));
        assert!(!b.is_isolated(NodeId(0)));
    }

    #[test]
    fn handoff_preserves_remaining_sentence() {
        let mut a = TrustTable::new(params(), 1)
            .with_isolation_threshold(0.5)
            .with_reintegration(5, 2);
        for _ in 0..4 {
            a.record_faulty(NodeId(0));
        }
        a.tick_round();
        a.tick_round(); // 3 rounds of quarantine left
        let rec = a.extract(NodeId(0));
        assert_eq!(rec.status, NodeStatus::Quarantined { remaining: 3 });
        let mut b = TrustTable::new(params(), 1)
            .with_isolation_threshold(0.5)
            .with_reintegration(5, 2);
        b.install(NodeId(0), rec);
        // The node serves exactly the remaining 3 rounds, then probation.
        b.tick_round();
        b.tick_round();
        assert!(b.is_isolated(NodeId(0)));
        b.tick_round();
        assert!(matches!(b.status_of(NodeId(0)), NodeStatus::Probation { remaining: 2 }));
    }

    #[test]
    fn fresh_record_is_full_trust() {
        let rec = TrustRecord::fresh();
        let mut t = TrustTable::new(params(), 1);
        t.record_faulty(NodeId(0));
        t.install(NodeId(0), rec);
        assert_eq!(t.trust_of(NodeId(0)), 1.0);
        assert_eq!(t.status_of(NodeId(0)), NodeStatus::Active);
    }

    #[test]
    #[should_panic(expected = "hand-off counter")]
    fn install_rejects_negative_counter() {
        let mut t = TrustTable::new(params(), 1);
        t.install(
            NodeId(0),
            TrustRecord {
                counter: -1.0,
                status: NodeStatus::Active,
            },
        );
    }

    #[test]
    fn cached_ti_matches_recomputation_bitwise() {
        let p = params();
        let mut t = TrustTable::new(p, 4);
        for step in 0..200 {
            let node = NodeId(step % 4);
            if step % 3 == 0 {
                t.record_correct(node);
            } else {
                t.record_faulty(node);
            }
            for i in 0..4 {
                let direct = (-p.lambda * t.counter_of(NodeId(i))).exp();
                assert_eq!(t.trust_of(NodeId(i)).to_bits(), direct.to_bits());
            }
        }
    }

    #[test]
    fn reads_cost_no_exp_evaluations() {
        let mut t = TrustTable::new(params(), 8);
        t.record_faulty(NodeId(0));
        let evals = t.exp_evals();
        let _ = t.trust_of(NodeId(0));
        let _ = t.cumulative_trust(&[NodeId(0), NodeId(1), NodeId(2)]);
        let _ = t.export();
        assert_eq!(t.exp_evals(), evals, "reads must be served from the cache");
    }

    #[test]
    fn ti_reads_count_every_cached_weight_access() {
        let t = TrustTable::new(params(), 8);
        assert_eq!(t.ti_reads(), 0);
        let _ = t.trust_of(NodeId(3));
        assert_eq!(t.ti_reads(), 1);
        let _ = t.cumulative_trust(&[NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(t.ti_reads(), 4);
        let _ = t.export();
        assert_eq!(t.ti_reads(), 12, "export reads every entry");
        // Isolated nodes are skipped before the weight read, exactly as
        // the uncached sum skipped their exponential.
        let mut t = TrustTable::new(TrustParams::new(2.0, 0.0), 2)
            .with_isolation_threshold(0.5);
        t.record_faulty(NodeId(0));
        let before = t.ti_reads();
        let _ = t.cumulative_trust(&[NodeId(0), NodeId(1)]);
        assert_eq!(t.ti_reads(), before + 1, "only the active node is read");
    }

    #[test]
    fn floored_correct_report_skips_the_cache_refresh() {
        let mut t = TrustTable::new(params(), 2);
        assert_eq!(t.exp_evals(), 0, "fresh tables pay no exp()");
        // Node 1 sits at the v = 0 floor: judging it correct changes
        // nothing and must not pay an exponential.
        for _ in 0..50 {
            t.record_correct(NodeId(1));
        }
        assert_eq!(t.exp_evals(), 0);
        // A faulty judgement moves the counter: exactly one refresh.
        t.record_faulty(NodeId(0));
        assert_eq!(t.exp_evals(), 1);
        // Recovering off the floor refreshes until the floor is reached.
        t.record_correct(NodeId(0));
        assert_eq!(t.exp_evals(), 2);
    }

    #[test]
    fn install_and_set_counter_refresh_the_cache() {
        let mut t = TrustTable::new(params(), 2);
        t.set_counter(NodeId(0), 2.0);
        assert!((t.trust_of(NodeId(0)) - (-0.25f64 * 2.0).exp()).abs() < 1e-15);
        t.install(
            NodeId(1),
            TrustRecord {
                counter: 4.0,
                status: NodeStatus::Active,
            },
        );
        assert!((t.trust_of(NodeId(1)) - (-0.25f64 * 4.0).exp()).abs() < 1e-15);
    }

    #[test]
    fn export_state_from_state_is_bit_lossless() {
        let mut t = TrustTable::new(params(), 4)
            .with_isolation_threshold(0.5)
            .with_reintegration(3, 2);
        for _ in 0..4 {
            t.record_faulty(NodeId(1));
        }
        t.record_faulty(NodeId(2));
        t.record_correct(NodeId(2));
        t.tick_round();
        let _ = t.trust_of(NodeId(0));
        let _ = t.cumulative_trust(&[NodeId(0), NodeId(2)]);

        let state = t.export_state();
        let r = TrustTable::from_state(state.clone()).unwrap();
        assert_eq!(r.exp_evals(), t.exp_evals());
        assert_eq!(r.ti_reads(), t.ti_reads());
        for i in 0..4 {
            assert_eq!(r.counter_of(NodeId(i)).to_bits(), t.counter_of(NodeId(i)).to_bits());
            assert_eq!(r.status_of(NodeId(i)), t.status_of(NodeId(i)));
        }
        // Re-export must reproduce the state exactly — save→restore→save
        // is a fixed point.
        assert_eq!(r.export_state(), state);

        // And the restored table evolves identically, including *when*
        // it pays exponentials.
        let mut a = t.clone();
        let mut b = r;
        for step in 0..20 {
            let node = NodeId(step % 4);
            if step % 3 == 0 {
                a.record_correct(node);
                b.record_correct(node);
            } else {
                a.record_faulty(node);
                b.record_faulty(node);
            }
            a.tick_round();
            b.tick_round();
        }
        assert_eq!(a.exp_evals(), b.exp_evals());
        for i in 0..4 {
            assert_eq!(a.trust_of(NodeId(i)).to_bits(), b.trust_of(NodeId(i)).to_bits());
        }
    }

    #[test]
    fn from_state_rejects_corrupt_states() {
        let t = TrustTable::new(params(), 2);
        let good = t.export_state();
        assert!(TrustTable::from_state(good.clone()).is_ok());

        let mut s = good.clone();
        s.cached_ti.pop();
        assert_eq!(TrustTable::from_state(s).unwrap_err(), TrustStateError::LengthMismatch);

        let mut s = good.clone();
        s.counters.clear();
        s.cached_ti.clear();
        s.status.clear();
        assert_eq!(TrustTable::from_state(s).unwrap_err(), TrustStateError::LengthMismatch);

        let mut s = good.clone();
        s.lambda = -1.0;
        assert_eq!(TrustTable::from_state(s).unwrap_err(), TrustStateError::BadParams);

        let mut s = good.clone();
        s.counters[0] = f64::NAN;
        assert_eq!(TrustTable::from_state(s).unwrap_err(), TrustStateError::BadCounter);

        let mut s = good.clone();
        s.cached_ti[1] = 0.75;
        assert_eq!(TrustTable::from_state(s).unwrap_err(), TrustStateError::CacheMismatch);

        let mut s = good.clone();
        s.isolation_threshold = Some(1.5);
        assert_eq!(TrustTable::from_state(s).unwrap_err(), TrustStateError::BadThreshold);

        let mut s = good.clone();
        s.reintegration = Some((0, 2));
        assert_eq!(
            TrustTable::from_state(s).unwrap_err(),
            TrustStateError::BadReintegration
        );
        assert!(!TrustStateError::BadReintegration.to_string().is_empty());
    }

    #[test]
    fn from_state_checks_a_repeated_counter_exactly() {
        // Counters repeat (every fresh node sits at 0, which skips the
        // `exp`, and judgements move counters in equal steps): a cached
        // TI one ulp off must still be caught on a node whose counter an
        // earlier node already had, and on the earlier one.
        let mut t = TrustTable::new(params(), 6);
        for node in [1, 4] {
            t.record_faulty(NodeId(node));
            t.record_faulty(NodeId(node));
        }
        t.record_faulty(NodeId(2));
        let good = t.export_state();
        assert_eq!(good.counters[1].to_bits(), good.counters[4].to_bits());
        assert_eq!(good.counters[0].to_bits(), good.counters[5].to_bits());
        assert!(TrustTable::from_state(good.clone()).is_ok());
        let ulps = |x: f64, by: i64| f64::from_bits(x.to_bits().wrapping_add_signed(by));
        for (node, by) in [(4, 1), (4, -1), (1, 1), (5, -1), (0, 1)] {
            let mut s = good.clone();
            s.cached_ti[node] = ulps(s.cached_ti[node], by);
            assert_eq!(
                TrustTable::from_state(s).unwrap_err(),
                TrustStateError::CacheMismatch,
                "node {node}"
            );
        }
    }

    /// The pre-SoA reference: filter isolated members, then left-fold the
    /// cached TIs in group order. The dense-weights fast path must match
    /// this bitwise on any table state.
    fn reference_cti(t: &TrustTable, group: &[NodeId]) -> f64 {
        group
            .iter()
            .filter(|n| !t.is_isolated(**n))
            .map(|n| {
                let before = t.ti_reads();
                let ti = t.trust_of(*n);
                t.ti_reads.set(before); // undo the probe's read
                ti
            })
            .sum()
    }

    #[test]
    fn dense_cti_matches_filtered_reference_bitwise() {
        let mut t = TrustTable::new(params(), 16)
            .with_isolation_threshold(0.5)
            .with_reintegration(2, 3);
        let group: Vec<NodeId> = (0..16).map(NodeId).collect();
        let mut step = 0u64;
        for round in 0..60 {
            for i in 0..16usize {
                step += 1;
                match (step + round) % 5 {
                    0 | 1 => t.record_faulty(NodeId(i)),
                    _ => t.record_correct(NodeId(i)),
                }
            }
            t.tick_round();
            // Odd lengths exercise the chunk remainder; length 0 pins
            // the -0.0 empty-sum seed.
            for len in [0usize, 1, 3, 4, 7, 11, 16] {
                let g = &group[..len];
                assert_eq!(
                    t.cumulative_trust(g).to_bits(),
                    reference_cti(&t, g).to_bits(),
                    "round {round} len {len}"
                );
            }
        }
    }

    #[test]
    fn underflowed_ti_still_counts_as_a_read() {
        // λ·v > ~745 underflows e^(−λ·v) to +0.0. The node is still
        // active, so the old filtered sum read (and counted) it; the
        // sign-bit read counter must agree — +0.0 is sign-positive,
        // only quarantine's -0.0 is not.
        let mut t = TrustTable::new(TrustParams::new(1.0, 0.0), 2);
        t.set_counter(NodeId(0), 5000.0);
        assert_eq!(t.trust_of(NodeId(0)), 0.0);
        let before = t.ti_reads();
        let cti = t.cumulative_trust(&[NodeId(0), NodeId(1)]);
        assert_eq!(t.ti_reads(), before + 2, "both active nodes are read");
        assert_eq!(cti, 1.0);
    }

    #[test]
    fn weight_slots_track_status_transitions() {
        let mut t = TrustTable::new(params(), 2)
            .with_isolation_threshold(0.5)
            .with_reintegration(1, 1);
        for _ in 0..4 {
            t.record_faulty(NodeId(0));
        }
        // Quarantined: contributes nothing, costs no read.
        let before = t.ti_reads();
        assert_eq!(t.cumulative_trust(&[NodeId(0)]), 0.0);
        assert_eq!(t.ti_reads(), before);
        // Probation: votes again at threshold trust.
        t.tick_round();
        assert!((t.cumulative_trust(&[NodeId(0)]) - 0.5).abs() < 1e-12);
        // Install of a quarantined record zeroes the weight...
        let mut u = TrustTable::new(params(), 2).with_isolation_threshold(0.5);
        u.install(
            NodeId(1),
            TrustRecord {
                counter: 1.0,
                status: NodeStatus::Quarantined { remaining: 7 },
            },
        );
        assert_eq!(u.cumulative_trust(&[NodeId(1)]), 0.0);
        // ...and a restored table rebuilds the same weights.
        let r = TrustTable::from_state(u.export_state()).unwrap();
        assert_eq!(
            r.cumulative_trust(&[NodeId(0), NodeId(1)]).to_bits(),
            u.cumulative_trust(&[NodeId(0), NodeId(1)]).to_bits()
        );
    }

    #[test]
    fn ti_always_in_unit_interval() {
        let p = params();
        let mut ti = TrustIndex::new();
        for i in 0..1000 {
            if i % 3 == 0 {
                ti.record_correct(&p);
            } else {
                ti.record_faulty(&p);
            }
            let v = ti.value(&p);
            assert!(v > 0.0 && v <= 1.0, "TI out of range: {v}");
        }
    }

    #[test]
    fn resync_never_exceeds_the_snapshot() {
        let mut t = TrustTable::new(params(), 4);
        for step in 0..9u64 {
            t.record_faulty(NodeId((step % 4) as usize));
        }
        // Drive node 3 all the way to exp() underflow (TI = +0.0).
        t.set_counter(NodeId(3), 5000.0);
        assert_eq!(t.trust_of(NodeId(3)), 0.0);
        let snapshot = t.export();
        let mut r = TrustTable::new(params(), 4);
        for &(node, ti) in &snapshot {
            r.resync_to_ti(node, ti);
            assert!(
                r.trust_of(node) <= ti,
                "restored {} > snapshot {ti}",
                r.trust_of(node)
            );
        }
        // Full trust round-trips exactly; a wiped-then-resynced node
        // whose snapshot had underflowed stays underflowed.
        let mut fresh = TrustTable::new(params(), 1);
        fresh.resync_to_ti(NodeId(0), 1.0);
        assert_eq!(fresh.trust_of(NodeId(0)), 1.0);
        assert_eq!(r.trust_of(NodeId(3)), 0.0);
    }

    /// A table with history: counters moved, a quarantine served into
    /// probation, reads counted, diagnosis configured.
    fn seasoned_table(params: TrustParams, n: usize, seed: u64) -> TrustTable {
        let mut t = TrustTable::new(params, n)
            .with_isolation_threshold(0.5)
            .with_reintegration(2, 3);
        let mut rng = tibfit_sim::rng::SimRng::seed_from(seed);
        for _ in 0..6 * n {
            let node = NodeId(rng.uniform_usize(n));
            if rng.chance(0.4) {
                t.record_faulty(node);
            } else {
                t.record_correct(node);
            }
            if rng.chance(0.1) {
                t.tick_round();
            }
        }
        let _ = t.trust_of(NodeId(0));
        t
    }

    /// `TrustTable::new(params, records.len())` plus one `install` per
    /// record: what a re-election used to rebuild.
    fn installed(params: TrustParams, records: &[TrustRecord]) -> TrustTable {
        let mut t = TrustTable::new(params, records.len());
        for (i, &r) in records.iter().enumerate() {
            t.install(NodeId(i), r);
        }
        t
    }

    fn assert_same_table(got: &TrustTable, want: &TrustTable, what: &str) {
        assert_eq!(got.export_state(), want.export_state(), "{what}");
        for i in 0..want.len() {
            let node = [NodeId(i)];
            assert_eq!(
                got.cumulative_trust(&node).to_bits(),
                want.cumulative_trust(&node).to_bits(),
                "{what}: weight of node {i}"
            );
        }
    }

    #[test]
    fn in_place_membership_edits_equal_a_fresh_install() {
        let p = params();
        for seed in 0..20u64 {
            let mut rng = tibfit_sim::rng::SimRng::seed_from(seed ^ 0xED17);
            let n = 2 + rng.uniform_usize(14);
            let mut t = seasoned_table(p, n, seed);
            let donor = seasoned_table(p, 4, seed + 100);
            assert!(t.ti_reads() > 0 && t.isolation_threshold.is_some());

            // Departures: drop a random non-empty-leaving subset.
            let keep: Vec<bool> = (0..n).map(|i| i == 0 || rng.chance(0.7)).collect();
            let records: Vec<TrustRecord> = (0..n)
                .filter(|&i| keep[i])
                .map(|i| t.extract(NodeId(i)))
                .collect();
            t.retain_nodes(|id| keep[id.index()]);
            let mut want = installed(p, &records);
            assert_same_table(&t, &want, &format!("seed {seed} retain"));

            // Arrivals: insert donor records at random positions.
            let mut records = records;
            for d in 0..donor.len() {
                let at = rng.uniform_usize(records.len() + 1);
                let record = donor.extract(NodeId(d));
                t.insert_node(at, record);
                records.insert(at, record);
                want = installed(p, &records);
                assert_same_table(&t, &want, &format!("seed {seed} insert {d}"));
            }
        }
    }
}

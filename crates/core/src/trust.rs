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

use crate::fixed;
use crate::simd_kernel::{self, AlignedSlab};

/// One R/NR pair's outcome from [`TrustTable::decide_batch`]: the
/// normalized group weights and the paper's decision rule applied to
/// them (`reporting_weight > non_reporting_weight`; ties declare no
/// event).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchVerdict {
    /// Normalized cumulative trust of the reporting group.
    pub reporting_weight: f64,
    /// Normalized cumulative trust of the non-reporting group.
    pub non_reporting_weight: f64,
    /// Whether the pair declares an event.
    pub event_declared: bool,
}

/// The weight-slot sentinel marking a quarantined node: `-0.0`, whose
/// addition leaves a non-negative IEEE-754 accumulator bit-identical,
/// so branch-free CTI folds skip quarantined members for free. The sign
/// bit doubles as the participation flag — every real TI, even one
/// underflowed to `+0.0`, is sign-positive.
pub const QUARANTINE_WEIGHT: f64 = -0.0;

/// Whether a dense weight slot holds the quarantine sentinel rather
/// than a voting weight. This is the *only* sanctioned way to interpret
/// a weight slot's sign bit; both the SoA fold
/// ([`TrustTable::cumulative_trust`]) and the AoS per-node dispatch
/// (`vote::group_weight`'s ±0.0 normalization) go through it, so the
/// two paths cannot diverge on what "quarantined" looks like.
#[must_use]
pub fn is_quarantined_weight(w: f64) -> bool {
    w.is_sign_negative()
}

/// Which arithmetic backend evaluates the TI update and the
/// cumulative-trust sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrustArith {
    /// IEEE-754 f64 with a write-through `exp()` cache — the reference
    /// backend, bit-reproducible on one machine but dependent on the
    /// platform libm's `exp` across architectures.
    #[default]
    Float64,
    /// Q16.16 integer arithmetic ([`crate::fixed`]): lookup-table
    /// exponential, saturating counters, integer CTI sums. Every value
    /// it produces is an exact Q16.16 multiple mirrored into the f64
    /// surface, so snapshots are bit-portable across architectures.
    /// Selected via [`TrustParams::with_fixed_point`], which validates
    /// that the calibration survives quantization.
    FixedQ16,
}

/// Q16.16 calibration constants, precomputed once per table.
#[derive(Debug, Clone, Copy)]
struct FixedCal {
    lambda_q: i64,
    inc_q: i64,
    dec_q: i64,
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
    /// Arithmetic backend for the TI update and CTI sums. Defaults to
    /// [`TrustArith::Float64`]; select Q16.16 through
    /// [`TrustParams::with_fixed_point`] so the combination is
    /// validated against quantization degeneracies.
    pub arith: TrustArith,
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
        Ok(TrustParams {
            lambda,
            fault_rate,
            arith: TrustArith::Float64,
        })
    }

    /// Fallible constructor for the Q16.16 fixed-point backend: on top
    /// of the [`TrustParams::try_new`] range checks, rejects
    /// calibrations the integer pipeline cannot faithfully represent —
    /// combinations where the TI update would overflow or degenerate in
    /// Q16.16 range.
    ///
    /// # Errors
    ///
    /// [`TrustParamsError::InvalidLambda`] when `lambda` quantizes to
    /// zero (< 2⁻¹⁷), exceeds the Q16.16 integer range (> 32768), or is
    /// so small relative to `1 − f_r` that a faulty report would not
    /// move the quantized exponent at all (the update would be a no-op
    /// and a liar could never lose trust).
    /// [`TrustParamsError::InvalidFaultRate`] when `1 − f_r` quantizes
    /// to zero, or `f_r` is nonzero yet quantizes to zero (recovery
    /// would silently never happen).
    pub fn try_new_fixed(lambda: f64, fault_rate: f64) -> Result<Self, TrustParamsError> {
        let mut p = TrustParams::try_new(lambda, fault_rate)?;
        if lambda > 32768.0 {
            return Err(TrustParamsError::InvalidLambda(lambda));
        }
        let lambda_q = fixed::quantize_round(lambda);
        if lambda_q == 0 {
            return Err(TrustParamsError::InvalidLambda(lambda));
        }
        let inc_q = fixed::quantize_round(1.0 - fault_rate);
        if inc_q == 0 || (fault_rate > 0.0 && fixed::quantize_round(fault_rate) == 0) {
            return Err(TrustParamsError::InvalidFaultRate(fault_rate));
        }
        // One faulty report must move λ·v by at least one Q16.16 ulp,
        // or the trust index would be frozen at 1.0 forever.
        if (lambda_q * inc_q) >> fixed::FRAC_BITS == 0 {
            return Err(TrustParamsError::InvalidLambda(lambda));
        }
        p.arith = TrustArith::FixedQ16;
        Ok(p)
    }

    /// Switches a validated parameter set onto the Q16.16 fixed-point
    /// backend (see [`TrustParams::try_new_fixed`] for the extra
    /// validation this implies).
    ///
    /// # Errors
    ///
    /// The same [`TrustParamsError`] values as
    /// [`TrustParams::try_new_fixed`].
    pub fn with_fixed_point(self) -> Result<Self, TrustParamsError> {
        TrustParams::try_new_fixed(self.lambda, self.fault_rate)
    }

    /// The precomputed Q16.16 calibration, present iff the fixed-point
    /// backend is selected.
    fn fixed_cal(&self) -> Option<FixedCal> {
        (self.arith == TrustArith::FixedQ16).then(|| FixedCal {
            lambda_q: fixed::quantize_round(self.lambda),
            inc_q: fixed::quantize_round(1.0 - self.fault_rate),
            dec_q: fixed::quantize_round(self.fault_rate),
        })
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

    /// The trust index `e^(−λ·v)`, always in `(0, 1]`.
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
    /// `status`. Cache-line aligned so the SIMD batch kernels' gathers
    /// start on a line boundary and two tables never share a hot line.
    weights: AlignedSlab<f64>,
    /// Q16.16 source of truth for the fault counters — populated only
    /// on the fixed-point backend (empty otherwise). `counters` then
    /// holds the exact f64 mirror of each entry, so every read path
    /// (snapshots, exports, votes) works unchanged and bit-portably.
    counters_q: Vec<i64>,
    /// Q16.16 voting-weight slots for the fixed backend: the node's TI
    /// in Q16.16 while it participates, `-1` while quarantined (the
    /// sign bit is the participation flag, mirroring the f64 array's
    /// `-0.0` sentinel). Empty on the f64 backend; cache-line aligned
    /// like `weights`.
    weights_q: AlignedSlab<i64>,
    /// Precomputed Q16.16 calibration; `Some` iff `params.arith` is
    /// [`TrustArith::FixedQ16`].
    fixed: Option<FixedCal>,
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
    /// Panics if `n == 0`, or if `params` selects the fixed-point
    /// backend but was built by hand (public fields) with a calibration
    /// [`TrustParams::try_new_fixed`] rejects.
    #[must_use]
    pub fn new(params: TrustParams, n: usize) -> Self {
        assert!(n > 0, "trust table needs at least one node");
        if params.arith == TrustArith::FixedQ16 {
            assert!(
                TrustParams::try_new_fixed(params.lambda, params.fault_rate).is_ok(),
                "fixed-point params must pass TrustParams::try_new_fixed"
            );
        }
        let fixed = params.fixed_cal();
        let n_q = if fixed.is_some() { n } else { 0 };
        TrustTable {
            params,
            counters: vec![0.0; n],
            // e^(−λ·0) is exactly 1.0, so fresh entries need no exp().
            cached_ti: vec![1.0; n],
            weights: AlignedSlab::filled(n, 1.0),
            counters_q: vec![0; n_q],
            weights_q: if n_q == 0 {
                AlignedSlab::empty()
            } else {
                AlignedSlab::filled(n_q, fixed::ONE_Q16)
            },
            fixed,
            status: vec![NodeStatus::Active; n],
            isolation_threshold: None,
            reintegration: None,
            exp_evals: 0,
            ti_reads: Cell::new(0),
        }
    }

    /// Recomputes one node's cached trust index after its counter moved.
    /// On the fixed backend the Q16.16 counter is authoritative and the
    /// LUT exponential produces the (exactly mirrorable) cached value;
    /// either way the refresh counts as one paid exponential.
    fn refresh_cache(&mut self, i: usize) {
        self.cached_ti[i] = match self.fixed {
            Some(cal) => fixed::q16_to_f64(fixed::ti_q16(cal.lambda_q, self.counters_q[i])),
            None => TrustIndex { v: self.counters[i] }.value(&self.params),
        };
        self.exp_evals += 1;
        self.sync_weight(i);
    }

    /// Re-derives one node's voting-weight slot from its status and
    /// cached TI. Called on every cache refresh and status transition —
    /// the weight array is write-through, never recomputed at read time.
    fn sync_weight(&mut self, i: usize) {
        let quarantined = matches!(self.status[i], NodeStatus::Quarantined { .. });
        self.weights[i] = if quarantined {
            QUARANTINE_WEIGHT
        } else {
            self.cached_ti[i]
        };
        if self.fixed.is_some() {
            // cached_ti is an exact Q16.16 mirror here, so the cast
            // recovers the integer TI losslessly.
            self.weights_q[i] = if quarantined {
                -1
            } else {
                (self.cached_ti[i] * fixed::ONE_Q16 as f64) as i64
            };
        }
    }

    /// Total `exp()` evaluations paid so far. Reads ([`TrustTable::trust_of`],
    /// [`TrustTable::cumulative_trust`], [`TrustTable::export`]) are served
    /// from the cache and cost none; only an actual change to a node's
    /// fault counter triggers one. The perf harness compares this against
    /// the uncached cost of one exponential per weight read.
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
        self.ti_reads.set(self.ti_reads.get() + 1);
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
    /// equals the status-filtered sum exactly. The f64 fold must stay in
    /// group order (float addition does not commute bitwise), but the
    /// weight gathers and the read counting are order-free, so the loop
    /// is chunked to unroll them; reads are counted from the sign bit
    /// (`-0.0` marks quarantine; every real TI, even one underflowed to
    /// `+0.0`, is sign-positive), replicating the old rule that only
    /// non-isolated members cost a read.
    #[must_use]
    pub fn cumulative_trust(&self, group: &[NodeId]) -> f64 {
        if self.fixed.is_some() {
            return self.cumulative_trust_q16(group);
        }
        // The f64 fold is pinned bitwise to the sequential group-order
        // sum, so the single-group path always runs the shared scalar
        // fold — SIMD pays off only across groups (see
        // [`TrustTable::cumulative_trust_batch`]).
        let (sum, reads) = simd_kernel::fold_group_f64(&self.weights, group);
        self.ti_reads.set(self.ti_reads.get() + reads);
        sum
    }

    /// The fixed-point CTI fold: an all-integer, branch-free pass over
    /// the Q16.16 weight slots. The quarantine sentinel is `-1`, so
    /// `!(w >> 63)` is an all-ones mask exactly for participating
    /// members — one AND folds the weight, one more counts the read.
    /// The integer sum is exact (no float rounding, no ordering
    /// sensitivity) — which also means it may run through the vertical
    /// SIMD kernel for large groups with exactly equal results; the
    /// result converts losslessly to f64 and keeps the ±0.0 contract of
    /// the float fold: `-0.0` iff no member participated, `+0.0` for
    /// participating members that sum to zero.
    fn cumulative_trust_q16(&self, group: &[NodeId]) -> f64 {
        let (sum, reads) = simd_kernel::cti_q16_single(&self.weights_q, group);
        self.ti_reads.set(self.ti_reads.get() + reads);
        fixed::cti_sum_to_f64(sum, reads)
    }

    /// Batched CTI: evaluates every group in `arena` in one pass over
    /// the weight slots, writing each group's cumulative trust to
    /// `out[g]` in group-push order. Each result carries the exact bits
    /// the corresponding [`TrustTable::cumulative_trust`] call would
    /// return (including the `-0.0` empty/all-quarantined sentinel), and
    /// `ti_reads` advances by the same total — the batch is
    /// observationally identical to the per-group loop, it only
    /// amortizes dispatch and interleaves the folds' dependency chains
    /// ([`simd_kernel::cti_batch_f64`]).
    ///
    /// # Panics
    ///
    /// Panics if an arena index is out of range for this table.
    pub fn cumulative_trust_batch(&self, arena: &mut simd_kernel::GroupArena, out: &mut Vec<f64>) {
        let reads = if self.fixed.is_some() {
            simd_kernel::cti_batch_q16(&self.weights_q, arena, out)
        } else {
            simd_kernel::cti_batch_f64(&self.weights, arena, out)
        };
        self.ti_reads.set(self.ti_reads.get() + reads);
    }

    /// Evaluates many R/NR group pairs in one batched pass and applies
    /// the paper's decision rule (`CTI_R > CTI_NR`; ties declare no
    /// event) to each pair.
    ///
    /// `arena` must hold an even number of groups — pair `i` is groups
    /// `2i` (reporting) and `2i+1` (non-reporting). The weights written
    /// to each verdict carry the vote layer's `±0.0` normalization
    /// ([`crate::vote::group_weight`] semantics): a nonempty group whose
    /// sum is the `-0.0` sentinel reports `0.0`. `weights_scratch` is
    /// caller-provided so steady-state batches allocate nothing.
    ///
    /// # Panics
    ///
    /// Panics if the arena holds an odd number of groups or an index out
    /// of range for this table.
    pub fn decide_batch(
        &self,
        arena: &mut simd_kernel::GroupArena,
        weights_scratch: &mut Vec<f64>,
        out: &mut Vec<BatchVerdict>,
    ) {
        assert!(
            arena.group_count().is_multiple_of(2),
            "decide_batch needs an even number of groups (R/NR pairs)"
        );
        self.cumulative_trust_batch(arena, weights_scratch);
        for (g, w) in weights_scratch.iter_mut().enumerate() {
            if is_quarantined_weight(*w) && arena.group_len(g) > 0 {
                *w = 0.0;
            }
        }
        out.clear();
        out.extend(weights_scratch.chunks_exact(2).map(|pair| BatchVerdict {
            reporting_weight: pair[0],
            non_reporting_weight: pair[1],
            event_declared: pair[0] > pair[1],
        }));
    }

    /// Records a faulty judgement and runs diagnosis.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn record_faulty(&mut self, node: NodeId) {
        let i = node.index();
        match self.fixed {
            Some(cal) => {
                self.counters_q[i] = self.counters_q[i]
                    .saturating_add(cal.inc_q)
                    .min(fixed::COUNTER_MAX_Q16);
                self.counters[i] = fixed::q16_to_f64(self.counters_q[i]);
            }
            None => self.counters[i] += self.params.faulty_increment(),
        }
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
                        // Probationary trust: as close to the threshold
                        // as the backend can represent without granting
                        // more. Float: TI = threshold exactly, i.e.
                        // v = −ln(threshold)/λ. Fixed: the smallest
                        // counter whose TI lands strictly below the
                        // threshold — exact equality is generally
                        // unrepresentable in Q16.16, and strictly-below
                        // guarantees that any probationary relapse
                        // re-quarantines regardless of LUT plateaus.
                        if let Some(th) = self.isolation_threshold {
                            match self.fixed {
                                Some(cal) => {
                                    // ti/2^16 < th ⟺ ti ≤ ceil(th·2^16) − 1.
                                    let th_q =
                                        ((th * fixed::ONE_Q16 as f64).ceil() as i64 - 1).max(0);
                                    self.counters_q[i] =
                                        fixed::counter_for_ti_at_most(cal.lambda_q, th_q);
                                    self.counters[i] = fixed::q16_to_f64(self.counters_q[i]);
                                }
                                None => {
                                    self.counters[i] = -th.ln() / self.params.lambda;
                                }
                            }
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
        match self.fixed {
            Some(cal) => {
                let before = self.counters_q[i];
                self.counters_q[i] = (before - cal.dec_q).max(0);
                if self.counters_q[i] != before {
                    self.counters[i] = fixed::q16_to_f64(self.counters_q[i]);
                    self.refresh_cache(i);
                }
            }
            None => {
                let before = self.counters[i];
                self.counters[i] = (before - self.params.correct_decrement()).max(0.0);
                if self.counters[i] != before {
                    self.refresh_cache(i);
                }
            }
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
        self.write_counter(i, counter);
        self.refresh_cache(i);
    }

    /// Stores a counter through the backend: the f64 verbatim on the
    /// float path, ceil-quantized to Q16.16 on the fixed path (rounding
    /// *up* never grants trust; exact Q16.16 multiples — everything a
    /// fixed table itself exports — round-trip unchanged).
    fn write_counter(&mut self, i: usize, counter: f64) {
        match self.fixed {
            Some(_) => {
                self.counters_q[i] = fixed::quantize_counter_ceil(counter);
                self.counters[i] = fixed::q16_to_f64(self.counters_q[i]);
            }
            None => self.counters[i] = counter,
        }
    }

    /// Resynchronizes one node's trust from an exported TI value — the
    /// receiving side of a [`TrustTable::export`] handoff after the
    /// working table was lost.
    ///
    /// Both backends guarantee the restored trust never exceeds the
    /// snapshot: trust is earned back, not granted by recovery. The
    /// float arm inverts `TI = e^(−λ·v)` through `ln()` (accurate to a
    /// ~1e-12 round-trip); the fixed arm binary-searches the smallest
    /// counter whose LUT trust index is at or below the (floor-
    /// quantized) target, which makes the bound *exact* — a property
    /// the model checker asserts on every reachable state. The fixed
    /// arm also honors `ti == 0.0` (a reachable LUT underflow) by
    /// restoring an underflowed counter; a *negative* TI is outside the
    /// export domain on both arms and defensively restores full trust
    /// (float treats `0.0` the same way, since its `exp()` cannot
    /// underflow at any reachable counter).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range or `ti` is not finite.
    pub fn resync_to_ti(&mut self, node: NodeId, ti: f64) {
        assert!(ti.is_finite(), "handoff TI must be finite");
        match self.fixed {
            Some(cal) => {
                let i = node.index();
                self.counters_q[i] = if ti >= 0.0 {
                    let ti_q = ((ti * fixed::ONE_Q16 as f64).floor() as i64)
                        .clamp(0, fixed::ONE_Q16);
                    fixed::counter_for_ti_at_most(cal.lambda_q, ti_q)
                } else {
                    0
                };
                self.counters[i] = fixed::q16_to_f64(self.counters_q[i]);
                self.refresh_cache(i);
            }
            None => {
                // Invert TI = e^(−λ·v); snapshots keep TI in (0, 1].
                let v = if ti > 0.0 {
                    -ti.ln() / self.params.lambda
                } else {
                    0.0
                };
                self.set_counter(node, v.max(0.0));
            }
        }
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
            if self.fixed.is_some() {
                self.counters_q[kept] = self.counters_q[i];
                self.weights_q[kept] = self.weights_q[i];
            }
            kept += 1;
        }
        assert!(kept > 0, "trust table needs at least one node");
        self.counters.truncate(kept);
        self.cached_ti.truncate(kept);
        self.status.truncate(kept);
        self.weights.truncate(kept);
        if self.fixed.is_some() {
            self.counters_q.truncate(kept);
            self.weights_q.truncate(kept);
        }
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
        self.weights.insert(at, 1.0);
        if self.fixed.is_some() {
            self.counters_q.reserve_exact(1);
            self.counters_q.insert(at, 0);
            self.weights_q.insert(at, fixed::ONE_Q16);
        }
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
        self.write_counter(i, record.counter);
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
    /// Arithmetic backend the counters and cached TIs were produced by.
    /// Fixed-point state is validated against the Q16.16 pipeline on
    /// restore (exact-multiple counters, LUT-recomputed caches), so a
    /// blob cannot silently restore under the wrong arithmetic.
    pub arith: TrustArith,
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

impl TrustTableState {
    /// A state describing no table yet: the buffer
    /// [`TrustTable::export_state_into`] fills.
    #[must_use]
    pub fn empty() -> Self {
        TrustTableState {
            lambda: 0.0,
            fault_rate: 0.0,
            arith: TrustArith::Float64,
            counters: Vec::new(),
            cached_ti: Vec::new(),
            status: Vec::new(),
            isolation_threshold: None,
            reintegration: None,
            exp_evals: 0,
            ti_reads: 0,
        }
    }
}

impl TrustTable {
    /// Captures the table's complete state for a checkpoint.
    #[must_use]
    pub fn export_state(&self) -> TrustTableState {
        let mut out = TrustTableState::empty();
        self.export_state_into(&mut out);
        out
    }

    /// [`Self::export_state`] into an existing state, reusing its
    /// buffers — a checkpoint of many tables captures them one after
    /// another without allocating per table.
    pub fn export_state_into(&self, out: &mut TrustTableState) {
        out.lambda = self.params.lambda;
        out.fault_rate = self.params.fault_rate;
        out.arith = self.params.arith;
        out.counters.clone_from(&self.counters);
        out.cached_ti.clone_from(&self.cached_ti);
        out.status.clone_from(&self.status);
        out.isolation_threshold = self.isolation_threshold;
        out.reintegration = self
            .reintegration
            .map(|p| (p.quarantine_rounds, p.probation_rounds));
        out.exp_evals = self.exp_evals;
        out.ti_reads = self.ti_reads.get();
    }

    /// Rebuilds a table from checkpointed state, bit-for-bit.
    ///
    /// Cached TI values are restored verbatim (after verifying each one
    /// against recomputation from its counter), *not* recomputed through
    /// [`TrustTable::install`]/[`TrustTable::set_counter`] — those paths
    /// bump `exp_evals`, and a restored table must report the same
    /// eval counts the original would.
    ///
    /// # Errors
    ///
    /// A [`TrustStateError`] naming the first invariant the state
    /// violates; corrupt blobs are rejected here rather than producing a
    /// subtly wrong table.
    pub fn from_state(state: &TrustTableState) -> Result<Self, TrustStateError> {
        let n = state.counters.len();
        if n == 0 || state.cached_ti.len() != n || state.status.len() != n {
            return Err(TrustStateError::LengthMismatch);
        }
        let params = match state.arith {
            TrustArith::Float64 => TrustParams::try_new(state.lambda, state.fault_rate),
            TrustArith::FixedQ16 => TrustParams::try_new_fixed(state.lambda, state.fault_rate),
        }
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
        let fixed = params.fixed_cal();
        let mut counters_q = Vec::with_capacity(if fixed.is_some() { n } else { 0 });
        for (&v, &cached) in state.counters.iter().zip(&state.cached_ti) {
            if !(v.is_finite() && v >= 0.0) {
                return Err(TrustStateError::BadCounter);
            }
            match fixed {
                Some(cal) => {
                    // Fixed-point counters must be exact Q16.16
                    // multiples (everything the backend itself writes
                    // is), and the cached TI must equal the LUT
                    // recomputation bit-for-bit.
                    let v_q = fixed::quantize_counter_ceil(v);
                    if fixed::q16_to_f64(v_q) != v {
                        return Err(TrustStateError::BadCounter);
                    }
                    if cached.to_bits()
                        != fixed::q16_to_f64(fixed::ti_q16(cal.lambda_q, v_q)).to_bits()
                    {
                        return Err(TrustStateError::CacheMismatch);
                    }
                    counters_q.push(v_q);
                }
                None => {
                    if cached.to_bits() != (-params.lambda * v).exp().to_bits() {
                        return Err(TrustStateError::CacheMismatch);
                    }
                }
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
        let weights_q: Vec<i64> = if fixed.is_some() {
            weights
                .iter()
                .map(|&w| {
                    if is_quarantined_weight(w) {
                        -1
                    } else {
                        (w * fixed::ONE_Q16 as f64) as i64
                    }
                })
                .collect()
        } else {
            Vec::new()
        };
        let weights_q = AlignedSlab::from_slice(&weights_q);
        Ok(TrustTable {
            params,
            counters: state.counters.clone(),
            cached_ti: state.cached_ti.clone(),
            weights: AlignedSlab::from_slice(&weights),
            counters_q,
            weights_q,
            fixed,
            status: state.status.clone(),
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
        let r = TrustTable::from_state(&state).unwrap();
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
        assert!(TrustTable::from_state(&good).is_ok());

        let mut s = good.clone();
        s.cached_ti.pop();
        assert_eq!(TrustTable::from_state(&s).unwrap_err(), TrustStateError::LengthMismatch);

        let mut s = good.clone();
        s.counters.clear();
        s.cached_ti.clear();
        s.status.clear();
        assert_eq!(TrustTable::from_state(&s).unwrap_err(), TrustStateError::LengthMismatch);

        let mut s = good.clone();
        s.lambda = -1.0;
        assert_eq!(TrustTable::from_state(&s).unwrap_err(), TrustStateError::BadParams);

        let mut s = good.clone();
        s.counters[0] = f64::NAN;
        assert_eq!(TrustTable::from_state(&s).unwrap_err(), TrustStateError::BadCounter);

        let mut s = good.clone();
        s.cached_ti[1] = 0.75;
        assert_eq!(TrustTable::from_state(&s).unwrap_err(), TrustStateError::CacheMismatch);

        let mut s = good.clone();
        s.isolation_threshold = Some(1.5);
        assert_eq!(TrustTable::from_state(&s).unwrap_err(), TrustStateError::BadThreshold);

        let mut s = good.clone();
        s.reintegration = Some((0, 2));
        assert_eq!(
            TrustTable::from_state(&s).unwrap_err(),
            TrustStateError::BadReintegration
        );
        assert!(!TrustStateError::BadReintegration.to_string().is_empty());
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
        let r = TrustTable::from_state(&u.export_state()).unwrap();
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

    fn fixed_params() -> TrustParams {
        params().with_fixed_point().unwrap()
    }

    #[test]
    fn fixed_params_reject_degenerate_quantizations() {
        use TrustParamsError::{InvalidFaultRate, InvalidLambda};
        assert_eq!(fixed_params().arith, TrustArith::FixedQ16);
        // λ beyond the Q16.16 integer range.
        assert_eq!(
            TrustParams::try_new_fixed(1e6, 0.1).unwrap_err(),
            InvalidLambda(1e6)
        );
        // λ that quantizes to zero — no faulty report could ever move TI.
        assert!(matches!(
            TrustParams::try_new_fixed(1e-9, 0.1).unwrap_err(),
            InvalidLambda(_)
        ));
        // Nonzero f_r that quantizes to zero — recovery would silently
        // never happen.
        assert!(matches!(
            TrustParams::try_new_fixed(0.25, 1e-9).unwrap_err(),
            InvalidFaultRate(_)
        ));
        // f_r so close to 1 that the increment quantizes to zero.
        assert!(matches!(
            TrustParams::try_new_fixed(0.25, 1.0 - 1e-9).unwrap_err(),
            InvalidFaultRate(_)
        ));
        // The base range checks still apply first.
        assert!(matches!(
            TrustParams::try_new_fixed(-1.0, 0.1).unwrap_err(),
            InvalidLambda(_)
        ));
        // The paper calibrations all survive quantization.
        assert!(TrustParams::experiment1(0.05).with_fixed_point().is_ok());
        assert!(TrustParams::experiment2().with_fixed_point().is_ok());
    }

    #[test]
    fn fixed_state_is_an_exact_q16_mirror() {
        let mut t = TrustTable::new(fixed_params(), 4);
        for step in 0..40u64 {
            let node = NodeId((step % 4) as usize);
            if step % 3 == 0 {
                t.record_correct(node);
            } else {
                t.record_faulty(node);
            }
            for i in 0..4 {
                let v = t.counter_of(NodeId(i));
                let ti = t.trust_of(NodeId(i));
                // Every f64 the fixed backend exposes is an exact
                // Q16.16 multiple — the mirror loses nothing.
                assert_eq!(v, fixed::q16_to_f64(fixed::quantize_counter_ceil(v)));
                assert_eq!(
                    ti,
                    fixed::q16_to_f64((ti * fixed::ONE_Q16 as f64) as i64)
                );
                assert!((0.0..=1.0).contains(&ti));
            }
        }
    }

    #[test]
    fn fixed_backend_is_decision_identical_to_float_here() {
        // Same judgement history through both backends: TIs differ by
        // quantization, but every status transition and every CTI
        // comparison with a non-degenerate margin must agree.
        let mut f = TrustTable::new(params(), 5)
            .with_isolation_threshold(0.5)
            .with_reintegration(2, 2);
        let mut q = TrustTable::new(fixed_params(), 5)
            .with_isolation_threshold(0.5)
            .with_reintegration(2, 2);
        let all: Vec<NodeId> = (0..5).map(NodeId).collect();
        for round in 0..30u64 {
            for i in 0..5usize {
                if (round + i as u64).is_multiple_of(4) {
                    f.record_faulty(NodeId(i));
                    q.record_faulty(NodeId(i));
                } else {
                    f.record_correct(NodeId(i));
                    q.record_correct(NodeId(i));
                }
            }
            assert_eq!(f.tick_round(), q.tick_round(), "round {round}");
            for i in 0..5 {
                assert_eq!(f.status_of(NodeId(i)), q.status_of(NodeId(i)), "round {round}");
                assert!((f.trust_of(NodeId(i)) - q.trust_of(NodeId(i))).abs() < 1e-3);
            }
            for split in 0..5usize {
                let (r, nr) = all.split_at(split);
                let df = f.cumulative_trust(r) > f.cumulative_trust(nr);
                let dq = q.cumulative_trust(r) > q.cumulative_trust(nr);
                let margin = (f.cumulative_trust(r) - f.cumulative_trust(nr)).abs();
                if margin > 1e-2 {
                    assert_eq!(df, dq, "round {round} split {split}");
                }
            }
        }
    }

    #[test]
    fn fixed_cti_matches_filtered_reference_and_keeps_sentinel() {
        let mut t = TrustTable::new(fixed_params(), 7)
            .with_isolation_threshold(0.5)
            .with_reintegration(2, 2);
        let group: Vec<NodeId> = (0..7).map(NodeId).collect();
        for round in 0..40u64 {
            for i in 0..7usize {
                if (round * 7 + i as u64).is_multiple_of(3) {
                    t.record_faulty(NodeId(i));
                } else {
                    t.record_correct(NodeId(i));
                }
            }
            t.tick_round();
            for len in [0usize, 1, 3, 4, 5, 7] {
                let g = &group[..len];
                assert_eq!(
                    t.cumulative_trust(g).to_bits(),
                    reference_cti(&t, g).to_bits(),
                    "round {round} len {len}"
                );
            }
        }
        // A fully-quarantined group keeps the -0.0 seed, exactly like
        // the float fold.
        let mut u = TrustTable::new(fixed_params(), 2).with_isolation_threshold(0.9);
        u.record_faulty(NodeId(0));
        assert!(u.is_isolated(NodeId(0)));
        assert!(is_quarantined_weight(u.cumulative_trust(&[NodeId(0)])));
        assert!(is_quarantined_weight(u.cumulative_trust(&[])));
    }

    #[test]
    fn fixed_probation_relapse_always_requarantines() {
        // The fixed probation reset lands *strictly below* the
        // threshold (exact equality is generally unrepresentable in
        // Q16.16), so one faulty report during probation must always
        // re-quarantine — no LUT plateau can absorb it.
        for th in [0.3, 0.5, 0.5000001, 0.75] {
            let mut t = TrustTable::new(fixed_params(), 2)
                .with_isolation_threshold(th)
                .with_reintegration(1, 3);
            while !t.is_isolated(NodeId(0)) {
                t.record_faulty(NodeId(0));
            }
            t.tick_round();
            assert!(matches!(t.status_of(NodeId(0)), NodeStatus::Probation { .. }));
            assert!(t.trust_of(NodeId(0)) < th, "threshold {th}");
            t.record_faulty(NodeId(0));
            assert!(t.is_isolated(NodeId(0)), "threshold {th}");
        }
    }

    #[test]
    fn fixed_resync_never_exceeds_the_snapshot() {
        let mut t = TrustTable::new(fixed_params(), 4);
        for step in 0..9u64 {
            t.record_faulty(NodeId((step % 4) as usize));
        }
        // Drive node 3 all the way to LUT underflow (TI = 0 exactly).
        t.set_counter(NodeId(3), 100.0);
        assert_eq!(t.trust_of(NodeId(3)), 0.0);
        let snapshot = t.export();
        let mut r = TrustTable::new(fixed_params(), 4);
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
        let mut fresh = TrustTable::new(fixed_params(), 1);
        fresh.resync_to_ti(NodeId(0), 1.0);
        assert_eq!(fresh.trust_of(NodeId(0)), 1.0);
        assert_eq!(r.trust_of(NodeId(3)), 0.0);
    }

    #[test]
    fn fixed_export_state_round_trips_and_rejects_corruption() {
        let mut t = TrustTable::new(fixed_params(), 3)
            .with_isolation_threshold(0.5)
            .with_reintegration(2, 2);
        for _ in 0..4 {
            t.record_faulty(NodeId(1));
        }
        t.tick_round();
        let state = t.export_state();
        assert_eq!(state.arith, TrustArith::FixedQ16);
        let r = TrustTable::from_state(&state).unwrap();
        assert_eq!(r.export_state(), state);
        for i in 0..3 {
            assert_eq!(
                r.cumulative_trust(&[NodeId(i)]).to_bits(),
                t.cumulative_trust(&[NodeId(i)]).to_bits()
            );
        }

        // A counter that is not an exact Q16.16 multiple cannot have
        // come from the fixed backend.
        let mut s = state.clone();
        s.counters[0] = 0.1;
        s.cached_ti[0] = fixed::q16_to_f64(fixed::ti_q16(
            fixed::quantize_round(s.lambda),
            fixed::quantize_counter_ceil(0.1),
        ));
        assert_eq!(TrustTable::from_state(&s).unwrap_err(), TrustStateError::BadCounter);

        // A cached TI that doesn't match the LUT recomputation bitwise.
        let mut s = state.clone();
        s.cached_ti[1] = (-s.lambda * s.counters[1]).exp();
        assert_eq!(
            TrustTable::from_state(&s).unwrap_err(),
            TrustStateError::CacheMismatch
        );

        // Params that fail fixed-point validation are rejected even
        // though the float validator would accept them.
        let mut s = state.clone();
        s.lambda = 1e-9;
        assert_eq!(TrustTable::from_state(&s).unwrap_err(), TrustStateError::BadParams);
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
        let backends = [params(), TrustParams::try_new_fixed(0.25, 0.1).unwrap()];
        for (b, &p) in backends.iter().enumerate() {
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
                assert_same_table(&t, &want, &format!("backend {b} seed {seed} retain"));

                // Arrivals: insert donor records at random positions.
                let mut records = records;
                for d in 0..donor.len() {
                    let at = rng.uniform_usize(records.len() + 1);
                    let record = donor.extract(NodeId(d));
                    t.insert_node(at, record);
                    records.insert(at, record);
                    want = installed(p, &records);
                    assert_same_table(&t, &want, &format!("backend {b} seed {seed} insert {d}"));
                }
            }
        }
    }
}

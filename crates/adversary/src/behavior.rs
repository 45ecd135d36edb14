//! Per-node behavior models: correct, level-0 (naive), and level-1 (smart
//! independent).

use tibfit_core::trust::{Judgement, TrustIndex, TrustParams};
use tibfit_net::geometry::Point;
use tibfit_net::topology::NodeId;
use tibfit_sim::rng::SimRng;

/// The category a behavior belongs to (the paper's node taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BehaviorKind {
    /// Correct node with bounded natural error rate.
    Correct,
    /// Naive random liar.
    Level0,
    /// Smart independent liar.
    Level1,
    /// Smart colluding liar.
    Level2,
}

impl std::fmt::Display for BehaviorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BehaviorKind::Correct => "correct",
            BehaviorKind::Level0 => "level-0",
            BehaviorKind::Level1 => "level-1",
            BehaviorKind::Level2 => "level-2",
        };
        f.write_str(s)
    }
}

/// Everything a node knows when deciding how to act in one event round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundContext {
    /// Monotonic round counter (lets colluders coordinate per round).
    pub round: u64,
    /// The acting node.
    pub node: NodeId,
    /// Its own position (nodes know their locations, §2).
    pub node_pos: Point,
    /// Ground truth: the event location if an event occurred this round.
    pub event: Option<Point>,
    /// Whether the event (if any) is within this node's sensing radius.
    pub is_event_neighbor: bool,
}

impl RoundContext {
    /// The event this node can actually sense, if any.
    #[must_use]
    pub fn sensed_event(&self) -> Option<Point> {
        if self.is_event_neighbor {
            self.event
        } else {
            None
        }
    }
}

/// A node's per-round behavior.
///
/// The harness calls exactly one of [`NodeBehavior::binary_action`] /
/// [`NodeBehavior::located_action`] per round depending on the model, then
/// feeds back the cluster head's judgement (which one-hop nodes can
/// overhear) via [`NodeBehavior::observe_judgement`].
pub trait NodeBehavior {
    /// Binary model: `true` to send an event report this round.
    fn binary_action(&mut self, ctx: &RoundContext, rng: &mut SimRng) -> bool;

    /// Location model: the claimed event location, or `None` to stay
    /// silent.
    fn located_action(&mut self, ctx: &RoundContext, rng: &mut SimRng) -> Option<Point>;

    /// Feedback: how the cluster head judged this node's behaviour in the
    /// round (smart nodes use this to mirror their own trust index).
    fn observe_judgement(&mut self, judgement: Judgement);

    /// The behavior's category.
    fn kind(&self) -> BehaviorKind;

    /// Whether this behavior is provably silent when it senses nothing.
    ///
    /// Contract: when this returns `true`, an action on a context whose
    /// [`RoundContext::sensed_event`] is `None` returns `None` (or
    /// `false` in the binary model) without drawing from the RNG and
    /// without changing the behavior's own state. Harnesses may then
    /// skip such calls outright — the multi-cluster engines skip whole
    /// clusters out of sensing range of a stimulus — with no trace of
    /// the skip in any result. The default, `false`, promises nothing.
    fn quiet_unless_sensed(&self) -> bool {
        false
    }

    /// Captures the behavior's complete state for a checkpoint, or
    /// `None` if this behavior cannot be checkpointed (level-2 colluders
    /// share a live coordinator that cannot survive serialisation).
    fn snapshot(&self) -> Option<BehaviorSnapshot> {
        None
    }
}

/// Serializable state of a checkpointable [`NodeBehavior`].
///
/// [`BehaviorSnapshot::restore`] validates every field before
/// constructing, so a corrupt checkpoint yields an error instead of a
/// panicking constructor or a behavior in an impossible state.
#[derive(Debug, Clone, PartialEq)]
pub enum BehaviorSnapshot {
    /// A [`CorrectNode`].
    Correct {
        /// Natural error rate.
        ner: f64,
        /// Per-axis localization σ.
        loc_sigma: f64,
    },
    /// A [`Level0Node`].
    Level0 {
        /// The naive-liar configuration.
        config: Level0Config,
    },
    /// A [`Level1Node`], including its live trust-mirror state.
    Level1 {
        /// Configuration used while lying.
        lie_config: Level0Config,
        /// Honest-phase localization σ.
        honest_sigma: f64,
        /// The mirrored trust calibration.
        params: TrustParams,
        /// `(lower_ti, upper_ti)` hysteresis, or `None` for relentless.
        thresholds: Option<(f64, f64)>,
        /// Whether the node is currently in its lying phase.
        lying: bool,
        /// The mirror's raw fault-counter estimate.
        estimate_v: f64,
    },
}

fn config_valid(c: &Level0Config) -> bool {
    [c.missed_alarm, c.false_alarm, c.drop_prob]
        .iter()
        .all(|p| (0.0..=1.0).contains(p))
        && c.loc_sigma.is_finite()
        && c.loc_sigma >= 0.0
}

impl BehaviorSnapshot {
    /// Rebuilds the behavior this snapshot was captured from.
    ///
    /// # Errors
    ///
    /// A static description of the first invalid field — never panics,
    /// whatever bytes a corrupt blob decoded into.
    pub fn restore(&self) -> Result<Box<dyn NodeBehavior + Send>, &'static str> {
        match *self {
            BehaviorSnapshot::Correct { ner, loc_sigma } => {
                if !((0.0..1.0).contains(&ner) && loc_sigma.is_finite() && loc_sigma >= 0.0) {
                    return Err("correct-node snapshot out of range");
                }
                Ok(Box::new(CorrectNode { ner, loc_sigma }))
            }
            BehaviorSnapshot::Level0 { config } => {
                if !config_valid(&config) {
                    return Err("level-0 snapshot out of range");
                }
                Ok(Box::new(Level0Node { config }))
            }
            BehaviorSnapshot::Level1 {
                lie_config,
                honest_sigma,
                params,
                thresholds,
                lying,
                estimate_v,
            } => {
                if !config_valid(&lie_config) {
                    return Err("level-1 lie config out of range");
                }
                if !(honest_sigma.is_finite() && honest_sigma >= 0.0) {
                    return Err("level-1 honest sigma out of range");
                }
                let params = TrustParams::try_new(params.lambda, params.fault_rate)
                    .map_err(|_| "level-1 trust params invalid")?;
                if let Some((lo, hi)) = thresholds {
                    if !(0.0 < lo && lo < hi && hi <= 1.0) {
                        return Err("level-1 hysteresis thresholds invalid");
                    }
                }
                let estimate = TrustIndex::from_counter(estimate_v)
                    .ok_or("level-1 trust estimate invalid")?;
                Ok(Box::new(Level1Node {
                    lie_config,
                    honest: CorrectNode {
                        ner: 0.0,
                        loc_sigma: honest_sigma,
                    },
                    mirror: TrustMirror {
                        estimate,
                        params,
                        thresholds,
                        lying,
                    },
                }))
            }
        }
    }
}

/// Samples a location claim: the truth plus independent Gaussian error on
/// each axis (the paper's report error model).
fn noisy_claim(truth: Point, sigma: f64, rng: &mut SimRng) -> Point {
    truth.offset(rng.normal(0.0, sigma), rng.normal(0.0, sigma))
}

/// A correct node: misses or fabricates reports only at its natural error
/// rate, and localizes with small Gaussian error.
///
/// ```rust
/// use tibfit_adversary::{CorrectNode, NodeBehavior, RoundContext};
/// use tibfit_net::geometry::Point;
/// use tibfit_net::topology::NodeId;
/// use tibfit_sim::rng::SimRng;
///
/// let mut node = CorrectNode::new(0.0, 1.6);
/// let ctx = RoundContext {
///     round: 0,
///     node: NodeId(0),
///     node_pos: Point::new(0.0, 0.0),
///     event: Some(Point::new(3.0, 3.0)),
///     is_event_neighbor: true,
/// };
/// let mut rng = SimRng::seed_from(1);
/// assert!(node.binary_action(&ctx, &mut rng)); // NER 0 ⇒ always reports
/// ```
#[derive(Debug, Clone)]
pub struct CorrectNode {
    ner: f64,
    loc_sigma: f64,
}

impl CorrectNode {
    /// Creates a correct node with natural error rate `ner` and
    /// localization standard deviation `loc_sigma` (per axis).
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= ner < 1` and `loc_sigma >= 0`.
    #[must_use]
    pub fn new(ner: f64, loc_sigma: f64) -> Self {
        assert!((0.0..1.0).contains(&ner), "NER must be in [0, 1), got {ner}");
        assert!(loc_sigma >= 0.0, "sigma must be non-negative");
        CorrectNode { ner, loc_sigma }
    }

    /// The configured natural error rate.
    #[must_use]
    pub fn ner(&self) -> f64 {
        self.ner
    }
}

impl NodeBehavior for CorrectNode {
    fn binary_action(&mut self, ctx: &RoundContext, rng: &mut SimRng) -> bool {
        match ctx.sensed_event() {
            // Sensed a real event: report unless a natural error (missed
            // alarm) occurs.
            Some(_) => !rng.chance(self.ner),
            // No event sensed: stay silent unless a natural error (false
            // alarm) occurs.
            None => rng.chance(self.ner),
        }
    }

    fn located_action(&mut self, ctx: &RoundContext, rng: &mut SimRng) -> Option<Point> {
        match ctx.sensed_event() {
            Some(event) => {
                if rng.chance(self.ner) {
                    None // natural missed alarm
                } else {
                    Some(noisy_claim(event, self.loc_sigma, rng))
                }
            }
            None => {
                if rng.chance(self.ner) {
                    // Natural false alarm: a spurious claim near itself.
                    Some(noisy_claim(ctx.node_pos, self.loc_sigma.max(1.0), rng))
                } else {
                    None
                }
            }
        }
    }

    fn observe_judgement(&mut self, _judgement: Judgement) {}

    fn kind(&self) -> BehaviorKind {
        BehaviorKind::Correct
    }

    /// Unsensed, the only draw is the false-alarm `chance(ner)`, which
    /// consumes nothing at `ner <= 0`.
    fn quiet_unless_sensed(&self) -> bool {
        self.ner <= 0.0
    }

    fn snapshot(&self) -> Option<BehaviorSnapshot> {
        Some(BehaviorSnapshot::Correct {
            ner: self.ner,
            loc_sigma: self.loc_sigma,
        })
    }
}

/// Configuration of the naive (level-0) fault model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Level0Config {
    /// Probability of dropping a report for a sensed event (the paper's
    /// 50% missed-alarm rate in Experiment 1).
    pub missed_alarm: f64,
    /// Probability of fabricating a report when no event occurred
    /// (0/10/75% in Experiment 1).
    pub false_alarm: f64,
    /// Localization error standard deviation per axis (4.25 or 6.0 in
    /// Experiment 2).
    pub loc_sigma: f64,
    /// Independent packet-drop probability on every send (25% in
    /// Experiment 2).
    pub drop_prob: f64,
}

impl Level0Config {
    /// Experiment-1 parameters: 50% missed alarms, configurable false
    /// alarms, binary model (no location error).
    #[must_use]
    pub fn experiment1(false_alarm: f64) -> Self {
        Level0Config {
            missed_alarm: 0.5,
            false_alarm,
            loc_sigma: 0.0,
            drop_prob: 0.0,
        }
    }

    /// Experiment-2 parameters: noisy location (σ = `loc_sigma`), 25%
    /// packet drops, no deliberate missed/false alarms.
    #[must_use]
    pub fn experiment2(loc_sigma: f64) -> Self {
        Level0Config {
            missed_alarm: 0.0,
            false_alarm: 0.0,
            loc_sigma,
            drop_prob: 0.25,
        }
    }

    fn validate(&self) {
        for (name, p) in [
            ("missed_alarm", self.missed_alarm),
            ("false_alarm", self.false_alarm),
            ("drop_prob", self.drop_prob),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} must be in [0,1], got {p}");
        }
        assert!(self.loc_sigma >= 0.0, "loc_sigma must be non-negative");
    }
}

/// A naive random liar (level 0): errs randomly with no strategy.
#[derive(Debug, Clone)]
pub struct Level0Node {
    config: Level0Config,
}

impl Level0Node {
    /// Creates a level-0 node.
    ///
    /// # Panics
    ///
    /// Panics if any probability in `config` is outside `[0, 1]`.
    #[must_use]
    pub fn new(config: Level0Config) -> Self {
        config.validate();
        Level0Node { config }
    }
}

impl NodeBehavior for Level0Node {
    fn binary_action(&mut self, ctx: &RoundContext, rng: &mut SimRng) -> bool {
        let send = match ctx.sensed_event() {
            Some(_) => !rng.chance(self.config.missed_alarm),
            None => rng.chance(self.config.false_alarm),
        };
        send && !rng.chance(self.config.drop_prob)
    }

    fn located_action(&mut self, ctx: &RoundContext, rng: &mut SimRng) -> Option<Point> {
        let claim = match ctx.sensed_event() {
            Some(event) => {
                if rng.chance(self.config.missed_alarm) {
                    None
                } else {
                    Some(noisy_claim(event, self.config.loc_sigma, rng))
                }
            }
            None => {
                if rng.chance(self.config.false_alarm) {
                    Some(noisy_claim(ctx.node_pos, self.config.loc_sigma.max(1.0), rng))
                } else {
                    None
                }
            }
        };
        claim.filter(|_| !rng.chance(self.config.drop_prob))
    }

    fn observe_judgement(&mut self, _judgement: Judgement) {}

    fn kind(&self) -> BehaviorKind {
        BehaviorKind::Level0
    }

    /// Unsensed, the false-alarm `chance` consumes nothing at
    /// `false_alarm <= 0`, and the drop draw only follows a claim.
    fn quiet_unless_sensed(&self) -> bool {
        self.config.false_alarm <= 0.0
    }

    fn snapshot(&self) -> Option<BehaviorSnapshot> {
        Some(BehaviorSnapshot::Level0 {
            config: self.config,
        })
    }
}

/// Shared hysteresis logic for smart (level-1/level-2) nodes: mirror the
/// cluster head's trust arithmetic and lie only while the estimated trust
/// index is comfortably above the detection threshold.
///
/// The paper: a lower threshold of 0.5 "ensures their trust indices do not
/// fall too low. If they reach the lower threshold they behave like a
/// correct node until they reach an upper threshold of 0.8, after which
/// they begin erring again."
#[derive(Debug, Clone)]
pub(crate) struct TrustMirror {
    estimate: TrustIndex,
    params: TrustParams,
    /// `Some((lower_ti, upper_ti))` enables the back-off hysteresis;
    /// `None` means the adversary lies relentlessly (the rational play
    /// against a stateless baseline system that cannot diagnose it).
    thresholds: Option<(f64, f64)>,
    lying: bool,
}

impl TrustMirror {
    pub(crate) fn new(params: TrustParams, lower_ti: f64, upper_ti: f64) -> Self {
        assert!(
            0.0 < lower_ti && lower_ti < upper_ti && upper_ti <= 1.0,
            "require 0 < lower_ti < upper_ti <= 1, got {lower_ti}, {upper_ti}"
        );
        TrustMirror {
            estimate: TrustIndex::new(),
            params,
            thresholds: Some((lower_ti, upper_ti)),
            lying: true,
        }
    }

    /// A mirror with hysteresis disabled: [`TrustMirror::should_lie`] is
    /// always `true`.
    pub(crate) fn relentless(params: TrustParams) -> Self {
        TrustMirror {
            estimate: TrustIndex::new(),
            params,
            thresholds: None,
            lying: true,
        }
    }

    /// Whether the node should lie this round, updating the hysteresis
    /// state.
    pub(crate) fn should_lie(&mut self) -> bool {
        let Some((lower_ti, upper_ti)) = self.thresholds else {
            return true;
        };
        let ti = self.estimate.value(&self.params);
        if self.lying && ti <= lower_ti {
            self.lying = false;
        } else if !self.lying && ti >= upper_ti {
            self.lying = true;
        }
        self.lying
    }

    pub(crate) fn observe(&mut self, judgement: Judgement) {
        match judgement {
            Judgement::Correct => self.estimate.record_correct(&self.params),
            Judgement::Faulty => self.estimate.record_faulty(&self.params),
        }
    }

    pub(crate) fn estimated_ti(&self) -> f64 {
        self.estimate.value(&self.params)
    }
}

/// A smart independent liar (level 1): lies like a level-0 node but
/// watches its own (estimated) trust index and behaves correctly whenever
/// lying would risk diagnosis.
#[derive(Debug, Clone)]
pub struct Level1Node {
    lie_config: Level0Config,
    honest: CorrectNode,
    mirror: TrustMirror,
}

impl Level1Node {
    /// Creates a level-1 node.
    ///
    /// While lying it uses `lie_config` (typically
    /// [`Level0Config::experiment2`] with a large σ); while behaving it
    /// acts as a correct node with `honest_sigma`. The trust mirror uses
    /// the same `params` as the cluster head plus the paper's hysteresis
    /// thresholds.
    ///
    /// # Panics
    ///
    /// Panics on invalid probabilities or thresholds (see
    /// [`Level0Config`] and the hysteresis requirements).
    #[must_use]
    pub fn new(
        lie_config: Level0Config,
        honest_sigma: f64,
        params: TrustParams,
        lower_ti: f64,
        upper_ti: f64,
    ) -> Self {
        lie_config.validate();
        Level1Node {
            lie_config,
            honest: CorrectNode::new(0.0, honest_sigma),
            mirror: TrustMirror::new(params, lower_ti, upper_ti),
        }
    }

    /// Paper defaults: hysteresis between 0.5 and 0.8.
    #[must_use]
    pub fn with_paper_thresholds(
        lie_config: Level0Config,
        honest_sigma: f64,
        params: TrustParams,
    ) -> Self {
        Level1Node::new(lie_config, honest_sigma, params, 0.5, 0.8)
    }

    /// A level-1 node with the back-off disabled: it lies every round.
    /// This is the rational strategy against a baseline system that keeps
    /// no trust state and can never diagnose it.
    #[must_use]
    pub fn relentless(lie_config: Level0Config, honest_sigma: f64, params: TrustParams) -> Self {
        lie_config.validate();
        Level1Node {
            lie_config,
            honest: CorrectNode::new(0.0, honest_sigma),
            mirror: TrustMirror::relentless(params),
        }
    }

    /// The node's own estimate of its trust index.
    #[must_use]
    pub fn estimated_ti(&self) -> f64 {
        self.mirror.estimated_ti()
    }

    /// Whether the node is currently in its lying phase.
    #[must_use]
    pub fn is_lying_phase(&mut self) -> bool {
        self.mirror.should_lie()
    }
}

impl NodeBehavior for Level1Node {
    fn binary_action(&mut self, ctx: &RoundContext, rng: &mut SimRng) -> bool {
        if self.mirror.should_lie() {
            let mut liar = Level0Node::new(self.lie_config);
            liar.binary_action(ctx, rng)
        } else {
            self.honest.binary_action(ctx, rng)
        }
    }

    fn located_action(&mut self, ctx: &RoundContext, rng: &mut SimRng) -> Option<Point> {
        if self.mirror.should_lie() {
            let mut liar = Level0Node::new(self.lie_config);
            liar.located_action(ctx, rng)
        } else {
            self.honest.located_action(ctx, rng)
        }
    }

    fn observe_judgement(&mut self, judgement: Judgement) {
        self.mirror.observe(judgement);
    }

    fn kind(&self) -> BehaviorKind {
        BehaviorKind::Level1
    }

    fn snapshot(&self) -> Option<BehaviorSnapshot> {
        Some(BehaviorSnapshot::Level1 {
            lie_config: self.lie_config,
            honest_sigma: self.honest.loc_sigma,
            params: self.mirror.params,
            thresholds: self.mirror.thresholds,
            lying: self.mirror.lying,
            estimate_v: self.mirror.estimate.counter(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(event: Option<Point>, neighbor: bool) -> RoundContext {
        RoundContext {
            round: 0,
            node: NodeId(0),
            node_pos: Point::new(50.0, 50.0),
            event,
            is_event_neighbor: neighbor,
        }
    }

    #[test]
    fn correct_node_reports_sensed_events() {
        let mut n = CorrectNode::new(0.0, 0.0);
        let mut rng = SimRng::seed_from(1);
        let c = ctx(Some(Point::new(52.0, 52.0)), true);
        assert!(n.binary_action(&c, &mut rng));
        assert_eq!(n.located_action(&c, &mut rng), Some(Point::new(52.0, 52.0)));
    }

    #[test]
    fn correct_node_silent_without_event() {
        let mut n = CorrectNode::new(0.0, 1.6);
        let mut rng = SimRng::seed_from(1);
        let c = ctx(None, false);
        assert!(!n.binary_action(&c, &mut rng));
        assert_eq!(n.located_action(&c, &mut rng), None);
    }

    #[test]
    fn correct_node_cannot_sense_distant_event() {
        let mut n = CorrectNode::new(0.0, 1.6);
        let mut rng = SimRng::seed_from(1);
        // An event exists but outside this node's sensing radius.
        let c = ctx(Some(Point::new(0.0, 0.0)), false);
        assert!(!n.binary_action(&c, &mut rng));
    }

    #[test]
    fn correct_node_ner_statistics() {
        let mut n = CorrectNode::new(0.05, 1.6);
        let mut rng = SimRng::seed_from(2);
        let c = ctx(Some(Point::new(50.0, 50.0)), true);
        let trials = 20_000;
        let missed = (0..trials)
            .filter(|_| !n.binary_action(&c, &mut rng))
            .count() as f64;
        let rate = missed / trials as f64;
        assert!((rate - 0.05).abs() < 0.01, "missed-alarm rate {rate}");
    }

    #[test]
    fn correct_node_location_error_distribution() {
        let mut n = CorrectNode::new(0.0, 2.0);
        let mut rng = SimRng::seed_from(3);
        let event = Point::new(50.0, 50.0);
        let c = ctx(Some(event), true);
        let mut sum_sq = 0.0;
        let trials = 10_000;
        for _ in 0..trials {
            let claim = n.located_action(&c, &mut rng).unwrap();
            sum_sq += (claim.x - event.x).powi(2);
        }
        let var = sum_sq / trials as f64;
        assert!((var - 4.0).abs() < 0.2, "x-axis variance {var}, want 4");
    }

    #[test]
    fn level0_missed_alarm_rate() {
        let mut n = Level0Node::new(Level0Config::experiment1(0.0));
        let mut rng = SimRng::seed_from(4);
        let c = ctx(Some(Point::new(50.0, 50.0)), true);
        let trials = 20_000;
        let sent = (0..trials).filter(|_| n.binary_action(&c, &mut rng)).count() as f64;
        let rate = sent / trials as f64;
        assert!((rate - 0.5).abs() < 0.02, "send rate {rate}, want 0.5");
    }

    #[test]
    fn level0_false_alarm_rate() {
        let mut n = Level0Node::new(Level0Config::experiment1(0.75));
        let mut rng = SimRng::seed_from(5);
        let c = ctx(None, false);
        let trials = 20_000;
        let sent = (0..trials).filter(|_| n.binary_action(&c, &mut rng)).count() as f64;
        let rate = sent / trials as f64;
        assert!((rate - 0.75).abs() < 0.02, "false-alarm rate {rate}");
    }

    #[test]
    fn level0_drops_packets() {
        let mut n = Level0Node::new(Level0Config::experiment2(4.25));
        let mut rng = SimRng::seed_from(6);
        let c = ctx(Some(Point::new(50.0, 50.0)), true);
        let trials = 20_000;
        let sent = (0..trials)
            .filter(|_| n.located_action(&c, &mut rng).is_some())
            .count() as f64;
        let rate = sent / trials as f64;
        assert!((rate - 0.75).abs() < 0.02, "delivery rate {rate}, want 0.75");
    }

    #[test]
    fn level1_stops_lying_at_lower_threshold() {
        let params = TrustParams::experiment2();
        let mut n = Level1Node::with_paper_thresholds(
            Level0Config::experiment2(6.0),
            1.6,
            params,
        );
        assert!(n.is_lying_phase());
        // Punish until the estimated TI crosses 0.5.
        while n.estimated_ti() > 0.5 {
            n.observe_judgement(Judgement::Faulty);
        }
        assert!(!n.is_lying_phase(), "must switch to honest below lower TI");
    }

    #[test]
    fn level1_resumes_lying_at_upper_threshold() {
        let params = TrustParams::experiment2();
        let mut n = Level1Node::with_paper_thresholds(
            Level0Config::experiment2(6.0),
            1.6,
            params,
        );
        while n.estimated_ti() > 0.5 {
            n.observe_judgement(Judgement::Faulty);
        }
        assert!(!n.is_lying_phase());
        // Behave (earn correct judgements) until TI recovers past 0.8.
        while n.estimated_ti() < 0.8 {
            n.observe_judgement(Judgement::Correct);
        }
        assert!(n.is_lying_phase(), "must resume lying above upper TI");
    }

    #[test]
    fn level1_honest_phase_acts_correctly() {
        let params = TrustParams::experiment2();
        let mut n = Level1Node::with_paper_thresholds(
            Level0Config {
                missed_alarm: 1.0, // lying = always miss
                false_alarm: 0.0,
                loc_sigma: 6.0,
                drop_prob: 0.0,
            },
            0.0,
            params,
        );
        let mut rng = SimRng::seed_from(7);
        let event = Point::new(50.0, 50.0);
        let c = ctx(Some(event), true);
        // In the lying phase it always misses.
        assert!(!n.binary_action(&c, &mut rng));
        // Push into honest phase.
        while n.estimated_ti() > 0.5 {
            n.observe_judgement(Judgement::Faulty);
        }
        assert!(n.binary_action(&c, &mut rng), "honest phase must report");
        assert_eq!(n.located_action(&c, &mut rng), Some(event));
    }

    #[test]
    fn kinds_are_reported() {
        let params = TrustParams::experiment2();
        assert_eq!(CorrectNode::new(0.0, 1.0).kind(), BehaviorKind::Correct);
        assert_eq!(
            Level0Node::new(Level0Config::experiment2(4.25)).kind(),
            BehaviorKind::Level0
        );
        assert_eq!(
            Level1Node::with_paper_thresholds(Level0Config::experiment2(4.25), 1.6, params).kind(),
            BehaviorKind::Level1
        );
    }

    #[test]
    fn snapshots_roundtrip_mid_hysteresis() {
        let params = TrustParams::experiment2();
        let mut n = Level1Node::with_paper_thresholds(Level0Config::experiment2(6.0), 1.6, params);
        // Park the node mid-way through its honest phase.
        while n.estimated_ti() > 0.5 {
            n.observe_judgement(Judgement::Faulty);
        }
        assert!(!n.is_lying_phase());
        n.observe_judgement(Judgement::Correct);

        let snap = NodeBehavior::snapshot(&n).unwrap();
        let mut restored = snap.restore().unwrap();
        assert_eq!(NodeBehavior::snapshot(&*restored), Some(snap.clone()));

        // Both copies must draw identical actions from identical rng
        // streams from here on.
        let c = ctx(Some(Point::new(52.0, 52.0)), true);
        let mut rng_a = SimRng::seed_from(9);
        let mut rng_b = SimRng::seed_from(9);
        for round in 0..50 {
            assert_eq!(
                n.located_action(&c, &mut rng_a),
                restored.located_action(&c, &mut rng_b),
                "diverged at round {round}"
            );
            n.observe_judgement(Judgement::Correct);
            restored.observe_judgement(Judgement::Correct);
        }

        // The simple behaviors roundtrip too.
        let correct = CorrectNode::new(0.05, 1.6);
        let snap = NodeBehavior::snapshot(&correct).unwrap();
        assert_eq!(NodeBehavior::snapshot(&*snap.restore().unwrap()), Some(snap));
        let naive = Level0Node::new(Level0Config::experiment1(0.75));
        let snap = NodeBehavior::snapshot(&naive).unwrap();
        assert_eq!(NodeBehavior::snapshot(&*snap.restore().unwrap()), Some(snap));
    }

    #[test]
    fn restore_rejects_corrupt_snapshots() {
        assert!(BehaviorSnapshot::Correct { ner: 1.5, loc_sigma: 0.0 }.restore().is_err());
        assert!(BehaviorSnapshot::Correct { ner: 0.0, loc_sigma: f64::NAN }.restore().is_err());
        assert!(BehaviorSnapshot::Level0 {
            config: Level0Config { missed_alarm: -0.1, false_alarm: 0.0, loc_sigma: 0.0, drop_prob: 0.0 },
        }
        .restore()
        .is_err());
        let level1 = |honest_sigma: f64,
                      params: TrustParams,
                      thresholds: Option<(f64, f64)>,
                      estimate_v: f64| BehaviorSnapshot::Level1 {
            lie_config: Level0Config::experiment2(4.25),
            honest_sigma,
            params,
            thresholds,
            lying: true,
            estimate_v,
        };
        let p = TrustParams::experiment2();
        assert!(level1(1.6, p, Some((0.5, 0.8)), 0.0).restore().is_ok());
        assert!(level1(-1.0, p, Some((0.5, 0.8)), 0.0).restore().is_err());
        assert!(level1(1.6, p, Some((0.8, 0.5)), 0.0).restore().is_err());
        assert!(level1(1.6, p, Some((0.5, 0.8)), f64::INFINITY).restore().is_err());
        let bad_params = TrustParams {
            lambda: -1.0,
            fault_rate: 0.1,
            arith: tibfit_core::trust::TrustArith::Float64,
        };
        assert!(level1(1.6, bad_params, Some((0.5, 0.8)), 0.0).restore().is_err());
    }

    #[test]
    #[should_panic(expected = "must be in [0,1]")]
    fn level0_validates_probabilities() {
        let _ = Level0Node::new(Level0Config {
            missed_alarm: 1.5,
            false_alarm: 0.0,
            loc_sigma: 0.0,
            drop_prob: 0.0,
        });
    }

    #[test]
    fn quiet_behaviors_leave_rng_and_state_untouched_unsensed() {
        let l0 = |missed_alarm, false_alarm, drop_prob| {
            Level0Node::new(Level0Config {
                missed_alarm,
                false_alarm,
                loc_sigma: 4.25,
                drop_prob,
            })
        };
        let zoo: Vec<Box<dyn NodeBehavior>> = vec![
            Box::new(CorrectNode::new(0.0, 1.6)),
            Box::new(CorrectNode::new(0.0, 0.0)),
            Box::new(CorrectNode::new(0.05, 1.6)),
            Box::new(l0(0.0, 0.0, 0.25)),
            Box::new(l0(0.5, 0.0, 1.0)),
            Box::new(l0(1.0, 0.0, 0.0)),
            Box::new(l0(0.5, 0.1, 0.25)),
            Box::new(l0(0.0, 1.0, 0.0)),
            Box::new(Level1Node::with_paper_thresholds(
                Level0Config::experiment2(4.25),
                1.6,
                TrustParams::experiment2(),
            )),
        ];
        let unsensed = [
            ctx(None, false),
            ctx(None, true),
            ctx(Some(Point::new(90.0, 90.0)), false),
        ];
        let mut quiet = 0;
        for (i, mut b) in zoo.into_iter().enumerate() {
            if !b.quiet_unless_sensed() {
                continue;
            }
            quiet += 1;
            let snapshot = b.snapshot();
            let mut rng = SimRng::seed_from(0xC0 + i as u64);
            // A pending Gaussian spare is part of the state too.
            let _ = rng.standard_normal();
            let before = rng.state();
            for c in &unsensed {
                for _ in 0..50 {
                    assert_eq!(b.located_action(c, &mut rng), None, "behavior {i}");
                    assert!(!b.binary_action(c, &mut rng), "behavior {i}");
                }
            }
            assert_eq!(rng.state(), before, "behavior {i} drew from the rng");
            assert_eq!(b.snapshot(), snapshot, "behavior {i} changed itself");
        }
        assert_eq!(quiet, 5, "the zoo's quiet members");
        // Anything that can false-alarm is not quiet.
        assert!(!CorrectNode::new(0.05, 1.6).quiet_unless_sensed());
        assert!(!l0(0.0, 0.1, 0.0).quiet_unless_sensed());
    }

    #[test]
    #[should_panic(expected = "lower_ti < upper_ti")]
    fn level1_validates_thresholds() {
        let _ = Level1Node::new(
            Level0Config::experiment2(4.25),
            1.6,
            TrustParams::experiment2(),
            0.9,
            0.5,
        );
    }
}

//! Event-driven (DES) simulation of the cluster head, the faithful
//! reproduction of the paper's ns-2 mechanism.
//!
//! The round-based driver in [`crate::network`] abstracts the `T_out`
//! window (all of a round's reports are batched). This module runs the
//! *actual* §3.2/§3.3 protocol on the [`tibfit_sim::Engine`]:
//!
//! * the event generator schedules ground-truth events on the virtual
//!   clock;
//! * each sensing node's report is delayed by per-packet jitter (channel
//!   contention) before reaching the cluster head;
//! * the CH's [`ConcurrentCollector`] opens a symbolic circle with its
//!   own `T_out` timer on each first report, merges overlapping circles,
//!   and only when the timers expire does the clustering + trust vote run;
//! * judgements feed back to the (possibly adversarial) nodes.
//!
//! Because `T_out` is finite and jitter is real, reports can *straddle*
//! windows and concurrent events interleave naturally — the situations
//! §3.3 is about.

use tibfit_adversary::behavior::{NodeBehavior, RoundContext};
use tibfit_core::concurrent::ConcurrentCollector;
use tibfit_core::engine::Aggregator;
use tibfit_core::location::LocatedReport;
use tibfit_net::channel::ChannelModel;
use tibfit_net::geometry::Point;
use tibfit_net::topology::{NodeId, Topology};
use tibfit_sim::rng::SimRng;
use tibfit_sim::trace::{CounterId, Trace};
use tibfit_sim::{Duration, Engine, SimTime};

/// Timing parameters of the DES run, in clock ticks.
#[derive(Debug, Clone, Copy)]
pub struct DesConfig {
    /// The CH's report-collection window `T_out`.
    pub t_out: Duration,
    /// Interval between generated events.
    pub event_interval: Duration,
    /// Maximum per-report network jitter (uniform in `[0, jitter)`).
    pub max_jitter: Duration,
    /// Sensing radius `r_s`.
    pub sensing_radius: f64,
    /// Localization tolerance `r_error`.
    pub r_error: f64,
    /// Position of the cluster head.
    pub ch_position: Point,
    /// Probability that a generated event is a concurrent *pair*.
    pub concurrent_probability: f64,
    /// Retransmission attempts after a channel loss (0 = fire and
    /// forget, the paper's base protocol).
    pub max_retries: u32,
    /// Backoff before the first retransmission; doubles per attempt.
    pub retry_backoff: Duration,
}

impl DesConfig {
    /// Paper-scale timing: events every 1000 ticks, `T_out` = 100 ticks,
    /// jitter up to 50 ticks, no retransmissions.
    #[must_use]
    pub fn paper_scale(field: f64) -> Self {
        DesConfig {
            t_out: Duration::from_ticks(100),
            event_interval: Duration::from_ticks(1000),
            max_jitter: Duration::from_ticks(50),
            sensing_radius: 20.0,
            r_error: 5.0,
            ch_position: Point::new(field / 2.0, field / 2.0),
            concurrent_probability: 0.0,
            max_retries: 0,
            retry_backoff: Duration::from_ticks(10),
        }
    }

    /// Enables bounded report retransmission: up to `max_retries`
    /// attempts with exponential backoff starting at `backoff`, never
    /// past the sensing time plus `T_out` (a report that cannot make its
    /// collection window is dropped, not retried forever).
    #[must_use]
    pub fn with_retries(mut self, max_retries: u32, backoff: Duration) -> Self {
        self.max_retries = max_retries;
        self.retry_backoff = backoff;
        self
    }
}

/// What flows through the DES queue.
#[derive(Debug, Clone)]
enum DesEvent {
    /// Ground truth: events occur at these locations now.
    Occurs(Vec<Point>),
    /// A report reaches the cluster head after its network delay.
    Arrives(LocatedReport),
    /// A lost report's retransmission timer fires.
    Retry {
        /// The report being retransmitted.
        report: LocatedReport,
        /// When the node first sensed the event (bounds the retries).
        origin: SimTime,
        /// 1-based attempt number.
        attempt: u32,
    },
    /// A collector deadline may have passed; poll it.
    WindowCheck,
}

/// Aggregate results of a DES run.
#[derive(Debug, Clone, PartialEq)]
pub struct DesStats {
    /// Ground-truth events injected.
    pub events_injected: usize,
    /// Events whose location was declared within `r_error`.
    pub events_detected: usize,
    /// Declared events matching no ground truth (false positives).
    pub false_events: usize,
    /// Decision batches run (merged circle groups).
    pub decision_batches: usize,
    /// Total simulated time at completion.
    pub finished_at: SimTime,
}

impl DesStats {
    /// Detection accuracy.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        if self.events_injected == 0 {
            1.0
        } else {
            self.events_detected as f64 / self.events_injected as f64
        }
    }
}

/// Interned trace-counter ids for the per-event hot path: registered
/// once at construction so each bump is an indexed add, not a map
/// lookup.
#[derive(Debug, Clone, Copy)]
struct DesCounters {
    events_injected: CounterId,
    reports_delivered: CounterId,
    retry_count: CounterId,
    decision_batches: CounterId,
}

impl DesCounters {
    fn register(trace: &mut Trace) -> Self {
        DesCounters {
            events_injected: trace.register_counter("events_injected"),
            reports_delivered: trace.register_counter("reports_delivered"),
            retry_count: trace.register_counter("retry.count"),
            decision_batches: trace.register_counter("decision_batches"),
        }
    }
}

/// The event-driven cluster simulation.
pub struct DesClusterSim {
    config: DesConfig,
    topo: Topology,
    behaviors: Vec<Box<dyn NodeBehavior>>,
    channel: Box<dyn ChannelModel>,
    aggregator: Box<dyn Aggregator>,
    rng: SimRng,
    engine: Engine<DesEvent>,
    collector: ConcurrentCollector,
    round: u64,
    /// Ground-truth event locations no declaration has matched yet.
    pending_truth: Vec<Point>,
    stats: DesStats,
    trace: Trace,
    counters: DesCounters,
}

impl DesClusterSim {
    /// Wires up the DES simulation.
    ///
    /// # Panics
    ///
    /// Panics if `behaviors.len()` differs from the topology size.
    #[must_use]
    pub fn new(
        config: DesConfig,
        topo: Topology,
        behaviors: Vec<Box<dyn NodeBehavior>>,
        channel: Box<dyn ChannelModel>,
        aggregator: Box<dyn Aggregator>,
        rng: SimRng,
    ) -> Self {
        assert_eq!(behaviors.len(), topo.len(), "one behavior per node");
        let mut trace = Trace::disabled();
        let counters = DesCounters::register(&mut trace);
        DesClusterSim {
            collector: ConcurrentCollector::new(config.r_error, config.t_out),
            config,
            topo,
            behaviors,
            channel,
            aggregator,
            rng,
            engine: Engine::new(),
            round: 0,
            pending_truth: Vec::new(),
            stats: DesStats {
                events_injected: 0,
                events_detected: 0,
                false_events: 0,
                decision_batches: 0,
                finished_at: SimTime::ZERO,
            },
            trace,
            counters,
        }
    }

    /// Enables structured tracing with the given event-buffer capacity.
    #[must_use]
    pub fn with_trace(mut self, capacity: usize) -> Self {
        self.trace = Trace::enabled(capacity);
        // The fresh trace has empty slots; re-intern the hot-path ids.
        self.counters = DesCounters::register(&mut self.trace);
        self
    }

    /// The trace collected so far (counters work even when tracing is
    /// disabled).
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Runs `n_events` generated events to completion (all windows
    /// drained) and returns the statistics.
    pub fn run(&mut self, n_events: u64) -> DesStats {
        // Schedule the ground-truth injections.
        let mut event_rng = self.rng.fork(0xDE5);
        for i in 0..n_events {
            let at = SimTime::ZERO + self.config.event_interval * (i + 1);
            let mut locations = vec![self.topo.random_event_location(&mut event_rng)];
            if event_rng.chance(self.config.concurrent_probability) {
                // A concurrent partner at least r_error away.
                loop {
                    let p = self.topo.random_event_location(&mut event_rng);
                    if p.distance_to(locations[0]) > self.config.r_error {
                        locations.push(p);
                        break;
                    }
                }
            }
            self.engine.schedule_at(at, DesEvent::Occurs(locations));
        }

        while let Some((now, event)) = self.engine.pop() {
            match event {
                DesEvent::Occurs(locations) => self.on_occurs(now, &locations),
                DesEvent::Arrives(report) => self.on_arrival(now, report),
                DesEvent::Retry {
                    report,
                    origin,
                    attempt,
                } => self.on_retry(now, report, origin, attempt),
                DesEvent::WindowCheck => self.on_window_check(now),
            }
        }
        // Drain anything still buffered (simulation end).
        let now = self.engine.now();
        for group in self.collector.flush() {
            self.decide(now, &group);
        }
        self.stats.finished_at = self.engine.now();
        self.stats.clone()
    }

    fn on_occurs(&mut self, now: SimTime, locations: &[Point]) {
        self.trace
            .bump_by(self.counters.events_injected, locations.len() as u64);
        if self.trace.is_enabled() {
            for loc in locations {
                self.trace.record(now, "event", format!("ground truth at {loc}"));
            }
        }
        self.stats.events_injected += locations.len();
        self.pending_truth.extend_from_slice(locations);
        self.round += 1;
        let round = self.round;
        // Node ids are dense 0..n; iterating by index keeps the event
        // loop free of the per-event id-list allocation.
        for idx in 0..self.topo.len() {
            let node = NodeId(idx);
            let node_pos = self.topo.position(node);
            let sensed = locations
                .iter()
                .copied()
                .filter(|e| node_pos.distance_to(*e) <= self.config.sensing_radius)
                .min_by(|a, b| {
                    node_pos
                        .distance_sq(*a)
                        .total_cmp(&node_pos.distance_sq(*b))
                });
            let ctx = RoundContext {
                round,
                node,
                node_pos,
                event: sensed.or_else(|| locations.first().copied()),
                is_event_neighbor: sensed.is_some(),
            };
            if let Some(claim) = self.behaviors[node.index()].located_action(&ctx, &mut self.rng)
            {
                let report = LocatedReport::new(node, claim);
                if self
                    .channel
                    .delivers(node_pos, self.config.ch_position, &mut self.rng)
                {
                    let jitter = Duration::from_ticks(
                        self.rng.uniform_usize(self.config.max_jitter.ticks().max(1) as usize)
                            as u64,
                    );
                    self.engine
                        .schedule_at(now + jitter, DesEvent::Arrives(report));
                } else {
                    self.schedule_retry(now, now, report, 1);
                }
            }
        }
    }

    /// Arms the next retransmission timer, if the budget and the `T_out`
    /// deadline allow one.
    fn schedule_retry(&mut self, now: SimTime, origin: SimTime, report: LocatedReport, attempt: u32) {
        if attempt > self.config.max_retries {
            return;
        }
        // Exponential backoff: backoff · 2^(attempt−1).
        let backoff = self.config.retry_backoff * (1u64 << (attempt - 1).min(16));
        let fire_at = now + backoff;
        // Bounded: a retransmission that cannot make the collection
        // window is pointless — the report is dropped instead.
        if fire_at > origin + self.config.t_out {
            if self.trace.is_enabled() {
                self.trace
                    .record(now, "retry", format!("{} gives up", report.reporter));
            }
            return;
        }
        self.engine.schedule_at(
            fire_at,
            DesEvent::Retry {
                report,
                origin,
                attempt,
            },
        );
    }

    fn on_retry(&mut self, now: SimTime, report: LocatedReport, origin: SimTime, attempt: u32) {
        self.trace.bump(self.counters.retry_count);
        if self.trace.is_enabled() {
            self.trace.record(
                now,
                "retry",
                format!("{} retransmits (attempt {attempt})", report.reporter),
            );
        }
        let node_pos = self.topo.position(report.reporter);
        if self
            .channel
            .delivers(node_pos, self.config.ch_position, &mut self.rng)
        {
            let jitter = Duration::from_ticks(
                self.rng
                    .uniform_usize(self.config.max_jitter.ticks().max(1) as usize)
                    as u64,
            );
            self.engine
                .schedule_at(now + jitter, DesEvent::Arrives(report));
        } else {
            self.schedule_retry(now, origin, report, attempt + 1);
        }
    }

    fn on_arrival(&mut self, now: SimTime, report: LocatedReport) {
        self.trace.bump(self.counters.reports_delivered);
        if self.trace.is_enabled() {
            self.trace.record(
                now,
                "report",
                format!("{} claims {}", report.reporter, report.location),
            );
        }
        self.collector.submit(now, report);
        if let Some(deadline) = self.collector.next_deadline() {
            // A fresh check at the earliest deadline; stale checks are
            // harmless (poll is idempotent).
            self.engine
                .schedule_at(deadline.max(now), DesEvent::WindowCheck);
        }
    }

    fn on_window_check(&mut self, now: SimTime) {
        for group in self.collector.poll(now) {
            self.decide(now, &group);
        }
        // Re-arm strictly in the future: an expired circle still buffered
        // here is waiting on an overlapping partner's later deadline, and
        // re-arming at its own (past) deadline would spin forever.
        if let Some(deadline) = self.collector.next_deadline_after(now) {
            self.engine.schedule_at(deadline, DesEvent::WindowCheck);
        }
    }

    fn decide(&mut self, _now: SimTime, reports: &[LocatedReport]) {
        if reports.is_empty() {
            return;
        }
        self.stats.decision_batches += 1;
        self.trace.bump(self.counters.decision_batches);
        let round = self.aggregator.located_round(
            &self.topo,
            self.config.sensing_radius,
            self.config.r_error,
            reports,
        );
        for &(node, judgement) in &round.judgements {
            self.behaviors[node.index()].observe_judgement(judgement);
        }
        for declared in round.declared_locations() {
            // Match the first pending ground truth within `r_error`. It is
            // not the oldest: `swap_remove` reorders the pending list.
            if let Some(idx) = self
                .pending_truth
                .iter()
                .position(|truth| truth.distance_to(declared) <= self.config.r_error)
            {
                self.pending_truth.swap_remove(idx);
                self.stats.events_detected += 1;
                if self.trace.is_enabled() {
                    self.trace
                        .record(_now, "decision", format!("event confirmed at {declared}"));
                }
            } else {
                self.stats.false_events += 1;
                if self.trace.is_enabled() {
                    self.trace
                        .record(_now, "decision", format!("FALSE event at {declared}"));
                }
            }
        }
    }

    /// The aggregator's trust estimate for a node, if it keeps one.
    #[must_use]
    pub fn trust_of(&self, node: NodeId) -> Option<f64> {
        self.aggregator.trust_of(node)
    }
}

impl std::fmt::Debug for DesClusterSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DesClusterSim")
            .field("nodes", &self.topo.len())
            .field("engine", &self.aggregator.name())
            .field("now", &self.engine.now())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tibfit_adversary::{CorrectNode, Level0Config, Level0Node};
    use tibfit_core::engine::TibfitEngine;
    use tibfit_core::trust::TrustParams;
    use tibfit_net::channel::BernoulliLoss;
    use tibfit_net::topology::NodeId;

    fn build(n_faulty: usize, concurrent: f64, seed: u64) -> DesClusterSim {
        let topo = Topology::uniform_grid(100, 100.0, 100.0);
        // Spread the faulty subset randomly over the grid (a contiguous
        // id block would be a spatially clustered, locally-majority
        // compromise — a different and much harder scenario).
        let faulty = SimRng::seed_from(seed ^ 0xF0).choose_indices(100, n_faulty);
        let behaviors: Vec<Box<dyn NodeBehavior>> = (0..100)
            .map(|i| -> Box<dyn NodeBehavior> {
                if faulty.contains(&i) {
                    Box::new(Level0Node::new(Level0Config::experiment2(4.25)))
                } else {
                    Box::new(CorrectNode::new(0.0, 1.6))
                }
            })
            .collect();
        let mut config = DesConfig::paper_scale(100.0);
        config.concurrent_probability = concurrent;
        DesClusterSim::new(
            config,
            topo,
            behaviors,
            Box::new(BernoulliLoss::new(0.005)),
            Box::new(TibfitEngine::new(TrustParams::experiment2(), 100)),
            SimRng::seed_from(seed),
        )
    }

    #[test]
    fn honest_network_detects_nearly_everything() {
        let mut sim = build(0, 0.0, 1);
        let stats = sim.run(100);
        assert_eq!(stats.events_injected, 100);
        assert!(
            stats.accuracy() > 0.95,
            "accuracy {} (detected {}/{})",
            stats.accuracy(),
            stats.events_detected,
            stats.events_injected
        );
        assert_eq!(stats.false_events, 0);
    }

    #[test]
    fn simulated_time_advances_with_schedule() {
        let mut sim = build(0, 0.0, 2);
        let stats = sim.run(10);
        // Ten events at 1000-tick intervals plus the final windows.
        assert!(stats.finished_at >= SimTime::from_ticks(10_000));
        assert!(stats.finished_at < SimTime::from_ticks(12_000));
    }

    #[test]
    fn concurrent_pairs_detected_via_circles() {
        let mut sim = build(0, 1.0, 3);
        let stats = sim.run(50);
        assert_eq!(stats.events_injected, 100, "every round injects a pair");
        assert!(
            stats.accuracy() > 0.9,
            "accuracy {} with concurrent events",
            stats.accuracy()
        );
    }

    #[test]
    fn faulty_minority_tolerated_and_diagnosed() {
        let seed = 4;
        let mut sim = build(30, 0.0, seed);
        let stats = sim.run(150);
        assert!(stats.accuracy() > 0.85, "accuracy {}", stats.accuracy());
        // Faulty nodes' trust should sit below honest nodes'. Recompute
        // the same faulty subset `build` drew.
        let faulty = SimRng::seed_from(seed ^ 0xF0).choose_indices(100, 30);
        let (mut f_sum, mut h_sum) = (0.0, 0.0);
        for i in 0..100 {
            let t = sim.trust_of(NodeId(i)).unwrap();
            if faulty.contains(&i) {
                f_sum += t;
            } else {
                h_sum += t;
            }
        }
        let faulty_mean = f_sum / 30.0;
        let honest_mean = h_sum / 70.0;
        assert!(
            faulty_mean < honest_mean,
            "faulty {faulty_mean} vs honest {honest_mean}"
        );
    }

    #[test]
    fn des_run_is_deterministic() {
        let a = build(20, 0.5, 9).run(60);
        let b = build(20, 0.5, 9).run(60);
        assert_eq!(a, b);
    }

    #[test]
    fn des_matches_round_based_driver_on_shape() {
        // The DES path and the batched round-based path should agree
        // closely on accuracy for the same scenario (they differ only in
        // timing artifacts).
        use crate::exp1::EngineKind;
        use crate::exp2::{run_exp2, Exp2Config, FaultLevel};
        let mut des_acc = 0.0;
        let trials = 3;
        for seed in crate::harness::trial_seeds(5, trials) {
            let mut sim = build(30, 0.0, seed);
            des_acc += sim.run(200).accuracy();
        }
        des_acc /= trials as f64;
        let mut batch_acc = 0.0;
        for seed in crate::harness::trial_seeds(5, trials) {
            let mut config = Exp2Config::paper(1.6, 4.25, FaultLevel::Level0, EngineKind::Tibfit);
            config.events = 200;
            batch_acc += run_exp2(&config, 30.0, seed).accuracy;
        }
        batch_acc /= trials as f64;
        assert!(
            (des_acc - batch_acc).abs() < 0.1,
            "DES {des_acc} vs batched {batch_acc}"
        );
    }

    #[test]
    fn trace_counters_track_stats() {
        let mut sim = build(0, 0.0, 8);
        let mut sim_traced = {
            let inner = build(0, 0.0, 8);
            inner.with_trace(64)
        };
        let plain = sim.run(20);
        let traced = sim_traced.run(20);
        assert_eq!(plain, traced, "tracing must not perturb the simulation");
        let trace = sim_traced.trace();
        assert_eq!(trace.counter("events_injected"), 20);
        assert_eq!(trace.counter("decision_batches") as usize, traced.decision_batches);
        assert!(trace.counter("reports_delivered") > 0);
        assert!(!trace.events_in("decision").is_empty());
    }

    #[test]
    fn retries_recover_reports_on_a_lossy_channel() {
        // A brutal 40%-loss channel: retransmission should deliver
        // measurably more reports than fire-and-forget.
        let build_lossy = |retries: u32| {
            let topo = Topology::uniform_grid(100, 100.0, 100.0);
            let behaviors: Vec<Box<dyn NodeBehavior>> =
                (0..100).map(|_| -> Box<dyn NodeBehavior> { Box::new(CorrectNode::new(0.0, 1.6)) }).collect();
            let config = DesConfig::paper_scale(100.0)
                .with_retries(retries, Duration::from_ticks(10));
            DesClusterSim::new(
                config,
                topo,
                behaviors,
                Box::new(BernoulliLoss::new(0.4)),
                Box::new(TibfitEngine::new(TrustParams::experiment2(), 100)),
                SimRng::seed_from(17),
            )
            .with_trace(16)
        };
        let mut plain = build_lossy(0);
        plain.run(50);
        let mut retrying = build_lossy(3);
        retrying.run(50);
        assert_eq!(plain.trace().counter("retry.count"), 0);
        assert!(retrying.trace().counter("retry.count") > 0);
        assert!(
            retrying.trace().counter("reports_delivered")
                > plain.trace().counter("reports_delivered"),
            "retries {} vs plain {}",
            retrying.trace().counter("reports_delivered"),
            plain.trace().counter("reports_delivered")
        );
    }

    #[test]
    fn retries_are_deterministic_and_bounded() {
        let run = || {
            let topo = Topology::uniform_grid(49, 70.0, 70.0);
            let behaviors: Vec<Box<dyn NodeBehavior>> =
                (0..49).map(|_| -> Box<dyn NodeBehavior> { Box::new(CorrectNode::new(0.0, 1.6)) }).collect();
            let config = DesConfig::paper_scale(70.0)
                .with_retries(5, Duration::from_ticks(15));
            let mut sim = DesClusterSim::new(
                config,
                topo,
                behaviors,
                Box::new(BernoulliLoss::new(0.3)),
                Box::new(TibfitEngine::new(TrustParams::experiment2(), 49)),
                SimRng::seed_from(23),
            )
            .with_trace(16);
            let stats = sim.run(40);
            (stats, sim.trace().counter("retry.count"))
        };
        let (a, ra) = run();
        let (b, rb) = run();
        assert_eq!(a, b);
        assert_eq!(ra, rb);
        // Bounded by the T_out deadline: with backoff 15·2^k the window
        // admits at most 3 attempts (15+30+60 > 100 ticks), so the count
        // can never approach retries × reports.
        assert!(ra > 0);
    }

    /// Exact output at three shapes: the whole `DesStats` and the trace
    /// counters, so a kernel or collector change that reorders pops or
    /// releases shows up as a changed literal, not a tolerance drift.
    #[test]
    fn des_output_is_pinned() {
        let lossy = || {
            let topo = Topology::uniform_grid(100, 100.0, 100.0);
            let behaviors: Vec<Box<dyn NodeBehavior>> = (0..100)
                .map(|_| -> Box<dyn NodeBehavior> { Box::new(CorrectNode::new(0.0, 1.6)) })
                .collect();
            let config = DesConfig::paper_scale(100.0).with_retries(3, Duration::from_ticks(10));
            DesClusterSim::new(
                config,
                topo,
                behaviors,
                Box::new(BernoulliLoss::new(0.4)),
                Box::new(TibfitEngine::new(TrustParams::experiment2(), 100)),
                SimRng::seed_from(17),
            )
        };
        let stats = |injected, detected, false_events, batches, ticks| DesStats {
            events_injected: injected,
            events_detected: detected,
            false_events,
            decision_batches: batches,
            finished_at: SimTime::from_ticks(ticks),
        };
        let cases = [
            (
                "honest",
                build(0, 0.0, 1),
                100,
                stats(100, 100, 0, 100, 100_117),
                [100, 1066, 100, 0],
            ),
            (
                "level0",
                build(30, 0.5, 9),
                60,
                stats(91, 85, 0, 100, 60_143),
                [91, 845, 100, 0],
            ),
            (
                "lossy",
                lossy(),
                50,
                stats(50, 50, 0, 52, 50_110),
                [50, 501, 52, 324],
            ),
        ];
        for (name, mut sim, n_events, want_stats, want_counters) in cases {
            let got = sim.run(n_events);
            let trace = sim.trace();
            let counters = [
                "events_injected",
                "reports_delivered",
                "decision_batches",
                "retry.count",
            ]
            .map(|c| trace.counter(c));
            assert_eq!(got, want_stats, "{name}: stats");
            assert_eq!(counters, want_counters, "{name}: counters");
        }
    }

    #[test]
    fn empty_run_reports_perfect_accuracy() {
        let mut sim = build(0, 0.0, 7);
        let stats = sim.run(0);
        assert_eq!(stats.events_injected, 0);
        assert_eq!(stats.accuracy(), 1.0);
    }
}

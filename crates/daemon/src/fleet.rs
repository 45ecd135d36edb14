//! Fleet membership: deterministic tenant placement and the
//! Impact-style peer health view.
//!
//! ## Placement
//!
//! Tenant → daemon assignment is rendezvous (highest-random-weight)
//! hashing over a shared placement seed: every daemon hashes
//! `(seed, tenant, daemon)` and the tenant belongs to the alive daemon
//! with the greatest hash. Placement is a *pure function* of the
//! `(seed, alive-roster)` pair — no coordinator, no state, and every
//! survivor computes the identical rebalance when a peer dies.
//!
//! ## Peer health
//!
//! Each daemon probes its peers on a fixed cadence and keeps the same
//! Impact-style trust the in-process watchdog keeps for workers:
//! `trust = e^(-λ · consecutive_misses)`, reset by any successful
//! contact. A peer whose trust crosses the floor becomes a *suspect*:
//! still alive for placement, re-probed once at double timeout. Only a
//! failed confirm *quarantines* it (declares it dead): its tenants are
//! deterministically rebalanced onto the survivors and, like a
//! quarantined worker slot, ownership does not bounce back — a
//! reappearing peer walks the probation ladder (consecutive successful
//! contacts) before it counts as alive again for *future* placement
//! decisions. [`PeerMonitor::step`] makes every one of these decisions
//! from the events and the time it is given, and [`monitor_round`]
//! strings one round's probes, confirms and steps together around a
//! probe closure; the driver's monitor loop only paces the rounds, sends
//! the probes and adopts.
//!
//! Misses are only counted after a peer has been contacted at least
//! once or its startup grace has elapsed, so a fleet that boots in an
//! arbitrary order does not declare its slowest member dead on tick
//! one.

use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};

use crate::DaemonError;

/// Probing and trust policy for peer daemons — the fleet-level mirror
/// of the worker watchdog's policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetPolicy {
    /// Milliseconds between peer probes.
    pub check_interval_ms: u64,
    /// Trust decay per consecutive missed probe.
    pub lambda: f64,
    /// Below this trust a peer is quarantined and its tenants
    /// rebalanced.
    pub trust_floor: f64,
    /// Milliseconds after fleet start before misses count against a
    /// never-contacted peer (boot-order tolerance).
    pub grace_ms: u64,
    /// Milliseconds to wait for one probe's reply.
    pub probe_timeout_ms: u64,
    /// Consecutive successful probes a quarantined peer needs to be
    /// considered alive again for future placement.
    pub probation_probes: u32,
}

impl Default for FleetPolicy {
    fn default() -> Self {
        FleetPolicy {
            check_interval_ms: 50,
            lambda: 0.8,
            trust_floor: 0.05,
            grace_ms: 2_000,
            probe_timeout_ms: 250,
            probation_probes: 3,
        }
    }
}

impl FleetPolicy {
    /// Consecutive misses at which trust first dips under the floor —
    /// the fleet analogue of the watchdog's `misses_to_suspect`.
    #[must_use]
    pub fn misses_to_quarantine(&self) -> u32 {
        misses_under_floor(self.lambda, self.trust_floor)
    }
}

/// The Impact detector's suspicion point, shared by the worker watchdog
/// and the peer view: the smallest miss count `m ≥ 1` whose trust
/// `e^(-λ·m)` is under `floor`, about `ceil(-ln(floor) / λ)`. A λ too
/// small to get there within 1000 misses yields 1000.
pub(crate) fn misses_under_floor(lambda: f64, floor: f64) -> u32 {
    (1..1_000)
        .find(|&m| (-lambda * f64::from(m)).exp() < floor)
        .unwrap_or(1_000)
}

/// One peer daemon's identity and fleet address.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PeerSpec {
    /// Fleet id (stable across restarts; feeds the placement hash).
    pub id: usize,
    /// Fleet-port address, e.g. `127.0.0.1:7801`.
    pub addr: String,
}

/// Fleet membership configuration for one daemon.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// This daemon's fleet id.
    pub id: usize,
    /// The other members (self excluded).
    pub peers: Vec<PeerSpec>,
    /// Shared placement seed — every member must agree.
    pub seed: u64,
    /// Address this daemon's fleet port listens on.
    pub listen: String,
    /// After ingest EOF, keep serving the fleet port this long (reset
    /// by fleet activity) so late rebalances and migrations land.
    pub linger_ms: u64,
    /// Replay file survivors re-stream to catch an adopted tenant up
    /// from its snapshot to the head of the stream.
    pub catchup_replay: Option<PathBuf>,
    /// Probe cadence and trust policy.
    pub policy: FleetPolicy,
}

impl FleetConfig {
    /// Validates ids are unique and the policy is sane.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Config`] on duplicate ids, self-probing peers,
    /// or a non-positive λ/floor.
    pub fn validated(self) -> Result<Self, DaemonError> {
        let mut ids: Vec<usize> = self.peers.iter().map(|p| p.id).collect();
        ids.push(self.id);
        ids.sort_unstable();
        if ids.windows(2).any(|w| w[0] == w[1]) {
            return Err(DaemonError::Config("fleet ids must be unique".into()));
        }
        // partial_cmp so NaN fails validation rather than slipping by.
        let positive = |v: f64| v.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater);
        if !positive(self.policy.lambda) || !positive(self.policy.trust_floor) {
            return Err(DaemonError::Config(
                "fleet lambda and trust floor must be positive".into(),
            ));
        }
        Ok(self)
    }

    /// Every member id in the configured roster (self included),
    /// sorted.
    #[must_use]
    pub fn roster(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = self.peers.iter().map(|p| p.id).collect();
        ids.push(self.id);
        ids.sort_unstable();
        ids
    }
}

/// SplitMix64-style finalizer — the placement hash's mixer. Chosen for
/// avalanche quality and because it is trivially reproducible in any
/// language an operator might recompute placement in.
#[must_use]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The rendezvous weight of `(tenant, daemon)` under `seed`.
#[must_use]
pub fn placement_weight(seed: u64, tenant: usize, daemon: usize) -> u64 {
    mix64(seed ^ mix64(tenant as u64 ^ 0xA11C_E5ED) ^ mix64(daemon as u64 ^ 0xD0_0D1E))
}

/// Which alive daemon owns `tenant`: the rendezvous argmax, ties
/// broken toward the lower id. `None` iff the roster is empty.
#[must_use]
pub fn owner_of(seed: u64, tenant: usize, alive: &[usize]) -> Option<usize> {
    alive
        .iter()
        .copied()
        .max_by_key(|&d| (placement_weight(seed, tenant, d), std::cmp::Reverse(d)))
}

/// Where a peer stands in the quarantine lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PeerState {
    /// Healthy (or within grace): counts as alive for placement.
    Active,
    /// Its trust just crossed the floor, and a confirming re-probe is
    /// due. Still alive for placement: only a failed confirm
    /// quarantines it, and any contact clears the suspicion.
    Suspect,
    /// The confirming re-probe failed: declared dead, tenants
    /// rebalanced.
    Quarantined,
    /// A quarantined peer answering probes again; climbing the
    /// probation ladder back to Active.
    Probation,
}

/// One peer's Impact-style health view.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PeerView {
    /// The peer's identity.
    pub spec: PeerSpec,
    /// Lifecycle state.
    pub state: PeerState,
    /// Consecutive missed probes.
    pub misses: u32,
    /// Whether the peer has ever been heard from.
    pub contacted: bool,
    /// Consecutive successes while in probation.
    pub probation_successes: u32,
}

impl PeerView {
    /// A fresh view of `spec`, fully trusted.
    #[must_use]
    pub fn new(spec: PeerSpec) -> Self {
        PeerView {
            spec,
            state: PeerState::Active,
            misses: 0,
            contacted: false,
            probation_successes: 0,
        }
    }

    /// Current trust: `e^(-λ · misses)`.
    #[must_use]
    pub fn trust(&self, policy: &FleetPolicy) -> f64 {
        (-policy.lambda * f64::from(self.misses)).exp()
    }

    /// Whether this peer counts as alive for placement decisions.
    #[must_use]
    pub fn is_alive(&self) -> bool {
        matches!(self.state, PeerState::Active | PeerState::Suspect)
    }

    /// Any contact: a probe or re-probe reply, or an incoming `FPING`.
    fn on_contact(&mut self, policy: &FleetPolicy) {
        self.contacted = true;
        self.misses = 0;
        match self.state {
            PeerState::Active | PeerState::Suspect => self.state = PeerState::Active,
            PeerState::Quarantined | PeerState::Probation => {
                self.probation_successes += 1;
                if self.probation_successes >= policy.probation_probes {
                    self.state = PeerState::Active;
                    self.probation_successes = 0;
                } else {
                    self.state = PeerState::Probation;
                }
            }
        }
    }

    /// A missed probe; `in_grace` ignores it for a never-contacted
    /// peer. Returns whether the peer is a suspect to re-probe.
    fn on_miss(&mut self, policy: &FleetPolicy, in_grace: bool) -> bool {
        if !self.contacted && in_grace {
            return false;
        }
        self.misses = self.misses.saturating_add(1);
        match self.state {
            PeerState::Active if self.trust(policy) < policy.trust_floor => {
                self.state = PeerState::Suspect;
                true
            }
            PeerState::Active | PeerState::Quarantined => false,
            PeerState::Suspect => true,
            PeerState::Probation => {
                // A miss during probation sends the peer back to the
                // bottom of the ladder.
                self.state = PeerState::Quarantined;
                self.probation_successes = 0;
                false
            }
        }
    }
}

/// What the [`PeerMonitor`] heard of one peer, by id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerEvent {
    /// Any contact: a probe or re-probe reply, or an incoming `FPING`.
    Contact(usize),
    /// A round's probe got no reply.
    Missed(usize),
    /// The re-probe of a suspect got no reply.
    ConfirmMissed(usize),
}

/// What a [`PeerMonitor::step`] asks of its caller.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MonitorStep {
    /// Suspects to re-probe at double timeout: a reply is a
    /// [`PeerEvent::Contact`], silence a [`PeerEvent::ConfirmMissed`].
    pub reprobe: Vec<usize>,
    /// Tenants to adopt, in id order: those the alive roster now places
    /// on this daemon and that it does not host. Empty unless a confirm
    /// failed.
    pub adopt: Vec<usize>,
}

/// The fleet's failure detector: every peer's view, and the placement
/// inputs a rebalance needs. A plain step function of its events and
/// the time, with no clock or socket of its own.
#[derive(Debug, Clone, PartialEq)]
pub struct PeerMonitor {
    fcfg: FleetConfig,
    tenants: usize,
    peers: Vec<PeerView>,
}

impl PeerMonitor {
    /// A monitor of `fcfg`'s peers, all fully trusted, for a fleet
    /// hosting `tenants` tenants.
    #[must_use]
    pub fn new(fcfg: &FleetConfig, tenants: usize) -> Self {
        let peers = fcfg.peers.iter().cloned().map(PeerView::new).collect();
        PeerMonitor {
            fcfg: fcfg.clone(),
            tenants,
            peers,
        }
    }

    /// Every peer's view, in configuration order.
    #[must_use]
    pub fn peers(&self) -> &[PeerView] {
        &self.peers
    }

    /// The alive roster, sorted: this daemon plus every peer counting
    /// as alive.
    #[must_use]
    pub fn alive(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = self
            .peers
            .iter()
            .filter(|p| p.is_alive())
            .map(|p| p.spec.id)
            .collect();
        ids.push(self.fcfg.id);
        ids.sort_unstable();
        ids
    }

    /// Feeds `events` observed at `now_ms` (milliseconds since the fleet
    /// started; misses of a never-contacted peer count only from
    /// `grace_ms` on). A floor-crossing miss makes its peer a suspect to
    /// re-probe; a failed confirm quarantines the suspect and asks to
    /// adopt what the reduced roster places here and `hosted` says is
    /// not hosted yet. Events about unknown peers are ignored.
    pub fn step(
        &mut self,
        now_ms: u64,
        events: &[PeerEvent],
        hosted: impl Fn(usize) -> bool,
    ) -> MonitorStep {
        let policy = self.fcfg.policy;
        let in_grace = now_ms < policy.grace_ms;
        let mut out = MonitorStep::default();
        let mut confirmed_dead = false;
        for &event in events {
            let (PeerEvent::Contact(peer)
            | PeerEvent::Missed(peer)
            | PeerEvent::ConfirmMissed(peer)) = event;
            let Some(view) = self.peers.iter_mut().find(|p| p.spec.id == peer) else {
                continue;
            };
            match event {
                PeerEvent::Contact(_) => view.on_contact(&policy),
                PeerEvent::Missed(_) => {
                    if view.on_miss(&policy, in_grace) {
                        out.reprobe.push(peer);
                    }
                }
                PeerEvent::ConfirmMissed(_) => {
                    if view.state == PeerState::Suspect {
                        view.state = PeerState::Quarantined;
                        confirmed_dead = true;
                    }
                }
            }
        }
        if confirmed_dead {
            let alive = self.alive();
            out.adopt = (0..self.tenants)
                .filter(|&t| {
                    owner_of(self.fcfg.seed, t, &alive) == Some(self.fcfg.id) && !hosted(t)
                })
                .collect();
        }
        out
    }
}

/// One round of the peer monitor: probe every peer with `probe(peer,
/// timeout_ms)`, feed the outcomes seen at `now_ms`, re-probe each
/// suspect the step names once, at double timeout, feed those, and
/// return the tenants to adopt. The monitor is locked only while it steps, never
/// across a probe: the fleet listener feeds each incoming `FPING` into
/// the same monitor, and two daemons probing each other under their own
/// locks would each wait out the other's probe and count it missed.
pub fn monitor_round(
    monitor: &Mutex<PeerMonitor>,
    now_ms: u64,
    mut probe: impl FnMut(usize, u64) -> bool,
    hosted: impl Fn(usize) -> bool,
) -> Vec<usize> {
    let lock = || monitor.lock().unwrap_or_else(PoisonError::into_inner);
    let peers: Vec<usize> = lock().peers.iter().map(|p| p.spec.id).collect();
    let timeout_ms = lock().fcfg.policy.probe_timeout_ms.max(1);
    let mut events = |peers: Vec<usize>, timeout_ms: u64, missed: fn(usize) -> PeerEvent| {
        let event = |peer| match probe(peer, timeout_ms) {
            true => PeerEvent::Contact(peer),
            false => missed(peer),
        };
        peers.into_iter().map(event).collect::<Vec<_>>()
    };
    let probes = events(peers, timeout_ms, PeerEvent::Missed);
    let suspects = lock().step(now_ms, &probes, &hosted).reprobe;
    let confirms = events(suspects, timeout_ms * 2, PeerEvent::ConfirmMissed);
    lock().step(now_ms, &confirms, &hosted).adopt
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_is_total_and_deterministic() {
        let alive = vec![0, 1, 2];
        for tenant in 0..64 {
            let a = owner_of(42, tenant, &alive).unwrap();
            let b = owner_of(42, tenant, &alive).unwrap();
            assert_eq!(a, b);
            assert!(alive.contains(&a));
        }
        assert_eq!(owner_of(42, 0, &[]), None);
        // Roster order must not matter.
        for tenant in 0..64 {
            assert_eq!(
                owner_of(7, tenant, &[2, 0, 1]),
                owner_of(7, tenant, &[0, 1, 2])
            );
        }
    }

    #[test]
    fn placement_spreads_tenants() {
        let alive = vec![0, 1, 2];
        let mut counts = [0usize; 3];
        for tenant in 0..300 {
            counts[owner_of(9, tenant, &alive).unwrap()] += 1;
        }
        for (id, &c) in counts.iter().enumerate() {
            assert!(c > 50, "daemon {id} owns only {c} of 300 tenants");
        }
    }

    #[test]
    fn removing_a_daemon_only_moves_its_tenants() {
        // The rendezvous property: tenants owned by survivors stay put
        // when a member dies.
        let full = vec![0, 1, 2];
        let without_1 = vec![0, 2];
        for tenant in 0..200 {
            let before = owner_of(11, tenant, &full).unwrap();
            let after = owner_of(11, tenant, &without_1).unwrap();
            if before != 1 {
                assert_eq!(before, after, "tenant {tenant} moved needlessly");
            } else {
                assert!(without_1.contains(&after));
            }
        }
    }

    #[test]
    fn default_policies_suspect_at_the_pinned_miss_counts() {
        // Watchdog: e^(-0.6·2) = 0.30 ≥ 0.25 > e^(-0.6·3) = 0.17.
        assert_eq!(crate::WatchdogPolicy::default().misses_to_suspect(), 3);
        // Fleet: e^(-0.8·3) = 0.091 ≥ 0.05 > e^(-0.8·4) = 0.041.
        assert_eq!(FleetPolicy::default().misses_to_quarantine(), 4);
        assert_eq!(misses_under_floor(0.6, 0.25), 3);
        assert_eq!(misses_under_floor(0.8, 0.05), 4);
        // A floor above 1 is crossed by the first miss; a vanishing λ
        // stops at the cap.
        assert_eq!(misses_under_floor(0.8, 2.0), 1);
        assert_eq!(misses_under_floor(1e-12, 0.5), 1_000);
    }

    fn fleet_config(peers: &[usize], seed: u64, policy: FleetPolicy) -> FleetConfig {
        FleetConfig {
            id: 0,
            peers: peers
                .iter()
                .map(|&id| PeerSpec {
                    id,
                    addr: format!("peer{id}"),
                })
                .collect(),
            seed,
            listen: "127.0.0.1:0".into(),
            linger_ms: 0,
            catchup_replay: None,
            policy,
        }
    }

    fn probe(peer: usize, ok: bool) -> PeerEvent {
        if ok {
            PeerEvent::Contact(peer)
        } else {
            PeerEvent::Missed(peer)
        }
    }

    fn confirm(peer: usize, ok: bool) -> PeerEvent {
        if ok {
            PeerEvent::Contact(peer)
        } else {
            PeerEvent::ConfirmMissed(peer)
        }
    }

    fn state_of(monitor: &PeerMonitor, peer: usize) -> PeerState {
        monitor
            .peers()
            .iter()
            .find(|p| p.spec.id == peer)
            .unwrap()
            .state
    }

    #[test]
    fn trust_decays_and_quarantines_at_the_floor() {
        let policy = FleetPolicy {
            grace_ms: 0,
            ..FleetPolicy::default()
        };
        let mut monitor = PeerMonitor::new(&fleet_config(&[1], 5, policy), 4);
        let expected = policy.misses_to_quarantine();
        let mut suspected_at = 0;
        for miss in 1..=expected {
            if monitor.step(0, &[probe(1, false)], |_| false).reprobe == [1] {
                suspected_at = miss;
            }
        }
        assert_eq!(suspected_at, expected);
        assert_eq!(state_of(&monitor, 1), PeerState::Suspect);
        assert!(monitor.peers()[0].trust(&policy) < policy.trust_floor);
        assert_eq!(monitor.alive(), [0, 1], "a suspect still counts as alive");
        // The failed confirm quarantines it and adopts every tenant.
        let step = monitor.step(0, &[confirm(1, false)], |_| false);
        assert_eq!(state_of(&monitor, 1), PeerState::Quarantined);
        assert_eq!(step.adopt, [0, 1, 2, 3]);
        assert_eq!(monitor.alive(), [0]);
    }

    #[test]
    fn grace_suppresses_misses_until_first_contact() {
        let policy = FleetPolicy {
            grace_ms: 1_000,
            ..FleetPolicy::default()
        };
        let mut monitor = PeerMonitor::new(&fleet_config(&[1], 5, policy), 4);
        for now in 0..100 {
            assert_eq!(
                monitor.step(now, &[probe(1, false)], |_| false),
                MonitorStep::default()
            );
        }
        assert_eq!(monitor.peers()[0].misses, 0);
        assert!(monitor.peers()[0].is_alive());
        // Misses count once grace has elapsed, or after first contact.
        monitor.step(1_000, &[probe(1, false)], |_| false);
        assert_eq!(monitor.peers()[0].misses, 1);
        let mut monitor = PeerMonitor::new(&fleet_config(&[1], 5, policy), 4);
        monitor.step(0, &[PeerEvent::Contact(1), probe(1, false)], |_| false);
        assert_eq!(monitor.peers()[0].misses, 1);
    }

    #[test]
    fn probation_ladder_reintegrates_and_resets_on_miss() {
        let policy = FleetPolicy {
            probation_probes: 2,
            grace_ms: 0,
            ..FleetPolicy::default()
        };
        let mut monitor = PeerMonitor::new(&fleet_config(&[1], 5, policy), 4);
        while state_of(&monitor, 1) == PeerState::Active {
            monitor.step(0, &[probe(1, false)], |_| false);
        }
        monitor.step(0, &[confirm(1, false)], |_| false);
        monitor.step(0, &[probe(1, true)], |_| false);
        assert_eq!(state_of(&monitor, 1), PeerState::Probation);
        // A miss mid-probation falls back to quarantine.
        assert_eq!(
            monitor.step(0, &[probe(1, false)], |_| false),
            MonitorStep::default()
        );
        assert_eq!(state_of(&monitor, 1), PeerState::Quarantined);
        // Two clean contacts, a probe reply and an incoming ping,
        // reintegrate.
        monitor.step(0, &[probe(1, true)], |_| false);
        assert_eq!(monitor.alive(), [0]);
        monitor.step(0, &[PeerEvent::Contact(1)], |_| false);
        assert_eq!(state_of(&monitor, 1), PeerState::Active);
        assert!((monitor.peers()[0].trust(&policy) - 1.0).abs() < 1e-12);
    }

    /// A placement seed under which, with self 0 and peers 1 and 2,
    /// each peer owns a tenant and one of peer 2's moves to self when
    /// peer 2 dies.
    fn spread_seed(tenants: usize) -> u64 {
        (0..1000u64)
            .find(|&s| {
                let owns = |d| (0..tenants).any(|t| owner_of(s, t, &[0, 1, 2]) == Some(d));
                owns(1)
                    && (0..tenants).any(|t| {
                        owner_of(s, t, &[0, 1, 2]) == Some(2) && owner_of(s, t, &[0, 1]) == Some(0)
                    })
            })
            .expect("some seed spreads the tenants")
    }

    /// The confirming re-probe decides: a peer that answers it stays
    /// alive, so when another peer is confirmed dead right after, only
    /// the dead peer's tenants are adopted.
    #[test]
    fn a_peer_that_answers_the_confirm_stays_alive() {
        const TENANTS: usize = 6;
        let seed = spread_seed(TENANTS);
        let policy = FleetPolicy {
            grace_ms: 0,
            ..FleetPolicy::default()
        };
        let mut monitor = PeerMonitor::new(&fleet_config(&[1, 2], seed, policy), TENANTS);
        let hosted: Vec<usize> = (0..TENANTS)
            .filter(|&t| owner_of(seed, t, &[0, 1, 2]) == Some(0))
            .collect();
        let is_hosted = |t| hosted.contains(&t);
        // Peer 1 misses 4 probes, then answers the confirm; peer 2
        // starts missing one round later.
        for round in 1..=4 {
            let step = monitor.step(0, &[probe(1, false), probe(2, round == 1)], is_hosted);
            assert_eq!(step.reprobe, if round == 4 { vec![1] } else { vec![] });
        }
        assert_eq!(
            monitor.step(0, &[confirm(1, true)], is_hosted),
            MonitorStep::default()
        );
        assert_eq!(state_of(&monitor, 1), PeerState::Active);
        let step = monitor.step(0, &[probe(1, true), probe(2, false)], is_hosted);
        assert_eq!(step.reprobe, [2]);
        let step = monitor.step(0, &[confirm(2, false)], is_hosted);
        let peer_2s: Vec<usize> = (0..TENANTS)
            .filter(|&t| {
                owner_of(seed, t, &[0, 1, 2]) == Some(2) && owner_of(seed, t, &[0, 1]) == Some(0)
            })
            .collect();
        assert!(!peer_2s.is_empty());
        assert_eq!(
            step.adopt, peer_2s,
            "only the dead peer's tenants are adopted"
        );
        assert_eq!(monitor.alive(), [0, 1]);
    }

    /// One peer's outcome in one enumerated round.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Round {
        Ok,
        /// The probe misses and a re-probe, if asked for, is left
        /// unanswered this round.
        Miss,
        MissConfirmOk,
        MissConfirmFail,
        /// An incoming `FPING` instead of a probe.
        Ping,
    }

    const ROUNDS: [Round; 5] = [
        Round::Ok,
        Round::Miss,
        Round::MissConfirmOk,
        Round::MissConfirmFail,
        Round::Ping,
    ];

    /// The harness's own account of a peer, which the monitor is held
    /// to.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
    struct Shadow {
        contacted: bool,
        misses: u32,
        /// Confirmed dead and not yet reintegrated.
        dead: bool,
        /// Consecutive contacts since it was declared dead.
        ladder: u32,
    }

    impl Shadow {
        fn contact(&mut self, policy: &FleetPolicy) {
            self.contacted = true;
            self.misses = 0;
            if self.dead {
                self.ladder += 1;
                if self.ladder >= policy.probation_probes {
                    self.dead = false;
                    self.ladder = 0;
                }
            }
        }
    }

    #[derive(Clone, PartialEq, Eq, Hash)]
    struct World {
        peers: Vec<PeerView>,
        shadows: [Shadow; 2],
        hosted: Vec<usize>,
    }

    struct Harness {
        policy: FleetPolicy,
        seed: u64,
        tenants: usize,
        /// Rounds are this many milliseconds apart.
        round_ms: u64,
        seen: std::collections::HashSet<(usize, World)>,
    }

    impl Harness {
        fn explore(
            &mut self,
            monitor: &PeerMonitor,
            world: &World,
            depth: usize,
            path: &mut Vec<[Round; 2]>,
        ) {
            if depth == 8 || !self.seen.insert((depth, world.clone())) {
                return;
            }
            for a in ROUNDS {
                for b in ROUNDS {
                    path.push([a, b]);
                    let (next_monitor, next_world) =
                        self.round(monitor, world, depth, [a, b], path);
                    self.explore(&next_monitor, &next_world, depth + 1, path);
                    path.pop();
                }
            }
        }

        /// Runs one round as the monitor loop does: every probe (or
        /// ping), then the re-probes asked for, then the adoption; and
        /// asserts the round against the shadows.
        fn round(
            &self,
            monitor: &PeerMonitor,
            world: &World,
            depth: usize,
            outcomes: [Round; 2],
            path: &[[Round; 2]],
        ) -> (PeerMonitor, World) {
            let policy = self.policy;
            let now = depth as u64 * self.round_ms;
            let in_grace = now < policy.grace_ms;
            let mut monitor = monitor.clone();
            let mut world = world.clone();
            let ids = [1usize, 2];
            let at = format!("round {} of {path:?}", depth + 1);
            let hosted = world.hosted.clone();
            let is_hosted = |t: usize| hosted.contains(&t);

            let probes: Vec<PeerEvent> = ids
                .iter()
                .zip(outcomes)
                .map(|(&peer, outcome)| match outcome {
                    Round::Ok => probe(peer, true),
                    Round::Ping => PeerEvent::Contact(peer),
                    _ => probe(peer, false),
                })
                .collect();
            let first = monitor.step(now, &probes, is_hosted);
            assert!(
                first.adopt.is_empty(),
                "an adoption without a confirm, {at}"
            );
            let mut expect_reprobe = Vec::new();
            for (i, outcome) in outcomes.into_iter().enumerate() {
                let shadow = &mut world.shadows[i];
                if matches!(outcome, Round::Ok | Round::Ping) {
                    shadow.contact(&policy);
                    continue;
                }
                if !shadow.contacted && in_grace {
                    continue;
                }
                shadow.misses += 1;
                shadow.ladder = 0;
                if !shadow.dead && shadow.misses >= policy.misses_to_quarantine() {
                    expect_reprobe.push(ids[i]);
                }
            }
            assert_eq!(
                first.reprobe, expect_reprobe,
                "re-probe exactly the alive peers under the floor, {at}"
            );

            let mut confirms = Vec::new();
            let mut failed_confirm = false;
            for &peer in &first.reprobe {
                let i = peer - 1;
                match outcomes[i] {
                    Round::MissConfirmOk => {
                        confirms.push(confirm(peer, true));
                        world.shadows[i].contact(&policy);
                    }
                    Round::MissConfirmFail => {
                        confirms.push(confirm(peer, false));
                        world.shadows[i].dead = true;
                        failed_confirm = true;
                    }
                    _ => {}
                }
            }
            let adopt = if confirms.is_empty() {
                Vec::new()
            } else {
                monitor.step(now, &confirms, is_hosted).adopt
            };
            let mut alive: Vec<usize> = ids
                .iter()
                .zip(&world.shadows)
                .filter(|(_, s)| !s.dead)
                .map(|(&id, _)| id)
                .collect();
            alive.insert(0, 0);
            if failed_confirm {
                let expected: Vec<usize> = (0..self.tenants)
                    .filter(|&t| owner_of(self.seed, t, &alive) == Some(0) && !is_hosted(t))
                    .collect();
                assert_eq!(
                    adopt, expected,
                    "adopt what the alive roster places here, {at}"
                );
            } else {
                assert!(
                    adopt.is_empty(),
                    "no adoption without a failed confirm, {at}"
                );
            }
            assert_eq!(
                monitor.alive(),
                alive,
                "dead only after a failed confirm, alive again only after \
                 {} consecutive contacts, {at}",
                policy.probation_probes
            );
            world.hosted.extend(adopt);
            world.hosted.sort_unstable();
            world.peers = monitor.peers().to_vec();
            (monitor, world)
        }
    }

    /// Every pair of per-round outcome sequences of two peers, up to 8
    /// rounds, before, across and after the boot grace: a peer is only
    /// declared dead by a failed confirm, only then are tenants adopted
    /// (exactly those the alive roster places here and not hosted yet),
    /// and a dead peer is alive again only after `probation_probes`
    /// consecutive contacts.
    #[test]
    fn every_two_peer_outcome_sequence_up_to_eight_rounds_keeps_the_invariants() {
        const TENANTS: usize = 6;
        let seed = spread_seed(TENANTS);
        for grace_rounds in [0u64, 3, 100] {
            let policy = FleetPolicy {
                grace_ms: grace_rounds * 50,
                probation_probes: 2,
                ..FleetPolicy::default()
            };
            let monitor = PeerMonitor::new(&fleet_config(&[1, 2], seed, policy), TENANTS);
            let world = World {
                peers: monitor.peers().to_vec(),
                shadows: [Shadow::default(); 2],
                hosted: (0..TENANTS)
                    .filter(|&t| owner_of(seed, t, &[0, 1, 2]) == Some(0))
                    .collect(),
            };
            let mut harness = Harness {
                policy,
                seed,
                tenants: TENANTS,
                round_ms: 50,
                seen: std::collections::HashSet::new(),
            };
            harness.explore(&monitor, &world, 0, &mut Vec::new());
            assert!(
                harness.seen.len() > 300,
                "only {} states reached",
                harness.seen.len()
            );
        }
    }

    #[test]
    fn config_validation_catches_duplicates() {
        let cfg = FleetConfig {
            id: 0,
            peers: vec![PeerSpec { id: 0, addr: "x".into() }],
            seed: 1,
            listen: "127.0.0.1:0".into(),
            linger_ms: 100,
            catchup_replay: None,
            policy: FleetPolicy::default(),
        };
        assert!(cfg.validated().is_err());
        let cfg = FleetConfig {
            id: 0,
            peers: vec![
                PeerSpec { id: 1, addr: "x".into() },
                PeerSpec { id: 2, addr: "y".into() },
            ],
            seed: 1,
            listen: "127.0.0.1:0".into(),
            linger_ms: 100,
            catchup_replay: None,
            policy: FleetPolicy::default(),
        };
        assert_eq!(cfg.clone().validated().unwrap().roster(), vec![0, 1, 2]);
    }

    /// `monitor_round` against a scripted probe. Peer 1 never answers a
    /// round's probe and peer 2 always does; the probe records each
    /// `(peer, timeout_ms)` it is asked. Peer 1 turns suspect on its
    /// fourth miss and is re-probed once, at twice the probe timeout. A
    /// confirm it answers adopts nothing and keeps it alive; a confirm it
    /// misses adopts exactly what the roster without it places here,
    /// minus what is hosted already.
    #[test]
    fn a_monitor_round_reprobes_suspects_and_adopts_only_on_a_failed_confirm() {
        const TENANTS: usize = 12;
        // Peer 1's tenants that move here when it dies: at least two.
        let moved_under = |s: u64| -> Vec<usize> {
            let moves =
                |t| owner_of(s, t, &[0, 1, 2]) == Some(1) && owner_of(s, t, &[0, 2]) == Some(0);
            (0..TENANTS).filter(|&t| moves(t)).collect()
        };
        let seed = (0..1000u64).find(|&s| moved_under(s).len() >= 2).unwrap();
        let moved = moved_under(seed);
        // Hosted: this daemon's own tenants and the first one that moves.
        let hosted: Vec<usize> = (0..TENANTS)
            .filter(|&t| owner_of(seed, t, &[0, 1, 2]) == Some(0) || t == moved[0])
            .collect();
        let policy = FleetPolicy { grace_ms: 0, probe_timeout_ms: 100, ..FleetPolicy::default() };
        for confirm_answers in [true, false] {
            let fcfg = fleet_config(&[1, 2], seed, policy);
            let monitor = Mutex::new(PeerMonitor::new(&fcfg, TENANTS));
            for round in 1..=policy.misses_to_quarantine() {
                let mut asked = Vec::new();
                let probe = |peer, timeout_ms| {
                    asked.push((peer, timeout_ms));
                    peer == 2 || (timeout_ms == 200 && confirm_answers)
                };
                let adopt = monitor_round(&monitor, 0, probe, |t| hosted.contains(&t));
                if round < policy.misses_to_quarantine() {
                    assert_eq!(asked, [(1, 100), (2, 100)], "round {round}");
                    assert_eq!(adopt, Vec::<usize>::new());
                    continue;
                }
                assert_eq!(asked, [(1, 100), (2, 100), (1, 200)], "a suspect is re-probed at 2x");
                let monitor = monitor.lock().unwrap();
                if confirm_answers {
                    assert_eq!(adopt, Vec::<usize>::new());
                    assert_eq!(state_of(&monitor, 1), PeerState::Active);
                } else {
                    assert_eq!(adopt, moved[1..]);
                    assert_eq!(state_of(&monitor, 1), PeerState::Quarantined);
                }
            }
        }
    }
}

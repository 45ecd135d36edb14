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
//! contact. A peer whose trust crosses the floor is *quarantined*
//! (declared dead): its tenants are deterministically rebalanced onto
//! the survivors and, like a quarantined worker slot, ownership does
//! not bounce back — a reappearing peer walks the probation ladder
//! (consecutive successful probes) before it counts as alive again for
//! *future* placement decisions.
//!
//! Misses are only counted after a peer has been contacted at least
//! once or its startup grace has elapsed, so a fleet that boots in an
//! arbitrary order does not declare its slowest member dead on tick
//! one.

use std::path::PathBuf;

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
#[derive(Debug, Clone, PartialEq, Eq)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerState {
    /// Healthy (or within grace): counts as alive for placement.
    Active,
    /// Trust crossed the floor: declared dead, tenants rebalanced.
    Quarantined,
    /// A quarantined peer answering probes again; climbing the
    /// probation ladder back to Active.
    Probation,
}

/// One peer's Impact-style health view.
#[derive(Debug, Clone)]
pub struct PeerView {
    /// The peer's identity.
    pub spec: PeerSpec,
    /// Lifecycle state.
    pub state: PeerState,
    /// Consecutive missed probes.
    pub misses: u32,
    /// Whether any probe has ever succeeded.
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

    /// Records a successful probe. Returns `true` if the peer just
    /// completed probation and is alive again for future placement.
    pub fn on_success(&mut self, policy: &FleetPolicy) -> bool {
        self.contacted = true;
        self.misses = 0;
        match self.state {
            PeerState::Active => false,
            PeerState::Quarantined | PeerState::Probation => {
                self.state = PeerState::Probation;
                self.probation_successes += 1;
                if self.probation_successes >= policy.probation_probes {
                    self.state = PeerState::Active;
                    self.probation_successes = 0;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a missed probe. `in_grace` suppresses misses for a
    /// never-contacted peer (boot-order tolerance). Returns `true` if
    /// this miss pushed an Active peer under the floor — the caller's
    /// cue to rebalance.
    pub fn on_miss(&mut self, policy: &FleetPolicy, in_grace: bool) -> bool {
        if !self.contacted && in_grace {
            return false;
        }
        self.misses = self.misses.saturating_add(1);
        match self.state {
            PeerState::Active => {
                if self.trust(policy) < policy.trust_floor {
                    self.state = PeerState::Quarantined;
                    true
                } else {
                    false
                }
            }
            PeerState::Probation => {
                // A miss during probation sends the peer back to the
                // bottom of the ladder.
                self.state = PeerState::Quarantined;
                self.probation_successes = 0;
                false
            }
            PeerState::Quarantined => false,
        }
    }

    /// Whether this peer counts as alive for placement decisions.
    #[must_use]
    pub fn is_alive(&self) -> bool {
        self.state == PeerState::Active
    }
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

    #[test]
    fn trust_decays_and_quarantines_at_the_floor() {
        let policy = FleetPolicy::default();
        let mut peer = PeerView::new(PeerSpec { id: 1, addr: "x".into() });
        peer.contacted = true;
        let expected = policy.misses_to_quarantine();
        let mut died_at = 0;
        for miss in 1..=expected {
            if peer.on_miss(&policy, false) {
                died_at = miss;
            }
        }
        assert_eq!(died_at, expected);
        assert_eq!(peer.state, PeerState::Quarantined);
        assert!(peer.trust(&policy) < policy.trust_floor);
    }

    #[test]
    fn grace_suppresses_misses_until_first_contact() {
        let policy = FleetPolicy::default();
        let mut peer = PeerView::new(PeerSpec { id: 1, addr: "x".into() });
        for _ in 0..100 {
            assert!(!peer.on_miss(&policy, true));
        }
        assert_eq!(peer.misses, 0);
        assert!(peer.is_alive());
        // After first contact, grace no longer applies.
        assert!(!peer.on_success(&policy));
        assert!(!peer.on_miss(&policy, true));
        assert_eq!(peer.misses, 1);
    }

    #[test]
    fn probation_ladder_reintegrates_and_resets_on_miss() {
        let policy = FleetPolicy { probation_probes: 2, ..FleetPolicy::default() };
        let mut peer = PeerView::new(PeerSpec { id: 1, addr: "x".into() });
        peer.contacted = true;
        while peer.state == PeerState::Active {
            peer.on_miss(&policy, false);
        }
        assert!(!peer.on_success(&policy));
        assert_eq!(peer.state, PeerState::Probation);
        // A miss mid-probation falls back to quarantine.
        assert!(!peer.on_miss(&policy, false));
        assert_eq!(peer.state, PeerState::Quarantined);
        // Two clean successes reintegrate.
        assert!(!peer.on_success(&policy));
        assert!(peer.on_success(&policy));
        assert_eq!(peer.state, PeerState::Active);
        assert!((peer.trust(&policy) - 1.0).abs() < 1e-12);
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
}

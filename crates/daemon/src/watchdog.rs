//! The worker watchdog's decision, an Impact-style failure detector, as
//! a plain step function: [`Watch::check`] takes the check number and
//! what the check observed of one tenant slot, and returns what the
//! supervisor must do. It reads no clock and touches no thread, so every
//! sequence of observations can be enumerated in a test; the driver's
//! loop waits out each interval, and `supervisor::supervise` observes
//! and acts.
//!
//! A slot carries trust `e^(-λ·v)`, where `v` counts missed progress
//! checks: a check is missed when the heartbeat did not advance *and*
//! work is outstanding (an idle worker is healthy). A worker whose trust
//! falls under the floor, or whose thread has died, is respawned. More
//! than `crash_loop_limit` respawns inside a sliding window quarantine
//! the slot instead; a quarantine ends in a respawn on probation at its
//! `until_check`, and surviving the probation makes the slot active
//! again.

use std::collections::VecDeque;

use crate::fleet::misses_under_floor;

/// Impact-style watchdog tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogPolicy {
    /// Milliseconds between progress checks.
    pub check_interval_ms: u64,
    /// Trust decay per missed check: trust = `e^(-lambda * misses)`.
    pub lambda: f64,
    /// Suspect (and restart) a worker whose trust falls below this.
    pub trust_floor: f64,
    /// Sliding window, in checks, for counting restarts.
    pub crash_loop_window: u64,
    /// Restarts within the window that trigger quarantine.
    pub crash_loop_limit: usize,
    /// Quarantine cool-down and probation length, in checks.
    pub probation_checks: u64,
}

impl Default for WatchdogPolicy {
    fn default() -> Self {
        WatchdogPolicy {
            check_interval_ms: 20,
            lambda: 0.6,
            trust_floor: 0.25,
            crash_loop_window: 500,
            crash_loop_limit: 3,
            probation_checks: 25,
        }
    }
}

impl WatchdogPolicy {
    /// Checks a worker must miss before its trust crosses the floor.
    #[must_use]
    pub fn misses_to_suspect(&self) -> u32 {
        misses_under_floor(self.lambda, self.trust_floor)
    }
}

/// A slot's health. The router sheds a quarantined tenant's ingest;
/// a quarantine or a probation ends at the watch's `until_check`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Health {
    /// Supervised normally.
    #[default]
    Active,
    /// No worker: ingest shed, tick barrier released.
    Quarantined,
    /// Respawned; active again once the probation ends.
    Probation,
}

/// What one check saw of a slot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Observed {
    /// The worker thread has returned. A worker only returns cleanly at
    /// shutdown, after the watchdog stops, so a finished one died.
    pub finished: bool,
    /// The worker's heartbeat counter.
    pub heartbeat: u64,
    /// Issued work is still unapplied.
    pub outstanding: bool,
}

/// What the supervisor must do after a check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Nothing beyond publishing the slot's health.
    Keep,
    /// Replace the worker from its last snapshot plus the recovery
    /// buffer; the slot is on probation if that succeeds.
    Respawn,
    /// Retire the worker and quarantine the slot.
    Quarantine,
}

/// One slot's watchdog state.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Watch {
    health: Health,
    /// The check at which a quarantine or probation ends.
    until_check: u64,
    misses: u32,
    last_heartbeat: u64,
    restarts: u64,
    /// Checks at which a failure was detected, inside the crash-loop
    /// window.
    restart_checks: VecDeque<u64>,
}

impl Watch {
    /// The slot's health after the last check.
    #[must_use]
    pub fn health(&self) -> Health {
        self.health
    }

    /// Respawns asked for so far.
    #[must_use]
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Decides check `check_no` of the slot from what it `observed`:
    /// the action, and the trust `e^(-λ·misses)` the check saw (0 for a
    /// quarantined slot). A [`Action::Respawn`] puts the slot on
    /// probation; the supervisor reports how the respawn went through
    /// [`Watch::respawned`].
    pub fn check(
        &mut self,
        policy: &WatchdogPolicy,
        check_no: u64,
        observed: Observed,
    ) -> (Action, f64) {
        match self.health {
            Health::Quarantined => {
                if check_no < self.until_check {
                    return (Action::Keep, 0.0);
                }
                self.restarts += 1;
                self.respawn(policy, check_no, observed.heartbeat);
                return (Action::Respawn, 0.0);
            }
            Health::Probation if check_no >= self.until_check => self.health = Health::Active,
            _ => {}
        }

        let advanced = observed.heartbeat != self.last_heartbeat;
        self.last_heartbeat = observed.heartbeat;
        if observed.finished {
            self.misses = policy.misses_to_suspect();
        } else if advanced || !observed.outstanding {
            self.misses = self.misses.saturating_sub(1);
        } else {
            self.misses += 1;
        }
        let trust = (-policy.lambda * f64::from(self.misses)).exp();
        if trust >= policy.trust_floor && !observed.finished {
            return (Action::Keep, trust);
        }
        self.restart_checks.push_back(check_no);
        self.restart_checks
            .retain(|&c| c + policy.crash_loop_window >= check_no);
        self.restarts += 1;
        if self.restart_checks.len() > policy.crash_loop_limit {
            self.health = Health::Quarantined;
            self.until_check = check_no + policy.probation_checks;
            return (Action::Quarantine, 0.0);
        }
        self.respawn(policy, check_no, observed.heartbeat);
        // The trust observed at detection: the respawn resets the miss
        // count, but this check still saw a failed worker.
        (Action::Respawn, trust)
    }

    /// Records a respawn, whether this watch asked for it or an
    /// aborted migration did. A started worker is on probation, with a
    /// clean miss count from its `heartbeat`; if none started, the slot
    /// is quarantined. Either ends at the current `until_check`.
    pub fn respawned(&mut self, started: bool, heartbeat: u64) {
        if started {
            self.health = Health::Probation;
            self.misses = 0;
            self.last_heartbeat = heartbeat;
        } else {
            self.health = Health::Quarantined;
        }
    }

    fn respawn(&mut self, policy: &WatchdogPolicy, check_no: u64, heartbeat: u64) {
        self.until_check = check_no + policy.probation_checks;
        self.respawned(true, heartbeat);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One check's observation in the enumeration.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Obs {
        /// The worker thread has died.
        Dead,
        /// The heartbeat moved.
        Advanced,
        /// No heartbeat, work outstanding.
        Stalled,
        /// No heartbeat, nothing outstanding.
        Idle,
        /// The worker has died and a respawn asked for now fails.
        RespawnFails,
    }

    const ALL: [Obs; 5] = [
        Obs::Dead,
        Obs::Advanced,
        Obs::Stalled,
        Obs::Idle,
        Obs::RespawnFails,
    ];

    const POLICY: WatchdogPolicy = WatchdogPolicy {
        check_interval_ms: 1,
        lambda: 0.6,
        trust_floor: 0.25,
        crash_loop_window: 4,
        crash_loop_limit: 2,
        probation_checks: 2,
    };

    /// The reference model the watch is held to, advanced beside it.
    #[derive(Clone, Default)]
    struct Model {
        watch: Watch,
        heartbeat: u64,
        /// Whether the slot is quarantined, and until which check.
        quarantined_until: Option<u64>,
        /// The check of the last respawn, and its probation end.
        probation_until: u64,
        misses: u32,
        /// Checks at which a failure was detected.
        detections: Vec<u64>,
        /// Respawns and quarantines asked for.
        restarts: u64,
    }

    impl Model {
        /// Runs one check under `obs` and asserts every property of the
        /// verdict. `path` names the sequence for failure messages.
        fn step(&mut self, check_no: u64, obs: Obs, path: &[Obs]) {
            let policy = &POLICY;
            if obs == Obs::Advanced {
                self.heartbeat += 1;
            }
            let finished = matches!(obs, Obs::Dead | Obs::RespawnFails);
            let observed = Observed {
                finished,
                heartbeat: self.heartbeat,
                outstanding: obs != Obs::Idle,
            };
            let (action, trust_seen) = self.watch.check(policy, check_no, observed);
            let at = format!("check {check_no} of {path:?}");

            if let Some(until) = self.quarantined_until {
                // A quarantined slot has no worker: whatever this check
                // saw, it waits out the quarantine, then respawns.
                assert_eq!(trust_seen, 0.0, "{at}");
                if check_no < until {
                    assert_eq!(action, Action::Keep, "respawn before until_check, {at}");
                } else {
                    assert_eq!(
                        action,
                        Action::Respawn,
                        "a quarantine must end in a respawn, {at}"
                    );
                }
            } else {
                if matches!(obs, Obs::Advanced | Obs::Idle) {
                    assert_eq!(
                        action,
                        Action::Keep,
                        "a progressing or idle worker is kept, {at}"
                    );
                }
                self.misses = match obs {
                    Obs::Dead | Obs::RespawnFails => policy.misses_to_suspect(),
                    Obs::Advanced | Obs::Idle => self.misses.saturating_sub(1),
                    Obs::Stalled => self.misses + 1,
                };
                let trust = (-policy.lambda * f64::from(self.misses)).exp();
                let detected = finished || trust < policy.trust_floor;
                if detected {
                    self.detections.push(check_no);
                }
                let in_window = self
                    .detections
                    .iter()
                    .filter(|&&c| c + policy.crash_loop_window >= check_no)
                    .count();
                let expected = if !detected {
                    Action::Keep
                } else if in_window > policy.crash_loop_limit {
                    Action::Quarantine
                } else {
                    Action::Respawn
                };
                assert_eq!(
                    action, expected,
                    "a detection quarantines exactly when its window holds more than \
                     crash_loop_limit detections ({in_window}), {at}"
                );
                let reported = if expected == Action::Quarantine {
                    0.0
                } else {
                    trust
                };
                assert_eq!(
                    trust_seen, reported,
                    "reported trust is e^(-λ·misses), {at}"
                );
            }

            if action != Action::Keep {
                self.restarts += 1;
            }
            assert_eq!(
                self.watch.restarts(),
                self.restarts,
                "restarts counted, {at}"
            );
            match action {
                Action::Keep => {}
                Action::Respawn => {
                    self.probation_until = check_no + policy.probation_checks;
                    self.misses = 0;
                    // A failed respawn quarantines the slot until the
                    // probation would have ended.
                    let started = obs != Obs::RespawnFails;
                    self.watch.respawned(started, self.heartbeat);
                    self.quarantined_until = (!started).then_some(self.probation_until);
                }
                Action::Quarantine => {
                    self.quarantined_until = Some(check_no + policy.probation_checks);
                }
            }
            let health = if self.quarantined_until.is_some() {
                Health::Quarantined
            } else if check_no < self.probation_until {
                Health::Probation
            } else {
                Health::Active
            };
            assert_eq!(self.watch.health(), health, "{at}");
        }
    }

    fn enumerate(model: &Model, path: &mut Vec<Obs>, max_len: usize, visited: &mut u64) {
        if path.len() == max_len {
            return;
        }
        for obs in ALL {
            let mut next = model.clone();
            path.push(obs);
            next.step(path.len() as u64, obs, path);
            *visited += 1;
            enumerate(&next, path, max_len, visited);
            path.pop();
        }
    }

    /// Every sequence of up to 7 observations, checked at every step
    /// against the model: a progressing or idle worker is never
    /// respawned, a quarantine is never cut short and always ends in a
    /// respawn, a detection quarantines exactly when its crash-loop
    /// window is over the limit, every respawn and quarantine counts as
    /// a restart, and the reported trust is `e^(-λ·misses)` as
    /// observed.
    #[test]
    fn every_observation_sequence_up_to_seven_checks_keeps_the_invariants() {
        let mut visited = 0;
        enumerate(&Model::default(), &mut Vec::new(), 7, &mut visited);
        let expected: u64 = (1..=7).map(|k| 5u64.pow(k)).sum();
        assert_eq!(visited, expected);
    }
}

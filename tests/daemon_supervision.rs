//! Watchdog supervision: wedged and panicked workers restart from
//! snapshot + recovery buffer with byte-identical decision logs;
//! crash-loopers are quarantined without disturbing their neighbors
//! and reintegrate after probation.
//!
//! Each test runs the same stream twice — once clean, once with an
//! injected worker fault — and compares the decision logs byte for
//! byte. The watchdog runs on a fast clock (5 ms checks) so detection,
//! restart, quarantine, and reintegration all happen inside a test
//! timeout.

use std::io::{BufReader, Cursor, Read};
use std::path::PathBuf;
use std::time::Duration;

use tibfit_daemon::{Daemon, DaemonConfig, DaemonReport, WatchdogPolicy, WorkerFault};
use tibfit_experiments::replay::{tenant_seed, FieldScenario};

const TENANTS: usize = 2;

fn small_scenario(seed: u64) -> FieldScenario {
    FieldScenario {
        nodes: 16,
        clusters: 2,
        field: 40.0,
        faulty: 4,
        noise_sigma: 1.0,
        loss: 0.0,
        drift_sigma: 0.3,
        reelect_every: 4,
        seed,
    }
}

/// Replay lines for ticks `[from, to)`, `per_tick` records per tenant
/// per tick (sequence numbers continue across calls, so two ranges
/// concatenate into one coherent stream).
fn replay_range(master: u64, from: u64, to: u64, per_tick: u64) -> String {
    let total = (to * per_tick) as usize;
    let streams: Vec<Vec<_>> = (0..TENANTS)
        .map(|t| small_scenario(tenant_seed(master, t)).events(total))
        .collect();
    let mut out = String::new();
    for time in from..to {
        for (tenant, stream) in streams.iter().enumerate() {
            for k in 0..per_tick {
                let p = stream[(time * per_tick + k) as usize];
                let seq = time * per_tick + k + 1;
                out.push_str(&format!("R {tenant} {time} {tenant} {seq} {} {}\n", p.x, p.y));
            }
        }
        out.push_str("T\n");
    }
    out
}

fn fast_watchdog() -> WatchdogPolicy {
    WatchdogPolicy {
        check_interval_ms: 5,
        lambda: 0.6,
        trust_floor: 0.25,
        crash_loop_window: 10_000,
        crash_loop_limit: 2,
        probation_checks: 8,
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tibfit-sup-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct RunOutput {
    report: DaemonReport,
    decisions: Vec<String>,
}

fn run_with(tag: &str, master: u64, faults: Vec<(usize, WorkerFault)>, input: impl Read) -> RunOutput {
    run_every(tag, master, faults, 2, input)
}

fn run_every(
    tag: &str,
    master: u64,
    faults: Vec<(usize, WorkerFault)>,
    snapshot_every: u64,
    input: impl Read,
) -> RunOutput {
    let dir = fresh_dir(tag);
    let mut cfg = DaemonConfig::standard(TENANTS, master, dir.clone());
    cfg.scenario = small_scenario;
    cfg.snapshot_every = snapshot_every;
    cfg.watchdog = fast_watchdog();
    cfg.faults = faults;
    let mut daemon = Daemon::new(cfg).expect("daemon builds");
    let report = daemon.run(BufReader::new(input)).expect("run completes");
    let decisions = (0..TENANTS)
        .map(|t| {
            std::fs::read_to_string(dir.join("decisions").join(format!("tenant{t}.log")))
                .expect("decision log exists")
        })
        .collect();
    RunOutput { report, decisions }
}

#[test]
fn panicked_worker_restarts_with_byte_identical_decisions() {
    let master = 0x5A_01;
    let stream = replay_range(master, 0, 12, 2);
    let reference = run_with("panic-ref", master, Vec::new(), Cursor::new(stream.clone()));
    let fault = WorkerFault {
        wedge_at_round: None,
        panic_at_round: Some(7),
        fail_incarnations: 1, // only incarnation 0 panics
    };
    let faulted = run_with("panic-run", master, vec![(0, fault)], Cursor::new(stream));

    assert_eq!(reference.decisions, faulted.decisions);
    assert!(faulted.report.tenants[0].restarts >= 1, "watchdog must restart");
    assert!(!faulted.report.tenants[0].quarantined);
    assert_eq!(faulted.report.tenants[1].restarts, 0, "neighbor untouched");
    assert!(
        faulted.report.min_impact_trust < 1.0,
        "a dead worker must dent watchdog trust"
    );
    assert!(
        faulted.report.tenants[0]
            .last_error
            .as_deref()
            .is_some_and(|e| e.contains("panic")),
        "panic must be captured: {:?}",
        faulted.report.tenants[0].last_error
    );
}

#[test]
fn wedged_worker_restarts_with_byte_identical_decisions() {
    let master = 0x5A_02;
    let stream = replay_range(master, 0, 12, 2);
    let reference = run_with("wedge-ref", master, Vec::new(), Cursor::new(stream.clone()));
    let fault = WorkerFault {
        wedge_at_round: Some(9), // incarnation 0 stops heartbeating here
        panic_at_round: None,
        fail_incarnations: 0,
    };
    let faulted = run_with("wedge-run", master, vec![(0, fault)], Cursor::new(stream));

    assert_eq!(reference.decisions, faulted.decisions);
    assert!(faulted.report.tenants[0].restarts >= 1);
    assert!(!faulted.report.tenants[0].quarantined);
    assert!(faulted.report.min_impact_trust < 1.0);
}

#[test]
fn a_stream_within_budget_waits_only_at_snapshot_ticks() {
    let master = 0x5A_07;
    let every = 4;
    let stream = replay_range(master, 0, 40, 3);
    let out = run_every("pipe-waits", master, Vec::new(), every, Cursor::new(stream));
    // The router waits only for the tick after each snapshot tick (the
    // capacity bound never binds at 3 records a tick), so this bound
    // holds however fast the worker runs.
    let bound = out.report.ticks.div_ceil(every);
    for t in &out.report.tenants {
        assert_eq!(t.stats.shed_total(), 0);
        assert!(
            t.stats.backpressure_waits <= bound,
            "tenant {}: {} waits over {} ticks at snapshot-every {every}",
            t.id,
            t.stats.backpressure_waits,
            out.report.ticks
        );
    }
}

#[test]
fn a_panic_mid_window_restarts_with_byte_identical_decisions() {
    let master = 0x5A_08;
    let every = 4;
    let stream = replay_range(master, 0, 16, 4);
    let reference =
        run_every("window-ref", master, Vec::new(), every, Cursor::new(stream.clone()));
    // Round 23 is the third record of tick 6. Snapshots are at ticks 4
    // and 8, so the router may issue ticks 7 and 8 before the worker
    // reaches it; the respawn then replays ticks 5..=8 from snapshot 4.
    let fault = WorkerFault {
        wedge_at_round: None,
        panic_at_round: Some(23),
        fail_incarnations: 1,
    };
    let faulted =
        run_every("window-run", master, vec![(0, fault)], every, Cursor::new(stream));

    assert_eq!(reference.decisions, faulted.decisions);
    let t0 = &faulted.report.tenants[0];
    assert!(t0.restarts >= 1, "watchdog must restart");
    assert!(!t0.quarantined);
    // The replay from snapshot 4 (round 16) re-applied rounds 17..=22.
    assert_eq!(t0.applied, reference.report.tenants[0].applied + 6);
    assert_eq!(faulted.report.tenants[1].restarts, 0, "neighbor untouched");
}

/// Faults tenant 0 at round 58, the second record of tick 15, in a run
/// of 15 ticks plus the final one shutdown closes, snapshotting every 4
/// ticks. Nothing waits on tick 15 until shutdown: the router can reach
/// end-of-stream while the worker is still in window 13..=16, so the
/// watchdog must keep running until the worker has caught up. A daemon
/// that hangs on exit fails the test instead of stalling the suite.
fn fault_in_the_last_window(tag: &'static str, master: u64, fault: WorkerFault, runs: u64) {
    let every = 4;
    let stream = replay_range(master, 0, 15, 4);
    let reference = run_every(tag, master, Vec::new(), every, Cursor::new(stream.clone()));
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let faulted = run_every(
            &format!("{tag}-run"),
            master,
            vec![(0, fault)],
            every,
            Cursor::new(stream),
        );
        let _ = done.send(faulted);
    });
    let faulted = finished
        .recv_timeout(Duration::from_secs(60))
        .expect("the faulted daemon exits");

    assert_eq!(faulted.report.ticks, 16);
    assert_eq!(reference.decisions, faulted.decisions);
    let t0 = &faulted.report.tenants[0];
    assert!(t0.restarts >= runs, "watchdog must restart each faulty run");
    assert!(!t0.quarantined);
    // Each faulty run re-applied rounds 49..=57 from snapshot 12.
    assert!(t0.applied >= reference.report.tenants[0].applied + 9 * runs);
    assert_eq!(faulted.report.tenants[1].restarts, 0, "neighbor untouched");
}

#[test]
fn a_panic_in_the_last_window_restarts_before_shutdown() {
    // Two incarnations panic at the same round: the first respawn
    // replays into the second panic, so both respawns must happen
    // while shutdown waits for the worker.
    let fault = WorkerFault {
        wedge_at_round: None,
        panic_at_round: Some(58),
        fail_incarnations: 2,
    };
    fault_in_the_last_window("last-panic", 0x5A_09, fault, 2);
}

#[test]
fn a_wedge_in_the_last_window_restarts_before_shutdown() {
    let fault = WorkerFault {
        wedge_at_round: Some(58),
        panic_at_round: None,
        fail_incarnations: 0,
    };
    fault_in_the_last_window("last-wedge", 0x5A_0A, fault, 1);
}

#[test]
fn crash_looper_is_quarantined_without_harming_neighbors() {
    let master = 0x5A_03;
    let stream = replay_range(master, 0, 12, 2);
    let reference = run_with("quar-ref", master, Vec::new(), Cursor::new(stream.clone()));
    let fault = WorkerFault {
        wedge_at_round: None,
        panic_at_round: Some(5),
        fail_incarnations: u64::MAX, // every incarnation dies
    };
    let dir_tag = "quar-run";
    let out = {
        let dir = fresh_dir(dir_tag);
        let mut cfg = DaemonConfig::standard(TENANTS, master, dir.clone());
        cfg.scenario = small_scenario;
        cfg.snapshot_every = 2;
        cfg.watchdog = WatchdogPolicy {
            probation_checks: 1_000_000, // never reintegrate inside the test
            ..fast_watchdog()
        };
        cfg.faults = vec![(0, fault)];
        let mut daemon = Daemon::new(cfg).expect("daemon builds");
        let report = daemon.run(Cursor::new(stream)).expect("run completes");
        let decisions: Vec<String> = (0..TENANTS)
            .map(|t| {
                std::fs::read_to_string(dir.join("decisions").join(format!("tenant{t}.log")))
                    .expect("decision log exists")
            })
            .collect();
        RunOutput { report, decisions }
    };

    let t0 = &out.report.tenants[0];
    assert!(t0.quarantined, "crash-looper must end quarantined");
    assert!(t0.restarts >= 2, "quarantine follows repeated restarts");
    assert!(
        t0.shed_quarantine > 0,
        "offers during quarantine are shed and counted"
    );
    // The healthy neighbor is byte-identical to the clean run.
    assert_eq!(reference.decisions[1], out.decisions[1]);
    assert_eq!(out.report.tenants[1].restarts, 0);
    assert!(!out.report.tenants[1].quarantined);
    assert!(out.report.min_impact_trust < 0.9);
}

/// Yields `first` immediately, then sleeps before yielding `second` —
/// an input stream with a quiet period long enough for quarantine to
/// expire and probation to pass.
struct TwoPhaseReader {
    current: Cursor<Vec<u8>>,
    second: Option<(Duration, Vec<u8>)>,
}

impl Read for TwoPhaseReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.current.read(buf)?;
        if n > 0 {
            return Ok(n);
        }
        match self.second.take() {
            Some((delay, bytes)) => {
                std::thread::sleep(delay);
                self.current = Cursor::new(bytes);
                self.current.read(buf)
            }
            None => Ok(0),
        }
    }
}

#[test]
fn quarantined_tenant_reintegrates_after_probation() {
    let master = 0x5A_04;
    // Phase 1 ends exactly at the faulting tick, so nothing is offered
    // to the tenant while it sits in quarantine (nothing shed, nothing
    // lost); phase 2 arrives after reintegration.
    let phase1 = replay_range(master, 0, 3, 2);
    let phase2 = replay_range(master, 3, 12, 2);
    let full = format!("{phase1}{phase2}");

    let reference = run_with("reint-ref", master, Vec::new(), Cursor::new(full));
    let fault = WorkerFault {
        wedge_at_round: None,
        panic_at_round: Some(5), // inside tick 3 (rounds 5..6 at 2/tick)
        fail_incarnations: 3,    // incarnations 0..2 die; 3+ succeed
    };
    let input = TwoPhaseReader {
        current: Cursor::new(phase1.into_bytes()),
        second: Some((Duration::from_millis(700), phase2.into_bytes())),
    };
    let out = run_with("reint-run", master, vec![(0, fault)], input);

    let t0 = &out.report.tenants[0];
    assert!(!t0.quarantined, "tenant must be reintegrated by end of run");
    assert!(t0.restarts >= 3, "crash loop plus reintegration restart");
    assert_eq!(t0.shed_quarantine, 0, "quiet quarantine sheds nothing");
    assert_eq!(reference.decisions, out.decisions);
}

// ---------------------------------------------------------------------
// A decision log that ends below the snapshot round: the engine state
// counts rounds the log has lost, so resuming would append after a
// permanent gap. Both restart paths must refuse with a typed error.

/// Cuts `log` to its first `keep` lines.
fn keep_lines(log: &std::path::Path, keep: usize) {
    let text = std::fs::read_to_string(log).expect("decision log exists");
    let kept: String = text.split_inclusive('\n').take(keep).collect();
    assert_eq!(kept.lines().count(), keep, "the log holds more than {keep} lines");
    std::fs::write(log, kept).expect("cut the log");
}

/// The round tenant `t`'s newest snapshot under `dir` was taken at.
fn snapshot_round(dir: &std::path::Path, t: usize) -> Option<u64> {
    let path = tibfit_daemon::state::tenant_state_path(dir, t);
    tibfit_daemon::state::read_tenant_state(&path).ok().flatten().map(|s| s.round)
}

#[test]
fn a_log_short_of_the_snapshot_fails_the_start_with_a_typed_error() {
    let master = 0x5A_05;
    let dir = fresh_dir("short-log-start");
    let cfg = || {
        let mut cfg = DaemonConfig::standard(TENANTS, master, dir.clone());
        cfg.scenario = small_scenario;
        cfg.snapshot_every = 2;
        cfg.watchdog = fast_watchdog();
        cfg
    };
    // Four ticks of two records: the shutdown snapshot is at round 8.
    let mut daemon = Daemon::new(cfg()).expect("daemon builds");
    daemon.run(Cursor::new(replay_range(master, 0, 4, 2))).expect("run completes");
    assert_eq!(snapshot_round(&dir, 0), Some(8));
    let log = dir.join("decisions").join("tenant0.log");
    keep_lines(&log, 5);
    let before = std::fs::read(&log).unwrap();

    match Daemon::new(cfg()) {
        Err(tibfit_daemon::DaemonError::State(msg)) => {
            assert!(msg.contains("tenant 0"), "{msg}");
            assert!(msg.contains("round 5") && msg.contains("round 8"), "{msg}");
        }
        Err(other) => panic!("expected a state error, got {other}"),
        Ok(_) => panic!("a daemon started over a decision log with a hole"),
    }
    assert_eq!(std::fs::read(&log).unwrap(), before, "the short log was left as it was");
}

/// Yields `current`, then runs `gate` before yielding `second`.
struct GatedReader {
    current: Cursor<Vec<u8>>,
    gate: Option<Box<dyn FnOnce() + Send>>,
    second: Vec<u8>,
}

impl Read for GatedReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.current.read(buf)?;
        if n > 0 {
            return Ok(n);
        }
        match self.gate.take() {
            Some(gate) => {
                gate();
                self.current = Cursor::new(std::mem::take(&mut self.second));
                self.current.read(buf)
            }
            None => Ok(0),
        }
    }
}

#[test]
fn a_log_short_of_the_snapshot_quarantines_a_respawn() {
    let master = 0x5A_06;
    let dir = fresh_dir("short-log-respawn");
    let log = dir.join("decisions").join("tenant0.log");
    // Phase 1 is four ticks: tick 4's snapshot is at round 8. Once it
    // is committed, the log loses rounds 6..=8; then the first record
    // of phase 2 panics the worker and the respawn reads snapshot 8.
    // The respawn's typed error is the one reported, even when the
    // panicking worker finishes unwinding only after it was recorded.
    let gate = {
        let dir = dir.clone();
        let log = log.clone();
        move || {
            let deadline = std::time::Instant::now() + Duration::from_secs(30);
            while snapshot_round(&dir, 0) != Some(8) {
                assert!(std::time::Instant::now() < deadline, "snapshot 8 never landed");
                std::thread::sleep(Duration::from_millis(2));
            }
            keep_lines(&log, 5);
        }
    };
    let input = GatedReader {
        current: Cursor::new(replay_range(master, 0, 4, 2).into_bytes()),
        gate: Some(Box::new(gate)),
        second: replay_range(master, 4, 8, 2).into_bytes(),
    };
    let fault = WorkerFault {
        wedge_at_round: None,
        panic_at_round: Some(9),
        fail_incarnations: 1,
    };
    let mut cfg = DaemonConfig::standard(TENANTS, master, dir.clone());
    cfg.scenario = small_scenario;
    cfg.snapshot_every = 2;
    cfg.watchdog = fast_watchdog();
    cfg.faults = vec![(0, fault)];
    let mut daemon = Daemon::new(cfg).expect("daemon builds");
    let report = daemon.run(BufReader::new(input)).expect("run completes");

    let t0 = &report.tenants[0];
    assert!(t0.quarantined, "a respawn over a short log must not resume");
    let msg = t0.last_error.as_deref().unwrap_or_default();
    assert!(msg.contains("round 5") && msg.contains("round 8"), "{msg}");
    let text = std::fs::read_to_string(&log).unwrap();
    let rounds: Vec<u64> = text
        .lines()
        .map(|l| tibfit_daemon::tenant::decision_line_round(l).expect("a whole decision line"))
        .collect();
    assert_eq!(rounds, [1, 2, 3, 4, 5], "nothing was appended after the gap");
    assert!(!report.tenants[1].quarantined);
    assert_eq!(report.tenants[1].restarts, 0, "neighbor untouched");
}

/// The digest on every decision line of a respawned worker is the full
/// hash of the engine's trust vector at that round: the replacement
/// fills its trust words afresh from the snapshot it restores and then
/// patches them record by record, like any fresh tenant.
#[test]
fn a_respawned_worker_writes_full_trust_digests() {
    use tibfit_daemon::tenant::{EngineKind, Tenant};
    use tibfit_daemon::wire::Report;

    let master = 0x5A_0D;
    let stream = replay_range(master, 0, 12, 2);
    let fault = WorkerFault {
        wedge_at_round: None,
        panic_at_round: Some(9),
        fail_incarnations: 1,
    };
    let faulted = run_with("respawn-digest", master, vec![(0, fault)], Cursor::new(stream));
    assert!(faulted.report.tenants[0].restarts >= 1, "watchdog must restart");

    let scenario = small_scenario(tenant_seed(master, 0));
    let events = scenario.events(24);
    let mut stepped = Tenant::new(0, scenario, EngineKind::Sequential, 1).unwrap();
    let lines: Vec<&str> = faulted.decisions[0].lines().collect();
    assert_eq!(lines.len(), 24);
    for (i, (line, p)) in lines.iter().zip(&events).enumerate() {
        let seq = i as u64 + 1;
        let report = Report { tenant: 0, time: i as u64 / 2, src: 0, seq, x: p.x, y: p.y };
        stepped.apply(&report);
        let digest = line.rsplit_once(" trust=").expect("a decision line").1;
        assert_eq!(
            u64::from_str_radix(digest, 16).unwrap(),
            stepped.trust_digest(),
            "round {seq}: {line}"
        );
    }
}

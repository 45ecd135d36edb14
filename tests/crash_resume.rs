//! Crash-injection harness: kill the engine anywhere, resume from the
//! latest checkpoint, and the completed run must be byte-identical to a
//! run that was never interrupted — same declarations, same bit-exact
//! trust trajectories, same positions, same trace counters, and the
//! same rendered CSV.
//!
//! The kill round comes from `CrashPlan::seeded`, so every seed dies
//! somewhere different but reproducibly. Rounds completed after the
//! last checkpoint are lost in the crash and recomputed on resume;
//! determinism guarantees the recomputation is exact.

use std::fmt::Write as _;

use tibfit_experiments::checkpoint::{
    read_checkpoint, restore_sequential, save_sequential, write_checkpoint,
};
use tibfit_experiments::multicluster::{MultiClusterSim, MultiRoundResult};
use tibfit_experiments::replay::FieldScenario;
use tibfit_faults::CrashPlan;
use tibfit_net::geometry::Point;

/// Event rounds per run.
const ROUNDS: usize = 12;

/// The mobile scenario (drift, re-election, lossy channels) and its
/// event stream.
fn scenario(seed: u64) -> (FieldScenario, Vec<Point>) {
    let sc = FieldScenario::mobile(seed);
    let events = sc.events(ROUNDS);
    (sc, events)
}

fn build(sc: &FieldScenario) -> MultiClusterSim {
    sc.sequential().expect("scenario configs are valid")
}

fn save(engine: &MultiClusterSim) -> Vec<u8> {
    save_sequential(engine).expect("scenario is checkpointable")
}

/// One round, digested: event fingerprint, declared points (bit-exact),
/// declaring cluster indices.
type RoundDigest = (u64, Vec<(u64, u64)>, Vec<usize>);

/// Everything observable about a completed run, rendered for exact
/// comparison. `csv` is the per-round results table rendered to bytes
/// exactly as an experiment writer would emit it (bit-exact f64 via hex
/// bits, so equality really is byte equality, not print rounding).
#[derive(Debug, PartialEq, Eq)]
struct RunOutput {
    results: Vec<RoundDigest>,
    trust: Vec<u64>,
    positions: Vec<(u64, u64)>,
    counters: Vec<(String, u64)>,
    csv: Vec<u8>,
}

fn digest(results: &[MultiRoundResult], engine: &MultiClusterSim) -> RunOutput {
    let rows: Vec<_> = results
        .iter()
        .map(|r| {
            (
                r.event.x.to_bits() ^ r.event.y.to_bits(),
                r.declared
                    .iter()
                    .map(|d| (d.x.to_bits(), d.y.to_bits()))
                    .collect::<Vec<_>>(),
                r.declaring_clusters.clone(),
            )
        })
        .collect();
    let mut csv = String::from("round,event_x,event_y,declared,clusters\n");
    for (round, r) in results.iter().enumerate() {
        let clusters: Vec<String> = r.declaring_clusters.iter().map(usize::to_string).collect();
        let declared: Vec<String> = r
            .declared
            .iter()
            .map(|d| format!("{:016x}:{:016x}", d.x.to_bits(), d.y.to_bits()))
            .collect();
        writeln!(
            csv,
            "{round},{:016x},{:016x},{},{}",
            r.event.x.to_bits(),
            r.event.y.to_bits(),
            declared.join("|"),
            clusters.join("|"),
        )
        .expect("writing to a String cannot fail");
    }
    RunOutput {
        results: rows,
        trust: engine.trust_snapshot(),
        positions: engine.position_snapshot(),
        counters: engine.counters(),
        csv: csv.into_bytes(),
    }
}

/// The reference: run every event with no interruption.
fn uninterrupted(seed: u64) -> RunOutput {
    let (sc, events) = scenario(seed);
    let mut engine = build(&sc);
    let results: Vec<_> = events.iter().map(|&e| engine.run_event(e)).collect();
    digest(&results, &engine)
}

/// The harness under test: checkpoint every `checkpoint_every` rounds,
/// kill the engine at the plan's round (discarding everything done since
/// the last checkpoint, exactly like a dead process), restore, and run
/// to completion.
///
/// If the crash lands before the first checkpoint there is nothing to
/// restore: the harness starts over from round zero, which is the
/// correct degenerate recovery.
fn crash_and_resume(seed: u64, checkpoint_every: u64, plan: CrashPlan) -> RunOutput {
    let (sc, events) = scenario(seed);
    let mut engine = build(&sc);
    let mut checkpoint: Option<(u64, Vec<u8>)> = None;
    let mut results: Vec<MultiRoundResult> = Vec::new();
    let mut crashed = false;

    for (round, &event) in events.iter().enumerate() {
        let completed = round as u64;
        if plan.kills_after(completed) {
            crashed = true;
            break;
        }
        results.push(engine.run_event(event));
        let done = completed + 1;
        if done.is_multiple_of(checkpoint_every) && (done as usize) < events.len() {
            checkpoint = Some((done, save(&engine)));
        }
    }
    assert!(crashed, "plan must kill inside the horizon");

    // The process is dead: everything not checkpointed is gone.
    drop(engine);
    let (resume_round, mut engine) = match &checkpoint {
        Some((round, blob)) => (*round, restore_sequential(blob).expect("own blob restores")),
        None => (0, build(&sc)),
    };
    results.truncate(resume_round as usize);
    for &event in &events[resume_round as usize..] {
        results.push(engine.run_event(event));
    }
    digest(&results, &engine)
}

#[test]
fn twenty_seeds_sequential_engine() {
    for seed in 2000..2020u64 {
        let plan = CrashPlan::seeded(seed, ROUNDS as u64);
        assert_eq!(
            uninterrupted(seed),
            crash_and_resume(seed, 3, plan),
            "kill-and-resume diverged: seed {seed} kill_round {}",
            plan.kill_round
        );
    }
}

#[test]
fn every_kill_round_is_recoverable() {
    // Not just the seeded rounds: kill after every single round of one
    // scenario (checkpoints at 1 with every round a boundary) and the
    // resume must always complete identically.
    let expected = uninterrupted(4242);
    for kill in 1..ROUNDS as u64 {
        let resumed = crash_and_resume(4242, 1, CrashPlan::at(kill));
        assert_eq!(expected, resumed, "kill at {kill} diverged");
    }
}

/// Two-seed smoke variant for the CI crash-resume job, going through the
/// real file path: checkpoints land on disk via `write_checkpoint` and
/// the resume reads them back with `read_checkpoint`.
#[test]
fn smoke_two_seeds_through_files() {
    let dir = std::env::temp_dir().join(format!("tibfit-crash-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    for seed in [7u64, 8u64] {
        let (sc, events) = scenario(seed);
        let plan = CrashPlan::seeded(seed, ROUNDS as u64);
        let path = dir.join(format!("smoke-{seed}.tbsn"));

        let mut engine = build(&sc);
        let mut saved_round = 0u64;
        let mut results = Vec::new();
        for (round, &event) in events.iter().enumerate() {
            if plan.kills_after(round as u64) {
                break;
            }
            results.push(engine.run_event(event));
            let done = round as u64 + 1;
            if done.is_multiple_of(2) {
                write_checkpoint(&path, &save(&engine)).expect("checkpoint write succeeds");
                saved_round = done;
            }
        }
        drop(engine);

        let mut engine = if saved_round > 0 {
            let blob = read_checkpoint(&path).expect("checkpoint reads back");
            restore_sequential(&blob).expect("own blob restores")
        } else {
            build(&sc)
        };
        results.truncate(saved_round as usize);
        for &event in &events[saved_round as usize..] {
            results.push(engine.run_event(event));
        }
        assert_eq!(uninterrupted(seed), digest(&results, &engine), "smoke seed {seed}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

//! Process-level crash/resume harness for `tibfit-daemon`: kill the
//! real binary anywhere — a deterministic seeded abort, a raced
//! SIGKILL, or a graceful SIGTERM drain — restart it over the same
//! replay, and demand decision logs byte-identical to a run that was
//! never interrupted.
//!
//! The binary is spawned via `CARGO_BIN_EXE_tibfit-daemon`, so these
//! tests cover the whole stack: argument parsing, signal handlers,
//! snapshot cadence, log truncation, and dedup-driven re-streaming.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

use tibfit_daemon::state::{read_tenant_state, tenant_state_path};
use tibfit_daemon::EngineKind;

const TENANTS: usize = 2;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_tibfit-daemon")
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tibfit-cr-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn run_ok(args: &[&str]) -> String {
    let out = Command::new(bin()).args(args).output().expect("binary spawns");
    assert!(
        out.status.success(),
        "expected success for {args:?}\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn decisions(state_dir: &Path) -> Vec<String> {
    (0..TENANTS)
        .map(|t| {
            std::fs::read_to_string(state_dir.join("decisions").join(format!("tenant{t}.log")))
                .expect("decision log exists")
        })
        .collect()
}

fn gen_replay(dir: &Path, seed: u64, ticks: u64) -> PathBuf {
    gen_replay_per_tick(dir, seed, ticks, 1)
}

fn gen_replay_per_tick(dir: &Path, seed: u64, ticks: u64, per_tick: u64) -> PathBuf {
    let replay = dir.join("events.replay");
    run_ok(&[
        "gen-replay",
        "--out",
        replay.to_str().unwrap(),
        "--tenants",
        "2",
        "--seed",
        &seed.to_string(),
        "--ticks",
        &ticks.to_string(),
        "--per-tick",
        &per_tick.to_string(),
    ]);
    replay
}

fn serve_args<'a>(replay: &'a str, state: &'a str, seed: &'a str) -> Vec<&'a str> {
    vec![
        "serve", "--replay", replay, "--state-dir", state, "--seed", seed, "--tenants", "2",
        "--snapshot-every", "3",
    ]
}

/// One seeded crash/resume cycle: reference run, aborted run, resumed
/// run, byte-compare. Returns the tick the crash plan fired at (for
/// coverage reporting).
fn crash_resume_cycle(seed: u64, ticks: u64) {
    let root = fresh_dir(&format!("seed{seed}"));
    let replay = gen_replay(&root, seed, ticks);
    let replay = replay.to_str().unwrap();
    let seed_s = seed.to_string();

    let ref_dir = root.join("ref");
    run_ok(&serve_args(replay, ref_dir.to_str().unwrap(), &seed_s));
    let reference = decisions(&ref_dir);
    assert!(!reference[0].is_empty(), "reference run must decide something");

    let crash_dir = root.join("crash");
    let crash_dir_s = crash_dir.to_str().unwrap().to_string();
    let mut crash_args = serve_args(replay, &crash_dir_s, &seed_s);
    let horizon = ticks.to_string();
    crash_args.extend_from_slice(&["--crash-seed", &seed_s, "--crash-horizon", &horizon]);
    let out = Command::new(bin()).args(&crash_args).output().expect("binary spawns");
    assert!(
        !out.status.success(),
        "seed {seed}: the crash plan must abort before end of stream"
    );

    // Same state dir, same replay: dedup drops everything the snapshot
    // already covers and regenerates the rest.
    let resumed_stdout = run_ok(&serve_args(replay, &crash_dir_s, &seed_s));
    assert!(resumed_stdout.contains("daemon.exit eof"));
    assert_eq!(
        reference,
        decisions(&crash_dir),
        "seed {seed}: resumed decisions must be byte-identical"
    );
}

#[test]
fn seeded_aborts_resume_byte_identical_across_20_seeds() {
    for seed in 0..20u64 {
        crash_resume_cycle(seed, 8);
    }
}

#[test]
fn an_abort_mid_window_resumes_byte_identical() {
    // Snapshots every 3 ticks; the abort fires once tick 5 is issued.
    // The router issues ticks 4 and 5 without waiting for the worker,
    // so the abort can land while it still trails; tick 3's snapshot
    // is the newest on disk either way, since tick 4 waited for it.
    let seed = 970u64;
    let per_tick = 6;
    let root = fresh_dir("mid-window");
    let replay = gen_replay_per_tick(&root, seed, 12, per_tick);
    let replay = replay.to_str().unwrap();
    let seed_s = seed.to_string();

    let ref_dir = root.join("ref");
    run_ok(&serve_args(replay, ref_dir.to_str().unwrap(), &seed_s));
    let reference = decisions(&ref_dir);

    let crash_dir = root.join("crash");
    let crash_dir_s = crash_dir.to_str().unwrap().to_string();
    let mut crash_args = serve_args(replay, &crash_dir_s, &seed_s);
    crash_args.extend_from_slice(&["--crash-after-ticks", "5"]);
    let out = Command::new(bin()).args(&crash_args).output().expect("binary spawns");
    assert!(!out.status.success(), "the crash plan must abort after tick 5");
    for t in 0..TENANTS {
        let path = tibfit_daemon::state::tenant_state_path(&crash_dir, t);
        let state = tibfit_daemon::state::read_tenant_state(&path)
            .expect("a valid state file")
            .expect("tick 3's snapshot was committed");
        assert_eq!(state.round, 3 * per_tick, "tenant {t}: newest snapshot is tick 3's");
    }

    run_ok(&serve_args(replay, &crash_dir_s, &seed_s));
    assert_eq!(
        reference,
        decisions(&crash_dir),
        "mid-window abort + resume must be byte-identical"
    );
}

#[test]
fn raced_sigkill_resumes_byte_identical() {
    for (i, sleep_ms) in [5u64, 30, 90].into_iter().enumerate() {
        let seed = 900 + i as u64;
        let root = fresh_dir(&format!("kill{i}"));
        let replay = gen_replay(&root, seed, 30);
        let replay = replay.to_str().unwrap();
        let seed_s = seed.to_string();

        let ref_dir = root.join("ref");
        run_ok(&serve_args(replay, ref_dir.to_str().unwrap(), &seed_s));
        let reference = decisions(&ref_dir);

        let kill_dir = root.join("killed");
        let kill_dir_s = kill_dir.to_str().unwrap().to_string();
        let mut child = Command::new(bin())
            .args(serve_args(replay, &kill_dir_s, &seed_s))
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("binary spawns");
        std::thread::sleep(Duration::from_millis(sleep_ms));
        // SIGKILL: no handlers, no drain — whatever hit disk is all
        // the resume gets. (The race may also lose: a fast run that
        // finished already is just the trivially-resumable case.)
        let _ = child.kill();
        let _ = child.wait();

        run_ok(&serve_args(replay, &kill_dir_s, &seed_s));
        assert_eq!(
            reference,
            decisions(&kill_dir),
            "sleep {sleep_ms}ms: SIGKILL + resume must be byte-identical"
        );
    }
}

#[test]
fn sigterm_drains_cleanly_and_resume_completes() {
    let seed = 950u64;
    let root = fresh_dir("drain");
    let replay_path = gen_replay(&root, seed, 12);
    let replay = replay_path.to_str().unwrap();
    let seed_s = seed.to_string();

    let ref_dir = root.join("ref");
    run_ok(&serve_args(replay, ref_dir.to_str().unwrap(), &seed_s));
    let reference = decisions(&ref_dir);

    // Feed roughly half the stream over stdin, SIGTERM, then one wake
    // line so the read loop observes the flag and drains.
    let text = std::fs::read_to_string(&replay_path).expect("replay readable");
    let lines: Vec<&str> = text.lines().collect();
    let half = lines.len() / 2;

    let drain_dir = root.join("drained");
    let drain_dir_s = drain_dir.to_str().unwrap().to_string();
    let mut args = serve_args(replay, &drain_dir_s, &seed_s);
    args.retain(|a| *a != "--replay" && *a != replay);
    args.push("--stdin");
    let mut child = Command::new(bin())
        .args(&args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("binary spawns");
    let mut stdin = child.stdin.take().expect("piped stdin");
    for line in &lines[..half] {
        writeln!(stdin, "{line}").expect("write to daemon");
    }
    stdin.flush().expect("flush");
    std::thread::sleep(Duration::from_millis(200));
    let pid = child.id().to_string();
    let killed = Command::new("/bin/kill")
        .args(["-TERM", &pid])
        .status()
        .expect("kill spawns");
    assert!(killed.success());
    std::thread::sleep(Duration::from_millis(100));
    writeln!(stdin, "# wake").expect("wake line");
    stdin.flush().expect("flush");

    let out = child.wait_with_output().expect("daemon exits");
    drop(stdin);
    assert!(out.status.success(), "SIGTERM must drain, not kill");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("daemon.exit drained"),
        "expected a drained exit, got:\n{stdout}"
    );

    // Resume over the full replay: the drained half dedups away.
    run_ok(&serve_args(replay, &drain_dir_s, &seed_s));
    assert_eq!(reference, decisions(&drain_dir));
}

/// The engine tag of each tenant's newest committed state in `dir`.
fn state_kinds(dir: &Path) -> Vec<EngineKind> {
    (0..TENANTS)
        .map(|t| {
            read_tenant_state(&tenant_state_path(dir, t))
                .expect("state reads")
                .expect("state exists")
                .kind
        })
        .collect()
}

#[test]
fn legacy_sharded_state_resumes_byte_identically() {
    // `tests/golden/legacy_sharded` was written by a daemon running the
    // sharded engine earlier versions offered: `--seed 7 --tenants 2
    // --snapshot-every 3` over `legacy.replay` (12 ticks of 2 records),
    // aborted after tick 10. Its slot files carry engine tag 1 and a
    // round-18 snapshot; tenant 0's log runs two lines past it.
    // `reference/` holds that version's uninterrupted logs.
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/legacy_sharded");
    let state = fresh_dir("legacy").join("state");
    std::fs::create_dir_all(state.join("decisions")).expect("state dir");
    for sub in ["", "decisions"] {
        for entry in std::fs::read_dir(fixture.join("state").join(sub)).expect("fixture present") {
            let path = entry.expect("fixture entry").path();
            if path.is_file() {
                let to = state.join(sub).join(path.file_name().expect("file name"));
                std::fs::copy(&path, to).expect("fixture copies");
            }
        }
    }
    assert_eq!(state_kinds(&state), [EngineKind::Sharded; TENANTS]);

    let replay = fixture.join("legacy.replay");
    let stdout = run_ok(&serve_args(replay.to_str().unwrap(), state.to_str().unwrap(), "7"));
    assert!(stdout.contains("daemon.exit eof"));
    let reference: Vec<String> = (0..TENANTS)
        .map(|t| {
            std::fs::read_to_string(fixture.join("reference").join(format!("tenant{t}.log")))
                .expect("reference log")
        })
        .collect();
    assert_eq!(decisions(&state), reference, "a legacy state must resume byte-identically");
    // The resumed daemon's commits carry the one engine's tag.
    assert_eq!(state_kinds(&state), [EngineKind::Sequential; TENANTS]);
}

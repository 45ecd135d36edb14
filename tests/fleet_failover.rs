//! Fleet failover harness: 3 real daemons share a state directory and
//! split tenants by rendezvous placement. Kill any one of them
//! anywhere mid-stream — a seeded abort (the deterministic stand-in
//! for SIGKILL) or a raced real SIGKILL — and the survivors must
//! quarantine the dead peer, adopt its tenants, and leave merged
//! decision logs **byte-identical** to an uninterrupted single-daemon
//! run of the same (seed, stream).
//!
//! The same bar applies to the operator path: a rolling-upgrade drill
//! that `MIGRATE`s every tenant in turn between two daemons, streaming
//! between the moves, must also come out byte-identical and drop zero
//! records.

use std::collections::BTreeSet;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use tibfit_daemon::fleet::owner_of;

const TENANTS: usize = 3;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_tibfit-daemon")
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tibfit-fleet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// The first port of the kernel's ephemeral range, which every
/// outgoing connection takes its local port from (32768 where the range
/// cannot be read).
fn ephemeral_floor() -> u16 {
    std::fs::read_to_string("/proc/sys/net/ipv4/ip_local_port_range")
        .ok()
        .and_then(|range| range.split_whitespace().next()?.parse().ok())
        .unwrap_or(32768)
}

/// A currently-free localhost port for a daemon to listen on, below the
/// ephemeral range: a port from that range could be taken as the local
/// end of another daemon's probe or fleet connection before its own
/// daemon binds it. Each candidate is checked with a bind (the window
/// until the daemon binds it is acceptable for tests), and the tests in
/// this binary run in parallel, so a port is never handed out twice.
fn free_port() -> u16 {
    static HANDED_OUT: Mutex<BTreeSet<u16>> = Mutex::new(BTreeSet::new());
    let mut handed_out = HANDED_OUT.lock().unwrap_or_else(PoisonError::into_inner);
    let top = ephemeral_floor().max(2048);
    let bottom = top / 2;
    let span = u32::from(top - bottom);
    // Start each test process at its own offset, so concurrent runs of
    // this binary probe different ports first.
    let start = std::process::id() % span;
    (0..span)
        .map(|i| bottom + u16::try_from((start + i) % span).expect("span fits a port"))
        .find(|&port| !handed_out.contains(&port) && TcpListener::bind(("127.0.0.1", port)).is_ok())
        .inspect(|&port| {
            handed_out.insert(port);
        })
        .expect("a free port below the ephemeral range")
}

/// A daemon's stdout and stderr, for an assertion message.
fn output_text(out: &Output) -> String {
    format!(
        "stdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    )
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
    let replay = dir.join("events.replay");
    run_ok(&[
        "gen-replay",
        "--out",
        replay.to_str().unwrap(),
        "--tenants",
        &TENANTS.to_string(),
        "--seed",
        &seed.to_string(),
        "--ticks",
        &ticks.to_string(),
        "--per-tick",
        "2",
    ]);
    replay
}

fn counter(stdout: &str, key: &str) -> u64 {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{key} ")))
        .unwrap_or_else(|| panic!("missing counter {key} in:\n{stdout}"))
        .trim()
        .parse()
        .expect("counter value")
}

/// A placement seed under which each of the 3 daemons owns exactly one
/// of the 3 tenants — so any victim loses something worth adopting.
fn bijective_fleet_seed() -> u64 {
    (0..100_000u64)
        .find(|&s| {
            let mut owners: Vec<usize> = (0..TENANTS)
                .map(|t| owner_of(s, t, &[0, 1, 2]).unwrap())
                .collect();
            owners.sort_unstable();
            owners == vec![0, 1, 2]
        })
        .expect("a bijective placement seed exists")
}

#[allow(clippy::too_many_arguments)]
fn fleet_serve_cmd(
    replay: &str,
    shared: &str,
    seed: u64,
    id: usize,
    ports: &[u16],
    fleet_seed: u64,
    linger_ms: u64,
) -> Command {
    let mut cmd = Command::new(bin());
    cmd.args([
        "serve",
        "--replay",
        replay,
        "--state-dir",
        shared,
        "--seed",
        &seed.to_string(),
        "--tenants",
        &TENANTS.to_string(),
        "--snapshot-every",
        "3",
        "--fleet-id",
        &id.to_string(),
        "--fleet-listen",
        &format!("127.0.0.1:{}", ports[id]),
        "--fleet-seed",
        &fleet_seed.to_string(),
        "--fleet-catchup",
        replay,
        "--fleet-linger-ms",
        &linger_ms.to_string(),
        "--fleet-grace-ms",
        "800",
        "--fleet-check-ms",
        "25",
        "--fleet-probe-ms",
        "100",
    ]);
    for (peer, port) in ports.iter().enumerate() {
        if peer != id {
            cmd.args(["--fleet-peer", &format!("{peer}=127.0.0.1:{port}")]);
        }
    }
    cmd
}

/// One failover cycle: reference run, 3-daemon fleet run with the
/// victim aborting at a seeded tick, byte-compare the merged logs.
fn failover_cycle(k: u64, fleet_seed: u64) {
    let seed = 1300 + k;
    let ticks = 10u64;
    let root = fresh_dir(&format!("fo{k}"));
    let replay = gen_replay(&root, seed, ticks);
    let replay = replay.to_str().unwrap();
    let seed_s = seed.to_string();

    let ref_dir = root.join("ref");
    run_ok(&[
        "serve", "--replay", replay, "--state-dir", ref_dir.to_str().unwrap(), "--seed", &seed_s,
        "--tenants", "3", "--snapshot-every", "3",
    ]);
    let want = decisions(&ref_dir);
    assert!(!want[0].is_empty(), "reference run must decide something");

    let shared = root.join("fleet");
    let shared_s = shared.to_str().unwrap().to_string();
    let ports: Vec<u16> = (0..3).map(|_| free_port()).collect();
    let victim = usize::try_from(k).unwrap() % 3;
    let children: Vec<_> = (0..3)
        .map(|i| {
            let mut cmd =
                fleet_serve_cmd(replay, &shared_s, seed, i, &ports, fleet_seed, 2000);
            if i == victim {
                // The seeded abort: the process dies without unwinding
                // at a deterministic tick in [1, ticks) — the
                // repeatable stand-in for SIGKILL.
                cmd.args([
                    "--crash-seed",
                    &k.to_string(),
                    "--crash-horizon",
                    &ticks.to_string(),
                ]);
            }
            cmd.stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("daemon spawns")
        })
        .collect();
    let outs: Vec<_> = children
        .into_iter()
        .map(|c| c.wait_with_output().expect("daemon exits"))
        .collect();

    assert!(
        !outs[victim].status.success(),
        "k={k}: the victim must die mid-stream"
    );
    let mut rebalances = 0u64;
    for (i, out) in outs.iter().enumerate() {
        if i == victim {
            continue;
        }
        assert!(
            out.status.success(),
            "k={k}: survivor {i} must exit cleanly:\n{}",
            output_text(out)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        rebalances += counter(&stdout, "fleet.rebalance.count");
    }
    assert!(
        rebalances >= 1,
        "k={k}: the victim's tenant must be adopted:\n{}",
        outs.iter().map(output_text).collect::<Vec<_>>().join("\n")
    );
    assert_eq!(
        want,
        decisions(&shared),
        "k={k}: merged fleet logs must be byte-identical to the reference"
    );
}

#[test]
fn seeded_kills_rebalance_byte_identical_across_20_points() {
    let fleet_seed = bijective_fleet_seed();
    // Chunked parallelism: each cycle runs 4 processes and sleeps
    // through detection + linger, so batching keeps wall time sane.
    for chunk in (0..20u64).collect::<Vec<_>>().chunks(5) {
        std::thread::scope(|scope| {
            for &k in chunk {
                scope.spawn(move || failover_cycle(k, fleet_seed));
            }
        });
    }
}

#[test]
fn raced_real_sigkill_rebalances_byte_identical() {
    let fleet_seed = bijective_fleet_seed();
    let seed = 1999u64;
    let root = fresh_dir("sigkill");
    let replay = gen_replay(&root, seed, 10);
    let replay = replay.to_str().unwrap();

    let ref_dir = root.join("ref");
    run_ok(&[
        "serve", "--replay", replay, "--state-dir", ref_dir.to_str().unwrap(), "--seed", "1999",
        "--tenants", "3", "--snapshot-every", "3",
    ]);
    let want = decisions(&ref_dir);

    let shared = root.join("fleet");
    let shared_s = shared.to_str().unwrap().to_string();
    let ports: Vec<u16> = (0..3).map(|_| free_port()).collect();
    let victim = 1usize;
    let mut children: Vec<_> = (0..3)
        .map(|i| {
            fleet_serve_cmd(replay, &shared_s, seed, i, &ports, fleet_seed, 2000)
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("daemon spawns")
        })
        .collect();
    // SIGKILL, not a signal the daemon handles: no drain, no goodbye.
    std::thread::sleep(Duration::from_millis(60));
    children[victim].kill().expect("SIGKILL lands");

    let outs: Vec<_> = children
        .into_iter()
        .map(|c| c.wait_with_output().expect("daemon exits"))
        .collect();
    assert!(!outs[victim].status.success());
    for (i, out) in outs.iter().enumerate() {
        if i != victim {
            assert!(out.status.success(), "survivor {i}:\n{}", output_text(out));
        }
    }
    assert_eq!(
        want,
        decisions(&shared),
        "SIGKILL mid-stream: merged fleet logs must be byte-identical"
    );
}

// ---------------------------------------------------------------------
// Operator path: rolling MIGRATE drill.
// ---------------------------------------------------------------------

/// Splits a replay into phases cut after the given cumulative tick
/// counts; every phase ends on a `T` boundary except possibly the last.
fn split_at_ticks(text: &str, cuts: &[u64]) -> Vec<String> {
    let mut parts = vec![String::new()];
    let mut ticks = 0u64;
    let mut cut = 0usize;
    for line in text.lines() {
        let part = parts.last_mut().unwrap();
        part.push_str(line);
        part.push('\n');
        if line == "T" {
            ticks += 1;
            if cut < cuts.len() && ticks == cuts[cut] {
                cut += 1;
                parts.push(String::new());
            }
        }
    }
    parts
}

/// One ingest connection carrying one phase; retries the connect to
/// absorb the daemon's startup race.
fn send_phase(port: u16, lines: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut stream = loop {
        match TcpStream::connect(("127.0.0.1", port)) {
            Ok(s) => break s,
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => panic!("ingest connect to :{port}: {e}"),
        }
    };
    stream.write_all(lines.as_bytes()).expect("send phase");
}

/// The tenants a daemon actually hosts right now, discovered through
/// the `status` subcommand: a hosted tenant is reported with the
/// queried daemon's own id as owner.
fn hosted_tenants(fleet_port: u16, id: usize) -> Vec<usize> {
    let stdout = run_ok(&["status", "--connect", &format!("127.0.0.1:{fleet_port}")]);
    let mut out = Vec::new();
    for line in stdout.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() == 4 && f[0] == "S" && f[1] == "tenant" && f[3] == id.to_string() {
            out.push(f[2].parse().expect("tenant id"));
        }
    }
    out
}

#[test]
fn rolling_migrate_drill_is_byte_identical_and_lossless() {
    let seed = 2042u64;
    let root = fresh_dir("drill");
    let replay = gen_replay(&root, seed, 12);
    let replay_s = replay.to_str().unwrap();
    let text = std::fs::read_to_string(&replay).expect("replay text");

    let ref_dir = root.join("ref");
    run_ok(&[
        "serve", "--replay", replay_s, "--state-dir", ref_dir.to_str().unwrap(), "--seed", "2042",
        "--tenants", "3", "--snapshot-every", "3",
    ]);
    let want = decisions(&ref_dir);

    // A placement seed that splits the 3 tenants across both daemons,
    // so the rolling drill moves tenants in both directions.
    let drill_seed = (0..1000u64)
        .find(|&s| {
            let owners: Vec<_> = (0..TENANTS)
                .map(|t| owner_of(s, t, &[0, 1]).unwrap())
                .collect();
            owners.contains(&0) && owners.contains(&1)
        })
        .expect("a split placement seed exists");
    let n0 = (0..TENANTS)
        .filter(|&t| owner_of(drill_seed, t, &[0, 1]) == Some(0))
        .count() as u64;

    let shared = root.join("fleet");
    let shared_s = shared.to_str().unwrap();
    let fleet_ports = [free_port(), free_port()];
    let ingest_ports = [free_port(), free_port()];
    let children: Vec<_> = (0..2usize)
        .map(|i| {
            Command::new(bin())
                .args([
                    "serve",
                    "--listen",
                    &format!("127.0.0.1:{}", ingest_ports[i]),
                    "--max-conns",
                    "3",
                    "--state-dir",
                    shared_s,
                    "--seed",
                    "2042",
                    "--tenants",
                    "3",
                    "--snapshot-every",
                    "3",
                    "--fleet-id",
                    &i.to_string(),
                    "--fleet-listen",
                    &format!("127.0.0.1:{}", fleet_ports[i]),
                    "--fleet-peer",
                    &format!("{}=127.0.0.1:{}", 1 - i, fleet_ports[1 - i]),
                    "--fleet-seed",
                    &drill_seed.to_string(),
                    "--fleet-catchup",
                    replay_s,
                    "--fleet-linger-ms",
                    "1500",
                    "--fleet-grace-ms",
                    "800",
                    "--fleet-check-ms",
                    "25",
                    "--fleet-probe-ms",
                    "100",
                ])
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("daemon spawns")
        })
        .collect();

    // Three stream phases at tick boundaries; after phase 1 roll every
    // tenant off daemon 0, after phase 2 roll everything (now all on
    // daemon 1) back to daemon 0. Records for a tenant the receiving
    // daemon does not host are dropped as foreign — the *other* daemon
    // decides them — so the full stream goes to both.
    for (p, phase) in split_at_ticks(&text, &[4, 8]).iter().enumerate() {
        for port in ingest_ports {
            send_phase(port, phase);
        }
        // Quiet window: let both run loops route the phase before the
        // migration takes the tenant's route away.
        std::thread::sleep(Duration::from_millis(500));
        let roll = match p {
            0 => Some((0usize, 1usize)),
            1 => Some((1, 0)),
            _ => None,
        };
        if let Some((from, to)) = roll {
            let tenants = hosted_tenants(fleet_ports[from], from);
            assert!(
                !tenants.is_empty(),
                "phase {p}: daemon {from} must host something to roll"
            );
            for t in tenants {
                run_ok(&[
                    "migrate",
                    "--connect",
                    &format!("127.0.0.1:{}", fleet_ports[from]),
                    "--tenant",
                    &t.to_string(),
                    "--dest",
                    &to.to_string(),
                ]);
            }
        }
    }

    let outs: Vec<_> = children
        .into_iter()
        .map(|c| c.wait_with_output().expect("daemon exits"))
        .collect();
    for (i, out) in outs.iter().enumerate() {
        assert!(
            out.status.success(),
            "daemon {i} must exit cleanly:\n{}",
            output_text(out)
        );
    }
    let out0 = String::from_utf8_lossy(&outs[0].stdout);
    let out1 = String::from_utf8_lossy(&outs[1].stdout);
    // Roll 1 moved daemon 0's placement tenants out; roll 2 moved all
    // three back. The mirror-image counters prove both directions ran.
    assert_eq!(counter(&out0, "fleet.migrations.out"), n0);
    assert_eq!(counter(&out0, "fleet.migrations.in"), TENANTS as u64);
    assert_eq!(counter(&out1, "fleet.migrations.out"), TENANTS as u64);
    assert_eq!(counter(&out1, "fleet.migrations.in"), n0);
    assert_eq!(counter(&out0, "fleet.migrate.failed"), 0);
    assert_eq!(counter(&out1, "fleet.migrate.failed"), 0);
    // Both daemons saw the full stream, so both dropped foreign records
    // the other one decided.
    assert!(counter(&out0, "fleet.foreign") > 0);
    assert!(counter(&out1, "fleet.foreign") > 0);
    assert_eq!(
        want,
        decisions(&shared),
        "rolling migration must not drop or duplicate a single decision"
    );
}

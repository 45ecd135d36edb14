//! Deterministic load-shedding: same seed + same overload profile ⇒
//! identical shed set and identical final decisions, at any queue
//! capacity at or above the tick budget.
//!
//! The shed set must be a pure function of `(seed, stream)` — never of
//! queue sizing or scheduling — because crash-resume byte-identity
//! depends on re-deriving it exactly.

use std::io::Cursor;
use std::path::PathBuf;

use tibfit_daemon::queue::QueuePolicy;
use tibfit_daemon::{Daemon, DaemonConfig, DaemonReport};
use tibfit_experiments::replay::{tenant_seed, FieldScenario};

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

/// Overload replay: `per_tick` records per tenant per tick, stimuli
/// drawn from each tenant's scenario event stream.
fn overload_replay(tenants: usize, master: u64, ticks: u64, per_tick: u64) -> String {
    let streams: Vec<Vec<_>> = (0..tenants)
        .map(|t| small_scenario(tenant_seed(master, t)).events((ticks * per_tick) as usize))
        .collect();
    let mut out = String::from("# overload replay\n");
    for time in 0..ticks {
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

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tibfit-shed-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct RunOutput {
    report: DaemonReport,
    shed_logs: Vec<Vec<(u64, u64, u64)>>,
    decisions: Vec<String>,
}

fn run_daemon(
    tag: &str,
    capacity: usize,
    budget: usize,
    master: u64,
    replay: &str,
) -> RunOutput {
    let dir = fresh_dir(tag);
    let mut cfg = DaemonConfig::standard(2, master, dir.clone());
    cfg.scenario = small_scenario;
    cfg.queue = QueuePolicy {
        capacity,
        tick_budget: budget,
        record_shed: true,
    };
    cfg.snapshot_every = 3;
    let mut daemon = Daemon::new(cfg).expect("daemon builds");
    let report = daemon.run(Cursor::new(replay.to_string())).expect("run succeeds");
    let shed_logs = (0..2).map(|t| daemon.shed_log_of(t)).collect();
    let decisions = (0..2)
        .map(|t| {
            std::fs::read_to_string(dir.join("decisions").join(format!("tenant{t}.log")))
                .expect("decision log exists")
        })
        .collect();
    RunOutput {
        report,
        shed_logs,
        decisions,
    }
}

#[test]
fn shed_set_is_identical_across_queue_capacities() {
    let replay = overload_replay(2, 90, 12, 9);
    let budget = 3;
    let base = run_daemon("cap-base", budget, budget, 90, &replay);
    // Overload is real: 9 offered, 3 admitted per tick.
    assert!(base.report.tenants[0].stats.shed_budget > 0);
    assert_eq!(
        base.report.tenants[0].stats.admitted,
        12 * budget as u64,
        "budget admits exactly its quota under sustained overload"
    );
    for (tag, cap) in [("cap-2x", 2 * budget), ("cap-8x", 8 * budget), ("cap-64", 64)] {
        let other = run_daemon(tag, cap, budget, 90, &replay);
        assert_eq!(base.shed_logs, other.shed_logs, "shed set at capacity {cap}");
        assert_eq!(base.decisions, other.decisions, "decisions at capacity {cap}");
    }
}

#[test]
fn repeated_runs_are_bit_identical() {
    let replay = overload_replay(2, 92, 8, 5);
    let a = run_daemon("rep-a", 4, 2, 92, &replay);
    let b = run_daemon("rep-b", 4, 2, 92, &replay);
    assert_eq!(a.shed_logs, b.shed_logs);
    assert_eq!(a.decisions, b.decisions);
    // Everything except backpressure_waits (wall-clock dependent) is
    // deterministic.
    for (ta, tb) in a.report.tenants.iter().zip(&b.report.tenants) {
        assert_eq!(ta.applied, tb.applied);
        assert_eq!(ta.stats.offered, tb.stats.offered);
        assert_eq!(ta.stats.admitted, tb.stats.admitted);
        assert_eq!(ta.stats.shed_budget, tb.stats.shed_budget);
        assert_eq!(ta.stats.shed_overflow, tb.stats.shed_overflow);
        assert_eq!(ta.stats.duplicates, tb.stats.duplicates);
    }
}

#[test]
fn sustained_overload_stays_bounded_and_counted() {
    // 10× overload: budget 2, 20 records per tenant per tick.
    let replay = overload_replay(2, 93, 10, 20);
    let out = run_daemon("overload", 4, 2, 93, &replay);
    let t0 = &out.report.tenants[0];
    assert_eq!(t0.stats.offered, 200);
    assert_eq!(t0.stats.admitted, 20);
    assert_eq!(t0.stats.shed_total(), 180);
    assert_eq!(
        t0.stats.offered,
        t0.stats.admitted + t0.stats.shed_total() + t0.stats.duplicates
    );
    // Every admitted record produced a decision line.
    assert_eq!(out.decisions[0].lines().count() as u64, t0.applied);
}

#[test]
fn duplicate_and_shed_replays_are_idempotent() {
    // Stream the same overloaded file twice in one run: every record
    // of the second pass — admitted or shed the first time — must be
    // dropped as a duplicate, leaving decisions identical to a single
    // pass.
    let replay = overload_replay(2, 94, 6, 5);
    let doubled = {
        let mut s = replay.clone();
        s.push_str(&replay);
        s
    };
    let once = run_daemon("idem-once", 4, 2, 94, &replay);
    let twice = run_daemon("idem-twice", 4, 2, 94, &doubled);
    assert_eq!(once.decisions, twice.decisions);
    assert_eq!(once.shed_logs[0], twice.shed_logs[0]);
    assert_eq!(
        twice.report.tenants[0].stats.duplicates,
        once.report.tenants[0].stats.offered
    );
}

/// FNV-1a (standard 64-bit parameters) over `bytes`, folded into `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The benchmark's `flood` shape on the default mobile field: 640
/// records per tenant per tick against the default budget of 64, so
/// nine in ten are shed by impact, ranked against node positions that
/// drift every round. The admitted set, the shed log and the decisions
/// are pinned to what a worker publishing its positions after every
/// record produced: publishing once per tick, at the tick's end, must
/// admit exactly the same records.
#[test]
fn a_flood_run_admits_the_same_records_as_per_record_position_views() {
    let (master, ticks, per_tick) = (42u64, 8u64, 640u64);
    let streams: Vec<Vec<_>> = (0..2)
        .map(|t| FieldScenario::mobile(tenant_seed(master, t)).events((ticks * per_tick) as usize))
        .collect();
    let mut replay = String::new();
    for time in 0..ticks {
        for (tenant, stream) in streams.iter().enumerate() {
            for k in 0..per_tick {
                let p = stream[(time * per_tick + k) as usize];
                let seq = time * per_tick + k + 1;
                replay.push_str(&format!("R {tenant} {time} {tenant} {seq} {} {}\n", p.x, p.y));
            }
        }
        replay.push_str("T\n");
    }
    let dir = fresh_dir("flood-views");
    let mut cfg = DaemonConfig::standard(2, master, dir.clone());
    cfg.queue.record_shed = true;
    let mut daemon = Daemon::new(cfg).expect("daemon builds");
    let report = daemon.run(Cursor::new(replay)).expect("run succeeds");
    let mut h = 0xcbf2_9ce4_8422_2325;
    for (t, tenant) in report.tenants.iter().enumerate() {
        assert_eq!(tenant.stats.admitted, ticks * 64, "tenant {t}");
        assert_eq!(tenant.stats.shed_budget, ticks * (per_tick - 64), "tenant {t}");
        for (tick, src, seq) in daemon.shed_log_of(t) {
            for v in [tick, src, seq] {
                h = fnv1a(h, &v.to_le_bytes());
            }
        }
        let log = std::fs::read(dir.join("decisions").join(format!("tenant{t}.log")))
            .expect("decision log exists");
        h = fnv1a(h, &log);
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(h, FLOOD_DIGEST, "shed logs and decisions digest {h:#018x}");
}

/// The digest of the flood run above with per-record position views.
const FLOOD_DIGEST: u64 = 0x5255_aedb_ad52_9cda;

#[test]
fn a_feed_starting_at_seq_zero_decides_its_first_record() {
    // Tenant 0's feed 5 starts at seq 0; its first record is new, not a
    // duplicate of an unseen highwater.
    let replay = "R 0 0 5 0 10 10\nR 0 0 5 1 20 20\nT\nR 0 1 5 0 10 10\nT\n";
    let out = run_daemon("seq-zero", 8, 8, 91, replay);
    let stats = &out.report.tenants[0].stats;
    assert_eq!(stats.admitted, 2);
    assert_eq!(stats.duplicates, 1, "only the re-sent seq 0 is a duplicate");
    let lines: Vec<&str> = out.decisions[0].lines().collect();
    assert_eq!(lines.len(), 2, "{lines:?}");
    assert!(lines[0].starts_with("D 1 5 0 "), "{}", lines[0]);
    assert!(lines[1].starts_with("D 2 5 1 "), "{}", lines[1]);
}

//! `tibfit-bench` — machine-readable DES kernel throughput harness.
//!
//! Runs three timer-wheel scheduler microbenches, one end-to-end
//! event-driven cluster run, the CTI-cache count, and the fleet
//! rebalance/migration timings, then writes a flat JSON report
//! (`BENCH_kernel.json` by default) suitable for regression checking:
//!
//! ```text
//! cargo run --release -p tibfit-bench --bin tibfit-bench
//! tibfit-bench --quick                      # CI-sized workloads
//! tibfit-bench --out results/bench.json     # alternate report path
//! tibfit-bench --check BENCH_kernel.json    # exit 1 on >10% regression
//! ```
//!
//! The timer-wheel micros and the DES run are timed in thread CPU time
//! (`CLOCK_THREAD_CPUTIME_ID`), best of several samples of at least
//! 20 ms each, so a neighbour's burst on a shared machine is not
//! charged to the kernel; the fleet keys remain wall times.
//!
//! The service path (ingest, snapshots, restart, query latency) and the
//! paper-reproduction sweep are measured by the repository benchmark in
//! `perfbench/`, in CPU time with spreads; this harness keeps only what
//! that benchmark leaves out.
//!
//! `--check` first compares the workload-shape keys (`quick`,
//! `micro_events`, `des_events`, `cti_cache_decisions`): a baseline that
//! measured a different workload is reported in one line and nothing
//! else is compared. Otherwise every key is compared against the baseline
//! in the direction `KEY_GATES` assigns it — higher is better
//! (throughput, speedups), lower is better (times, per-unit costs), or
//! informational (workload shape, counts) — and the check fails if any
//! gated key degrades by more than 10%, if a key has no entry in the
//! table, or if a baseline key is no longer reported. Speedup keys, being
//! ratios, additionally get a small absolute slack. On top of the
//! relative comparison, `--check` asserts absolute floors.
//! `--floors` asserts the same absolute floors *without* a baseline
//! file — the CI mode, immune to cross-hardware baseline skew:
//! `cti_cache_speedup >= 5` (a deterministic count ratio), and
//! `fleet_migrate_restore` (the MIGRATE round trip moving every tenant
//! to a second daemon) must stay under 75% of `fleet_rebuild_ms` (one
//! cold daemon start + ingest of the same stream), so handing a tenant
//! over always beats rebuilding it.

use std::hint::black_box;
use std::io::Cursor;
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

use tibfit_adversary::behavior::NodeBehavior;
use tibfit_adversary::CorrectNode;
use tibfit_bench::{cpu_sample, format_ns, json_number};
use tibfit_daemon::fleet::{owner_of, FleetConfig, FleetPolicy, PeerSpec};
use tibfit_daemon::{Daemon, DaemonConfig};
use tibfit_core::engine::{Aggregator, TibfitEngine};
use tibfit_core::location::LocatedReport;
use tibfit_core::trust::TrustParams;
use tibfit_net::geometry::Point;
use tibfit_experiments::des::{DesClusterSim, DesConfig};
use tibfit_experiments::replay::{render_replay, replay_records};
use tibfit_net::channel::BernoulliLoss;
use tibfit_net::topology::Topology;
use tibfit_sim::rng::SimRng;
use tibfit_sim::{EventQueue, SimTime, WHEEL_SPAN};

/// Allowed slowdown before `--check` fails.
const REGRESSION_TOLERANCE: f64 = 0.10;
/// Extra absolute slack for `*_speedup` ratio keys (see `regressions`).
const RATIO_SLACK: f64 = 0.15;

/// Thread CPU time each timed sample runs for at least: a pass over a
/// micro pattern takes a few milliseconds, too short to average out
/// cache and frequency noise on its own.
const MIN_SAMPLE: Duration = Duration::from_millis(20);

/// One pass of interleaved wheel work over a fixed time pattern on a
/// fresh queue: push a burst, then drain it, like the engine's
/// schedule/dispatch loop (`burst` bounds the queue population).
/// Returns the events handled, one per push+pop pair. `times` must be
/// grouped so every time in burst `b+1` is at or after every time in
/// burst `b`.
fn wheel_pass(times: &[u64], burst: usize) -> u64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut i = 0;
    while i < times.len() {
        let end = (i + burst).min(times.len());
        for (j, &t) in times[i..end].iter().enumerate() {
            q.push(SimTime::from_ticks(t), (i + j) as u64);
        }
        for _ in i..end {
            black_box(q.pop());
        }
        i = end;
    }
    times.len() as u64
}

/// Dense same-tick pattern: bursts of 4096 events all on one tick — the
/// collector-window shape. The wheel pops these from one bucket in O(1).
fn dense_pattern(n: usize) -> Vec<u64> {
    (0..n).map(|i| (i / 4096) as u64).collect()
}

/// Paper-scale far-future bursts: 128 reports jittered over 50 ticks,
/// every 1000 ticks — each burst lands past the wheel window, so every
/// event pays the overflow-heap cascade on rebase. This is the wheel's
/// worst case.
fn burst_pattern(n: usize) -> Vec<u64> {
    let mut rng = SimRng::seed_from(0xB0);
    (0..n)
        .map(|i| (i as u64 / 128) * 1000 + rng.uniform_usize(50) as u64)
        .collect()
}

/// In-window random jitter: bursts of 512 events spread uniformly over
/// the next 512 ticks, so every push lands inside the wheel window
/// (span 1024) — the DES's jittered report/retry shape.
fn jitter_pattern(n: usize) -> Vec<u64> {
    let mut rng = SimRng::seed_from(0xC1);
    let span = (WHEEL_SPAN / 2) as u64;
    (0..n)
        .map(|i| (i as u64 / span) * span + rng.uniform_usize(span as usize) as u64)
        .collect()
}

fn honest_behaviors(n: usize) -> Vec<Box<dyn NodeBehavior>> {
    (0..n)
        .map(|_| -> Box<dyn NodeBehavior> { Box::new(CorrectNode::new(0.0, 1.6)) })
        .collect()
}

fn run_all(quick: bool) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    out.push(("schema_version", 1.0));
    out.push(("quick", f64::from(u8::from(quick))));

    let micro_n = if quick { 20_000 } else { 200_000 };
    let patterns: [(&str, &str, usize, Vec<u64>); 3] = [
        ("micro_dense_wheel_events_per_sec", "dense same-tick", 4096, dense_pattern(micro_n)),
        ("micro_burst_wheel_events_per_sec", "far-future bursts", 128, burst_pattern(micro_n)),
        ("micro_jitter_wheel_events_per_sec", "in-window jitter", WHEEL_SPAN / 2, jitter_pattern(micro_n)),
    ];
    // End-to-end DES: 100-node cluster, paper-scale timing.
    let n_events: u64 = if quick { 200 } else { 1000 };
    let des_run = || {
        let topo = Topology::uniform_grid(100, 100.0, 100.0);
        let mut sim = DesClusterSim::new(
            DesConfig::paper_scale(100.0),
            topo,
            honest_behaviors(100),
            Box::new(BernoulliLoss::new(0.005)),
            Box::new(TibfitEngine::new(TrustParams::experiment2(), 100)),
            SimRng::seed_from(3),
        );
        let stats = black_box(sim.run(n_events));
        (sim.dispatched(), sim.peak_queue_depth(), stats.accuracy())
    };
    let (dispatched, peak_depth, accuracy) = des_run();

    // Each sample runs one workload back to back (fresh queues, fresh
    // simulations) for at least MIN_SAMPLE of thread CPU time. Samples
    // of the four workloads are taken in turn, so each workload's
    // samples spread across the whole run and a slow spell of the
    // machine does not fall on one key's samples alone. Each key
    // reports its best sample; round 0 is warmup.
    let rounds = if quick { 3 } else { 10 };
    let mut best_eps = [0.0f64; 3];
    let mut best_ns = f64::INFINITY;
    for round in 0..=rounds {
        for (best, (_, _, burst, pattern)) in best_eps.iter_mut().zip(&patterns) {
            let (cpu, events) = cpu_sample(MIN_SAMPLE, || wheel_pass(pattern, *burst));
            if round > 0 {
                *best = best.max(events as f64 / cpu.as_secs_f64());
            }
        }
        let (cpu, runs) = cpu_sample(MIN_SAMPLE, || {
            des_run();
            1
        });
        if round > 0 {
            best_ns = best_ns.min(cpu.as_nanos() as f64 / runs as f64);
        }
    }
    out.push(("micro_events", micro_n as f64));
    for ((wheel_key, label, _, _), wheel) in patterns.iter().zip(best_eps) {
        println!("micro/{label}: wheel {:.2} Mev/s", wheel / 1e6);
        out.push((wheel_key, wheel));
    }
    let des_eps = dispatched as f64 / (best_ns / 1e9);
    let ns_per_event = best_ns / dispatched as f64;
    println!(
        "des/e2e: {n_events} events, {dispatched} dispatches in {} ({:.2} Mev/s, {:.0} ns/event, peak depth {peak_depth}, accuracy {accuracy:.3})",
        format_ns(best_ns as u128),
        des_eps / 1e6,
        ns_per_event,
    );
    out.push(("des_events", n_events as f64));
    out.push(("des_dispatched", dispatched as f64));
    out.push(("des_cpu_ms", best_ns / 1e6));
    out.push(("des_events_per_sec", des_eps));
    out.push(("des_ns_per_event", ns_per_event));
    out.push(("des_peak_queue_depth", peak_depth as f64));

    // Incremental CTI cache: exp() evaluations actually paid per CH
    // decision vs the uncached cost of one exponential per trust-weight
    // read (`ti_reads` counts exactly those). Workload: a paper-scale
    // cluster where ~10% of the event neighbors lie about the location
    // every round — honest nodes sit at the v = 0 trust floor and cost
    // nothing; only the liars' counters move.
    let cti_decisions: u64 = if quick { 200 } else { 1000 };
    let topo = Topology::uniform_grid(100, 100.0, 100.0);
    let mut cti_engine = TibfitEngine::new(TrustParams::experiment2(), 100);
    let event = Point::new(50.0, 50.0);
    let neighbors = topo.event_neighbors(event, 20.0);
    let n_faulty = (neighbors.len() / 10).max(1);
    let wrong = Point::new(90.0, 90.0);
    let reports: Vec<LocatedReport> = neighbors
        .iter()
        .enumerate()
        .map(|(i, &n)| LocatedReport::new(n, if i < n_faulty { wrong } else { event }))
        .collect();
    let cti_start = Instant::now();
    for _ in 0..cti_decisions {
        black_box(cti_engine.located_round(&topo, 20.0, 5.0, &reports));
    }
    let cti_ns = cti_start.elapsed().as_nanos().max(1);
    let exp_evals = cti_engine.table().exp_evals();
    let ti_reads = cti_engine.table().ti_reads();
    let exp_per_decision = exp_evals as f64 / cti_decisions as f64;
    let reads_per_decision = ti_reads as f64 / cti_decisions as f64;
    // Each read would have been one exp() before the cache.
    let cti_speedup = ti_reads as f64 / exp_evals.max(1) as f64;
    println!(
        "cti_cache: {cti_decisions} decisions ({} members, {n_faulty} faulty) in {}: \
         {exp_per_decision:.1} exp/decision vs {reads_per_decision:.1} uncached ({cti_speedup:.1}x fewer)",
        neighbors.len(),
        format_ns(cti_ns),
    );
    out.push(("cti_cache_decisions", cti_decisions as f64));
    out.push(("cti_cache_exp_per_decision", exp_per_decision));
    out.push(("cti_cache_reads_per_decision", reads_per_decision));
    out.push(("cti_cache_speedup", cti_speedup));

    // Fleet mode. (a) Dead-peer rebalance: a survivor configured with
    // an unreachable peer must detect it, quarantine it, and adopt its
    // tenants through the catch-up replay — `fleet_rebalance_ms` is
    // the wall time from daemon start until STATUS reports every
    // tenant hosted locally, probe cadence included. (b) Rebuild: one
    // cold daemon start + ingest of the same 2-tenant stream, in its own
    // state directory — `fleet_rebuild_ms`, the reference the migration
    // floor holds (c) to. (c) Live migration: every tenant is handed to
    // a second daemon over the fleet port — `fleet_migrate_restore` is
    // the total MIGRATE round-trip wall (drain, snapshot capture, framed
    // push, install, catch-up replay) in ms.
    let (fleet_ticks, fleet_per_tick) = if quick { (12u64, 2u32) } else { (40, 4) };
    let fleet_root =
        std::env::temp_dir().join(format!("tibfit-bench-fleet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&fleet_root);
    std::fs::create_dir_all(&fleet_root).expect("fleet bench root");
    let fleet_replay = render_replay(&replay_records(2, 0xDA, fleet_ticks, fleet_per_tick));
    let catchup = fleet_root.join("catchup.replay");
    std::fs::write(&catchup, &fleet_replay).expect("catchup replay");

    // (a) Rebalance: peer 1 owns at least one tenant but never answers.
    let reb_seed = (0..1000u64)
        .find(|&s| (0..2).any(|t| owner_of(s, t, &[0, 1]) == Some(1)))
        .expect("a placement seed maps a tenant to peer 1");
    let mut reb_cfg = DaemonConfig::standard(2, 0xDA, fleet_root.join("reb"));
    reb_cfg.fleet = Some(FleetConfig {
        id: 0,
        peers: vec![PeerSpec {
            id: 1,
            addr: "127.0.0.1:1".into(),
        }],
        seed: reb_seed,
        listen: "127.0.0.1:0".into(),
        linger_ms: 1200,
        catchup_replay: Some(catchup.clone()),
        policy: FleetPolicy {
            check_interval_ms: 5,
            grace_ms: 0,
            probe_timeout_ms: 20,
            ..FleetPolicy::default()
        },
    });
    let mut reb_daemon = Daemon::new(reb_cfg).expect("rebalance bench daemon");
    let reb_addr = reb_daemon.fleet_addr().expect("fleet port bound");
    let start = Instant::now();
    let reb_thread = std::thread::spawn(move || reb_daemon.run(Cursor::new(Vec::new())));
    let mut fleet_rebalance_ns = 0u128;
    while start.elapsed() < Duration::from_secs(10) {
        if let Ok(lines) = fleet_request(reb_addr, "STATUS") {
            if (0..2).all(|t| lines.iter().any(|l| l == &format!("S tenant {t} 0"))) {
                fleet_rebalance_ns = start.elapsed().as_nanos().max(1);
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(fleet_rebalance_ns > 0, "rebalance bench never converged");
    reb_thread
        .join()
        .expect("rebalance daemon thread")
        .expect("rebalance run succeeds");

    // (b) Rebuild from scratch.
    let start = Instant::now();
    let mut rebuild = Daemon::new(DaemonConfig::standard(2, 0xDA, fleet_root.join("rebuild")))
        .expect("rebuild bench daemon");
    let rebuild_report = rebuild
        .run(Cursor::new(fleet_replay.clone().into_bytes()))
        .expect("rebuild run succeeds");
    let fleet_rebuild_ns = start.elapsed().as_nanos().max(1);
    let applied: u64 = rebuild_report.tenants.iter().map(|t| t.applied).sum();
    assert_eq!(
        applied,
        2 * fleet_ticks * u64::from(fleet_per_tick),
        "bench replay must apply fully"
    );

    // (c) Migration: daemon 0 owns both tenants and hands them to
    // daemon 1. A slow probe cadence keeps the peer monitors out of
    // the measurement window.
    let mig_seed = (0..10_000u64)
        .find(|&s| (0..2).all(|t| owner_of(s, t, &[0, 1]) == Some(0)))
        .expect("a placement seed maps every tenant to daemon 0");
    let grab_port = || {
        TcpListener::bind("127.0.0.1:0")
            .expect("bind :0")
            .local_addr()
            .expect("local addr")
            .port()
    };
    let (port_a, port_b) = (grab_port(), grab_port());
    let quiet = FleetPolicy {
        check_interval_ms: 500,
        grace_ms: 60_000,
        probe_timeout_ms: 100,
        ..FleetPolicy::default()
    };
    let mut cfg_a = DaemonConfig::standard(2, 0xDA, fleet_root.join("mig"));
    cfg_a.fleet = Some(FleetConfig {
        id: 0,
        peers: vec![PeerSpec {
            id: 1,
            addr: format!("127.0.0.1:{port_b}"),
        }],
        seed: mig_seed,
        listen: format!("127.0.0.1:{port_a}"),
        linger_ms: 1500,
        catchup_replay: None,
        policy: quiet,
    });
    let mut cfg_b = DaemonConfig::standard(2, 0xDA, fleet_root.join("mig"));
    cfg_b.fleet = Some(FleetConfig {
        id: 1,
        peers: vec![PeerSpec {
            id: 0,
            addr: format!("127.0.0.1:{port_a}"),
        }],
        seed: mig_seed,
        listen: format!("127.0.0.1:{port_b}"),
        linger_ms: 1500,
        catchup_replay: Some(catchup),
        policy: quiet,
    });
    let mut daemon_b = Daemon::new(cfg_b).expect("migration dest daemon");
    let mut daemon_a = Daemon::new(cfg_a).expect("migration source daemon");
    let addr_a: SocketAddr = daemon_a.fleet_addr().expect("source fleet port");
    let thread_b = std::thread::spawn(move || daemon_b.run(Cursor::new(Vec::new())));
    let thread_a = std::thread::spawn(move || daemon_a.run(Cursor::new(fleet_replay.into_bytes())));
    // Quiet window: let the source finish routing its stream before the
    // moves, so the measurement is restore cost, not ingest drain.
    std::thread::sleep(Duration::from_millis(300));
    let start = Instant::now();
    for t in 0..2 {
        let reply = fleet_request(addr_a, &format!("MIGRATE {t} 1")).expect("migrate round trip");
        assert_eq!(
            reply.last().map(String::as_str),
            Some(format!("MOK {t}").as_str()),
            "bench migration must succeed: {reply:?}"
        );
    }
    let fleet_migrate_ns = start.elapsed().as_nanos().max(1);
    let report_a = thread_a
        .join()
        .expect("source daemon thread")
        .expect("source run succeeds");
    thread_b
        .join()
        .expect("dest daemon thread")
        .expect("dest run succeeds");
    assert_eq!(
        report_a.fleet.map(|f| f.migrations_out),
        Some(2),
        "both tenants must migrate out"
    );
    println!(
        "fleet: rebalance (detect + adopt + catch up) {}, rebuild {applied} records {}, migrate 2 tenants {}",
        format_ns(fleet_rebalance_ns),
        format_ns(fleet_rebuild_ns),
        format_ns(fleet_migrate_ns),
    );
    out.push(("fleet_rebalance_ms", fleet_rebalance_ns as f64 / 1e6));
    out.push(("fleet_migrate_restore", fleet_migrate_ns as f64 / 1e6));
    out.push(("fleet_rebuild_ms", fleet_rebuild_ns as f64 / 1e6));
    let _ = std::fs::remove_dir_all(&fleet_root);

    out
}

/// One command round trip against a daemon's fleet port: sends the
/// line, reads until a terminal reply (`… end` for STATUS dumps,
/// `MOK`/`MERR` for migrations) or EOF.
fn fleet_request(addr: SocketAddr, command: &str) -> std::io::Result<Vec<String>> {
    use std::io::{BufRead, BufReader, Write};
    let stream = std::net::TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let mut w = &stream;
    writeln!(w, "{command}")?;
    w.flush()?;
    let mut reader = BufReader::new(&stream);
    let mut lines = Vec::new();
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        let trimmed = line.trim_end().to_string();
        let terminal = trimmed.ends_with(" end")
            || trimmed.starts_with("MOK ")
            || trimmed.starts_with("MERR ");
        lines.push(trimmed);
        if terminal {
            break;
        }
    }
    Ok(lines)
}

/// Renders the flat JSON report.
fn to_json(metrics: &[(&'static str, f64)]) -> String {
    let mut s = String::from("{\n");
    for (i, (k, v)) in metrics.iter().enumerate() {
        let sep = if i + 1 == metrics.len() { "" } else { "," };
        // Integers render without a fraction so the report diffs cleanly.
        if v.fract() == 0.0 && v.abs() < 1e15 {
            s.push_str(&format!("  \"{k}\": {}{sep}\n", *v as i64));
        } else {
            s.push_str(&format!("  \"{k}\": {v:.3}{sep}\n"));
        }
    }
    s.push_str("}\n");
    s
}

/// How `--check` compares one report key against the baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gate {
    /// Throughput: a drop beyond the tolerance regresses.
    Higher,
    /// A ratio (`*_speedup`): as `Higher`, but the drop must also
    /// exceed [`RATIO_SLACK`] in absolute terms.
    Ratio,
    /// Time, size, or per-unit cost: a rise beyond the tolerance
    /// regresses.
    Lower,
    /// Workload shape, counts, and exact-match flags (held by
    /// `floor_violations` where they matter): never compared.
    Info,
}

/// The direction of every report key, spelled out rather than guessed
/// from suffixes — a suffix rule silently left keys such as
/// `fleet_rebalance_ms` ungated.
const KEY_GATES: &[(&str, Gate)] = &[
    ("schema_version", Gate::Info),
    ("quick", Gate::Info),
    ("micro_events", Gate::Info),
    ("micro_dense_wheel_events_per_sec", Gate::Higher),
    ("micro_burst_wheel_events_per_sec", Gate::Higher),
    ("micro_jitter_wheel_events_per_sec", Gate::Higher),
    ("des_events", Gate::Info),
    ("des_dispatched", Gate::Info),
    ("des_cpu_ms", Gate::Lower),
    ("des_events_per_sec", Gate::Higher),
    ("des_ns_per_event", Gate::Lower),
    ("des_peak_queue_depth", Gate::Info),
    ("cti_cache_decisions", Gate::Info),
    ("cti_cache_exp_per_decision", Gate::Lower),
    ("cti_cache_reads_per_decision", Gate::Lower),
    ("cti_cache_speedup", Gate::Ratio),
    ("fleet_rebalance_ms", Gate::Lower),
    ("fleet_migrate_restore", Gate::Lower),
    ("fleet_rebuild_ms", Gate::Info),
];

/// The keys that fix the size of each workload. Two reports that differ
/// in any of them measured different work, so their timings cannot be
/// compared.
const SHAPE_KEYS: &[&str] = &["quick", "micro_events", "des_events", "cti_cache_decisions"];

fn gate_of(key: &str) -> Option<Gate> {
    KEY_GATES.iter().find(|(k, _)| *k == key).map(|&(_, g)| g)
}

/// The keys of a flat JSON report, one `"key": value` pair per line as
/// [`to_json`] writes them.
fn json_keys(text: &str) -> impl Iterator<Item = &str> {
    text.lines()
        .filter_map(|line| line.trim().strip_prefix('"')?.split_once("\":").map(|(k, _)| k))
}

/// Compares current metrics against a baseline report. Returns the list
/// of regression descriptions (empty = pass). The [`SHAPE_KEYS`] are
/// compared first: if the baseline measured a different workload, that
/// is the one line returned and nothing else is compared. Otherwise keys
/// present in both reports are compared; a key missing from
/// [`KEY_GATES`] is reported rather than skipped, so a new key cannot go
/// ungated by accident, and a baseline key the report no longer emits is
/// reported too, so a gate cannot vanish by dropping its metric.
fn regressions(metrics: &[(&'static str, f64)], baseline: &str) -> Vec<String> {
    let shape_diffs: Vec<String> = metrics
        .iter()
        .filter(|(k, _)| SHAPE_KEYS.contains(k))
        .filter_map(|&(key, now)| {
            let base = json_number(baseline, key)?;
            (base != now).then(|| format!("{key} {now} vs {base}"))
        })
        .collect();
    if !shape_diffs.is_empty() {
        return vec![format!(
            "the baseline measured a different workload ({}); nothing compared",
            shape_diffs.join(", ")
        )];
    }
    let mut bad: Vec<String> = json_keys(baseline)
        .filter(|&key| metrics.iter().all(|&(k, _)| k != key))
        .map(|key| format!("{key}: in the baseline but no longer reported"))
        .collect();
    for &(key, now) in metrics {
        let Some(base) = json_number(baseline, key) else {
            continue;
        };
        let regressed = match gate_of(key) {
            // A pure relative bound flakes near small ratios (10% of 0.3
            // is noise); require an absolute drop too.
            Some(Gate::Ratio) => now < base * (1.0 - REGRESSION_TOLERANCE) - RATIO_SLACK,
            Some(Gate::Higher) => now < base * (1.0 - REGRESSION_TOLERANCE),
            Some(Gate::Lower) => now > base * (1.0 + REGRESSION_TOLERANCE),
            Some(Gate::Info) => false,
            None => {
                bad.push(format!("{key}: no --check direction (add it to KEY_GATES)"));
                continue;
            }
        };
        if regressed {
            bad.push(format!(
                "{key}: {now:.1} vs baseline {base:.1} (>{:.0}% worse)",
                REGRESSION_TOLERANCE * 100.0
            ));
        }
    }
    bad
}

/// Absolute performance floors asserted by `--floors` and `--check`.
/// The CTI-cache floor is a deterministic count ratio and holds on any
/// hardware; the migration floor compares two timings taken on the same
/// machine in the same run.
fn floor_violations(metrics: &[(&'static str, f64)]) -> Vec<String> {
    let mut bad = Vec::new();
    let get = |k: &str| metrics.iter().find(|(key, _)| *key == k).map(|&(_, v)| v);
    if let Some(s) = get("cti_cache_speedup") {
        if s < 5.0 {
            bad.push(format!("cti_cache_speedup: {s:.2} below the required 5.0x"));
        }
    }
    // Moving a tenant to another daemon (drain, snapshot capture,
    // framed push, install, catch-up) must beat rebuilding it from
    // scratch by a clear margin, or live migration is pointless and
    // fleet rebalancing should just re-ingest.
    if let (Some(migrate), Some(rebuild)) = (get("fleet_migrate_restore"), get("fleet_rebuild_ms")) {
        let budget = 0.75 * rebuild;
        if migrate > budget {
            bad.push(format!(
                "fleet_migrate_restore: {migrate:.3} ms exceeds 75% of fleet_rebuild_ms ({budget:.3} ms)"
            ));
        }
    }
    bad
}

fn main() {
    let mut quick = false;
    let mut floors = false;
    let mut out_path = String::from("BENCH_kernel.json");
    let mut check_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--floors" => floors = true,
            "--out" => match args.next() {
                Some(p) => out_path = p,
                None => {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                }
            },
            "--check" => match args.next() {
                Some(p) => check_path = Some(p),
                None => {
                    eprintln!("--check needs a baseline path");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: tibfit-bench [--quick] [--floors] [--out <path>] [--check <baseline.json>]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let metrics = run_all(quick);
    let json = to_json(&metrics);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(2);
    }
    println!("wrote {out_path}");

    if floors {
        // Floors-only mode for CI: no baseline file needed, so it is
        // immune to cross-hardware baseline skew.
        let bad = floor_violations(&metrics);
        if bad.is_empty() {
            println!("floors: OK");
        } else {
            eprintln!("floors: {} violation(s)", bad.len());
            for line in &bad {
                eprintln!("  {line}");
            }
            std::process::exit(1);
        }
    }

    if let Some(baseline_path) = check_path {
        let baseline = match std::fs::read_to_string(&baseline_path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("cannot read baseline {baseline_path}: {e}");
                std::process::exit(2);
            }
        };
        let mut bad = regressions(&metrics, &baseline);
        bad.extend(floor_violations(&metrics));
        if bad.is_empty() {
            println!("check vs {baseline_path}: OK (within {:.0}%)", REGRESSION_TOLERANCE * 100.0);
        } else {
            eprintln!("check vs {baseline_path}: {} regression(s)", bad.len());
            for line in &bad {
                eprintln!("  {line}");
            }
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed baseline report.
    const BASELINE: &str =
        include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernel.json"));

    #[test]
    fn every_baseline_key_has_a_gate() {
        let keys: Vec<_> = json_keys(BASELINE).collect();
        assert!(keys.len() > 15, "baseline parse found only {} keys", keys.len());
        let missing: Vec<_> = keys.iter().filter(|k| gate_of(k).is_none()).collect();
        assert!(missing.is_empty(), "keys without a --check gate: {missing:?}");
    }

    #[test]
    fn gate_table_has_no_duplicates() {
        for (i, (key, _)) in KEY_GATES.iter().enumerate() {
            assert!(
                KEY_GATES[i + 1..].iter().all(|(k, _)| k != key),
                "{key} listed twice"
            );
        }
    }

    #[test]
    fn previously_ungated_keys_now_regress() {
        let baseline = r#"{
  "cti_cache_reads_per_decision": 20,
  "fleet_rebalance_ms": 20.0,
  "fleet_migrate_restore": 6.0
}"#;
        let worse = [
            ("cti_cache_reads_per_decision", 30.0),
            ("fleet_rebalance_ms", 30.0),
            ("fleet_migrate_restore", 9.0),
        ];
        assert_eq!(regressions(&worse, baseline).len(), worse.len());
        let same = worse.map(|(k, _)| (k, json_number(baseline, k).unwrap()));
        assert!(regressions(&same, baseline).is_empty());
    }

    #[test]
    fn ratio_keys_get_absolute_slack_and_info_keys_never_regress() {
        let baseline = "{\n  \"cti_cache_speedup\": 0.3,\n  \"des_dispatched\": 320\n}";
        let report = |speedup: f64, dispatched: f64| {
            regressions(&[("cti_cache_speedup", speedup), ("des_dispatched", dispatched)], baseline)
        };
        // 0.2 is a 33% relative drop but within the absolute slack.
        assert!(report(0.2, 320.0).is_empty());
        assert_eq!(report(0.05, 320.0).len(), 1);
        assert!(report(0.3, 1.0).is_empty());
    }

    #[test]
    fn a_different_workload_is_one_line_and_nothing_else_is_compared() {
        let baseline = "{\n  \"quick\": 0,\n  \"des_events\": 1000,\n  \"des_ns_per_event\": 196.1,\n  \"retired_speedup\": 0.8\n}";
        // A quick run: smaller workload, slower per event, and a key the
        // baseline has is missing — but only the shape is reported.
        let quick = [("quick", 1.0), ("des_events", 200.0), ("des_ns_per_event", 354.7)];
        let bad = regressions(&quick, baseline);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].contains("different workload"), "{bad:?}");
        assert!(bad[0].contains("quick 1 vs 0") && bad[0].contains("des_events 200 vs 1000"));
        // The same shape compares as usual.
        let full = [("quick", 0.0), ("des_events", 1000.0), ("des_ns_per_event", 354.7)];
        let bad = regressions(&full, baseline);
        assert_eq!(bad.len(), 2, "{bad:?}");
        assert!(bad.iter().all(|l| !l.contains("different workload")));
    }

    #[test]
    fn each_floor_fires_past_its_bound() {
        let within = [
            ("cti_cache_speedup", 5.0),
            ("fleet_migrate_restore", 7.5),
            ("fleet_rebuild_ms", 10.0),
        ];
        assert!(floor_violations(&within).is_empty());
        let slow_cache = [("cti_cache_speedup", 4.9)];
        let bad = floor_violations(&slow_cache);
        assert_eq!(bad.len(), 1);
        assert!(bad[0].starts_with("cti_cache_speedup"), "{bad:?}");
        let slow_migrate = [("fleet_migrate_restore", 7.6), ("fleet_rebuild_ms", 10.0)];
        let bad = floor_violations(&slow_migrate);
        assert_eq!(bad.len(), 1);
        assert!(bad[0].starts_with("fleet_migrate_restore"), "{bad:?}");
    }

    #[test]
    fn unclassified_keys_are_reported() {
        let baseline = "{\n  \"brand_new_metric\": 1.0\n}";
        let bad = regressions(&[("brand_new_metric", 1.0)], baseline);
        assert_eq!(bad.len(), 1);
        assert!(bad[0].contains("KEY_GATES"));
    }

    #[test]
    fn baseline_keys_the_report_no_longer_emits_are_reported() {
        let baseline = "{\n  \"des_cpu_ms\": 2.0,\n  \"retired_speedup\": 0.8\n}";
        let bad = regressions(&[("des_cpu_ms", 2.0)], baseline);
        assert_eq!(bad, ["retired_speedup: in the baseline but no longer reported"]);
    }

    #[test]
    fn every_gate_names_a_baseline_key() {
        let keys: Vec<_> = json_keys(BASELINE).collect();
        let stale: Vec<_> = KEY_GATES.iter().filter(|(k, _)| !keys.contains(k)).collect();
        assert!(stale.is_empty(), "gates for keys the baseline lacks: {stale:?}");
    }
}

//! `tibfit-bench` — machine-readable DES kernel throughput harness.
//!
//! Runs three scheduler microbenches (timer wheel vs. the retained
//! binary-heap reference), one end-to-end event-driven cluster run, and
//! the experiment-1 sweep, then writes a flat JSON report
//! (`BENCH_kernel.json` by default) suitable for regression checking:
//!
//! ```text
//! cargo run --release -p tibfit-bench --bin tibfit-bench
//! tibfit-bench --quick                      # CI-sized workloads
//! tibfit-bench --out results/bench.json     # alternate report path
//! tibfit-bench --check BENCH_kernel.json    # exit 1 on >10% regression
//! ```
//!
//! `--check` compares every key against the baseline report in the
//! direction `KEY_GATES` assigns it — higher is better (throughput,
//! speedups), lower is better (times, per-unit costs, sizes), or
//! informational (workload shape, counts) — and fails if any gated key
//! degrades by more than 10%, if a key has no entry in the table, or if
//! a baseline key is no longer reported. Speedup keys, being ratios of
//! two noisy wall times, additionally get a small absolute slack so
//! values near 0.3x don't flake on scheduler jitter. On top of the
//! relative comparison, `--check` asserts absolute floors, starting
//! with `cti_cache_speedup >= 5`.
//! `--floors` asserts the same absolute floors *without* a baseline
//! file — the CI mode, immune to cross-hardware baseline skew. The
//! daemon's `daemon_query_p99_us` must stay under 20 ms. Both
//! modes also gate checkpoint cost: `snapshot_restore_wall_ms` must stay
//! under 5% of `exp1_wall_ms`, so resuming a crashed sweep is never a
//! meaningful fraction of the work it avoids redoing, and
//! `daemon_restore_wall_ms` must stay under 75% of daemon cold start +
//! ingest, so restarting `tibfit-daemon` from snapshots always beats
//! replaying the stream from scratch, and `fleet_migrate_restore` (the
//! MIGRATE round trip moving every tenant to a second daemon) is held
//! to the same 75% budget so handing a tenant over always beats
//! rebuilding it. Daemon ingest itself is capped at 200 µs per applied
//! record (`daemon_ingest_ns_per_event`), roughly 3x the measured
//! steady state.

use std::io::Cursor;
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

use tibfit_adversary::behavior::NodeBehavior;
use tibfit_adversary::{CorrectNode, Level0Config, Level0Node};
use tibfit_bench::{black_box, format_ns, json_number};
use tibfit_daemon::fleet::{owner_of, FleetConfig, FleetPolicy, PeerSpec};
use tibfit_daemon::{Daemon, DaemonConfig};
use tibfit_core::engine::{Aggregator, TibfitEngine};
use tibfit_core::location::LocatedReport;
use tibfit_core::trust::TrustParams;
use tibfit_net::geometry::Point;
use tibfit_experiments::checkpoint::{restore_sequential, save_sequential};
use tibfit_experiments::des::{DesClusterSim, DesConfig};
use tibfit_experiments::exp1;
use tibfit_experiments::multicluster::{grid_sites, MultiClusterConfig, MultiClusterSim};
use tibfit_experiments::replay::{render_replay, replay_records};
use tibfit_net::channel::BernoulliLoss;
use tibfit_net::topology::Topology;
use tibfit_sim::rng::SimRng;
use tibfit_sim::{EventQueue, HeapEventQueue, SimTime, WHEEL_SPAN};

/// Allowed slowdown before `--check` fails.
const REGRESSION_TOLERANCE: f64 = 0.10;
/// Extra absolute slack for `*_speedup` ratio keys (see `regressions`).
const RATIO_SLACK: f64 = 0.15;

/// Uniform push/pop facade over the two queue implementations.
trait BenchQueue {
    fn fresh() -> Self;
    fn push_at(&mut self, ticks: u64, payload: u64);
    fn pop_next(&mut self) -> Option<u64>;
}

impl BenchQueue for EventQueue<u64> {
    fn fresh() -> Self {
        EventQueue::new()
    }
    fn push_at(&mut self, ticks: u64, payload: u64) {
        self.push(SimTime::from_ticks(ticks), payload);
    }
    fn pop_next(&mut self) -> Option<u64> {
        self.pop().map(|(_, p)| p)
    }
}

impl BenchQueue for HeapEventQueue<u64> {
    fn fresh() -> Self {
        HeapEventQueue::new()
    }
    fn push_at(&mut self, ticks: u64, payload: u64) {
        self.push(SimTime::from_ticks(ticks), payload);
    }
    fn pop_next(&mut self) -> Option<u64> {
        self.pop().map(|(_, p)| p)
    }
}

/// Interleaved throughput over a fixed time pattern: push a burst, then
/// drain it, like the engine's schedule/dispatch loop (`burst` bounds
/// the queue population). Counts one "event" per push+pop pair. Best of
/// `samples` runs, in events per second. `times` must be grouped so
/// every time in burst `b+1` is at or after every time in burst `b`.
fn throughput<Q: BenchQueue>(times: &[u64], burst: usize, samples: u32) -> f64 {
    let mut best = 0.0f64;
    for sample in 0..=samples {
        let mut q = Q::fresh();
        let start = Instant::now();
        let mut i = 0;
        while i < times.len() {
            let end = (i + burst).min(times.len());
            for (j, &t) in times[i..end].iter().enumerate() {
                q.push_at(t, (i + j) as u64);
            }
            for _ in i..end {
                black_box(q.pop_next());
            }
            i = end;
        }
        let eps = times.len() as f64 / start.elapsed().as_secs_f64();
        // Sample 0 is warmup.
        if sample > 0 && eps > best {
            best = eps;
        }
    }
    best
}

/// Dense same-tick pattern: bursts of 4096 events all on one tick — the
/// collector-window shape. The wheel pops these from one bucket in
/// O(1); the heap pays a full sift-down per pop.
fn dense_pattern(n: usize) -> Vec<u64> {
    (0..n).map(|i| (i / 4096) as u64).collect()
}

/// Paper-scale far-future bursts: 128 reports jittered over 50 ticks,
/// every 1000 ticks — each burst lands past the wheel window, so every
/// event pays the overflow-heap cascade on rebase. This is the wheel's
/// worst case; parity with the heap is the goal here.
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

/// One microbench: wheel vs. heap on the same pattern. Returns
/// `(wheel_eps, heap_eps)`.
fn micro(pattern: &[u64], burst: usize, samples: u32) -> (f64, f64) {
    let wheel = throughput::<EventQueue<u64>>(pattern, burst, samples);
    let heap = throughput::<HeapEventQueue<u64>>(pattern, burst, samples);
    (wheel, heap)
}

fn run_all(quick: bool) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    out.push(("schema_version", 1.0));
    out.push(("quick", f64::from(u8::from(quick))));

    let (micro_n, samples) = if quick { (20_000, 3) } else { (200_000, 5) };
    let patterns: [(&str, &str, usize, Vec<u64>); 3] = [
        ("micro_dense_wheel_events_per_sec", "dense same-tick", 4096, dense_pattern(micro_n)),
        ("micro_burst_wheel_events_per_sec", "far-future bursts", 128, burst_pattern(micro_n)),
        ("micro_jitter_wheel_events_per_sec", "in-window jitter", WHEEL_SPAN / 2, jitter_pattern(micro_n)),
    ];
    out.push(("micro_events", micro_n as f64));
    for (wheel_key, label, burst, pattern) in &patterns {
        let (wheel, heap) = micro(pattern, *burst, samples);
        let heap_key: &'static str = match *wheel_key {
            "micro_dense_wheel_events_per_sec" => "micro_dense_heap_events_per_sec",
            "micro_burst_wheel_events_per_sec" => "micro_burst_heap_events_per_sec",
            _ => "micro_jitter_heap_events_per_sec",
        };
        let speedup_key: &'static str = match *wheel_key {
            "micro_dense_wheel_events_per_sec" => "micro_dense_speedup",
            "micro_burst_wheel_events_per_sec" => "micro_burst_speedup",
            _ => "micro_jitter_speedup",
        };
        println!(
            "micro/{label}: wheel {:.2} Mev/s, heap {:.2} Mev/s ({:.2}x)",
            wheel / 1e6,
            heap / 1e6,
            wheel / heap
        );
        out.push((wheel_key, wheel));
        out.push((heap_key, heap));
        out.push((speedup_key, wheel / heap));
    }

    // End-to-end DES: 100-node cluster, paper-scale timing. Best of
    // several fresh runs — the quick workload is sub-millisecond, so a
    // single sample would be scheduler-noise dominated.
    let n_events: u64 = if quick { 200 } else { 1000 };
    let e2e_runs = if quick { 3 } else { 5 };
    let mut best_ns = f64::INFINITY;
    let mut dispatched = 0u64;
    let mut peak_depth = 0usize;
    let mut accuracy = 0.0f64;
    for _ in 0..e2e_runs {
        let topo = Topology::uniform_grid(100, 100.0, 100.0);
        let mut sim = DesClusterSim::new(
            DesConfig::paper_scale(100.0),
            topo,
            honest_behaviors(100),
            Box::new(BernoulliLoss::new(0.005)),
            Box::new(TibfitEngine::new(TrustParams::experiment2(), 100)),
            SimRng::seed_from(3),
        );
        let start = Instant::now();
        let stats = black_box(sim.run(n_events));
        let wall_ns = start.elapsed().as_nanos() as f64;
        if wall_ns < best_ns {
            best_ns = wall_ns;
        }
        dispatched = sim.dispatched();
        peak_depth = sim.peak_queue_depth();
        accuracy = stats.accuracy();
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
    out.push(("des_wall_ms", best_ns / 1e6));
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

    // Checkpoint container: save/restore a mobile multi-cluster
    // deployment mid-run (drifted positions, partially decayed trust).
    // Save must stay cheap enough to sprinkle through a sweep every few
    // rounds; the floor gate below pins restore under 5% of the exp1
    // sweep, so resuming a crashed run costs a rounding error of the
    // work it saves.
    let (snap_clusters, snap_samples) = if quick { (8, 5) } else { (32, 10) };
    let snap_nodes = snap_clusters * 20;
    let snap_field = (snap_nodes as f64).sqrt() * 10.0;
    let snap_faulty = SimRng::seed_from(0x5A).choose_indices(snap_nodes, snap_nodes / 4);
    let snap_behaviors: Vec<Box<dyn NodeBehavior + Send>> = (0..snap_nodes)
        .map(|i| -> Box<dyn NodeBehavior + Send> {
            if snap_faulty.contains(&i) {
                Box::new(Level0Node::new(Level0Config::experiment2(4.25)))
            } else {
                Box::new(CorrectNode::new(0.0, 1.6))
            }
        })
        .collect();
    let mut snap_sim = MultiClusterSim::try_new(
        MultiClusterConfig::paper().mobile(0.5, 4),
        Topology::uniform_grid(snap_nodes, snap_field, snap_field),
        grid_sites(snap_clusters, snap_field),
        snap_behaviors,
        |_| Box::new(BernoulliLoss::new(0.005)),
        7,
    )
    .expect("bench deployment is valid");
    let mut snap_rng = SimRng::seed_from(0x5E);
    for _ in 0..6 {
        snap_sim.run_event(Point::new(
            snap_rng.uniform_range(0.0, snap_field),
            snap_rng.uniform_range(0.0, snap_field),
        ));
    }
    let mut save_best = u128::MAX;
    let mut restore_best = u128::MAX;
    let mut blob = Vec::new();
    for sample in 0..=snap_samples {
        let start = Instant::now();
        blob = black_box(save_sequential(&snap_sim).expect("deployment is checkpointable"));
        let save_ns = start.elapsed().as_nanos();
        let start = Instant::now();
        black_box(restore_sequential(&blob).expect("own blob restores"));
        let restore_ns = start.elapsed().as_nanos();
        // Sample 0 is warmup.
        if sample > 0 {
            save_best = save_best.min(save_ns);
            restore_best = restore_best.min(restore_ns);
        }
    }
    println!(
        "snapshot: {snap_nodes} nodes / {snap_clusters} clusters, {} bytes: save {}, restore {}",
        blob.len(),
        format_ns(save_best),
        format_ns(restore_best),
    );
    out.push(("snapshot_nodes", snap_nodes as f64));
    out.push(("snapshot_bytes", blob.len() as f64));
    out.push(("snapshot_save_wall_ms", save_best as f64 / 1e6));
    out.push(("snapshot_restore_wall_ms", restore_best as f64 / 1e6));

    // tibfit-daemon: ingest throughput over a two-tenant mobile
    // workload (wire parsing, dedup, admission, engine apply, decision
    // logging, periodic snapshots — the full service path), and the
    // cost of rebuilding the daemon from its own final snapshots. The
    // floor gate below pins restore under 75% of cold start + ingest,
    // so resuming a killed daemon always beats redoing its work.
    let (daemon_ticks, daemon_per_tick) = if quick { (12u64, 2u32) } else { (40, 4) };
    let mut daemon_replay =
        render_replay(&replay_records(2, 0xDA, daemon_ticks, daemon_per_tick));
    // Tail the stream with trust/round queries so the p99
    // query-latency figure below has a population; the workers answer
    // them while draining the queue.
    let daemon_queries: u32 = 128;
    for i in 0..daemon_queries {
        use std::fmt::Write as _;
        if i % 4 == 3 {
            let _ = writeln!(daemon_replay, "Q round {}", i % 2);
        } else {
            let _ = writeln!(daemon_replay, "Q trust {} {}", i % 2, i % 32);
        }
    }
    let daemon_root =
        std::env::temp_dir().join(format!("tibfit-bench-daemon-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&daemon_root);
    let mut daemon_cfg = DaemonConfig::standard(2, 0xDA, daemon_root.clone());
    daemon_cfg.snapshot_every = 4;
    let start = Instant::now();
    let mut daemon = Daemon::new(daemon_cfg.clone()).expect("bench daemon builds");
    let daemon_start_ns = start.elapsed().as_nanos().max(1);
    let start = Instant::now();
    let daemon_report = daemon
        .run(Cursor::new(daemon_replay.into_bytes()))
        .expect("bench stream is clean");
    let daemon_ingest_ns = start.elapsed().as_nanos().max(1);
    let applied: u64 = daemon_report.tenants.iter().map(|t| t.applied).sum();
    assert_eq!(daemon_report.rejected, 0, "bench replay must be clean");
    assert_eq!(
        applied,
        2 * daemon_ticks * u64::from(daemon_per_tick),
        "bench replay must apply fully"
    );
    let daemon_eps = applied as f64 / (daemon_ingest_ns as f64 / 1e9);
    let daemon_ns_per_event = daemon_ingest_ns as f64 / applied as f64;
    let daemon_p99_us = daemon.query_latency_p99_us();
    // Restore: Daemon::new over the populated state directory decodes
    // every tenant's snapshot and truncates its decision log. The drain
    // over an empty stream (to join workers cleanly) stays outside the
    // timer.
    let restore_samples = if quick { 3 } else { 5 };
    let mut daemon_restore_ns = u128::MAX;
    for _ in 0..restore_samples {
        let start = Instant::now();
        let mut resumed = Daemon::new(daemon_cfg.clone()).expect("bench daemon resumes");
        daemon_restore_ns = daemon_restore_ns.min(start.elapsed().as_nanos().max(1));
        resumed
            .run(Cursor::new(Vec::new()))
            .expect("empty drain succeeds");
    }
    println!(
        "daemon: {applied} records / {daemon_ticks} ticks: start {}, ingest {} ({:.2} kev/s, {:.0} ns/event), restore {}, query p99 {daemon_p99_us:.1} us ({daemon_queries} queries)",
        format_ns(daemon_start_ns),
        format_ns(daemon_ingest_ns),
        daemon_eps / 1e3,
        daemon_ns_per_event,
        format_ns(daemon_restore_ns),
    );
    out.push(("daemon_records", applied as f64));
    out.push(("daemon_start_wall_ms", daemon_start_ns as f64 / 1e6));
    out.push(("daemon_ingest_wall_ms", daemon_ingest_ns as f64 / 1e6));
    out.push(("daemon_ingest_events_per_sec", daemon_eps));
    out.push(("daemon_ingest_ns_per_event", daemon_ns_per_event));
    out.push(("daemon_restore_wall_ms", daemon_restore_ns as f64 / 1e6));
    out.push(("daemon_query_count", f64::from(daemon_queries)));
    out.push(("daemon_query_p99_us", daemon_p99_us));
    let _ = std::fs::remove_dir_all(&daemon_root);

    // Fleet mode. (a) Dead-peer rebalance: a survivor configured with
    // an unreachable peer must detect it, quarantine it, and adopt its
    // tenants through the catch-up replay — `fleet_rebalance_ms` is
    // the wall time from daemon start until STATUS reports every
    // tenant hosted locally, probe cadence included. (b) Live
    // migration: every tenant is handed to a second daemon over the
    // fleet port — `fleet_migrate_restore` is the total MIGRATE
    // round-trip wall (drain, snapshot capture, framed push, install,
    // catch-up replay) in ms, floor-gated below against daemon cold
    // start + ingest.
    let fleet_root =
        std::env::temp_dir().join(format!("tibfit-bench-fleet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&fleet_root);
    std::fs::create_dir_all(&fleet_root).expect("fleet bench root");
    let fleet_replay = render_replay(&replay_records(2, 0xDA, daemon_ticks, daemon_per_tick));
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

    // (b) Migration: daemon 0 owns both tenants and hands them to
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
        "fleet: rebalance (detect + adopt + catch up) {}, migrate 2 tenants {}",
        format_ns(fleet_rebalance_ns),
        format_ns(fleet_migrate_ns),
    );
    out.push(("fleet_rebalance_ms", fleet_rebalance_ns as f64 / 1e6));
    out.push(("fleet_migrate_restore", fleet_migrate_ns as f64 / 1e6));
    let _ = std::fs::remove_dir_all(&fleet_root);

    // Experiment-1 sweep (figures 2 and 3) — the end-to-end wall-time
    // number the perf gate watches. Best of two runs.
    let trials = if quick { 20 } else { 100 };
    let mut exp1_best_ns = u128::MAX;
    for _ in 0..2 {
        let start = Instant::now();
        black_box(exp1::figure2(trials, 42));
        black_box(exp1::figure3(trials, 42));
        exp1_best_ns = exp1_best_ns.min(start.elapsed().as_nanos());
    }
    println!("exp1/sweep: {trials} trials in {}", format_ns(exp1_best_ns));
    out.push(("exp1_trials", trials as f64));
    out.push(("exp1_wall_ms", exp1_best_ns as f64 / 1e6));

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
    /// A ratio of two noisy wall times (`*_speedup`): as `Higher`, but
    /// the drop must also exceed [`RATIO_SLACK`] in absolute terms.
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
    ("micro_dense_heap_events_per_sec", Gate::Higher),
    ("micro_dense_speedup", Gate::Ratio),
    ("micro_burst_wheel_events_per_sec", Gate::Higher),
    ("micro_burst_heap_events_per_sec", Gate::Higher),
    ("micro_burst_speedup", Gate::Ratio),
    ("micro_jitter_wheel_events_per_sec", Gate::Higher),
    ("micro_jitter_heap_events_per_sec", Gate::Higher),
    ("micro_jitter_speedup", Gate::Ratio),
    ("des_events", Gate::Info),
    ("des_dispatched", Gate::Info),
    ("des_wall_ms", Gate::Lower),
    ("des_events_per_sec", Gate::Higher),
    ("des_ns_per_event", Gate::Lower),
    ("des_peak_queue_depth", Gate::Info),
    ("cti_cache_decisions", Gate::Info),
    ("cti_cache_exp_per_decision", Gate::Lower),
    ("cti_cache_reads_per_decision", Gate::Lower),
    ("cti_cache_speedup", Gate::Ratio),
    ("snapshot_nodes", Gate::Info),
    ("snapshot_bytes", Gate::Lower),
    ("snapshot_save_wall_ms", Gate::Lower),
    ("snapshot_restore_wall_ms", Gate::Lower),
    ("daemon_records", Gate::Info),
    ("daemon_start_wall_ms", Gate::Lower),
    ("daemon_ingest_wall_ms", Gate::Lower),
    ("daemon_ingest_events_per_sec", Gate::Higher),
    ("daemon_ingest_ns_per_event", Gate::Lower),
    ("daemon_restore_wall_ms", Gate::Lower),
    ("daemon_query_count", Gate::Info),
    ("daemon_query_p99_us", Gate::Lower),
    ("fleet_rebalance_ms", Gate::Lower),
    ("fleet_migrate_restore", Gate::Lower),
    ("exp1_trials", Gate::Info),
    ("exp1_wall_ms", Gate::Lower),
];

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
/// of regression descriptions (empty = pass). Keys present in both
/// reports are compared; a key missing from [`KEY_GATES`] is reported
/// rather than skipped, so a new key cannot go ungated by accident, and
/// a baseline key the report no longer emits is reported too, so a gate
/// cannot vanish by dropping its metric.
fn regressions(metrics: &[(&'static str, f64)], baseline: &str) -> Vec<String> {
    let mut bad: Vec<String> = json_keys(baseline)
        .filter(|&key| metrics.iter().all(|&(k, _)| k != key))
        .map(|key| format!("{key}: in the baseline but no longer reported"))
        .collect();
    for &(key, now) in metrics {
        let Some(base) = json_number(baseline, key) else {
            continue;
        };
        let regressed = match gate_of(key) {
            // Speedup keys are ratios of two noisy wall times, so a pure
            // relative bound flakes near small values (10% of 0.3 is
            // scheduler jitter); require an absolute drop too.
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

/// Absolute performance floors asserted by `--check` on top of the
/// relative baseline comparison. The CTI-cache floor is a deterministic
/// count ratio and holds on any hardware.
fn floor_violations(metrics: &[(&'static str, f64)]) -> Vec<String> {
    let mut bad = Vec::new();
    let get = |k: &str| metrics.iter().find(|(key, _)| *key == k).map(|&(_, v)| v);
    if let Some(s) = get("cti_cache_speedup") {
        if s < 5.0 {
            bad.push(format!("cti_cache_speedup: {s:.2} below the required 5.0x"));
        }
    }
    // The daemon's p99 query-answer latency: a query is a couple of
    // atomic loads plus a formatted line, so even slow shared CI boxes
    // sit orders of magnitude under this ceiling; blowing it means the
    // query path grew real per-call work (allocation, locking, a table
    // walk). Zero means the histogram never recorded — a wiring bug.
    if let Some(p99) = get("daemon_query_p99_us") {
        if p99 <= 0.0 {
            bad.push("daemon_query_p99_us: no query latencies recorded".to_string());
        } else if p99 > 20_000.0 {
            bad.push(format!(
                "daemon_query_p99_us: {p99:.0} us exceeds the 20000 us ceiling"
            ));
        }
    }
    // Restoring a checkpoint must cost under 5% of the exp1 sweep it
    // can save a crashed run from repeating.
    if let (Some(restore), Some(exp1)) =
        (get("snapshot_restore_wall_ms"), get("exp1_wall_ms"))
    {
        if restore > exp1 * 0.05 {
            bad.push(format!(
                "snapshot_restore_wall_ms: {restore:.3} ms exceeds 5% of exp1_wall_ms ({exp1:.1} ms)"
            ));
        }
    }
    // Daemon ingest must stay under 200 µs per applied record — about
    // 3x the measured steady state (~66 µs/event, dominated by the
    // engine event round itself), so the floor catches a genuine
    // service-path regression (per-record allocation, sink contention,
    // snapshot amplification) without flaking on slow CI hardware.
    if let Some(ns) = get("daemon_ingest_ns_per_event") {
        if ns > 200_000.0 {
            bad.push(format!(
                "daemon_ingest_ns_per_event: {ns:.0} exceeds the 200000 ns ceiling"
            ));
        }
    }
    // Rebuilding the daemon from its final snapshots must beat cold
    // start + full re-ingest by a clear margin, or restart-from-snapshot
    // is pointless and the rolling-restart story collapses.
    if let (Some(restore), Some(start), Some(ingest)) = (
        get("daemon_restore_wall_ms"),
        get("daemon_start_wall_ms"),
        get("daemon_ingest_wall_ms"),
    ) {
        let budget = 0.75 * (start + ingest);
        if restore > budget {
            bad.push(format!(
                "daemon_restore_wall_ms: {restore:.3} ms exceeds 75% of start + ingest ({budget:.3} ms)"
            ));
        }
    }
    // Moving a tenant to another daemon (drain, snapshot capture,
    // framed push, install, catch-up) must beat rebuilding it from
    // scratch by the same margin, or live migration is pointless and
    // fleet rebalancing should just re-ingest.
    if let (Some(migrate), Some(start), Some(ingest)) = (
        get("fleet_migrate_restore"),
        get("daemon_start_wall_ms"),
        get("daemon_ingest_wall_ms"),
    ) {
        let budget = 0.75 * (start + ingest);
        if migrate > budget {
            bad.push(format!(
                "fleet_migrate_restore: {migrate:.3} ms exceeds 75% of daemon start + ingest ({budget:.3} ms)"
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
        assert!(keys.len() > 30, "baseline parse found only {} keys", keys.len());
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
  "daemon_query_p99_us": 20.0,
  "fleet_rebalance_ms": 20.0,
  "snapshot_bytes": 45328
}"#;
        let worse = [
            ("daemon_query_p99_us", 30.0),
            ("fleet_rebalance_ms", 30.0),
            ("snapshot_bytes", 60_000.0),
        ];
        assert_eq!(regressions(&worse, baseline).len(), worse.len());
        let same = worse.map(|(k, _)| (k, json_number(baseline, k).unwrap()));
        assert!(regressions(&same, baseline).is_empty());
    }

    #[test]
    fn ratio_keys_get_absolute_slack_and_info_keys_never_regress() {
        let baseline = "{\n  \"micro_dense_speedup\": 0.3,\n  \"daemon_records\": 320\n}";
        let report = |speedup: f64, records: f64| {
            regressions(&[("micro_dense_speedup", speedup), ("daemon_records", records)], baseline)
        };
        // 0.2 is a 33% relative drop but within the absolute slack.
        assert!(report(0.2, 320.0).is_empty());
        assert_eq!(report(0.05, 320.0).len(), 1);
        assert!(report(0.3, 1.0).is_empty());
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
        let baseline = "{\n  \"des_wall_ms\": 2.0,\n  \"retired_speedup\": 0.8\n}";
        let bad = regressions(&[("des_wall_ms", 2.0)], baseline);
        assert_eq!(bad, ["retired_speedup: in the baseline but no longer reported"]);
    }

    #[test]
    fn every_gate_names_a_baseline_key() {
        let keys: Vec<_> = json_keys(BASELINE).collect();
        let stale: Vec<_> = KEY_GATES.iter().filter(|(k, _)| !keys.contains(k)).collect();
        assert!(stale.is_empty(), "gates for keys the baseline lacks: {stale:?}");
    }
}

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
//! tibfit-bench --profile                    # also write BENCH_phases.json
//! ```
//!
//! `--profile` additionally writes `BENCH_phases.json`, the per-phase
//! scheduler breakdown (staging, parallel wall, worker busy, estimated
//! barrier wait, mailbox routing) of the production-scale sharded runs.
//!
//! `--check` compares every key against the baseline report in the
//! direction `KEY_GATES` assigns it — higher is better (throughput,
//! speedups), lower is better (times, per-unit costs, sizes), or
//! informational (workload shape, counts) — and fails if any gated key
//! degrades by more than 10%, or if a key has no entry in the table.
//! Speedup keys, being ratios of two noisy wall times, additionally get
//! a small absolute slack so values near 0.3x don't flake on scheduler
//! jitter. On top of the relative comparison, `--check` asserts
//! absolute floors:
//! `cti_cache_speedup >= 5` everywhere, and the `shard*_speedup` floors
//! (×1 >= 0.95, ×4 >= 2.0, and `shard_big_4t_speedup` >= 1.5 at
//! production scale) on machines with at least four cores.
//! `--floors` asserts the same absolute floors *without* a baseline
//! file — the CI mode, immune to cross-hardware baseline skew. On
//! hosts with a wide vector tier (AVX2/NEON) the SIMD kernel floors
//! also apply: `cti_simd_f64_speedup >= 1.3` and
//! `cti_simd_q16_speedup >= 1.5` over the forced-scalar batch, and the
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
use tibfit_core::simd_kernel::{self, GroupArena, Tier};
use tibfit_core::trust::{TrustParams, TrustTable};
use tibfit_net::geometry::Point;
use tibfit_net::topology::NodeId;
use tibfit_experiments::checkpoint::{restore_sequential, save_sequential};
use tibfit_experiments::des::{DesClusterSim, DesConfig};
use tibfit_experiments::exp1;
use tibfit_experiments::exp6_scale::{run_exp6, run_exp6_with_phases, Exp6Config, Exp6Phases};
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

fn run_all(quick: bool) -> (Vec<(&'static str, f64)>, Vec<Exp6Phases>) {
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

    // Sharded multi-cluster engine: the exp6 midpoint (32 clusters,
    // 640 nodes, mobile workload). Each run_exp6 call re-verifies that
    // the sharded trust state matches the sequential reference before
    // reporting numbers. Best elapsed per engine across runs; speedups
    // are sequential wall-clock over sharded wall-clock, so they mostly
    // measure orchestration overhead on single-core machines and genuine
    // parallelism on multicore ones.
    let shard_rounds = if quick { 10 } else { 40 };
    let shard_runs = if quick { 2 } else { 4 };
    let shard_cfg = Exp6Config {
        clusters: vec![32],
        threads: vec![1, 4],
        nodes_per_cluster: 20,
        events: shard_rounds,
        faulty_fraction: 0.25,
        seed: 42,
        adaptive: false,
    };
    // Measures one exp6 sweep config; returns (best seq ns, best ×1 ns,
    // best ×4 ns, ×1 dispatched). Row order from run_exp6: sequential
    // (threads = 0), then ×1, ×4.
    let measure = |cfg: &Exp6Config| {
        let mut best_ns = [u128::MAX; 3];
        let mut dispatched = [0u64; 3];
        for _ in 0..shard_runs {
            let points = run_exp6(cfg).expect("static sweep config is valid");
            for (i, p) in points.iter().enumerate() {
                best_ns[i] = best_ns[i].min(p.elapsed_ns);
                dispatched[i] = p.dispatched;
            }
        }
        (best_ns, dispatched[1])
    };

    // Fixed per-round windows: one barrier per event round.
    let (shard_best_ns, shard_disp) = measure(&shard_cfg);
    let shard_eps = shard_disp as f64 / (shard_best_ns[1] as f64 / 1e9);
    let shard_1t = shard_best_ns[0] as f64 / shard_best_ns[1] as f64;
    let shard_4t = shard_best_ns[0] as f64 / shard_best_ns[2] as f64;
    println!(
        "shard/32_clusters: seq {}, x1 {} ({:.2} Mev/s, {:.2}x), x4 {} ({:.2}x)",
        format_ns(shard_best_ns[0]),
        format_ns(shard_best_ns[1]),
        shard_eps / 1e6,
        shard_1t,
        format_ns(shard_best_ns[2]),
        shard_4t,
    );
    out.push(("shard_clusters", 32.0));
    out.push(("shard_rounds", shard_rounds as f64));
    out.push(("shard_seq_wall_ms", shard_best_ns[0] as f64 / 1e6));
    out.push(("shard_events_per_sec", shard_eps));
    out.push(("shard_1t_speedup", shard_1t));
    out.push(("shard_4t_speedup", shard_4t));

    // Adaptive windows on the persistent pool: one barrier per
    // re-election stretch (4 rounds on this workload), same sequential
    // denominator.
    let pool_cfg = Exp6Config { adaptive: true, ..shard_cfg };
    let (pool_best_ns, pool_disp) = measure(&pool_cfg);
    let pool_eps = pool_disp as f64 / (pool_best_ns[1] as f64 / 1e9);
    let pool_1t = pool_best_ns[0] as f64 / pool_best_ns[1] as f64;
    let pool_4t = pool_best_ns[0] as f64 / pool_best_ns[2] as f64;
    println!(
        "shard_pool/32_clusters (adaptive): x1 {} ({:.2} Mev/s, {:.2}x), x4 {} ({:.2}x)",
        format_ns(pool_best_ns[1]),
        pool_eps / 1e6,
        pool_1t,
        format_ns(pool_best_ns[2]),
        pool_4t,
    );
    out.push(("shard_pool_events_per_sec", pool_eps));
    out.push(("shard_pool_1t_speedup", pool_1t));
    out.push(("shard_pool_4t_speedup", pool_4t));

    // Production-scale sharded point: the exp6 "big smoke" config
    // (1024 clusters on a complete 32x32 site lattice, 65,536 nodes).
    // This is the honest-gating workload for the >= 1.5x four-thread
    // floor below: at 32 clusters each epoch does too little work to
    // amortize barriers and mailbox routing, so only a deployment this
    // size can show whether sharding actually wins.
    //
    // Methodology — why sequential vs. sharded is apples-to-apples:
    //   * run_exp6 builds a fresh, *identical* deployment for every
    //     engine row from the same seed: same topology, same faulty
    //     set, same per-node RNG streams, same event schedule. The
    //     sharded engines replay exactly the workload the sequential
    //     baseline ran, and run_exp6 verifies byte-identical trust
    //     state (DeterminismViolation otherwise) before a single
    //     number is reported.
    //   * Warmup and sampling are symmetric: best-of-`big_runs`
    //     applies to every row (sequential, x1, x4) of the same sweep,
    //     so allocator and page-cache warmup effects cancel instead of
    //     favoring whichever engine runs second.
    //   * Speedup denominators are wall-clock of the *sequential*
    //     engine, never of the x1 sharded run — the floor asks "is
    //     sharding worth it at all", not "do more threads help the
    //     sharded engine beat itself".
    let big_cfg = Exp6Config::big_smoke(42);
    let big_runs = if quick { 2 } else { 3 };
    let mut big_best = [u128::MAX; 3];
    let mut big_disp = 0u64;
    let mut big_phases: Vec<Exp6Phases> = Vec::new();
    for _ in 0..big_runs {
        let (points, run_phases) =
            run_exp6_with_phases(&big_cfg).expect("big smoke config is valid");
        for (i, p) in points.iter().enumerate() {
            big_best[i] = big_best[i].min(p.elapsed_ns);
        }
        big_disp = points[1].dispatched;
        // Keep the last run's phase breakdown: by then every engine is
        // warm, so it is the most representative of steady state.
        big_phases = run_phases;
    }
    let big_nodes = big_cfg.clusters[0] * big_cfg.nodes_per_cluster;
    let big_eps = big_disp as f64 / (big_best[1] as f64 / 1e9);
    let big_1t = big_best[0] as f64 / big_best[1] as f64;
    let big_4t = big_best[0] as f64 / big_best[2] as f64;
    println!(
        "shard_big/{}_clusters ({} nodes): seq {}, x1 {} ({:.2} Mev/s, {:.2}x), x4 {} ({:.2}x)",
        big_cfg.clusters[0],
        big_nodes,
        format_ns(big_best[0]),
        format_ns(big_best[1]),
        big_eps / 1e6,
        big_1t,
        format_ns(big_best[2]),
        big_4t,
    );
    for ph in &big_phases {
        println!(
            "  phase/x{}: {} epochs, stage {}, parallel {} (busy {}, barrier est {}), route {}",
            ph.threads,
            ph.epochs,
            format_ns(ph.stage_ns as u128),
            format_ns(ph.parallel_ns as u128),
            format_ns(ph.busy_ns as u128),
            format_ns(ph.barrier_wait_ns() as u128),
            format_ns(ph.route_ns as u128),
        );
    }
    out.push(("shard_big_clusters", big_cfg.clusters[0] as f64));
    out.push(("shard_big_nodes", big_nodes as f64));
    out.push(("shard_big_rounds", big_cfg.events as f64));
    out.push(("shard_big_seq_wall_ms", big_best[0] as f64 / 1e6));
    out.push(("shard_big_events_per_sec", big_eps));
    out.push(("shard_big_1t_speedup", big_1t));
    out.push(("shard_big_4t_speedup", big_4t));

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

    // Q16.16 fixed-point trust path: the same CTI workload on the
    // integer backend (LUT exponential, integer CTI fold). The
    // decisions must match the cached-f64 reference exactly — the bench
    // doubles as a coarse differential check — and the per-decision
    // wall clock is published as a ratio against the f64 path so a
    // regression in the LUT pipeline shows up as `cti_fixed_speedup`
    // sinking, not as silent absolute drift.
    let fixed_params = TrustParams::experiment2()
        .with_fixed_point()
        .expect("paper calibration survives Q16.16");
    let mut fixed_engine = TibfitEngine::new(fixed_params, 100);
    let fixed_start = Instant::now();
    for _ in 0..cti_decisions {
        black_box(fixed_engine.located_round(&topo, 20.0, 5.0, &reports));
    }
    let cti_fixed_ns = fixed_start.elapsed().as_nanos().max(1);
    // Decision identity is checked with two *fresh* engines stepped in
    // lockstep, so the comparison covers the transient phase (trust
    // decaying from full) as well as steady state — the timed engine
    // above is already warm and would mask early-round divergence.
    let mut cmp_fixed = TibfitEngine::new(fixed_params, 100);
    let mut cmp_ref = TibfitEngine::new(TrustParams::experiment2(), 100);
    let mut cti_fixed_match = true;
    for _ in 0..cti_decisions {
        let got = cmp_fixed.located_round(&topo, 20.0, 5.0, &reports);
        let want = cmp_ref.located_round(&topo, 20.0, 5.0, &reports);
        // Compare what the CH acts on — declaration and location per
        // cluster — not the raw vote weights, whose bits legitimately
        // differ between the two arithmetic backends.
        let same = got.decisions.len() == want.decisions.len()
            && got
                .decisions
                .iter()
                .zip(&want.decisions)
                .all(|(g, w)| g.event_declared == w.event_declared && g.location == w.location);
        if !same {
            cti_fixed_match = false;
        }
    }
    let fixed_exp = fixed_engine.table().exp_evals();
    let cti_fixed_speedup = cti_ns as f64 / cti_fixed_ns as f64;
    println!(
        "cti_fixed: {cti_decisions} decisions in {}: {:.2}x vs cached-f64, \
         {:.1} LUT-exp/decision, decisions {}",
        format_ns(cti_fixed_ns),
        cti_fixed_speedup,
        fixed_exp as f64 / cti_decisions as f64,
        if cti_fixed_match { "match" } else { "DIVERGED" },
    );
    out.push(("cti_fixed_decisions", cti_decisions as f64));
    out.push(("cti_fixed_speedup", cti_fixed_speedup));
    out.push(("cti_fixed_match", f64::from(u8::from(cti_fixed_match))));

    // Explicit-SIMD decision kernels: the batched CTI path with the
    // kernel pinned to the scalar tier vs the best tier the host
    // supports, over the *same* arena and weight slab — the ratio
    // isolates the vector kernel, not memory layout or dispatch. The
    // two passes must agree bitwise (f64) / exactly (Q16.16): the batch
    // contract pins every lane to the sequential group-order fold.
    let simd_nodes = 4096;
    let simd_pairs: usize = 512;
    let simd_reps: u32 = if quick { 100 } else { 200 };
    let simd_samples = 5u32;
    let simd_tier = simd_kernel::active_tier();
    let mut simd_rng = SimRng::seed_from(0x51);
    let perturb = |table: &mut TrustTable, rng: &mut SimRng| {
        // Penalize ~1/8 of the population with 1..=14 strikes each so
        // the kernels see mixed trust values and real quarantined
        // (sign-sentinel) slots, not a constant weight array.
        for _ in 0..simd_nodes / 8 {
            let node = NodeId(rng.uniform_usize(simd_nodes));
            for _ in 0..1 + rng.uniform_usize(14) {
                table.record_faulty(node);
            }
        }
    };
    let mut simd_table =
        TrustTable::new(TrustParams::experiment2(), simd_nodes).with_isolation_threshold(0.05);
    perturb(&mut simd_table, &mut simd_rng);
    let mut simd_table_q =
        TrustTable::new(fixed_params, simd_nodes).with_isolation_threshold(0.05);
    perturb(&mut simd_table_q, &mut simd_rng);
    let mut arena = GroupArena::new();
    let mut group_buf: Vec<NodeId> = Vec::new();
    for p in 0..simd_pairs {
        // R group of 24, NR group of 8 per pair — the paper-scale
        // event-neighborhood split — on deterministic strided members.
        for (len, salt) in [(24usize, 13usize), (8, 17)] {
            group_buf.clear();
            group_buf.extend((0..len).map(|k| NodeId((p * 7 + k * salt) % simd_nodes)));
            arena.push_group(&group_buf);
        }
    }
    let timed_batch =
        |table: &TrustTable, tier: Option<Tier>, arena: &mut GroupArena, out: &mut Vec<f64>| {
            simd_kernel::force_tier(tier);
            let mut best = f64::INFINITY;
            for sample in 0..=simd_samples {
                let start = Instant::now();
                for _ in 0..simd_reps {
                    table.cumulative_trust_batch(arena, out);
                    black_box(out.last());
                }
                let ns = start.elapsed().as_nanos() as f64;
                // Sample 0 is warmup.
                if sample > 0 && ns < best {
                    best = ns;
                }
            }
            simd_kernel::force_tier(None);
            best
        };
    let mut out_scalar: Vec<f64> = Vec::new();
    let mut out_simd: Vec<f64> = Vec::new();
    let f64_scalar_ns = timed_batch(&simd_table, Some(Tier::Scalar), &mut arena, &mut out_scalar);
    let f64_simd_ns = timed_batch(&simd_table, None, &mut arena, &mut out_simd);
    assert!(
        out_scalar.len() == out_simd.len()
            && out_scalar
                .iter()
                .zip(&out_simd)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
        "SIMD f64 batch must match the scalar tier bitwise"
    );
    let q16_scalar_ns = timed_batch(&simd_table_q, Some(Tier::Scalar), &mut arena, &mut out_scalar);
    let q16_simd_ns = timed_batch(&simd_table_q, None, &mut arena, &mut out_simd);
    assert!(
        out_scalar.len() == out_simd.len()
            && out_scalar
                .iter()
                .zip(&out_simd)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
        "SIMD Q16.16 batch must match the scalar tier exactly"
    );
    let cti_simd_f64 = f64_scalar_ns / f64_simd_ns;
    let cti_simd_q16 = q16_scalar_ns / q16_simd_ns;
    // The batched decision path on top of the same arena: R/NR pairing,
    // ±0.0 normalization, and the declare rule per pair.
    let mut verdict_scratch: Vec<f64> = Vec::new();
    let mut verdicts = Vec::new();
    let mut decide_best_ns = f64::INFINITY;
    for sample in 0..=simd_samples {
        let start = Instant::now();
        for _ in 0..simd_reps {
            simd_table.decide_batch(&mut arena, &mut verdict_scratch, &mut verdicts);
            black_box(verdicts.last());
        }
        let ns = start.elapsed().as_nanos() as f64;
        if sample > 0 && ns < decide_best_ns {
            decide_best_ns = ns;
        }
    }
    let decide_pairs_total = (simd_pairs as f64) * f64::from(simd_reps);
    let decide_ns_per_pair = decide_best_ns / decide_pairs_total;
    let decide_pairs_per_sec = decide_pairs_total / (decide_best_ns / 1e9);
    println!(
        "cti_simd/{simd_pairs}_pairs ({} tier, cpu: {}): f64 {:.2}x, q16 {:.2}x; \
         decide_batch {:.0} ns/pair ({:.2} Mpairs/s)",
        simd_tier.name(),
        simd_kernel::cpu_features(),
        cti_simd_f64,
        cti_simd_q16,
        decide_ns_per_pair,
        decide_pairs_per_sec / 1e6,
    );
    out.push(("cti_simd_tier", f64::from(simd_tier as u8)));
    out.push(("cti_simd_pairs", simd_pairs as f64));
    out.push(("cti_simd_f64_speedup", cti_simd_f64));
    out.push(("cti_simd_q16_speedup", cti_simd_q16));
    out.push(("decide_batch_pairs", simd_pairs as f64));
    out.push(("decide_batch_ns_per_pair", decide_ns_per_pair));
    out.push(("decide_batch_pairs_per_sec", decide_pairs_per_sec));

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

    (out, big_phases)
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

/// Renders the per-phase scheduler breakdown of the big-config sharded
/// runs as flat JSON (one key block per `(clusters, threads)` cell), the
/// `--profile` artifact CI uploads. `barrier_wait_ms` is the estimated
/// idle time at epoch barriers: parallel wall-clock times participants,
/// minus the workers' measured busy time.
fn phases_to_json(phases: &[Exp6Phases]) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"schema_version\": 1");
    for ph in phases {
        let prefix = format!("shard_big_c{}_x{}", ph.clusters, ph.threads);
        s.push_str(&format!(",\n  \"{prefix}_epochs\": {}", ph.epochs));
        s.push_str(&format!(",\n  \"{prefix}_participants\": {}", ph.participants));
        for (name, ns) in [
            ("stage_ms", ph.stage_ns),
            ("parallel_ms", ph.parallel_ns),
            ("busy_ms", ph.busy_ns),
            ("barrier_wait_ms", ph.barrier_wait_ns()),
            ("route_ms", ph.route_ns),
        ] {
            s.push_str(&format!(",\n  \"{prefix}_{name}\": {:.3}", ns as f64 / 1e6));
        }
    }
    s.push_str("\n}\n");
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
/// `decide_batch_ns_per_pair` or `fleet_rebalance_ms` ungated.
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
    ("shard_clusters", Gate::Info),
    ("shard_rounds", Gate::Info),
    ("shard_seq_wall_ms", Gate::Lower),
    ("shard_events_per_sec", Gate::Higher),
    ("shard_1t_speedup", Gate::Ratio),
    ("shard_4t_speedup", Gate::Ratio),
    ("shard_pool_events_per_sec", Gate::Higher),
    ("shard_pool_1t_speedup", Gate::Ratio),
    ("shard_pool_4t_speedup", Gate::Ratio),
    ("shard_big_clusters", Gate::Info),
    ("shard_big_nodes", Gate::Info),
    ("shard_big_rounds", Gate::Info),
    ("shard_big_seq_wall_ms", Gate::Lower),
    ("shard_big_events_per_sec", Gate::Higher),
    ("shard_big_1t_speedup", Gate::Ratio),
    ("shard_big_4t_speedup", Gate::Ratio),
    ("cti_cache_decisions", Gate::Info),
    ("cti_cache_exp_per_decision", Gate::Lower),
    ("cti_cache_reads_per_decision", Gate::Lower),
    ("cti_cache_speedup", Gate::Ratio),
    ("cti_fixed_decisions", Gate::Info),
    ("cti_fixed_speedup", Gate::Ratio),
    ("cti_fixed_match", Gate::Info),
    ("cti_simd_tier", Gate::Info),
    ("cti_simd_pairs", Gate::Info),
    ("cti_simd_f64_speedup", Gate::Ratio),
    ("cti_simd_q16_speedup", Gate::Ratio),
    ("decide_batch_pairs", Gate::Info),
    ("decide_batch_ns_per_pair", Gate::Lower),
    ("decide_batch_pairs_per_sec", Gate::Higher),
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

/// Compares current metrics against a baseline report. Returns the list
/// of regression descriptions (empty = pass). Only keys present in both
/// reports are compared; a key missing from [`KEY_GATES`] is reported
/// rather than skipped, so a new key cannot go ungated by accident.
fn regressions(metrics: &[(&'static str, f64)], baseline: &str) -> Vec<String> {
    let mut bad = Vec::new();
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
/// count ratio and holds on any hardware; the shard speedup floors are
/// wall-clock ratios and only meaningful with real parallelism, so they
/// are skipped (with a notice) on machines with fewer than four cores —
/// a 4-thread run cannot beat sequential wall-clock on one core.
fn floor_violations(metrics: &[(&'static str, f64)]) -> Vec<String> {
    let mut bad = Vec::new();
    let get = |k: &str| metrics.iter().find(|(key, _)| *key == k).map(|&(_, v)| v);
    if let Some(s) = get("cti_cache_speedup") {
        if s < 5.0 {
            bad.push(format!("cti_cache_speedup: {s:.2} below the required 5.0x"));
        }
    }
    // The Q16.16 backend must agree with the cached-f64 reference on
    // every decision — a mismatch is a correctness bug, not a perf
    // regression, so this floor is unconditional and exact.
    if let Some(m) = get("cti_fixed_match") {
        if m != 1.0 {
            bad.push("cti_fixed_match: fixed-point decisions diverged from f64".to_string());
        }
    }
    // The LUT path trades precision for predictability, not for speed;
    // still, it must stay within 2x of the cached-f64 wall clock or the
    // integer pipeline has regressed into doing real work per read.
    if let Some(s) = get("cti_fixed_speedup") {
        if s < 0.5 {
            bad.push(format!("cti_fixed_speedup: {s:.2} below the required 0.5x"));
        }
    }
    // SIMD kernel floors: the scalar fallback *is* the baseline, so the
    // speedup ratios are only meaningful on hosts with a wide vector
    // tier (AVX2 or NEON); SSE2's two lanes don't clear these bars.
    if let Some(tier) = get("cti_simd_tier") {
        if tier >= 3.0 {
            for (key, floor) in [
                ("cti_simd_f64_speedup", 1.3),
                ("cti_simd_q16_speedup", 1.5),
            ] {
                if let Some(v) = get(key) {
                    if v < floor {
                        bad.push(format!("{key}: {v:.2} below the required {floor:.2}x"));
                    }
                }
            }
        } else {
            println!(
                "floors: simd tier {tier:.0} — vector speedup floors skipped (need AVX2/NEON)"
            );
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
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if cores >= 4 {
        for (key, floor) in [
            ("shard_1t_speedup", 0.95),
            ("shard_4t_speedup", 2.0),
            ("shard_pool_1t_speedup", 0.95),
            ("shard_pool_4t_speedup", 2.0),
            // The tentpole gate: at production scale (65k+ nodes) four
            // sharded threads must beat the sequential engine by 1.5x,
            // or the whole sharding apparatus is overhead theater.
            ("shard_big_4t_speedup", 1.5),
        ] {
            if let Some(v) = get(key) {
                if v < floor {
                    bad.push(format!("{key}: {v:.2} below the required {floor:.2}x"));
                }
            }
        }
    } else {
        println!(
            "floors: {cores} core(s) available — shard speedup floors skipped (need >= 4)"
        );
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
    let mut profile: Option<String> = None;
    let mut out_path = String::from("BENCH_kernel.json");
    let mut check_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--floors" => floors = true,
            "--profile" => profile = Some(String::from("BENCH_phases.json")),
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
                    "usage: tibfit-bench [--quick] [--floors] [--profile] [--out <path>] [--check <baseline.json>]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let (metrics, phases) = run_all(quick);
    let json = to_json(&metrics);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(2);
    }
    println!("wrote {out_path}");

    if let Some(phases_path) = profile {
        let phases_json = phases_to_json(&phases);
        if let Err(e) = std::fs::write(&phases_path, &phases_json) {
            eprintln!("cannot write {phases_path}: {e}");
            std::process::exit(2);
        }
        println!("wrote {phases_path}");
    }

    if floors {
        // Floors-only mode for CI: no baseline file needed, so it is
        // immune to cross-hardware baseline skew. The CTI floor is a
        // deterministic count ratio and always applies; wall-clock shard
        // floors apply only with >= 4 real cores (see floor_violations).
        println!(
            "floors: cpu features [{}], simd tier {}",
            simd_kernel::cpu_features(),
            simd_kernel::active_tier().name()
        );
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

    fn baseline_keys() -> Vec<&'static str> {
        BASELINE
            .lines()
            .filter_map(|line| line.trim().strip_prefix('"')?.split('"').next())
            .collect()
    }

    #[test]
    fn every_baseline_key_has_a_gate() {
        let keys = baseline_keys();
        assert!(keys.len() > 50, "baseline parse found only {} keys", keys.len());
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
  "decide_batch_ns_per_pair": 20.0,
  "decide_batch_pairs_per_sec": 50000000.0,
  "daemon_query_p99_us": 20.0,
  "fleet_rebalance_ms": 20.0,
  "snapshot_bytes": 45328
}"#;
        let worse = [
            ("decide_batch_ns_per_pair", 30.0),
            ("decide_batch_pairs_per_sec", 30_000_000.0),
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
        let baseline = "{\n  \"shard_4t_speedup\": 0.3,\n  \"daemon_records\": 320\n}";
        // 0.2 is a 33% relative drop but within the absolute slack.
        assert!(regressions(&[("shard_4t_speedup", 0.2)], baseline).is_empty());
        assert_eq!(regressions(&[("shard_4t_speedup", 0.05)], baseline).len(), 1);
        assert!(regressions(&[("daemon_records", 1.0)], baseline).is_empty());
    }

    #[test]
    fn unclassified_keys_are_reported() {
        let baseline = "{\n  \"brand_new_metric\": 1.0\n}";
        let bad = regressions(&[("brand_new_metric", 1.0)], baseline);
        assert_eq!(bad.len(), 1);
        assert!(bad[0].contains("KEY_GATES"));
    }
}

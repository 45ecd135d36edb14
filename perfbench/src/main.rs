//! `tibfit-e2e`: the repository's end-to-end benchmark.
//!
//! ```text
//! tibfit-e2e --workload <steady|sparse|flood|big_field> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! Drives a `tibfit-daemon` host process over one loopback TCP
//! connection (see `README.md`), checks every answer and decision log,
//! and prints one JSON result as the last line of standard output. The
//! exit code is 0 only when every check passed.
//!
//! `tibfit-e2e host …` and `tibfit-e2e sweep …` are the child processes
//! the benchmark starts; they are not meant to be run by hand.

mod cpu;
mod host;
mod loadgen;
mod phase;
mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use phase::{run_phase, run_sweep, Pace, Phase};
use stats::{beyond, fnv1a, median, percentile, quartiles};
use trace::Tracer;
use workload::{Input, Workload, DEFAULT_SEED, GOLDEN_TICKS, TENANTS};

/// A measured run repeats rounds until `--seconds` have passed, and
/// runs at least this many. A round is `SPAWNS` set-up spawns, one
/// saturated host and `SPAWNS` restart spawns on that host's state, so
/// every metric is sampled across the whole run.
const MIN_ROUNDS: usize = 5;
/// Set-up spawns and restart spawns per round.
const SPAWNS: usize = 3;
/// Share of `--seconds` the traced run's paced host takes; the
/// saturated host, the two replays and the sweep add a few seconds.
const TRACE_PACED_SHARE: f64 = 0.125;
/// Ticks per host under `--smoke`.
const SMOKE_TICKS: usize = GOLDEN_TICKS;
/// The first this share of a paced host's ticks warms caches and is
/// not timed.
const WARMUP_SHARE: f64 = 0.05;
/// Trials per Figure 2 / Figure 3 sweep point in the traced run.
const SWEEP_TRIALS: usize = 400;
/// FNV-1a of the Figure 2 and Figure 3 CSVs at `DEFAULT_SEED` and
/// `SWEEP_TRIALS`.
const SWEEP_GOLDEN: u64 = 0x3dd3_0f0b_5716_90a2;

struct Opts {
    w: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn usage() -> String {
    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: tibfit-e2e --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--smoke]",
        names.join("|")
    )
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut w = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20u64;
    let mut trace = false;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                w = Some(
                    workload::find(name)
                        .ok_or_else(|| format!("unknown workload {name:?}\n{}", usage()))?,
                );
            }
            "--seed" => {
                seed = value()?
                    .parse()
                    .map_err(|_| "--seed: not a number".to_string())?
            }
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds: not a number".to_string())?;
                if seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    Ok(Opts {
        w: w.ok_or_else(usage)?,
        seed,
        seconds,
        trace,
        smoke,
    })
}

/// Ticks each host is sent: the workload's fixed `host_ticks` in a
/// measured run, so every commit gets the same input; in the traced
/// run, the paced rate over the paced host's share of `--seconds`.
fn ticks_for(o: &Opts) -> usize {
    if o.smoke {
        SMOKE_TICKS
    } else if o.trace {
        ((o.w.paced_rate * o.seconds as f64 * TRACE_PACED_SHARE).round() as usize).max(SMOKE_TICKS)
    } else {
        o.w.host_ticks
    }
}

/// Failed checks, each counted once toward `failed` and reported on
/// standard error.
#[derive(Default)]
struct Checks {
    failed: u64,
}

impl Checks {
    fn fail(&mut self, what: impl AsRef<str>) {
        self.failed += 1;
        eprintln!("tibfit-e2e: check failed: {}", what.as_ref());
    }

    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }
}

fn decision_log(phase: &Phase, t: usize) -> Result<Vec<u8>, String> {
    let path = tibfit_daemon::state::decision_log_path(&phase.state_dir.join("decisions"), t);
    std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))
}

/// FNV-1a of the first `lines` lines of a decision log.
fn golden_digest(log: &[u8], lines: usize) -> u64 {
    let len: usize = log
        .split_inclusive(|&b| b == b'\n')
        .take(lines)
        .map(<[u8]>::len)
        .sum();
    fnv1a(&log[..len])
}

/// Checks one phase's answers and counters against the input.
fn check_phase(c: &mut Checks, name: &str, w: &Workload, ticks: usize, phase: &Phase) {
    let log = &phase.log;
    for line in &log.unexpected {
        c.fail(format!("{name}: unexpected host output {line:?}"));
    }
    let rejected = log.counter("daemon.ingest.rejected");
    c.expect(rejected == 0, || {
        format!("{name}: {rejected} frames rejected")
    });
    let restarts = log.tenant_sum("restarts");
    c.expect(restarts == 0, || {
        format!("{name}: {restarts} worker restarts")
    });
    let quarantined = log.tenant_sum("quarantined");
    c.expect(quarantined == 0, || {
        format!("{name}: {quarantined} tenants quarantined")
    });
    for t in 0..TENANTS {
        let answers = &log.rounds[t];
        c.expect(answers.len() == ticks, || {
            format!(
                "{name}: tenant {t} answered {} of {ticks} round queries",
                answers.len()
            )
        });
        for (k, &(_, v)) in answers.iter().enumerate() {
            let expected = (k as u64 + 1) * w.admitted_per_tick();
            c.expect(v == expected, || {
                format!("{name}: tenant {t} tick {k}: round {v} != {expected}")
            });
        }
        let trust = log.trust[t].1;
        let expected = ticks as u64 * u64::from(w.trust_reads);
        c.expect(trust == expected, || {
            format!("{name}: tenant {t} answered {trust} of {expected} trust queries")
        });
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The machine block printed with every result.
fn machine_block(o: &Opts, ticks: usize, rounds: usize, run_dir: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let mut out = String::new();
    let _ = writeln!(out, "machine.nproc {nproc}");
    let _ = writeln!(out, "machine.cpu {cpu}");
    let _ = writeln!(
        out,
        "machine.simd_tier {}",
        tibfit_core::simd_kernel::active_tier().name()
    );
    let _ = writeln!(out, "machine.state_fs {}", fs_type(run_dir));
    let _ = writeln!(out, "run.workload {}", o.w.name);
    let _ = writeln!(out, "run.seed {}", o.seed);
    let _ = writeln!(out, "run.seconds {}", o.seconds);
    let _ = writeln!(out, "run.trace {}", u8::from(o.trace));
    let _ = writeln!(out, "run.rounds {rounds}");
    let _ = writeln!(out, "run.ticks_per_host {ticks}");
    if o.trace {
        let _ = writeln!(out, "run.paced_ticks_per_s {}", o.w.paced_rate);
        let _ = writeln!(out, "run.sweep_trials {}", sweep_trials(o));
    }
    out
}

fn sweep_trials(o: &Opts) -> usize {
    if o.smoke {
        2
    } else {
        SWEEP_TRIALS
    }
}

/// Filesystem type of the mount holding `path` (from
/// `/proc/self/mountinfo`).
fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    info.lines()
        .filter_map(|l| {
            let (pre, post) = l.split_once(" - ")?;
            let mount = pre.split(' ').nth(4)?;
            let fs = post.split(' ').next()?;
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) -> String {
    let mut out = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("host") => host::host(&args[1..]).map(|()| true),
        Some("sweep") => host::sweep(&args[1..]).map(|()| true),
        _ => parse_opts(&args).and_then(|o| bench(&o)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("tibfit-e2e: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the benchmark and prints its result; `Ok(false)` when a check
/// failed.
fn bench(o: &Opts) -> Result<bool, String> {
    let ticks = ticks_for(o);
    let run_dir = PathBuf::from(".bench_run");
    let dir = run_dir.join(format!("{}-{}", o.w.name, std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let result = if o.trace {
        traced(o, ticks, &dir, &run_dir)
    } else {
        measured(o, ticks, &dir)
    };
    phase::remove_dir(&dir);
    let out = result?;
    print!("{}", machine_block(o, ticks, out.rounds, &run_dir));
    for (name, unit, value) in &out.metrics {
        println!("{name} {value} {unit}");
    }
    let failed = out.checks.failed;
    println!("{}", json(failed == 0, out.attempted, failed, &out.metrics));
    Ok(failed == 0)
}

struct Outcome {
    checks: Checks,
    /// Frames sent to hosts.
    attempted: u64,
    /// Saturated hosts served.
    rounds: usize,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

/// Each tenant's decision-log digest and trust-answer digest for one
/// host. At `DEFAULT_SEED` the log's first `GOLDEN_TICKS` ticks must
/// match the stored digests.
fn digests(c: &mut Checks, o: &Opts, phase: &Phase) -> Result<[(u64, u64); TENANTS], String> {
    let golden_lines = GOLDEN_TICKS * o.w.admitted_per_tick() as usize;
    let mut out = [(0, 0); TENANTS];
    for (t, digest) in out.iter_mut().enumerate() {
        let log = decision_log(phase, t)?;
        *digest = (fnv1a(&log), phase.log.trust[t].0.finish());
        if o.seed == DEFAULT_SEED {
            let got = golden_digest(&log, golden_lines);
            c.expect(got == o.w.golden[t], || {
                format!(
                    "tenant {t}: first {GOLDEN_TICKS} ticks digest {got:016x} != golden {:016x}",
                    o.w.golden[t]
                )
            });
        }
    }
    Ok(out)
}

/// The paced and saturated phases over the same input, with their
/// cross-checks. Also returns each tenant's digests.
fn both_phases(
    c: &mut Checks,
    o: &Opts,
    input: &Input,
    ticks: usize,
    dir: &Path,
) -> Result<(Phase, Phase, [(u64, u64); TENANTS]), String> {
    let period = Duration::from_secs_f64(1.0 / o.w.paced_rate);
    let paced = run_phase(o.w, o.seed, &dir.join("paced"), input, &Pace::Paced(period))?;
    let saturated = run_phase(o.w, o.seed, &dir.join("saturated"), input, &Pace::Saturated)?;
    check_phase(c, "paced", o.w, ticks, &paced);
    check_phase(c, "saturated", o.w, ticks, &saturated);
    let a = digests(c, o, &paced)?;
    let b = digests(c, o, &saturated)?;
    c.expect(a == b, || {
        "paced and saturated decision logs or trust answers differ".to_string()
    });
    Ok((paced, saturated, b))
}

fn sweep_checked(c: &mut Checks, o: &Opts) -> Result<phase::Sweep, String> {
    let s = run_sweep(o.seed, sweep_trials(o))?;
    if o.seed == DEFAULT_SEED && sweep_trials(o) == SWEEP_TRIALS {
        c.expect(s.csv_digest == SWEEP_GOLDEN, || {
            format!(
                "sweep CSV digest {:016x} != golden {SWEEP_GOLDEN:016x}",
                s.csv_digest
            )
        });
    }
    Ok(s)
}

/// Records a host applied: the sum of each tenant's last `A round`.
fn records_applied(phase: &Phase) -> u64 {
    phase.log.rounds.iter().filter_map(|r| r.last()).map(|(_, v)| *v).sum()
}

/// Wall seconds from a host's first byte to its last tick's answers.
fn busy_s(phase: &Phase) -> Result<f64, String> {
    let last = phase.log.rounds.iter().filter_map(|r| r.last()).map(|(at, _)| *at).max();
    Ok((last.ok_or("no answers from the host")? - phase.t0).as_secs_f64())
}

/// Rounds until `--seconds` have passed (one under `--smoke`). Every
/// end-to-end metric is a CPU time or a size, never a wall time: on a
/// shared VM, wall times swing by half between runs as other guests
/// take the CPUs, while task CPU time leaves that steal out. What moves
/// CPU time too, the machine's speed, is measured by a calibration pass
/// on each side of every round; the round's CPU times are scaled by the
/// reference pass time over the mean of the two.
fn measured(o: &Opts, ticks: usize, dir: &Path) -> Result<Outcome, String> {
    let mut c = Checks::default();
    let input = workload::build_input(o.w, o.seed, ticks);
    let deadline = Instant::now() + Duration::from_secs(o.seconds);
    let (mut setup, mut restart, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cpu, mut unscaled_cpu, mut scales) = (Vec::new(), Vec::new(), Vec::new());
    let (mut applied, mut offered) = (Vec::new(), Vec::new());
    let mut first_digests = None;
    let mut rounds = 0;
    let setup_dir = dir.join("setup");
    loop {
        let before = cpu::calibration_pass(dir)?;
        let mut round_setup = Vec::with_capacity(SPAWNS);
        for _ in 0..SPAWNS {
            phase::remove_dir(&setup_dir);
            round_setup.push(phase::ready_cpu(o.w, o.seed, &setup_dir)?);
        }
        let host = run_phase(o.w, o.seed, &dir.join("saturated"), &input, &Pace::Saturated)?;
        check_phase(&mut c, "saturated", o.w, ticks, &host);
        let digests = digests(&mut c, o, &host)?;
        let first = *first_digests.get_or_insert(digests);
        c.expect(digests == first, || {
            format!("round {rounds}: decision logs or trust answers differ from round 0's")
        });
        let records = records_applied(&host);
        let host_cpu = host.serve_cpu().as_secs_f64() * 1e6 / records.max(1) as f64;
        let busy = busy_s(&host)?;
        applied.push(records as f64 / busy);
        offered.push(host.log.tenant_sum("offered") as f64 / busy);
        rss.push(host.log.counter("host.vmhwm_kb") as f64 / 1024.0);
        let mut round_restart = Vec::with_capacity(SPAWNS);
        for _ in 0..SPAWNS {
            round_restart.push(phase::ready_cpu(o.w, o.seed, &host.state_dir)?);
        }
        let after = cpu::calibration_pass(dir)?;

        let scale = cpu::REFERENCE_PASS_S / ((before + after) / 2.0);
        scales.push(scale);
        unscaled_cpu.push(host_cpu);
        cpu.push(host_cpu * scale);
        setup.extend(round_setup.iter().map(|s| s * scale));
        restart.extend(round_restart.iter().map(|s| s * scale));
        rounds += 1;
        if o.smoke || (rounds >= MIN_ROUNDS && Instant::now() >= deadline) {
            break;
        }
    }
    scales.sort_by(f64::total_cmp);
    eprintln!(
        "tibfit-e2e: {rounds} rounds; CPU-time scale to the reference machine: median {:.3} (q1 {:.3}, q3 {:.3}); unscaled cpu_us_per_record {:.4}",
        median(&scales),
        percentile(&scales, 25.0),
        percentile(&scales, 75.0),
        median(&unscaled_cpu),
    );
    eprintln!(
        "tibfit-e2e: wall time (not gated): applied {:.0} records/s, offered {:.0} records/s (medians)",
        median(&applied),
        median(&offered),
    );

    let metrics = vec![
        ("cpu_us_per_record", "us", median(&cpu)),
        ("setup_s", "s", median(&setup)),
        ("restart_s", "s", median(&restart)),
        ("peak_rss_mb", "MiB", median(&rss)),
    ];
    Ok(Outcome {
        checks: c,
        attempted: input.frames * rounds as u64,
        rounds,
        metrics,
    })
}

/// A paced host's tick latencies in ms, sorted: every (tick, tenant)
/// answer timed from the tick's due time, after the warm-up ticks.
fn tick_latencies_ms(o: &Opts, paced: &Phase) -> Vec<f64> {
    let period = Duration::from_secs_f64(1.0 / o.w.paced_rate);
    let mut lat = Vec::new();
    for answers in &paced.log.rounds {
        let warmup = (answers.len() as f64 * WARMUP_SHARE) as usize;
        let answered: Vec<Duration> = answers.iter().map(|(at, _)| *at - paced.t0).collect();
        lat.extend(
            loadgen::tick_latencies(&answered, period)
                .into_iter()
                .skip(warmup)
                .map(ms),
        );
    }
    lat.sort_by(f64::total_cmp);
    lat
}

fn traced(o: &Opts, ticks: usize, dir: &Path, run_dir: &Path) -> Result<Outcome, String> {
    let mut c = Checks::default();
    let input = workload::build_input(o.w, o.seed, ticks);
    let bare = trace::replay(
        o.w,
        o.seed,
        &input,
        &dir.join("replay-bare"),
        &Tracer::new(false),
    )?;
    let tracer = Tracer::new(true);
    let traced = trace::replay(o.w, o.seed, &input, &dir.join("replay-traced"), &tracer)?;
    let trace_path = run_dir.join(format!("trace-{}.json", o.w.name));
    std::fs::write(&trace_path, tracer.to_json())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    for f in bare.failures.iter().chain(&traced.failures) {
        c.fail(format!("replay: {f}"));
    }
    let (paced, saturated, served) = both_phases(&mut c, o, &input, ticks, dir)?;
    for (t, &(log, trust)) in served.iter().enumerate() {
        c.expect(traced.logs[t] == log && bare.logs[t] == log, || {
            format!("tenant {t}: replayed and served decision logs differ")
        });
        c.expect(traced.trust_answers[t] == trust, || {
            format!("tenant {t}: replayed and served trust answers differ")
        });
    }
    let sweep = sweep_checked(&mut c, o)?;
    let lat = tick_latencies_ms(o, &paced);
    if lat.is_empty() {
        return Err("no paced answers".into());
    }
    let tail = beyond(lat.len(), 95.0);
    if !o.smoke {
        c.expect(tail >= 10, || {
            format!("only {tail} tick latencies beyond p95 ({} samples)", lat.len())
        });
    }
    let (q1, p50, q3) = quartiles(&lat);
    eprintln!(
        "tibfit-e2e: {} tick latencies: q1 {q1:.4}, p50 {p50:.4}, q3 {q3:.4}, p95 {:.4}, p99 {:.4}, max {:.4} ms",
        lat.len(),
        percentile(&lat, 95.0),
        percentile(&lat, 99.0),
        lat[lat.len() - 1],
    );

    let us = |name: &str| tracer.totals(name).mean_self_ns() / 1e3;
    let ns = |name: &str| tracer.totals(name).mean_self_ns();
    let run_event = us("multicluster.run_event");
    let views = us("multicluster.views");
    let apply = us("tenant.apply");
    let stats = traced.stats;
    let shed = stats.shed_budget + stats.shed_overflow;
    let lag: Vec<f64> = {
        let mut v: Vec<f64> = paced.sent.iter().map(|s| ms(s.lag)).collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let blocked: Duration = paced.sent.iter().map(|s| s.blocked).sum();
    let wall_traced = traced.wall.as_secs_f64() - tracer.shadow_ns() as f64 / 1e9;
    let metrics = vec![
        ("multicluster.run_event_us", "us", run_event),
        ("multicluster.views_us", "us", views),
        ("tenant.apply_us", "us", apply),
        ("tenant.overhead_us", "us", apply - run_event - views),
        ("tenant.trust_of_us", "us", us("tenant.trust_of")),
        ("tenant.impact_ns", "ns", ns("tenant.impact")),
        ("state.encode_us", "us", us("state.encode")),
        ("state.write_us", "us", us("state.write")),
        (
            "state.snapshot_bytes",
            "B",
            traced.snapshot_bytes.iter().sum::<usize>() as f64
                / traced.snapshot_bytes.len().max(1) as f64,
        ),
        ("state.read_us", "us", us("state.read")),
        (
            "state.truncate_log_ms",
            "ms",
            us("state.truncate_log") / 1e3,
        ),
        ("tenant.from_blob_ms", "ms", us("tenant.from_blob") / 1e3),
        ("wire.parse_ns", "ns", ns("wire.parse")),
        (
            "wire.rejected",
            "count",
            (paced.log.counter("daemon.ingest.rejected")
                + saturated.log.counter("daemon.ingest.rejected")) as f64,
        ),
        ("queue.offer_ns", "ns", ns("queue.offer")),
        ("queue.end_tick_us", "us", us("queue.end_tick")),
        ("queue.pop_ns", "ns", ns("queue.pop")),
        (
            "queue.admit_ratio",
            "ratio",
            stats.admitted as f64 / (stats.admitted + shed).max(1) as f64,
        ),
        ("queue.shed", "count", shed as f64),
        ("queue.duplicates", "count", stats.duplicates as f64),
        (
            "queue.backpressure_waits",
            "count",
            saturated.log.tenant_sum("backpressure.waits") as f64,
        ),
        ("net_io.send_blocked_ms", "ms", ms(blocked)),
        ("loadgen.lag_p99_ms", "ms", percentile(&lag, 99.0)),
        (
            "loadgen.lag_max_ms",
            "ms",
            lag.last().copied().unwrap_or(0.0),
        ),
        ("loadgen.tick_p50_ms", "ms", p50),
        ("loadgen.tick_p95_ms", "ms", percentile(&lat, 95.0)),
        (
            "loadgen.applied_per_s",
            "records/s",
            records_applied(&saturated) as f64 / busy_s(&saturated)?,
        ),
        (
            "supervisor.restarts",
            "count",
            (paced.log.tenant_sum("restarts") + saturated.log.tenant_sum("restarts")) as f64,
        ),
        (
            "supervisor.quarantined",
            "count",
            (paced.log.tenant_sum("quarantined") + saturated.log.tenant_sum("quarantined")) as f64,
        ),
        ("exp1.figure2_s", "s", sweep.figure2_s),
        ("exp1.figure3_s", "s", sweep.figure3_s),
        ("trace.coverage", "ratio", tracer.coverage(traced.wall)),
        (
            "trace.overhead_frac",
            "ratio",
            (wall_traced - bare.wall.as_secs_f64()) / bare.wall.as_secs_f64(),
        ),
    ];
    Ok(Outcome {
        checks: c,
        attempted: 2 * input.frames,
        rounds: 1,
        metrics,
    })
}

//! `tibfit-daemon` — a supervised, self-healing trust service.
//!
//! ```text
//! tibfit-daemon serve --replay results/exp1.replay --tenants 2 --seed 42
//! tibfit-daemon serve --listen 127.0.0.1:7700 --state-dir daemon-state
//! tibfit-daemon gen-replay --out results/exp1.replay --tenants 2 --seed 42 --ticks 40
//! tibfit-daemon stream --connect 127.0.0.1:7700 --replay results/exp1.replay
//! ```
//!
//! `serve` (the default when the first argument is a flag) ingests
//! newline-framed reports from a replay file, stdin, or a TCP
//! listener; snapshots every tenant on a tick cadence; restarts or
//! quarantines misbehaving workers; and on SIGINT/SIGTERM drains,
//! writes final snapshots, and exits 0 — a restart resumes
//! byte-identically from the state directory.

use std::path::PathBuf;
use std::process::ExitCode;

use tibfit_daemon::fleet::{FleetConfig, FleetPolicy, PeerSpec};
use tibfit_daemon::driver::admin_call;
use tibfit_daemon::net_io::{stream_replay, FanInSource, ListenSource, DEFAULT_STREAM_DEADLINE_MS};
use tibfit_daemon::{Daemon, DaemonConfig, DaemonReport};
use tibfit_experiments::replay::{replay_records, write_replay};
use tibfit_faults::ProcessCrashPlan;
use tibfit_sim::shutdown;

fn usage() -> &'static str {
    "tibfit-daemon — supervised multi-tenant TIBFIT trust service

USAGE:
  tibfit-daemon [serve] [OPTIONS]      ingest and decide (default)
  tibfit-daemon gen-replay [OPTIONS]   write a replay file
  tibfit-daemon stream [OPTIONS]       stream a replay to a listener
  tibfit-daemon migrate [OPTIONS]      order a fleet daemon to move a tenant
  tibfit-daemon status [OPTIONS]       dump a fleet daemon's roster + placement

SERVE OPTIONS:
  --replay <FILE>          read frames from a replay file
  --stdin                  read frames from stdin (default)
  --listen <ADDR>          accept frame streams over TCP
  --max-conns <N>          end after N connections (listen mode)
  --fan-in <K>             merge K concurrent connections (listen mode)
  --tenants <N>            hosted fields [2]
  --seed <S>               master seed [42]
  --state-dir <DIR>        snapshots + manifest [daemon-state]
  --decisions <DIR>        decision logs [<state-dir>/decisions]
  --queue-cap <N>          per-tenant queue capacity [1024]
  --budget <N>             records admitted per tick [64]
  --snapshot-every <N>     snapshot cadence in ticks [4]
  --record-shed            keep the shed-key log (tests)
  --drain-after-ticks <N>  drain cleanly after N ticks (tests)
  --crash-after-ticks <N>  abort the process after N ticks (tests)
  --crash-seed <S> --crash-horizon <H>
                           abort at a seeded tick in [1, H) (tests)

FLEET SERVE OPTIONS (all fleet members share --fleet-seed):
  --fleet-id <N>           this daemon's fleet member id
  --fleet-listen <ADDR>    fleet port (heartbeats, STATUS, MIGRATE, MPUSH)
  --fleet-peer <ID=ADDR>   a peer's fleet port (repeat per peer)
  --fleet-seed <S>         placement seed [master seed]
  --fleet-catchup <FILE>   replay file re-streamed to catch adopted tenants up
  --fleet-linger-ms <MS>   idle window to wait for fleet events after EOF [3000]
  --fleet-grace-ms <MS>    boot grace before misses count [2000]
  --fleet-check-ms <MS>    peer probe cadence [50]
  --fleet-probe-ms <MS>    per-probe timeout [250]

GEN-REPLAY OPTIONS:
  --out <FILE> --tenants <N> --seed <S> --ticks <N> --per-tick <P>

STREAM OPTIONS:
  --connect <ADDR> --replay <FILE> [--retry-seed <S>]
  [--max-attempts <N>] [--drop-after-lines <N>] [--deadline-ms <MS>]

MIGRATE OPTIONS:
  --connect <ADDR> --tenant <T> --dest <ID>
                           ask the daemon at ADDR (fleet port) to hand
                           tenant T to fleet member ID

STATUS OPTIONS:
  --connect <ADDR>         dump roster, per-peer trust, and placement
"
}

struct ArgStream {
    args: Vec<String>,
    pos: usize,
}

impl ArgStream {
    fn next(&mut self) -> Option<String> {
        let v = self.args.get(self.pos).cloned();
        if v.is_some() {
            self.pos += 1;
        }
        v
    }

    fn value(&mut self, flag: &str) -> Result<String, String> {
        self.next().ok_or_else(|| format!("{flag} needs a value"))
    }

    fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let raw = self.value(flag)?;
        raw.parse()
            .map_err(|_| format!("{flag}: cannot parse {raw:?}"))
    }
}

enum Source {
    Stdin,
    Replay(PathBuf),
    Listen { addr: String, max_conns: Option<u32> },
    FanIn { addr: String, conns: u32 },
}

struct ServeOpts {
    source: Source,
    cfg: DaemonConfig,
}

/// `ID=ADDR`, e.g. `2=127.0.0.1:7802`.
fn parse_peer(raw: &str) -> Result<PeerSpec, String> {
    let (id, addr) = raw
        .split_once('=')
        .ok_or_else(|| format!("--fleet-peer expects ID=ADDR, got {raw:?}"))?;
    let id = id
        .parse()
        .map_err(|_| format!("--fleet-peer: cannot parse id in {raw:?}"))?;
    if addr.is_empty() {
        return Err(format!("--fleet-peer: empty address in {raw:?}"));
    }
    Ok(PeerSpec {
        id,
        addr: addr.to_string(),
    })
}

fn parse_serve(args: &mut ArgStream) -> Result<ServeOpts, String> {
    let mut cfg = DaemonConfig::standard(2, 42, PathBuf::from("daemon-state"));
    let mut source = Source::Stdin;
    let mut decisions: Option<PathBuf> = None;
    let mut max_conns: Option<u32> = None;
    let mut fan_in: Option<u32> = None;
    let mut crash_seed: Option<u64> = None;
    let mut crash_horizon: Option<u64> = None;
    let mut fleet_id: Option<usize> = None;
    let mut fleet_listen: Option<String> = None;
    let mut fleet_peers: Vec<PeerSpec> = Vec::new();
    let mut fleet_seed: Option<u64> = None;
    let mut fleet_catchup: Option<PathBuf> = None;
    let mut fleet_linger_ms = 3000u64;
    let mut fleet_policy = FleetPolicy::default();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--replay" => source = Source::Replay(PathBuf::from(args.value("--replay")?)),
            "--stdin" => source = Source::Stdin,
            "--listen" => {
                source = Source::Listen {
                    addr: args.value("--listen")?,
                    max_conns: None,
                }
            }
            "--max-conns" => max_conns = Some(args.parsed("--max-conns")?),
            "--fan-in" => fan_in = Some(args.parsed("--fan-in")?),
            "--fleet-id" => fleet_id = Some(args.parsed("--fleet-id")?),
            "--fleet-listen" => fleet_listen = Some(args.value("--fleet-listen")?),
            "--fleet-peer" => fleet_peers.push(parse_peer(&args.value("--fleet-peer")?)?),
            "--fleet-seed" => fleet_seed = Some(args.parsed("--fleet-seed")?),
            "--fleet-catchup" => {
                fleet_catchup = Some(PathBuf::from(args.value("--fleet-catchup")?));
            }
            "--fleet-linger-ms" => fleet_linger_ms = args.parsed("--fleet-linger-ms")?,
            "--fleet-grace-ms" => fleet_policy.grace_ms = args.parsed("--fleet-grace-ms")?,
            "--fleet-check-ms" => {
                fleet_policy.check_interval_ms = args.parsed("--fleet-check-ms")?;
            }
            "--fleet-probe-ms" => {
                fleet_policy.probe_timeout_ms = args.parsed("--fleet-probe-ms")?;
            }
            "--tenants" => cfg.tenants = args.parsed("--tenants")?,
            "--seed" => cfg.master_seed = args.parsed("--seed")?,
            "--state-dir" => cfg.state_dir = PathBuf::from(args.value("--state-dir")?),
            "--decisions" => decisions = Some(PathBuf::from(args.value("--decisions")?)),
            "--queue-cap" => cfg.queue.capacity = args.parsed("--queue-cap")?,
            "--budget" => cfg.queue.tick_budget = args.parsed("--budget")?,
            "--snapshot-every" => cfg.snapshot_every = args.parsed("--snapshot-every")?,
            "--record-shed" => cfg.queue.record_shed = true,
            "--drain-after-ticks" => {
                cfg.drain_after_ticks = Some(args.parsed("--drain-after-ticks")?);
            }
            "--crash-after-ticks" => {
                cfg.crash_plan = ProcessCrashPlan::at(args.parsed("--crash-after-ticks")?);
            }
            "--crash-seed" => crash_seed = Some(args.parsed("--crash-seed")?),
            "--crash-horizon" => crash_horizon = Some(args.parsed("--crash-horizon")?),
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown serve flag {other:?}\n\n{}", usage())),
        }
    }
    if let (Some(seed), Some(horizon)) = (crash_seed, crash_horizon) {
        cfg.crash_plan = ProcessCrashPlan::seeded(seed, horizon);
    } else if crash_seed.is_some() || crash_horizon.is_some() {
        return Err("--crash-seed and --crash-horizon must be given together".into());
    }
    cfg.decisions_dir = decisions.unwrap_or_else(|| cfg.state_dir.join("decisions"));
    if let Some(conns) = fan_in {
        let Source::Listen { addr, .. } = source else {
            return Err("--fan-in requires --listen".into());
        };
        source = Source::FanIn { addr, conns };
    } else if let Source::Listen { max_conns: mc, .. } = &mut source {
        *mc = max_conns;
    }
    let fleet_flags_used = fleet_id.is_some()
        || fleet_listen.is_some()
        || !fleet_peers.is_empty()
        || fleet_seed.is_some()
        || fleet_catchup.is_some();
    if fleet_flags_used {
        let id = fleet_id.ok_or("fleet mode requires --fleet-id")?;
        let listen = fleet_listen.ok_or("fleet mode requires --fleet-listen")?;
        cfg.fleet = Some(FleetConfig {
            id,
            peers: fleet_peers,
            seed: fleet_seed.unwrap_or(cfg.master_seed),
            listen,
            linger_ms: fleet_linger_ms,
            catchup_replay: fleet_catchup,
            policy: fleet_policy,
        });
    }
    Ok(ServeOpts { source, cfg })
}

fn print_report(report: &DaemonReport) {
    for (key, value) in report.counters() {
        println!("{key} {value}");
    }
    println!("daemon.min_impact_trust {:.6}", report.min_impact_trust);
    println!(
        "daemon.exit {}",
        if report.drained_early { "drained" } else { "eof" }
    );
}

fn run_serve(opts: ServeOpts) -> Result<(), String> {
    shutdown::install_signal_handlers();
    let mut daemon = Daemon::new(opts.cfg).map_err(|e| e.to_string())?;
    if let Some(addr) = daemon.fleet_addr() {
        eprintln!("tibfit-daemon: fleet port on {addr}");
    }
    let report = match opts.source {
        Source::Stdin => daemon.run(std::io::stdin().lock()),
        Source::Replay(path) => {
            let file = std::fs::File::open(&path)
                .map_err(|e| format!("cannot open replay {}: {e}", path.display()))?;
            daemon.run(std::io::BufReader::new(file))
        }
        Source::Listen { addr, max_conns } => {
            let source = ListenSource::bind(&addr, max_conns).map_err(|e| e.to_string())?;
            let local = source.local_addr().map_err(|e| e.to_string())?;
            eprintln!("tibfit-daemon: listening on {local}");
            daemon.run(source)
        }
        Source::FanIn { addr, conns } => {
            let source = FanInSource::bind(&addr, conns).map_err(|e| e.to_string())?;
            let local = source.local_addr().map_err(|e| e.to_string())?;
            eprintln!("tibfit-daemon: listening on {local} (fan-in {conns})");
            daemon.run(source)
        }
    }
    .map_err(|e| e.to_string())?;
    print_report(&report);
    Ok(())
}

fn run_gen_replay(args: &mut ArgStream) -> Result<(), String> {
    let mut out: Option<PathBuf> = None;
    let mut tenants = 2usize;
    let mut seed = 42u64;
    let mut ticks = 40u64;
    let mut per_tick = 1u32;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--out" => out = Some(PathBuf::from(args.value("--out")?)),
            "--tenants" => tenants = args.parsed("--tenants")?,
            "--seed" => seed = args.parsed("--seed")?,
            "--ticks" => ticks = args.parsed("--ticks")?,
            "--per-tick" => per_tick = args.parsed("--per-tick")?,
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown gen-replay flag {other:?}")),
        }
    }
    let out = out.ok_or("gen-replay requires --out")?;
    let records = replay_records(tenants, seed, ticks, per_tick);
    write_replay(&out, &records).map_err(|e| e.to_string())?;
    println!(
        "wrote {} records ({} tenants × {} ticks × {} per tick) to {}",
        records.len(),
        tenants,
        ticks,
        per_tick,
        out.display()
    );
    Ok(())
}

fn run_stream(args: &mut ArgStream) -> Result<(), String> {
    let mut connect: Option<String> = None;
    let mut replay: Option<PathBuf> = None;
    let mut retry_seed = 7u64;
    let mut max_attempts = 8u32;
    let mut drop_after_lines: Option<u64> = None;
    let mut deadline_ms = DEFAULT_STREAM_DEADLINE_MS;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--connect" => connect = Some(args.value("--connect")?),
            "--replay" => replay = Some(PathBuf::from(args.value("--replay")?)),
            "--retry-seed" => retry_seed = args.parsed("--retry-seed")?,
            "--max-attempts" => max_attempts = args.parsed("--max-attempts")?,
            "--drop-after-lines" => drop_after_lines = Some(args.parsed("--drop-after-lines")?),
            "--deadline-ms" => deadline_ms = args.parsed("--deadline-ms")?,
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown stream flag {other:?}")),
        }
    }
    let connect = connect.ok_or("stream requires --connect")?;
    let replay = replay.ok_or("stream requires --replay")?;
    let outcome = stream_replay(
        &connect,
        &replay,
        retry_seed,
        max_attempts,
        drop_after_lines,
        deadline_ms,
    )
    .map_err(|e| e.to_string())?;
    println!(
        "streamed {} lines over {} connection(s)",
        outcome.lines_sent, outcome.connections
    );
    Ok(())
}

fn run_migrate(args: &mut ArgStream) -> Result<(), String> {
    let mut connect: Option<String> = None;
    let mut tenant: Option<usize> = None;
    let mut dest: Option<usize> = None;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--connect" => connect = Some(args.value("--connect")?),
            "--tenant" => tenant = Some(args.parsed("--tenant")?),
            "--dest" => dest = Some(args.parsed("--dest")?),
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown migrate flag {other:?}")),
        }
    }
    let connect = connect.ok_or("migrate requires --connect")?;
    let tenant = tenant.ok_or("migrate requires --tenant")?;
    let dest = dest.ok_or("migrate requires --dest")?;
    let command = format!("MIGRATE {tenant} {dest}");
    let reply = admin_call(&connect, &command, None)
        .map_err(|e| format!("fleet port {connect}: {e}"))?;
    match reply.first().map(String::as_str) {
        Some(ok) if ok == format!("MOK {tenant}") => {
            println!("migrated tenant {tenant} to daemon {dest}");
            Ok(())
        }
        Some(err) => Err(format!("migration refused: {err}")),
        None => Err("migration failed: connection closed without a reply".into()),
    }
}

fn run_status(args: &mut ArgStream) -> Result<(), String> {
    let mut connect: Option<String> = None;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--connect" => connect = Some(args.value("--connect")?),
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown status flag {other:?}")),
        }
    }
    let connect = connect.ok_or("status requires --connect")?;
    for line in admin_call(&connect, "STATUS", None)
        .map_err(|e| format!("fleet port {connect}: {e}"))?
    {
        println!("{line}");
    }
    Ok(())
}

fn dispatch() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest_from) = match argv.first().map(String::as_str) {
        None => ("serve", 0),
        Some("serve") => ("serve", 1),
        Some("gen-replay") => ("gen-replay", 1),
        Some("stream") => ("stream", 1),
        Some("migrate") => ("migrate", 1),
        Some("status") => ("status", 1),
        Some("--help" | "-h") => return Err(usage().to_string()),
        Some(flag) if flag.starts_with("--") => ("serve", 0),
        Some(other) => {
            return Err(format!("unknown subcommand {other:?}\n\n{}", usage()));
        }
    };
    let mut args = ArgStream {
        args: argv,
        pos: rest_from,
    };
    match cmd {
        "serve" => run_serve(parse_serve(&mut args)?),
        "gen-replay" => run_gen_replay(&mut args),
        "stream" => run_stream(&mut args),
        "migrate" => run_migrate(&mut args),
        "status" => run_status(&mut args),
        _ => unreachable!("dispatch covers every command"),
    }
}

fn main() -> ExitCode {
    match dispatch() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

//! The child processes the benchmark drives.
//!
//! `host` serves a workload over TCP exactly as `tibfit-daemon serve
//! --listen 127.0.0.1:0 --max-conns 1` does (`Daemon::new`,
//! `ListenSource::bind`, `Daemon::run`, `DaemonReport::counters`),
//! with the workload's field builder as `DaemonConfig::scenario`,
//! which the daemon's command line cannot set. `sweep` runs the paper's
//! Figures 2 and 3.

use std::path::PathBuf;
use std::time::Instant;

use tibfit_daemon::net_io::ListenSource;
use tibfit_daemon::{Daemon, DaemonConfig};
use tibfit_experiments::exp1;

use crate::cpu::process_cpu;
use crate::stats::Fnv;
use crate::workload::{self, TENANTS};

/// The line `host` prints once it accepts connections.
pub const LISTENING: &str = "listening on ";
/// The counter `host` prints just before `LISTENING`: its CPU time so
/// far, in nanoseconds.
pub const READY_CPU: &str = "host.ready_cpu_ns";
/// The counter `host` prints at exit: its CPU time in all, in
/// nanoseconds.
pub const EXIT_CPU: &str = "host.cpu_ns";

/// Peak resident set size of this process in KiB (`VmHWM`).
fn vmhwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("{name} is required"))
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let raw = flag(args, name)?;
    raw.parse()
        .map_err(|_| format!("{name}: cannot parse {raw:?}"))
}

/// `host --workload <name> --seed <n> --state-dir <dir>`
pub fn host(args: &[String]) -> Result<(), String> {
    let name = flag(args, "--workload")?;
    let w = workload::find(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed: u64 = parsed(args, "--seed")?;
    let mut cfg = DaemonConfig::standard(TENANTS, seed, PathBuf::from(flag(args, "--state-dir")?));
    cfg.scenario = w.scenario;
    let mut daemon = Daemon::new(cfg).map_err(|e| e.to_string())?;
    let source = ListenSource::bind("127.0.0.1:0", Some(1)).map_err(|e| e.to_string())?;
    let local = source.local_addr().map_err(|e| e.to_string())?;
    println!("{READY_CPU} {}", process_cpu().as_nanos());
    println!("{LISTENING}{local}");
    let report = daemon.run(source).map_err(|e| e.to_string())?;
    for (key, value) in report.counters() {
        println!("{key} {value}");
    }
    println!("host.vmhwm_kb {}", vmhwm_kb());
    println!("{EXIT_CPU} {}", process_cpu().as_nanos());
    Ok(())
}

/// `sweep --seed <n> --trials <n>`
pub fn sweep(args: &[String]) -> Result<(), String> {
    let seed: u64 = parsed(args, "--seed")?;
    let trials: usize = parsed(args, "--trials")?;
    let start = Instant::now();
    let fig2 = exp1::figure2(trials, seed);
    let fig2_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let fig3 = exp1::figure3(trials, seed);
    let fig3_s = start.elapsed().as_secs_f64();
    let mut digest = Fnv::default();
    digest.update(fig2.to_csv().as_bytes());
    digest.update(fig3.to_csv().as_bytes());
    println!("exp1.figure2_s {fig2_s}");
    println!("exp1.figure3_s {fig3_s}");
    println!("sweep.csv_digest {:016x}", digest.finish());
    println!("host.vmhwm_kb {}", vmhwm_kb());
    Ok(())
}

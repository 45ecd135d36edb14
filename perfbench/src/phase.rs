//! Driving a `host` child: spawn it, connect once with `TCP_NODELAY`,
//! write the workload's ticks paced or saturated from this thread, and
//! read its answers on one reader thread.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::host::{EXIT_CPU, LISTENING, READY_CPU};
use crate::loadgen::{run_paced, Sent, WallClock};
use crate::stats::Fnv;
use crate::workload::{Input, Workload, TENANTS};

/// How long a host may take to drain and exit after its input ends.
const HOST_TIMEOUT: Duration = Duration::from_secs(120);

/// A running child of this executable. Dropping it kills the child and
/// waits for it.
struct Proc {
    child: Option<Child>,
    stdout: Option<BufReader<ChildStdout>>,
}

impl Proc {
    fn spawn(args: &[&str]) -> Result<Self, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
        let mut child = Command::new(exe)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn {args:?}: {e}"))?;
        let stdout = child.stdout.take().map(BufReader::new);
        Ok(Proc {
            child: Some(child),
            stdout,
        })
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        let stdout = self
            .stdout
            .as_mut()
            .expect("stdout is read before it is handed off");
        match stdout.read_line(&mut line) {
            Ok(0) => Err("child exited early".into()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("reading the child: {e}")),
        }
    }

    /// Waits for a child that has closed its output and checks it
    /// succeeded.
    fn finish(&mut self) -> Result<(), String> {
        let mut child = self.child.take().expect("child is finished once");
        let status = child
            .wait()
            .map_err(|e| format!("waiting for the child: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("child failed: {status}"))
        }
    }

    fn kill(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.kill();
    }
}

/// A `host` child that is accepting its one connection.
struct Host {
    proc: Proc,
    addr: String,
    /// The host's CPU time up to its `listening on` line.
    ready_cpu: Duration,
}

fn spawn_host(w: &Workload, seed: u64, state_dir: &Path) -> Result<Host, String> {
    let seed = seed.to_string();
    let dir = state_dir.to_str().ok_or("state dir is not UTF-8")?;
    let mut proc = Proc::spawn(&[
        "host",
        "--workload",
        w.name,
        "--seed",
        &seed,
        "--state-dir",
        dir,
    ])?;
    let line = proc.read_line()?;
    let ready_cpu = line
        .strip_prefix(READY_CPU)
        .and_then(|v| v.trim().parse().ok())
        .map(Duration::from_nanos)
        .ok_or_else(|| format!("host printed {line:?} before its {READY_CPU}"))?;
    let line = proc.read_line()?;
    let addr = line
        .strip_prefix(LISTENING)
        .ok_or_else(|| format!("host printed {line:?} before listening"))?
        .to_string();
    Ok(Host {
        proc,
        addr,
        ready_cpu,
    })
}

/// CPU seconds a host spawned on `dir` spends before it listens: exec,
/// `Daemon::new` (empty or restored state) and the bind. The host is
/// killed once ready.
pub fn ready_cpu(w: &Workload, seed: u64, dir: &Path) -> Result<f64, String> {
    Ok(spawn_host(w, seed, dir)?.ready_cpu.as_secs_f64())
}

pub fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Everything a host printed after `listening on`.
#[derive(Default)]
pub struct HostLog {
    /// Per tenant, each `A round` answer in arrival order with the
    /// instant the reader saw it.
    pub rounds: [Vec<(Instant, u64)>; TENANTS],
    /// Per tenant, the digest and count of its `A trust` lines.
    pub trust: [(Fnv, u64); TENANTS],
    /// `key value` lines: the daemon's counters and `host.vmhwm_kb`.
    pub counters: BTreeMap<String, u64>,
    /// Lines that fit none of the above.
    pub unexpected: Vec<String>,
}

impl HostLog {
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Sum of `daemon.t<i>.<field>` over the tenants.
    pub fn tenant_sum(&self, field: &str) -> u64 {
        (0..TENANTS)
            .map(|t| self.counter(&format!("daemon.t{t}.{field}")))
            .sum()
    }

    fn take(&mut self, line: &str) {
        let words: Vec<&str> = line.split_ascii_whitespace().collect();
        let tenant = |w: &str| w.parse::<usize>().ok().filter(|&t| t < TENANTS);
        match words.as_slice() {
            ["A", "round", t, v] => {
                if let (Some(t), Ok(v)) = (tenant(t), v.parse()) {
                    self.rounds[t].push((Instant::now(), v));
                    return;
                }
            }
            ["A", "trust", t, _, _] => {
                if let Some(t) = tenant(t) {
                    self.trust[t].0.update(line.as_bytes());
                    self.trust[t].1 += 1;
                    return;
                }
            }
            [key, v] => {
                if let Ok(v) = v.parse() {
                    self.counters.insert((*key).to_string(), v);
                    return;
                }
            }
            _ => {}
        }
        self.unexpected.push(line.to_string());
    }
}

fn read_log(stdout: BufReader<ChildStdout>) -> HostLog {
    let mut log = HostLog::default();
    for line in stdout.lines() {
        match line {
            Ok(line) => log.take(&line),
            Err(e) => {
                log.unexpected.push(format!("read error: {e}"));
                break;
            }
        }
    }
    log
}

pub enum Pace {
    /// Tick `k` is due at `t0 + k·period`.
    Paced(Duration),
    /// Everything, as fast as the socket takes it.
    Saturated,
}

/// One phase: a fresh host, the whole input, and what came back.
pub struct Phase {
    pub log: HostLog,
    /// The instant tick 0 was due (paced) or the first byte was written.
    pub t0: Instant,
    /// Per tick, when paced.
    pub sent: Vec<Sent>,
    pub state_dir: PathBuf,
    ready_cpu: Duration,
}

impl Phase {
    /// The host's CPU time from its `listening on` line to its exit:
    /// serving the connection, draining, and the final counters.
    pub fn serve_cpu(&self) -> Duration {
        Duration::from_nanos(self.log.counter(EXIT_CPU)).saturating_sub(self.ready_cpu)
    }
}

fn send(stream: &TcpStream, input: &Input, pace: &Pace, t0: Instant) -> std::io::Result<Vec<Sent>> {
    match pace {
        Pace::Paced(period) => {
            run_paced(&mut WallClock { t0 }, input.ticks.len(), *period, |k, _| {
                let mut s = stream;
                s.write_all(&input.ticks[k])
            })
        }
        Pace::Saturated => {
            let mut out = BufWriter::with_capacity(1 << 16, stream);
            for block in &input.ticks {
                out.write_all(block)?;
            }
            out.flush()?;
            Ok(Vec::new())
        }
    }
}

pub fn run_phase(
    w: &Workload,
    seed: u64,
    state_dir: &Path,
    input: &Input,
    pace: &Pace,
) -> Result<Phase, String> {
    remove_dir(state_dir);
    let Host {
        mut proc,
        addr,
        ready_cpu,
    } = spawn_host(w, seed, state_dir)?;
    let stream = TcpStream::connect(&addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    // Without it, Nagle's algorithm and delayed ACKs hold small tick
    // blocks back for tens of milliseconds.
    stream
        .set_nodelay(true)
        .map_err(|e| format!("TCP_NODELAY: {e}"))?;
    let stdout = proc.stdout.take().expect("host stdout");
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel();
        s.spawn(move || {
            let _ = tx.send(read_log(stdout));
        });
        let t0 = Instant::now();
        let sent = send(&stream, input, pace, t0);
        let _ = stream.shutdown(Shutdown::Write);
        if sent.is_err() {
            proc.kill();
        }
        let log = match rx.recv_timeout(HOST_TIMEOUT) {
            Ok(log) => log,
            Err(_) => {
                proc.kill();
                return Err(format!("host did not finish within {HOST_TIMEOUT:?}"));
            }
        };
        let sent = sent.map_err(|e| format!("sending to the host: {e}"))?;
        proc.finish()?;
        Ok(Phase {
            log,
            t0,
            sent,
            state_dir: state_dir.to_path_buf(),
            ready_cpu,
        })
    })
}

/// What the `sweep` child printed.
pub struct Sweep {
    pub figure2_s: f64,
    pub figure3_s: f64,
    pub csv_digest: u64,
}

pub fn run_sweep(seed: u64, trials: usize) -> Result<Sweep, String> {
    let (seed, trials) = (seed.to_string(), trials.to_string());
    let mut proc = Proc::spawn(&["sweep", "--seed", &seed, "--trials", &trials])?;
    let mut fields = BTreeMap::new();
    let stdout = proc.stdout.take().expect("sweep stdout");
    for line in stdout.lines() {
        let line = line.map_err(|e| format!("reading the sweep: {e}"))?;
        if let Some((k, v)) = line.split_once(' ') {
            fields.insert(k.to_string(), v.to_string());
        }
    }
    proc.finish()?;
    let get = |k: &str| fields.get(k).ok_or_else(|| format!("sweep printed no {k}"));
    let secs = |k: &str| -> Result<f64, String> { get(k)?.parse().map_err(|_| format!("bad {k}")) };
    Ok(Sweep {
        figure2_s: secs("exp1.figure2_s")?,
        figure3_s: secs("exp1.figure3_s")?,
        csv_digest: u64::from_str_radix(get("sweep.csv_digest")?, 16)
            .map_err(|_| "bad sweep.csv_digest".to_string())?,
    })
}

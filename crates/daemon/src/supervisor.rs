//! The daemon proper: per-tenant worker threads, the router that feeds
//! them, and the watchdog that restarts them.
//!
//! ## Threads
//!
//! - **Router** (the caller of [`Daemon::run`]): reads frames, offers
//!   records to tenant queues, closes ticks (which applies
//!   backpressure — see `queue`), and honours shutdown requests.
//! - **Workers** (one per tenant): pop admitted work, run engine
//!   rounds, append decision lines, snapshot on a tick cadence.
//! - **Watchdog**: an Impact-style failure detector. Each tenant
//!   carries a trust level `e^(-λ·v)` where `v` counts consecutive
//!   missed progress checks (a check is missed when the heartbeat did
//!   not advance *and* work is outstanding — an idle worker is
//!   healthy). A worker whose trust falls under the floor, or whose
//!   thread has died, is restarted from its last snapshot plus the
//!   queue's recovery buffer — zero admitted records lost. A tenant
//!   that keeps failing is quarantined (its ingest shed, its tick
//!   barrier released so other tenants keep flowing), then
//!   reintegrated on probation after a cool-down.
//!
//! ## Decision-log epochs
//!
//! A wedged worker may come back to life *after* its replacement has
//! truncated and reopened the decision log; its buffered lines must
//! not reach the file. All log writes go through a [`LogSink`] guarded
//! by an epoch number — writes from a superseded incarnation are
//! silently dropped.

use std::collections::{BTreeMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tibfit_experiments::replay::{tenant_seed, FieldScenario};
use tibfit_faults::ProcessCrashPlan;
use tibfit_sim::shutdown;
use tibfit_sim::snapshot::read_framed;

use crate::backoff::JitteredBackoff;
use crate::fleet::{owner_of, FleetConfig, PeerState, PeerView};
use crate::latency;
use crate::migrate::{
    decode_bundle, encode_bundle, push_bundle, MigrateError, MigrationBundle, MAX_BUNDLE_BYTES,
};
use crate::queue::{QueuePolicy, QueueStats, SharedQueue, WorkItem};
use crate::state::{
    decision_log_path, decode_tenant_state, encode_tenant_state, read_tenant_snapshot,
    read_tenant_state, remove_tenant_state, tenant_state_path, truncate_decision_log,
    write_tenant_state,
};
use crate::tenant::{EngineKind, PositionView, Tenant};
use crate::wire::{parse_fleet_line, parse_line, FleetMsg, Frame, IngestError, Query, Report};
use crate::DaemonError;

/// Impact-style watchdog tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogPolicy {
    /// Milliseconds between progress checks.
    pub check_interval_ms: u64,
    /// Trust decay per missed check: trust = `e^(-lambda * misses)`.
    pub lambda: f64,
    /// Suspect (and restart) a worker whose trust falls below this.
    pub trust_floor: f64,
    /// Sliding window, in checks, for counting restarts.
    pub crash_loop_window: u64,
    /// Restarts within the window that trigger quarantine.
    pub crash_loop_limit: usize,
    /// Quarantine cool-down and probation length, in checks.
    pub probation_checks: u64,
}

impl Default for WatchdogPolicy {
    fn default() -> Self {
        WatchdogPolicy {
            check_interval_ms: 20,
            lambda: 0.6,
            trust_floor: 0.25,
            crash_loop_window: 500,
            crash_loop_limit: 3,
            probation_checks: 25,
        }
    }
}

impl WatchdogPolicy {
    /// Checks a worker must miss before its trust crosses the floor.
    #[must_use]
    pub fn misses_to_suspect(&self) -> u32 {
        let mut v = 0u32;
        while (-self.lambda * f64::from(v + 1)).exp() >= self.trust_floor && v < 1_000 {
            v += 1;
        }
        v + 1
    }
}

/// Test-only fault injection for a tenant worker (compiled in, never
/// reachable from the CLI).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerFault {
    /// First incarnation wedges (stops heartbeating, holds no locks)
    /// just before applying this round.
    pub wedge_at_round: Option<u64>,
    /// Incarnations below `fail_incarnations` panic just before
    /// applying this round.
    pub panic_at_round: Option<u64>,
    /// How many incarnations the panic applies to (crash-loop length).
    pub fail_incarnations: u64,
}

/// Full daemon configuration.
#[derive(Clone)]
pub struct DaemonConfig {
    /// Hosted field count.
    pub tenants: usize,
    /// Master seed; tenant `t` runs scenario seed
    /// [`tenant_seed`]`(master_seed, t)`.
    pub master_seed: u64,
    /// Unused: every tenant runs the one engine on its own worker.
    pub threads: usize,
    /// Per-tenant queue sizing.
    pub queue: QueuePolicy,
    /// Snapshot every N ticks (≥ 1).
    pub snapshot_every: u64,
    /// Tenant state files live here.
    pub state_dir: PathBuf,
    /// Decision logs live here.
    pub decisions_dir: PathBuf,
    /// Watchdog tuning.
    pub watchdog: WatchdogPolicy,
    /// Builds a tenant's scenario from its seed (tests swap in smaller
    /// fields; production uses [`FieldScenario::mobile`]).
    pub scenario: fn(u64) -> FieldScenario,
    /// Deterministic process-kill hook (crash harness).
    pub crash_plan: ProcessCrashPlan,
    /// Stop ingesting and drain cleanly after this many ticks
    /// (rolling-restart harness).
    pub drain_after_ticks: Option<u64>,
    /// Per-tenant injected worker faults (tests).
    pub faults: Vec<(usize, WorkerFault)>,
    /// Fleet membership: when set, this daemon hosts only the tenants
    /// rendezvous placement assigns it, probes its peers, adopts a dead
    /// peer's tenants, and serves live migration on its fleet port.
    pub fleet: Option<FleetConfig>,
}

impl DaemonConfig {
    /// A standard configuration rooted at `state_dir`.
    #[must_use]
    pub fn standard(tenants: usize, master_seed: u64, state_dir: PathBuf) -> Self {
        let decisions_dir = state_dir.join("decisions");
        DaemonConfig {
            tenants,
            master_seed,
            threads: 2,
            queue: QueuePolicy {
                capacity: 1024,
                tick_budget: 64,
                record_shed: false,
            },
            snapshot_every: 4,
            state_dir,
            decisions_dir,
            watchdog: WatchdogPolicy::default(),
            scenario: FieldScenario::mobile,
            crash_plan: ProcessCrashPlan::disabled(),
            drain_after_ticks: None,
            faults: Vec::new(),
            fleet: None,
        }
    }

    fn validated(&self) -> Result<(), DaemonError> {
        if self.tenants == 0 {
            return Err(DaemonError::Config("at least one tenant required".into()));
        }
        if self.snapshot_every == 0 {
            return Err(DaemonError::Config("snapshot-every must be at least 1".into()));
        }
        self.queue
            .validated()
            .map_err(|e| DaemonError::Config(e.into()))?;
        if let Some(fleet) = &self.fleet {
            fleet.clone().validated()?;
        }
        Ok(())
    }

    fn fault_for(&self, id: usize) -> WorkerFault {
        self.faults
            .iter()
            .find(|(t, _)| *t == id)
            .map(|&(_, f)| f)
            .unwrap_or_default()
    }
}

/// Epoch-guarded append sink for one tenant's decision log.
pub struct LogSink {
    path: PathBuf,
    epoch: u64,
    file: Option<BufWriter<File>>,
}

impl LogSink {
    fn new(path: PathBuf) -> Self {
        LogSink {
            path,
            epoch: 0,
            file: None,
        }
    }

    /// Supersedes the current epoch without opening a new file: the
    /// old incarnation's unflushed buffer is dropped, its file handle
    /// closed and all its future writes rejected, while the log file
    /// itself stays untouched for the respawn sequence to truncate.
    /// Truncation cuts that same file in place; `reopen` then opens it
    /// by path for appending under yet another epoch. The epoch, not
    /// the file, is what keeps the old incarnation out.
    fn supersede(&mut self) {
        if let Some(old) = self.file.take() {
            let _ = old.into_parts();
        }
        self.epoch += 1;
    }

    /// Supersedes the current epoch (dropping its unflushed buffer —
    /// the recovery replay regenerates those lines) and reopens the
    /// file by path for appending (`O_APPEND`), so writes land after
    /// wherever truncation cut it. Returns the new epoch.
    fn reopen(&mut self) -> Result<u64, DaemonError> {
        // Drop, don't flush: the old buffer may hold lines the
        // truncation just removed.
        if let Some(old) = self.file.take() {
            let _ = old.into_parts();
        }
        self.epoch += 1;
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
            .map_err(DaemonError::Io)?;
        self.file = Some(BufWriter::new(file));
        Ok(self.epoch)
    }

    /// Appends a pre-formatted block of newline-terminated decision
    /// lines. The worker batches lines locally and pushes one block per
    /// tick, so the per-record cost is a `String` append instead of a
    /// mutex acquisition; the epoch guard applies to the whole block,
    /// which keeps supersession all-or-nothing (a superseded worker's
    /// buffered lines vanish exactly like its dropped `BufWriter`
    /// contents used to — recovery replay regenerates them).
    fn write_block(&mut self, epoch: u64, block: &str) -> Result<(), DaemonError> {
        if epoch != self.epoch {
            return Ok(());
        }
        if let Some(f) = self.file.as_mut() {
            f.write_all(block.as_bytes()).map_err(DaemonError::Io)?;
        }
        Ok(())
    }

    fn flush(&mut self, epoch: u64) -> Result<(), DaemonError> {
        if epoch != self.epoch {
            return Ok(());
        }
        if let Some(f) = self.file.as_mut() {
            f.flush().map_err(DaemonError::Io)?;
        }
        Ok(())
    }
}

/// Health state byte shared with the router.
const HEALTH_ACTIVE: u8 = 0;
const HEALTH_QUARANTINED: u8 = 1;
const HEALTH_PROBATION: u8 = 2;

/// Counters and flags shared by router, worker, and watchdog.
struct SlotShared {
    heartbeat: AtomicU64,
    applied: AtomicU64,
    shed_quarantine: AtomicU64,
    health: AtomicU8,
    /// Wall-clock latency of each answered query, for the p99 figure.
    query_latency: latency::Histogram,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Health {
    Active,
    Quarantined { until_check: u64 },
    Probation { until_check: u64 },
}

struct SlotCore {
    id: usize,
    queue: Arc<SharedQueue>,
    shared: Arc<SlotShared>,
    sink: Arc<Mutex<LogSink>>,
    positions: Arc<PositionView>,
    cancel: Arc<AtomicBool>,
    handle: Option<JoinHandle<Result<(), DaemonError>>>,
    /// Superseded incarnations that had not finished when replaced — a
    /// wedge, or a panic still unwinding. Each is canceled and fenced,
    /// so it can only exit; its outcome is harvested once it has. Each
    /// handle carries its incarnation.
    retired: Vec<(u64, JoinHandle<Result<(), DaemonError>>)>,
    health: Health,
    misses: u32,
    last_heartbeat: u64,
    incarnation: u64,
    restarts: u64,
    restart_checks: VecDeque<u64>,
    /// The newest error and the incarnation it belongs to (see
    /// [`record_error`]).
    last_error: Option<(u64, String)>,
}

struct SupervisorShared {
    slots: Mutex<Vec<SlotCore>>,
    stop: AtomicBool,
    /// Minimum observed Σ-trust across checks, as f64 bits.
    min_impact_bits: AtomicU64,
}

fn lock_slots(sup: &SupervisorShared) -> MutexGuard<'_, Vec<SlotCore>> {
    sup.slots.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Per-tenant wrap-up in the final report.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSummary {
    /// Tenant index.
    pub id: usize,
    /// Event rounds applied across all incarnations of this process.
    pub applied: u64,
    /// Queue counters (offered/admitted/shed/duplicates/waits).
    pub stats: QueueStats,
    /// Records dropped while the tenant was quarantined.
    pub shed_quarantine: u64,
    /// Worker restarts performed by the watchdog.
    pub restarts: u64,
    /// Whether the tenant ended the run quarantined.
    pub quarantined: bool,
    /// Last worker error, if any incarnation failed with one.
    pub last_error: Option<String>,
}

/// What a completed run did.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonReport {
    /// Ticks closed.
    pub ticks: u64,
    /// Lines rejected by the parser, total.
    pub rejected: u64,
    /// Rejection breakdown by [`IngestError::kind`].
    pub rejected_by_kind: Vec<(String, u64)>,
    /// Per-tenant summaries, tenant order.
    pub tenants: Vec<TenantSummary>,
    /// Whether ingest ended by a drain request (signal or
    /// `drain_after_ticks`) rather than end-of-stream.
    pub drained_early: bool,
    /// Minimum Σ(e^(-λ·v))/tenants the watchdog observed — 1.0 means
    /// no tenant ever missed a progress check.
    pub min_impact_trust: f64,
    /// Fleet wrap-up (peer trust, rebalances, migrations) when the
    /// daemon ran as a fleet member.
    pub fleet: Option<FleetSummary>,
}

/// Fleet-mode wrap-up in the final report.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSummary {
    /// This daemon's fleet id.
    pub id: usize,
    /// Tenants adopted from dead peers by failure rebalancing.
    pub adopted: Vec<usize>,
    /// Failure rebalances performed (tenants adopted).
    pub rebalances: u64,
    /// Migration bundles installed from peers (`MPUSH` accepted).
    pub migrations_in: u64,
    /// Tenants shipped out via operator `MIGRATE`.
    pub migrations_out: u64,
    /// Failed outbound migrations (source kept serving).
    pub migrate_failed: u64,
    /// Records ignored because placement assigned their tenant to a
    /// peer.
    pub foreign: u64,
    /// Final per-peer trust `(peer_id, e^(-λ·misses))`.
    pub peer_trust: Vec<(usize, f64)>,
}

struct WorkerTask {
    incarnation: u64,
    /// Queue-generation fence: the worker passes this to every `pop`,
    /// `complete_tick`, and snapshot commit, so once the watchdog
    /// supersedes it (respawn bumps the queue generation) it can no
    /// longer consume work or publish state, even if still running.
    generation: u64,
    tenant: Tenant,
    queue: Arc<SharedQueue>,
    shared: Arc<SlotShared>,
    sink: Arc<Mutex<LogSink>>,
    epoch: u64,
    cancel: Arc<AtomicBool>,
    state_path: PathBuf,
    fault: WorkerFault,
    recovery: Vec<WorkItem>,
    backoff_seed: u64,
}

enum Step {
    Continue,
    Exit,
}

fn lock_sink(sink: &Mutex<LogSink>) -> MutexGuard<'_, LogSink> {
    sink.lock().unwrap_or_else(PoisonError::into_inner)
}

fn write_snapshot(task: &WorkerTask) -> Result<(), DaemonError> {
    let (highwater, stats) = task.queue.snapshot_view();
    let bytes = encode_tenant_state(&task.tenant, &highwater, stats)?;
    let mut backoff = JitteredBackoff::new(task.backoff_seed, 2, 64);
    let mut attempts = 0u32;
    loop {
        // The state-file write and the replay-buffer clear commit
        // atomically under the queue lock, fenced by generation: a
        // superseded worker must not publish a snapshot the respawn
        // sequence no longer accounts for (it already read the old
        // state file), nor clear the replay its replacement needs.
        match task.queue.commit_snapshot(task.generation, || {
            write_tenant_state(&task.state_path, &bytes)
        }) {
            Ok(_committed) => return Ok(()),
            Err(e) if attempts < 3 => {
                attempts += 1;
                std::thread::sleep(backoff.next_delay());
                let _ = e;
            }
            Err(e) => return Err(e),
        }
    }
}

/// What a worker accumulates between tick boundaries.
#[derive(Default)]
struct TickOutput {
    /// Decision lines, pushed to the sink as one block.
    lines: String,
    /// Query answers, written to stdout as one block.
    answers: String,
    /// When each buffered answer's query was popped, for its latency
    /// sample.
    asked: Vec<Instant>,
}

fn answer_query(tenant: &Tenant, query: Query, out: &mut String) {
    match query {
        Query::Trust { tenant: id, node } => match tenant.trust_of(node) {
            Some(v) => writeln!(out, "A trust {id} {node} {v}"),
            None => writeln!(out, "A trust {id} {node} -"),
        },
        Query::Round { tenant: id } => writeln!(out, "A round {id} {}", tenant.round()),
        // Status is answered at the router (it spans every tenant and
        // the peer roster) and never enqueued to a worker.
        Query::Status => Ok(()),
    }
    .expect("formatting into a String cannot fail");
}

/// Writes the buffered answers to stdout in one locked write, then
/// records each query's latency, write included. A failed write (the
/// reader went away) drops the answers; it must not stop decisions.
fn flush_answers(task: &WorkerTask, out: &mut TickOutput) {
    if out.answers.is_empty() {
        return;
    }
    let mut stdout = std::io::stdout().lock();
    let _ = stdout
        .write_all(out.answers.as_bytes())
        .and_then(|()| stdout.flush());
    drop(stdout);
    for asked in out.asked.drain(..) {
        let nanos = u64::try_from(asked.elapsed().as_nanos()).unwrap_or(u64::MAX);
        task.shared.query_latency.record(nanos);
    }
    out.answers.clear();
}

/// Worker-local decision-line buffer above this size is pushed to the
/// sink mid-tick, bounding memory on record-dense ticks.
const LINE_BUFFER_FLUSH_BYTES: usize = 64 * 1024;

/// Pushes the worker's buffered decision lines to the sink as one
/// block and clears the buffer.
fn flush_lines(task: &WorkerTask, buf: &mut String) -> Result<(), DaemonError> {
    if !buf.is_empty() {
        lock_sink(&task.sink).write_block(task.epoch, buf)?;
        buf.clear();
    }
    Ok(())
}

/// Writes out everything the worker holds: answers to stdout, decision
/// lines to the sink, and the sink to its file.
fn flush_output(task: &WorkerTask, out: &mut TickOutput) -> Result<(), DaemonError> {
    flush_answers(task, out);
    flush_lines(task, &mut out.lines)?;
    lock_sink(&task.sink).flush(task.epoch)
}

fn process_item(
    task: &mut WorkerTask,
    item: WorkItem,
    live: bool,
    out: &mut TickOutput,
) -> Result<Step, DaemonError> {
    match item {
        WorkItem::Record(r) => {
            let next_round = task.tenant.round() + 1;
            if task.fault.wedge_at_round == Some(next_round) && task.incarnation == 0 {
                while !task.cancel.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(2));
                }
                return Ok(Step::Exit);
            }
            if task.fault.panic_at_round == Some(next_round)
                && task.incarnation < task.fault.fail_incarnations
            {
                panic!(
                    "injected worker fault: tenant round {next_round}, incarnation {}",
                    task.incarnation
                );
            }
            // Buffer the line worker-side instead of taking the sink
            // mutex per record; blocks go to the sink at tick
            // boundaries (or at the size cap on record-dense ticks).
            // The position view is published once, at the tick's end.
            task.tenant.apply_record(&r, &mut out.lines);
            out.lines.push('\n');
            if out.lines.len() >= LINE_BUFFER_FLUSH_BYTES {
                flush_lines(task, &mut out.lines)?;
            }
            task.shared.applied.fetch_add(1, Ordering::SeqCst);
            task.shared.heartbeat.fetch_add(1, Ordering::SeqCst);
        }
        WorkItem::TickEnd(t) => {
            // The router reads the view only after this tick completes.
            task.tenant.publish_positions();
            // Answers first: they never wait on the log or a snapshot.
            flush_output(task, out)?;
            // Snapshots are suppressed during recovery replay: the live
            // highwater map is ahead of the replay cursor, and pairing
            // it with a mid-replay engine state would poison a later
            // process restart.
            if live && task.queue.is_snapshot_tick(t) {
                write_snapshot(task)?;
            }
            task.queue.complete_tick(task.generation, t);
            task.shared.heartbeat.fetch_add(1, Ordering::SeqCst);
        }
        WorkItem::Query(q) => {
            out.asked.push(Instant::now());
            answer_query(&task.tenant, q, &mut out.answers);
            task.shared.heartbeat.fetch_add(1, Ordering::SeqCst);
        }
        WorkItem::Shutdown => {
            flush_output(task, out)?;
            write_snapshot(task)?;
            return Ok(Step::Exit);
        }
    }
    Ok(Step::Continue)
}

fn run_worker(mut task: WorkerTask) -> Result<(), DaemonError> {
    let mut out = TickOutput::default();
    let recovery = std::mem::take(&mut task.recovery);
    for item in recovery {
        if let Step::Exit = process_item(&mut task, item, false, &mut out)? {
            return Ok(());
        }
    }
    loop {
        let Some(item) = task.queue.pop(task.generation) else {
            // Queue closed (or this incarnation superseded) without a
            // Shutdown item reaching us: write what we have and flush
            // the sink to disk — nothing later will. A superseded
            // incarnation's block and flush are epoch-dropped; its
            // answers are not, as no replacement re-answers them.
            flush_output(&task, &mut out)?;
            return Ok(());
        };
        if let Step::Exit = process_item(&mut task, item, true, &mut out)? {
            return Ok(());
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn spawn_incarnation(
    cfg: &DaemonConfig,
    id: usize,
    tenant: Tenant,
    queue: Arc<SharedQueue>,
    shared: Arc<SlotShared>,
    sink: Arc<Mutex<LogSink>>,
    epoch: u64,
    cancel: Arc<AtomicBool>,
    incarnation: u64,
    generation: u64,
    recovery: Vec<WorkItem>,
) -> JoinHandle<Result<(), DaemonError>> {
    let task = WorkerTask {
        incarnation,
        generation,
        tenant,
        queue,
        shared,
        sink,
        epoch,
        cancel,
        state_path: tenant_state_path(&cfg.state_dir, id),
        fault: cfg.fault_for(id),
        recovery,
        backoff_seed: cfg.master_seed ^ (id as u64) ^ (incarnation << 32),
    };
    std::thread::Builder::new()
        .name(format!("tibfit-tenant-{id}"))
        .spawn(move || run_worker(task))
        .expect("spawning a tenant worker thread")
}

/// Rebuilds a tenant for a replacement incarnation: last snapshot if
/// one exists, otherwise fresh from the scenario (the recovery buffer
/// then replays everything admitted since that base).
fn rebuild_tenant(cfg: &DaemonConfig, id: usize) -> Result<(Tenant, u64), DaemonError> {
    let scenario = (cfg.scenario)(tenant_seed(cfg.master_seed, id));
    let path = tenant_state_path(&cfg.state_dir, id);
    match read_tenant_state(&path)? {
        Some(state) => {
            if state.seed != scenario.seed {
                return Err(DaemonError::State(format!(
                    "tenant {id} state file has seed {} but the configuration expects {}",
                    state.seed, scenario.seed
                )));
            }
            let tenant = Tenant::from_blob(id, scenario, state.kind, cfg.threads, &state.blob)?;
            let round = state.round;
            Ok((tenant, round))
        }
        None => {
            let tenant = Tenant::new(id, scenario, EngineKind::Sequential, cfg.threads)?;
            Ok((tenant, 0))
        }
    }
}

/// Cuts tenant `id`'s decision log back to its snapshot `round` (see
/// [`truncate_decision_log`]) and checks that the log reaches it. A
/// log whose last kept line is below the snapshot round has lost
/// lines the engine state already counts: resuming would append after
/// a permanent gap, so the tenant fails with a typed error instead.
///
/// # Errors
///
/// [`DaemonError::Io`] from the cut, [`DaemonError::State`] naming both
/// rounds when the log ends short of the snapshot.
fn cut_log_to_snapshot(log: &Path, id: usize, round: u64) -> Result<(), DaemonError> {
    let kept = truncate_decision_log(log, round)?;
    if kept < round {
        return Err(DaemonError::State(format!(
            "tenant {id} decision log {} ends at round {kept} but its snapshot is at round \
             {round}: resuming would leave rounds {}..={round} missing",
            log.display(),
            kept + 1
        )));
    }
    Ok(())
}

/// Records `msg` as the slot's last error unless a newer source has
/// already recorded one. Sources rank by incarnation; a respawn attempt
/// ranks as the incarnation it tried to start. So a retired worker
/// that finishes unwinding late never overwrites the typed error of a
/// respawn that failed after it was retired.
fn record_error(slot: &mut SlotCore, incarnation: u64, msg: String) {
    if slot.last_error.as_ref().is_none_or(|(at, _)| incarnation >= *at) {
        slot.last_error = Some((incarnation, msg));
    }
}

/// Records how worker `incarnation` ended.
fn record_exit(
    slot: &mut SlotCore,
    incarnation: u64,
    outcome: std::thread::Result<Result<(), DaemonError>>,
) {
    match outcome {
        Ok(Ok(())) => {}
        Ok(Err(e)) => record_error(slot, incarnation, e.to_string()),
        Err(_) => record_error(slot, incarnation, "worker panicked".into()),
    }
}

/// Cancels the slot's current worker and retires its handle, then
/// harvests every retired incarnation that has finished. An unfinished
/// one stays retired until a later harvest: a worker that panicked may
/// still be unwinding when the watchdog replaces it, and its panic must
/// not be lost.
fn retire_worker(slot: &mut SlotCore) {
    slot.cancel.store(true, Ordering::SeqCst);
    let incarnation = slot.incarnation;
    slot.retired
        .extend(slot.handle.take().map(|h| (incarnation, h)));
    harvest_retired(slot, false);
}

/// Joins retired incarnations and records their outcomes: the finished
/// ones only, or (`wait`) all of them. Waiting is safe because every
/// retired worker is canceled and fenced out of its queue, so it can
/// only exit.
fn harvest_retired(slot: &mut SlotCore, wait: bool) {
    let mut i = 0;
    while i < slot.retired.len() {
        if wait || slot.retired[i].1.is_finished() {
            let (incarnation, handle) = slot.retired.remove(i);
            record_exit(slot, incarnation, handle.join());
        } else {
            i += 1;
        }
    }
}

/// Replaces a slot's worker: supersede the log epoch, rebuild the
/// tenant from its last snapshot, truncate the log to match, replay
/// the recovery buffer. On failure the tenant is quarantined instead.
fn respawn_slot(cfg: &DaemonConfig, slot: &mut SlotCore, probation_until: u64) {
    // A wedged (unfinished) worker is retired, not joined: its epoch is
    // superseded below and its cancel flag set, so it can only exit.
    retire_worker(slot);
    let outcome: Result<(), DaemonError> = (|| {
        // Fence FIRST: bumping the queue generation stops a
        // still-running old incarnation (a wedge, or a watchdog false
        // positive under CPU starvation) from consuming items,
        // acknowledging ticks, or committing a snapshot after this
        // point. Only then is it safe to read the state file and
        // truncate the log — nothing can move them anymore.
        let (generation, recovery) = slot.queue.recovery_view();
        // Epoch-supersede the sink before truncating: a woken old
        // worker exits through its flush path, and its block must be
        // rejected rather than appended to a log we are about to (or
        // just did) truncate.
        lock_sink(&slot.sink).supersede();
        let (mut tenant, round) = rebuild_tenant(cfg, slot.id)?;
        cut_log_to_snapshot(&decision_log_path(&cfg.decisions_dir, slot.id), slot.id, round)?;
        let epoch = lock_sink(&slot.sink).reopen()?;
        tenant.set_positions(Arc::clone(&slot.positions));
        slot.cancel = Arc::new(AtomicBool::new(false));
        slot.incarnation += 1;
        slot.handle = Some(spawn_incarnation(
            cfg,
            slot.id,
            tenant,
            Arc::clone(&slot.queue),
            Arc::clone(&slot.shared),
            Arc::clone(&slot.sink),
            epoch,
            Arc::clone(&slot.cancel),
            slot.incarnation,
            generation,
            recovery,
        ));
        Ok(())
    })();
    match outcome {
        Ok(()) => {
            slot.health = Health::Probation {
                until_check: probation_until,
            };
            slot.shared.health.store(HEALTH_PROBATION, Ordering::SeqCst);
            slot.misses = 0;
            slot.last_heartbeat = slot.shared.heartbeat.load(Ordering::SeqCst);
        }
        Err(e) => {
            let attempted = slot.incarnation + 1;
            record_error(slot, attempted, e.to_string());
            slot.health = Health::Quarantined {
                until_check: probation_until,
            };
            slot.shared.health.store(HEALTH_QUARANTINED, Ordering::SeqCst);
            slot.queue.abandon_tick();
        }
    }
}

fn watchdog_check(cfg: &DaemonConfig, slot: &mut SlotCore, check_no: u64) -> f64 {
    let policy = cfg.watchdog;
    match slot.health {
        Health::Quarantined { until_check } => {
            if check_no >= until_check {
                slot.restarts += 1;
                respawn_slot(cfg, slot, check_no + policy.probation_checks);
            }
            return 0.0;
        }
        Health::Probation { until_check } => {
            if check_no >= until_check {
                slot.health = Health::Active;
                slot.shared.health.store(HEALTH_ACTIVE, Ordering::SeqCst);
            }
        }
        Health::Active => {}
    }

    let finished = slot.handle.as_ref().is_none_or(JoinHandle::is_finished);
    let heartbeat = slot.shared.heartbeat.load(Ordering::SeqCst);
    let advanced = heartbeat != slot.last_heartbeat;
    slot.last_heartbeat = heartbeat;
    let outstanding = slot.queue.has_outstanding();

    if finished {
        // A worker only returns cleanly at shutdown, and the watchdog
        // is stopped before shutdown begins: a finished thread here
        // died (panic or error).
        slot.misses = policy.misses_to_suspect();
    } else if advanced || !outstanding {
        slot.misses = slot.misses.saturating_sub(1);
    } else {
        slot.misses += 1;
    }

    let trust = (-policy.lambda * f64::from(slot.misses)).exp();
    if trust < policy.trust_floor || finished {
        slot.restart_checks.push_back(check_no);
        while slot
            .restart_checks
            .front()
            .is_some_and(|&c| c + policy.crash_loop_window < check_no)
        {
            slot.restart_checks.pop_front();
        }
        slot.restarts += 1;
        if slot.restart_checks.len() > policy.crash_loop_limit {
            retire_worker(slot);
            slot.health = Health::Quarantined {
                until_check: check_no + policy.probation_checks,
            };
            slot.shared.health.store(HEALTH_QUARANTINED, Ordering::SeqCst);
            slot.queue.abandon_tick();
            return 0.0;
        }
        respawn_slot(cfg, slot, check_no + policy.probation_checks);
        // Report the trust observed at detection time — respawn resets
        // the miss counter, but this check still saw a failed worker.
        return trust;
    }
    trust
}

fn watchdog_loop(cfg: Arc<DaemonConfig>, sup: Arc<SupervisorShared>) {
    let interval = Duration::from_millis(cfg.watchdog.check_interval_ms.max(1));
    let mut check_no = 0u64;
    while !sup.stop.load(Ordering::SeqCst) {
        std::thread::sleep(interval);
        check_no += 1;
        let mut slots = lock_slots(&sup);
        let mut sum = 0.0;
        let n = slots.len().max(1);
        for slot in slots.iter_mut() {
            sum += watchdog_check(&cfg, slot, check_no);
        }
        drop(slots);
        let impact = sum / n as f64;
        let prev = f64::from_bits(sup.min_impact_bits.load(Ordering::SeqCst));
        if impact < prev {
            sup.min_impact_bits
                .store(impact.to_bits(), Ordering::SeqCst);
        }
    }
}

/// Router-side view of one tenant (no supervisor lock on the hot path).
struct RouterSlot {
    queue: Arc<SharedQueue>,
    positions: Arc<PositionView>,
    shared: Arc<SlotShared>,
    /// Per-tenant tick counter. Tenants join the daemon at different
    /// global ticks (adoption, migration), so each slot numbers its own
    /// ticks — the numbering every tenant's recovery replay and
    /// decision log is keyed to.
    ticks: Arc<AtomicU64>,
}

/// The live tenant routing table, shared with the fleet threads so
/// adoption and migration can add or remove tenants while the router
/// is streaming.
type RouterMap = Arc<RwLock<BTreeMap<usize, RouterSlot>>>;

fn read_router(router: &RouterMap) -> std::sync::RwLockReadGuard<'_, BTreeMap<usize, RouterSlot>> {
    router.read().unwrap_or_else(PoisonError::into_inner)
}

fn write_router(
    router: &RouterMap,
) -> std::sync::RwLockWriteGuard<'_, BTreeMap<usize, RouterSlot>> {
    router.write().unwrap_or_else(PoisonError::into_inner)
}

/// Queue seeding for a slot built from a migration bundle: the live
/// highwaters/stats (ahead of the snapshot's), the recovery buffer to
/// replay, and how many renumbered ticks that buffer completes.
struct BundleSeed {
    live_highwater: Vec<(u64, u64)>,
    live_stats: QueueStats,
    recovery: Vec<WorkItem>,
    replay_ticks: u64,
}

/// Builds one tenant slot from the state directory: resume from the
/// tenant's snapshot if present (fresh otherwise), truncate its
/// decision log to the snapshot round, and spawn its worker. The shared
/// build path for startup, fleet adoption, and migration install.
fn build_slot(
    cfg: &DaemonConfig,
    id: usize,
    seed: Option<BundleSeed>,
) -> Result<(SlotCore, RouterSlot), DaemonError> {
    let scenario = (cfg.scenario)(tenant_seed(cfg.master_seed, id));
    let path = tenant_state_path(&cfg.state_dir, id);
    let queue = Arc::new(SharedQueue::with_snapshot_every(
        cfg.queue,
        cfg.snapshot_every,
    ));
    let (tenant, round) = match read_tenant_state(&path)? {
        Some(state) => {
            if state.seed != scenario.seed {
                return Err(DaemonError::State(format!(
                    "tenant {id} state file has seed {} but the configuration expects {}",
                    state.seed, scenario.seed
                )));
            }
            let tenant = Tenant::from_blob(id, scenario, state.kind, cfg.threads, &state.blob)?;
            queue.seed_highwater(state.highwater.iter().copied());
            queue.seed_stats(state.stats);
            (tenant, state.round)
        }
        None => (Tenant::new(id, scenario, EngineKind::Sequential, cfg.threads)?, 0),
    };
    let mut recovery = Vec::new();
    let mut initial_ticks = 0u64;
    if let Some(seed) = seed {
        queue.seed_highwater(seed.live_highwater);
        queue.seed_stats(seed.live_stats);
        // The replay completes ticks 1..=replay_ticks; marking them
        // issued makes the next end_tick wait for the replay to settle.
        queue.seed_ticks(seed.replay_ticks);
        recovery = seed.recovery;
        initial_ticks = seed.replay_ticks;
    }
    let log_path = decision_log_path(&cfg.decisions_dir, id);
    cut_log_to_snapshot(&log_path, id, round)?;
    let sink = Arc::new(Mutex::new(LogSink::new(log_path)));
    let epoch = lock_sink(&sink).reopen()?;
    let positions = tenant.positions();
    let shared = Arc::new(SlotShared {
        heartbeat: AtomicU64::new(0),
        applied: AtomicU64::new(0),
        shed_quarantine: AtomicU64::new(0),
        health: AtomicU8::new(HEALTH_ACTIVE),
        query_latency: latency::Histogram::new(),
    });
    let cancel = Arc::new(AtomicBool::new(false));
    let handle = spawn_incarnation(
        cfg,
        id,
        tenant,
        Arc::clone(&queue),
        Arc::clone(&shared),
        Arc::clone(&sink),
        epoch,
        Arc::clone(&cancel),
        0,
        0,
        recovery,
    );
    let route = RouterSlot {
        queue: Arc::clone(&queue),
        positions: Arc::clone(&positions),
        shared: Arc::clone(&shared),
        ticks: Arc::new(AtomicU64::new(initial_ticks)),
    };
    let core = SlotCore {
        id,
        queue,
        shared,
        sink,
        positions,
        cancel,
        handle: Some(handle),
        retired: Vec::new(),
        health: Health::Active,
        misses: 0,
        last_heartbeat: 0,
        incarnation: 0,
        restarts: 0,
        restart_checks: VecDeque::new(),
        last_error: None,
    };
    Ok((core, route))
}

/// The daemon: build with [`Daemon::new`] (which resumes from any
/// existing state directory), then feed it a frame stream with
/// [`Daemon::run`].
pub struct Daemon {
    cfg: Arc<DaemonConfig>,
    sup: Arc<SupervisorShared>,
    router: RouterMap,
    watchdog: Option<JoinHandle<()>>,
    fleet: Option<FleetRuntime>,
    ticks: u64,
}

impl Daemon {
    /// Builds (or resumes) every hosted tenant and starts workers + the
    /// watchdog. In fleet mode only the tenants rendezvous placement
    /// assigns this member are built, and the fleet port + peer monitor
    /// are started.
    ///
    /// # Errors
    ///
    /// Configuration validation, state-file corruption or seed
    /// mismatch, engine construction failure, or I/O errors creating
    /// the state directories or binding the fleet port.
    pub fn new(cfg: DaemonConfig) -> Result<Self, DaemonError> {
        cfg.validated()?;
        std::fs::create_dir_all(&cfg.state_dir).map_err(DaemonError::Io)?;
        std::fs::create_dir_all(&cfg.decisions_dir).map_err(DaemonError::Io)?;
        let cfg = Arc::new(cfg);
        let owned: Vec<usize> = match &cfg.fleet {
            Some(fleet) => {
                let roster = fleet.roster();
                (0..cfg.tenants)
                    .filter(|&t| owner_of(fleet.seed, t, &roster) == Some(fleet.id))
                    .collect()
            }
            None => (0..cfg.tenants).collect(),
        };
        let mut slots = Vec::with_capacity(owned.len());
        let mut router = BTreeMap::new();
        for id in owned {
            let (core, route) = build_slot(&cfg, id, None)?;
            router.insert(id, route);
            slots.push(core);
        }
        let sup = Arc::new(SupervisorShared {
            slots: Mutex::new(slots),
            stop: AtomicBool::new(false),
            min_impact_bits: AtomicU64::new(1.0f64.to_bits()),
        });
        let router: RouterMap = Arc::new(RwLock::new(router));
        let watchdog = std::thread::Builder::new()
            .name("tibfit-watchdog".into())
            .spawn({
                let cfg = Arc::clone(&cfg);
                let sup = Arc::clone(&sup);
                move || watchdog_loop(cfg, sup)
            })
            .expect("spawning the watchdog thread");
        let fleet = match &cfg.fleet {
            Some(_) => Some(start_fleet(
                Arc::clone(&cfg),
                Arc::clone(&sup),
                Arc::clone(&router),
            )?),
            None => None,
        };
        Ok(Daemon {
            cfg,
            sup,
            router,
            watchdog: Some(watchdog),
            fleet,
            ticks: 0,
        })
    }

    /// The fleet port this daemon is serving on, if fleet mode is on
    /// (port 0 in the configuration resolves here).
    #[must_use]
    pub fn fleet_addr(&self) -> Option<std::net::SocketAddr> {
        self.fleet.as_ref().map(|f| f.local_addr)
    }

    /// Merged p99 query-answer latency across every tenant slot, in
    /// microseconds. Zero until the first query is answered.
    #[must_use]
    pub fn query_latency_p99_us(&self) -> f64 {
        let merged = latency::Histogram::new();
        for slot in read_router(&self.router).values() {
            merged.merge_from(&slot.shared.query_latency);
        }
        #[allow(clippy::cast_precision_loss)]
        let ns = merged.percentile(99.0) as f64;
        ns / 1_000.0
    }

    fn close_tick(&mut self) {
        self.ticks += 1;
        for slot in read_router(&self.router).values() {
            if slot.shared.health.load(Ordering::SeqCst) == HEALTH_QUARANTINED {
                continue;
            }
            // Per-slot numbering: an adopted or migrated-in tenant
            // joined mid-run and counts its own ticks.
            let tick = slot.ticks.fetch_add(1, Ordering::SeqCst) + 1;
            let positions = Arc::clone(&slot.positions);
            slot.queue
                .end_tick(tick, move |r| positions.impact_of(r.x, r.y));
        }
    }

    /// Streams newline-framed input until end-of-stream, a shutdown
    /// signal, or the configured drain point; then drains every tenant
    /// (final snapshot included) and reports.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Io`] on input failure; worker errors surface in
    /// the report, not here (the daemon outlives its workers). Call
    /// once: the run ends with a full drain and worker shutdown.
    pub fn run(&mut self, input: impl BufRead) -> Result<DaemonReport, DaemonError> {
        let mut rejected = 0u64;
        let mut rejected_by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut drained_early = false;
        let mut input = input;
        let mut raw = Vec::new();
        loop {
            if shutdown::requested() {
                drained_early = true;
                break;
            }
            raw.clear();
            let n = input.read_until(b'\n', &mut raw).map_err(DaemonError::Io)?;
            if n == 0 {
                break;
            }
            let parsed = match std::str::from_utf8(&raw) {
                Ok(text) => parse_line(text.trim_end_matches('\n')),
                Err(_) => Err(IngestError::NotUtf8),
            };
            match parsed {
                Ok(None) => {}
                Ok(Some(Frame::Report(r))) => self.route_report(r, &mut rejected, &mut rejected_by_kind),
                Ok(Some(Frame::Query(q))) => self.route_query(q, &mut rejected, &mut rejected_by_kind),
                Ok(Some(Frame::Tick)) => {
                    self.close_tick();
                    if self.cfg.crash_plan.fires_after(self.ticks) {
                        self.cfg.crash_plan.execute();
                    }
                    if self
                        .cfg
                        .drain_after_ticks
                        .is_some_and(|d| self.ticks >= d)
                    {
                        drained_early = true;
                        break;
                    }
                }
                Err(e) => {
                    rejected += 1;
                    *rejected_by_kind.entry(e.kind()).or_insert(0) += 1;
                }
            }
        }
        if !drained_early {
            self.linger();
        }
        self.finish(rejected, rejected_by_kind, drained_early)
    }

    /// Fleet mode keeps serving the fleet port after ingest EOF: peers
    /// may still be rebalancing onto us or migrating tenants in/out.
    /// The linger window restarts on every fleet event and ends early
    /// on a shutdown signal.
    fn linger(&self) {
        let Some(fleet) = &self.fleet else {
            return;
        };
        let linger_ms = fleet.shared.fcfg.linger_ms;
        fleet.shared.touch();
        while !shutdown::requested() && fleet.shared.idle_ms() < linger_ms {
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    fn route_report(
        &self,
        r: Report,
        rejected: &mut u64,
        by_kind: &mut BTreeMap<&'static str, u64>,
    ) {
        let router = read_router(&self.router);
        let Some(slot) = router.get(&r.tenant) else {
            drop(router);
            if r.tenant < self.cfg.tenants {
                // Fleet mode: a valid tenant placed on a peer. Ignored
                // without touching any highwater — if this daemon ever
                // adopts the tenant, catch-up re-admits the record in
                // its original batch context.
                if let Some(fleet) = &self.fleet {
                    fleet.shared.foreign.fetch_add(1, Ordering::SeqCst);
                }
            } else {
                *rejected += 1;
                *by_kind.entry("unknown_tenant").or_insert(0) += 1;
            }
            return;
        };
        if slot.shared.health.load(Ordering::SeqCst) == HEALTH_QUARANTINED {
            slot.shared.shed_quarantine.fetch_add(1, Ordering::SeqCst);
            return;
        }
        slot.queue.offer(r);
    }

    fn route_query(
        &self,
        q: Query,
        rejected: &mut u64,
        by_kind: &mut BTreeMap<&'static str, u64>,
    ) {
        let id = match q {
            Query::Status => {
                // Spans every tenant and the peer roster: answered here,
                // immediately, not at a tick boundary.
                for line in self.status_lines() {
                    println!("{line}");
                }
                return;
            }
            Query::Trust { tenant, .. } | Query::Round { tenant } => tenant,
        };
        let router = read_router(&self.router);
        let Some(slot) = router.get(&id) else {
            drop(router);
            if id >= self.cfg.tenants {
                *rejected += 1;
                *by_kind.entry("unknown_tenant").or_insert(0) += 1;
            }
            return;
        };
        if slot.shared.health.load(Ordering::SeqCst) == HEALTH_QUARANTINED {
            return;
        }
        slot.queue.offer_query(q);
    }

    /// The `Q status` answer: self id, per-peer state + trust, and the
    /// current tenant placement as this daemon computes it.
    fn status_lines(&self) -> Vec<String> {
        match &self.fleet {
            Some(fleet) => status_dump("A status", &self.cfg, &fleet.shared, &self.router),
            None => {
                let mut out = vec!["A status self -".to_string()];
                for id in read_router(&self.router).keys() {
                    out.push(format!("A status tenant {id} self"));
                }
                out.push("A status end".to_string());
                out
            }
        }
    }

    fn finish(
        &mut self,
        rejected: u64,
        rejected_by_kind: BTreeMap<&'static str, u64>,
        drained_early: bool,
    ) -> Result<DaemonReport, DaemonError> {
        // Stop the fleet threads first: the monitor may be mid-adoption
        // and the listener mid-install; both finish their current
        // operation before exiting, so the slot set is stable below.
        let fleet_summary = self.fleet.take().map(FleetRuntime::stop);
        // A final tick flushes any open batch and pending queries.
        self.close_tick();
        // Pipelined ticks let a worker trail its router by up to one
        // snapshot window. Wait, with the watchdog still running, until
        // every live worker has applied all it was issued: a worker
        // that panics or wedges in that window is respawned and replays
        // it, as anywhere mid-stream. A quarantined tenant has no
        // worker to wait for.
        for slot in read_router(&self.router).values() {
            while slot.shared.health.load(Ordering::SeqCst) != HEALTH_QUARANTINED
                && !slot.queue.wait_settled(Duration::from_millis(5))
            {}
        }
        // Stop the watchdog before closing queues so it cannot
        // misread a cleanly exiting worker as a crash.
        self.sup.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.watchdog.take() {
            let _ = h.join();
        }
        let mut slots = lock_slots(&self.sup);
        for slot in slots.iter() {
            slot.queue.close();
        }
        let mut tenants = Vec::with_capacity(slots.len());
        for slot in slots.iter_mut() {
            let quarantined = matches!(slot.health, Health::Quarantined { .. });
            if quarantined {
                // No worker is listening on a quarantined queue; the
                // handle (if any) is already dead or canceled.
                retire_worker(slot);
            } else if let Some(handle) = slot.handle.take() {
                let incarnation = slot.incarnation;
                record_exit(slot, incarnation, handle.join());
            }
            // A panic that was still unwinding when its worker was
            // replaced reaches the report, unless a newer incarnation or
            // respawn attempt recorded an error since.
            harvest_retired(slot, true);
            tenants.push(TenantSummary {
                id: slot.id,
                applied: slot.shared.applied.load(Ordering::SeqCst),
                stats: slot.queue.stats(),
                shed_quarantine: slot.shared.shed_quarantine.load(Ordering::SeqCst),
                restarts: slot.restarts,
                quarantined,
                last_error: slot.last_error.as_ref().map(|(_, e)| e.clone()),
            });
        }
        drop(slots);
        // Adopted slots were appended as they arrived; report in id
        // order regardless.
        tenants.sort_by_key(|t| t.id);
        Ok(DaemonReport {
            ticks: self.ticks,
            rejected,
            rejected_by_kind: rejected_by_kind
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            tenants,
            drained_early,
            min_impact_trust: f64::from_bits(self.sup.min_impact_bits.load(Ordering::SeqCst)),
            fleet: fleet_summary,
        })
    }

    /// The shed-key log of one tenant (tests; requires
    /// [`QueuePolicy::record_shed`]).
    #[must_use]
    pub fn shed_log_of(&self, tenant: usize) -> Vec<(u64, u64, u64)> {
        read_router(&self.router)
            .get(&tenant)
            .map(|s| s.queue.shed_log())
            .unwrap_or_default()
    }
}

/// State shared between the router, the fleet listener, and the peer
/// monitor.
struct FleetShared {
    fcfg: FleetConfig,
    peers: Mutex<Vec<PeerView>>,
    /// Serializes adopt/install/migrate so two administrative paths
    /// cannot race on the same tenant.
    admin: Mutex<()>,
    rebalances: AtomicU64,
    migrations_in: AtomicU64,
    migrations_out: AtomicU64,
    migrate_failed: AtomicU64,
    foreign: AtomicU64,
    adopted: Mutex<Vec<usize>>,
    start: Instant,
    last_activity_ms: AtomicU64,
    stop: AtomicBool,
}

impl FleetShared {
    fn elapsed_ms(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// Restarts the linger window (any fleet event counts as activity).
    fn touch(&self) {
        self.last_activity_ms
            .store(self.elapsed_ms(), Ordering::SeqCst);
    }

    fn idle_ms(&self) -> u64 {
        self.elapsed_ms()
            .saturating_sub(self.last_activity_ms.load(Ordering::SeqCst))
    }

    fn lock_peers(&self) -> MutexGuard<'_, Vec<PeerView>> {
        self.peers.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Alive member ids (self + peers counting as alive), sorted — the
/// roster placement is computed over.
fn alive_ids(fs: &FleetShared, peers: &[PeerView]) -> Vec<usize> {
    let mut ids: Vec<usize> = peers
        .iter()
        .filter(|p| p.is_alive())
        .map(|p| p.spec.id)
        .collect();
    ids.push(fs.fcfg.id);
    ids.sort_unstable();
    ids
}

/// Everything [`Daemon`] needs to shut fleet mode down and report.
struct FleetRuntime {
    shared: Arc<FleetShared>,
    local_addr: std::net::SocketAddr,
    monitor: Option<JoinHandle<()>>,
    listener: Option<JoinHandle<()>>,
}

impl FleetRuntime {
    fn stop(mut self) -> FleetSummary {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.monitor.take() {
            let _ = h.join();
        }
        if let Some(h) = self.listener.take() {
            let _ = h.join();
        }
        let policy = self.shared.fcfg.policy;
        let peer_trust = self
            .shared
            .lock_peers()
            .iter()
            .map(|p| (p.spec.id, p.trust(&policy)))
            .collect();
        let adopted = self
            .shared
            .adopted
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        FleetSummary {
            id: self.shared.fcfg.id,
            adopted,
            rebalances: self.shared.rebalances.load(Ordering::SeqCst),
            migrations_in: self.shared.migrations_in.load(Ordering::SeqCst),
            migrations_out: self.shared.migrations_out.load(Ordering::SeqCst),
            migrate_failed: self.shared.migrate_failed.load(Ordering::SeqCst),
            foreign: self.shared.foreign.load(Ordering::SeqCst),
            peer_trust,
        }
    }
}

/// Shared handles the fleet threads operate on.
#[derive(Clone)]
struct FleetCtx {
    cfg: Arc<DaemonConfig>,
    sup: Arc<SupervisorShared>,
    router: RouterMap,
    fs: Arc<FleetShared>,
}

fn start_fleet(
    cfg: Arc<DaemonConfig>,
    sup: Arc<SupervisorShared>,
    router: RouterMap,
) -> Result<FleetRuntime, DaemonError> {
    let fcfg = cfg.fleet.clone().expect("start_fleet requires a fleet config");
    let listener = TcpListener::bind(&fcfg.listen).map_err(DaemonError::Io)?;
    listener.set_nonblocking(true).map_err(DaemonError::Io)?;
    let local_addr = listener.local_addr().map_err(DaemonError::Io)?;
    let peers: Vec<PeerView> = fcfg.peers.iter().cloned().map(PeerView::new).collect();
    let fs = Arc::new(FleetShared {
        fcfg,
        peers: Mutex::new(peers),
        admin: Mutex::new(()),
        rebalances: AtomicU64::new(0),
        migrations_in: AtomicU64::new(0),
        migrations_out: AtomicU64::new(0),
        migrate_failed: AtomicU64::new(0),
        foreign: AtomicU64::new(0),
        adopted: Mutex::new(Vec::new()),
        start: Instant::now(),
        last_activity_ms: AtomicU64::new(0),
        stop: AtomicBool::new(false),
    });
    let ctx = FleetCtx {
        cfg,
        sup,
        router,
        fs: Arc::clone(&fs),
    };
    let listener_handle = std::thread::Builder::new()
        .name("tibfit-fleet-listen".into())
        .spawn({
            let ctx = ctx.clone();
            move || listener_loop(&ctx, &listener)
        })
        .expect("spawning the fleet listener thread");
    let monitor_handle = std::thread::Builder::new()
        .name("tibfit-fleet-monitor".into())
        .spawn(move || monitor_loop(&ctx))
        .expect("spawning the fleet monitor thread");
    Ok(FleetRuntime {
        shared: fs,
        local_addr,
        monitor: Some(monitor_handle),
        listener: Some(listener_handle),
    })
}

/// One probe round trip: `FPING <self>` → expect any `FPONG`.
fn probe_peer(addr: &str, self_id: usize, timeout: Duration) -> bool {
    let Ok(mut addrs) = addr.to_socket_addrs() else {
        return false;
    };
    let Some(sock) = addrs.next() else {
        return false;
    };
    let Ok(stream) = TcpStream::connect_timeout(&sock, timeout) else {
        return false;
    };
    if stream.set_read_timeout(Some(timeout)).is_err()
        || stream.set_write_timeout(Some(timeout)).is_err()
    {
        return false;
    }
    let mut w = &stream;
    if writeln!(w, "FPING {self_id}").is_err() || w.flush().is_err() {
        return false;
    }
    let mut line = String::new();
    if BufReader::new(&stream).read_line(&mut line).unwrap_or(0) == 0 {
        return false;
    }
    matches!(parse_fleet_line(&line), Ok(Some(FleetMsg::Pong { .. })))
}

/// A peer contacted *us* — as good as a probe success for its health
/// view (and it ends its boot grace).
fn mark_peer_alive(ctx: &FleetCtx, id: usize) {
    let policy = ctx.fs.fcfg.policy;
    let mut peers = ctx.fs.lock_peers();
    if let Some(view) = peers.iter_mut().find(|p| p.spec.id == id) {
        let _ = view.on_success(&policy);
    }
}

/// Probes every peer on the policy cadence; a peer whose trust crosses
/// the floor (confirmed by one slower re-probe) triggers deterministic
/// rebalancing of its tenants onto the survivors.
fn monitor_loop(ctx: &FleetCtx) {
    let policy = ctx.fs.fcfg.policy;
    let interval = Duration::from_millis(policy.check_interval_ms.max(1));
    let timeout = Duration::from_millis(policy.probe_timeout_ms.max(1));
    let self_id = ctx.fs.fcfg.id;
    while !ctx.fs.stop.load(Ordering::SeqCst) && !ctx.sup.stop.load(Ordering::SeqCst) {
        std::thread::sleep(interval);
        let in_grace = ctx.fs.elapsed_ms() < policy.grace_ms;
        let specs: Vec<(usize, String)> = ctx
            .fs
            .lock_peers()
            .iter()
            .map(|p| (p.spec.id, p.spec.addr.clone()))
            .collect();
        let mut rebalance_needed = false;
        for (id, addr) in specs {
            if ctx.fs.stop.load(Ordering::SeqCst) {
                return;
            }
            let ok = probe_peer(&addr, self_id, timeout);
            let newly_dead = {
                let mut peers = ctx.fs.lock_peers();
                let Some(view) = peers.iter_mut().find(|p| p.spec.id == id) else {
                    continue;
                };
                if ok {
                    let _ = view.on_success(&policy);
                    false
                } else {
                    view.on_miss(&policy, in_grace)
                }
            };
            if newly_dead {
                // Double-check with a slower probe before declaring a
                // peer dead: a single stall must not split ownership.
                if probe_peer(&addr, self_id, timeout * 2) {
                    let mut peers = ctx.fs.lock_peers();
                    if let Some(view) = peers.iter_mut().find(|p| p.spec.id == id) {
                        let _ = view.on_success(&policy);
                    }
                } else {
                    rebalance_needed = true;
                }
            }
        }
        if rebalance_needed {
            rebalance(ctx);
        }
    }
}

/// Adopts every tenant the reduced alive roster now places on this
/// daemon and that it does not already host.
fn rebalance(ctx: &FleetCtx) {
    let alive = {
        let peers = ctx.fs.lock_peers();
        alive_ids(&ctx.fs, &peers)
    };
    let seed = ctx.fs.fcfg.seed;
    let self_id = ctx.fs.fcfg.id;
    for tenant in 0..ctx.cfg.tenants {
        if owner_of(seed, tenant, &alive) != Some(self_id) {
            continue;
        }
        if read_router(&ctx.router).contains_key(&tenant) {
            continue;
        }
        if let Err(e) = adopt_tenant(ctx, tenant) {
            eprintln!("tibfit-daemon: fleet {self_id}: adopting tenant {tenant} failed: {e}");
        }
    }
}

/// Takes over a dead peer's tenant: resume from its shared state file
/// exactly as crash-restart does, then catch up to the head of the
/// stream by re-streaming the catch-up replay file through this slot
/// (dedup regenerates the decision-log suffix byte-identically). The
/// slot only becomes routable after catch-up, so the live router never
/// interleaves ticks with it.
fn adopt_tenant(ctx: &FleetCtx, tenant: usize) -> Result<(), DaemonError> {
    let _admin = ctx.fs.admin.lock().unwrap_or_else(PoisonError::into_inner);
    if read_router(&ctx.router).contains_key(&tenant) {
        return Ok(());
    }
    let (core, route) = build_slot(&ctx.cfg, tenant, None)?;
    let mut ticks = 0u64;
    if let Some(path) = &ctx.fs.fcfg.catchup_replay {
        let file = File::open(path).map_err(DaemonError::Io)?;
        let mut reader = BufReader::new(file);
        let mut raw = Vec::new();
        loop {
            raw.clear();
            if reader.read_until(b'\n', &mut raw).map_err(DaemonError::Io)? == 0 {
                break;
            }
            let Ok(text) = std::str::from_utf8(&raw) else {
                continue;
            };
            match parse_line(text.trim_end_matches('\n')) {
                Ok(Some(Frame::Report(r))) if r.tenant == tenant => {
                    route.queue.offer(r);
                }
                Ok(Some(Frame::Tick)) => {
                    ticks += 1;
                    let positions = Arc::clone(&route.positions);
                    route
                        .queue
                        .end_tick(ticks, move |r| positions.impact_of(r.x, r.y));
                }
                _ => {}
            }
        }
    }
    route.ticks.store(ticks, Ordering::SeqCst);
    write_router(&ctx.router).insert(tenant, route);
    lock_slots(&ctx.sup).push(core);
    ctx.fs.rebalances.fetch_add(1, Ordering::SeqCst);
    ctx.fs
        .adopted
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(tenant);
    ctx.fs.touch();
    Ok(())
}

/// Installs a pushed migration bundle: validate, persist the embedded
/// state file, rebuild the tenant from it, seed the live highwaters,
/// replay the renumbered recovery buffer, re-offer the pending
/// records, and only then make the tenant routable. Fail-closed: any
/// error installs nothing.
fn install_bundle(ctx: &FleetCtx, bundle: MigrationBundle) -> Result<(), MigrateError> {
    let _admin = ctx.fs.admin.lock().unwrap_or_else(PoisonError::into_inner);
    let cfg = &ctx.cfg;
    let tenant = bundle.tenant;
    if tenant >= cfg.tenants {
        return Err(MigrateError::Mismatch(format!(
            "tenant {tenant} is outside this fleet's 0..{} range",
            cfg.tenants
        )));
    }
    let scenario = (cfg.scenario)(tenant_seed(cfg.master_seed, tenant));
    if bundle.seed != scenario.seed {
        return Err(MigrateError::Mismatch(format!(
            "bundle seed {} does not match the configured scenario seed {}",
            bundle.seed, scenario.seed
        )));
    }
    if read_router(&ctx.router).contains_key(&tenant) {
        return Err(MigrateError::Mismatch(format!(
            "tenant {tenant} is already hosted here"
        )));
    }
    let path = tenant_state_path(&cfg.state_dir, tenant);
    if bundle.state_bytes.is_empty() {
        // The source never snapshotted: the replay buffer is the whole
        // history and must rebuild from a fresh engine, so every slot
        // an earlier hosting left behind goes.
        remove_tenant_state(&path).map_err(MigrateError::Io)?;
    } else {
        let st = decode_tenant_state(&bundle.state_bytes)
            .map_err(|e| MigrateError::Mismatch(format!("embedded state: {e}")))?;
        if st.id != tenant || st.seed != scenario.seed || st.round != bundle.state_round {
            return Err(MigrateError::Mismatch(
                "embedded state disagrees with the bundle metadata".into(),
            ));
        }
        write_tenant_state(&path, &bundle.state_bytes)
            .map_err(|e| MigrateError::Mismatch(format!("state write: {e}")))?;
    }
    let replay_ticks = bundle
        .replay
        .iter()
        .filter(|i| matches!(i, WorkItem::TickEnd(_)))
        .count() as u64;
    let (core, route) = build_slot(
        cfg,
        tenant,
        Some(BundleSeed {
            live_highwater: bundle.live_highwater,
            live_stats: bundle.live_stats,
            recovery: bundle.replay,
            replay_ticks,
        }),
    )
    .map_err(|e| MigrateError::Mismatch(format!("install: {e}")))?;
    for r in bundle.pending {
        route.queue.offer(r);
    }
    write_router(&ctx.router).insert(tenant, route);
    lock_slots(&ctx.sup).push(core);
    ctx.fs.migrations_in.fetch_add(1, Ordering::SeqCst);
    ctx.fs.touch();
    Ok(())
}

fn wait_drained(queue: &SharedQueue, deadline: Duration) -> bool {
    let until = Instant::now() + deadline;
    while queue.has_outstanding() {
        if Instant::now() > until {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    true
}

/// Operator-driven live migration: quiesce the tenant, capture its
/// snapshot + live queue views + recovery buffer + pending records,
/// ship the bundle, and release the tenant only on the destination's
/// acknowledgement. Any failure re-offers the pending records,
/// respawns the worker, and keeps serving locally.
fn migrate_out(ctx: &FleetCtx, tenant: usize, dest: usize) -> Result<(), MigrateError> {
    let _admin = ctx.fs.admin.lock().unwrap_or_else(PoisonError::into_inner);
    let dest_addr = ctx
        .fs
        .fcfg
        .peers
        .iter()
        .find(|p| p.id == dest)
        .map(|p| p.addr.clone())
        .ok_or_else(|| MigrateError::Mismatch(format!("unknown destination daemon {dest}")))?;
    // Unroute first: no new records or ticks reach the tenant while it
    // is being captured.
    let Some(route) = write_router(&ctx.router).remove(&tenant) else {
        return Err(MigrateError::Mismatch(format!(
            "tenant {tenant} is not hosted here"
        )));
    };
    if !wait_drained(&route.queue, Duration::from_secs(10)) {
        write_router(&ctx.router).insert(tenant, route);
        return Err(MigrateError::Mismatch(format!(
            "tenant {tenant} did not drain in time"
        )));
    }
    // Detach the slot from the watchdog so the fenced worker below is
    // not mistaken for a crash and respawned mid-transfer.
    let core = {
        let mut slots = lock_slots(&ctx.sup);
        slots
            .iter()
            .position(|s| s.id == tenant)
            .map(|i| slots.remove(i))
    };
    let Some(mut core) = core else {
        write_router(&ctx.router).insert(tenant, route);
        return Err(MigrateError::Mismatch(format!(
            "tenant {tenant} has no supervisor slot"
        )));
    };
    // Fence the worker (it exits through its flush path) and capture
    // the stable views.
    let (_generation, replay) = core.queue.recovery_view();
    let pending = core.queue.drain_pending();
    let (live_highwater, live_stats) = core.queue.snapshot_view();
    if let Some(handle) = core.handle.take() {
        // Joining guarantees the worker's final flush hit the log file
        // before the destination truncates and regenerates it.
        let _ = handle.join();
    }
    let scenario = (ctx.cfg.scenario)(tenant_seed(ctx.cfg.master_seed, tenant));
    let state_path = tenant_state_path(&ctx.cfg.state_dir, tenant);
    let outcome = (|| -> Result<(), MigrateError> {
        // The newest valid slot's container, byte for byte as it was
        // committed.
        let (state_bytes, state_round) = match read_tenant_snapshot(&state_path) {
            Ok(Some(stored)) => (stored.bytes, stored.state.round),
            Ok(None) => (Vec::new(), 0),
            Err(DaemonError::Io(e)) => return Err(MigrateError::Io(e)),
            Err(e) => return Err(MigrateError::Mismatch(format!("state file: {e}"))),
        };
        let bundle = MigrationBundle {
            tenant,
            seed: scenario.seed,
            state_round,
            state_bytes,
            live_highwater,
            live_stats,
            replay,
            pending: pending.clone(),
        };
        push_bundle(&dest_addr, tenant, &encode_bundle(&bundle))
    })();
    match outcome {
        Ok(()) => {
            // Released: the destination owns the tenant (and its log
            // file) now. Supersede the sink so nothing stale can write.
            lock_sink(&core.sink).supersede();
            ctx.fs.migrations_out.fetch_add(1, Ordering::SeqCst);
            ctx.fs.touch();
            Ok(())
        }
        Err(e) => {
            // Keep serving locally: restore the pending records and
            // respawn the worker from snapshot + recovery buffer.
            for r in pending {
                core.queue.offer(r);
            }
            respawn_slot(&ctx.cfg, &mut core, 0);
            lock_slots(&ctx.sup).push(core);
            write_router(&ctx.router).insert(tenant, route);
            ctx.fs.migrate_failed.fetch_add(1, Ordering::SeqCst);
            ctx.fs.touch();
            Err(e)
        }
    }
}

/// Renders the status dump (fleet port `STATUS` and ingest `Q status`
/// share it, under different line prefixes).
fn status_dump(
    prefix: &str,
    cfg: &DaemonConfig,
    fs: &FleetShared,
    router: &RouterMap,
) -> Vec<String> {
    let policy = fs.fcfg.policy;
    let mut out = vec![format!("{prefix} self {}", fs.fcfg.id)];
    let alive = {
        let peers = fs.lock_peers();
        for p in peers.iter() {
            let state = match p.state {
                PeerState::Active => "active",
                PeerState::Quarantined => "quarantined",
                PeerState::Probation => "probation",
            };
            out.push(format!(
                "{prefix} peer {} {state} {:.6}",
                p.spec.id,
                p.trust(&policy)
            ));
        }
        alive_ids(fs, &peers)
    };
    let hosted = read_router(router);
    for tenant in 0..cfg.tenants {
        let owner = if hosted.contains_key(&tenant) {
            fs.fcfg.id.to_string()
        } else {
            owner_of(fs.fcfg.seed, tenant, &alive)
                .map_or_else(|| "-".to_string(), |o| o.to_string())
        };
        out.push(format!("{prefix} tenant {tenant} {owner}"));
    }
    out.push(format!("{prefix} end"));
    out
}

fn listener_loop(ctx: &FleetCtx, listener: &TcpListener) {
    // Accept latency lands on every fleet round trip (probe, STATUS,
    // and twice per MIGRATE: the command and the bundle push), so the
    // poll must stay well under the migrate-restore budget.
    const POLL: Duration = Duration::from_millis(1);
    while !ctx.fs.stop.load(Ordering::SeqCst) && !ctx.sup.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                // Connections are short-lived (one command each); a
                // thread per connection keeps probe replies prompt
                // while an install or migration is in flight.
                let ctx = ctx.clone();
                let _ = std::thread::Builder::new()
                    .name("tibfit-fleet-conn".into())
                    .spawn(move || handle_fleet_conn(&ctx, &stream));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

/// One fleet-port connection: a single command line, an optional framed
/// payload (`MPUSH`), and a single reply line.
fn handle_fleet_conn(ctx: &FleetCtx, stream: &TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut line = String::new();
    if reader.read_line(&mut line).unwrap_or(0) == 0 {
        return;
    }
    let mut w = stream;
    match parse_fleet_line(&line) {
        Ok(Some(FleetMsg::Ping { from })) => {
            mark_peer_alive(ctx, from);
            let _ = writeln!(w, "FPONG {}", ctx.fs.fcfg.id);
        }
        Ok(Some(FleetMsg::Status)) => {
            for l in status_dump("S", &ctx.cfg, &ctx.fs, &ctx.router) {
                let _ = writeln!(w, "{l}");
            }
        }
        Ok(Some(FleetMsg::Migrate { tenant, dest })) => match migrate_out(ctx, tenant, dest) {
            Ok(()) => {
                let _ = writeln!(w, "MOK {tenant}");
            }
            Err(e) => {
                let _ = writeln!(w, "MERR {e}");
            }
        },
        Ok(Some(FleetMsg::Push { tenant })) => {
            let installed = read_framed(&mut reader, MAX_BUNDLE_BYTES)
                .map_err(MigrateError::from)
                .and_then(|bytes| decode_bundle(&bytes))
                .and_then(|bundle| {
                    if bundle.tenant == tenant {
                        install_bundle(ctx, bundle)
                    } else {
                        Err(MigrateError::Mismatch(format!(
                            "MPUSH names tenant {tenant} but the bundle carries {}",
                            bundle.tenant
                        )))
                    }
                });
            match installed {
                Ok(()) => {
                    let _ = writeln!(w, "MOK {tenant}");
                }
                Err(e) => {
                    let _ = writeln!(w, "MERR {e}");
                }
            }
        }
        // Replies and noise are ignored; a reply line is never a
        // request.
        Ok(Some(FleetMsg::Pong { .. } | FleetMsg::PushOk { .. } | FleetMsg::PushErr(_)))
        | Ok(None) => {}
        Err(e) => {
            let _ = writeln!(w, "MERR {e}");
        }
    }
    let _ = w.flush();
}

impl DaemonReport {
    /// Renders the trace-counter block (`daemon.*` keys) the CLI prints
    /// on exit.
    #[must_use]
    pub fn counters(&self) -> Vec<(String, u64)> {
        let mut out = vec![
            ("daemon.ticks".to_string(), self.ticks),
            ("daemon.ingest.rejected".to_string(), self.rejected),
        ];
        for (kind, n) in &self.rejected_by_kind {
            out.push((format!("daemon.ingest.rejected.{kind}"), *n));
        }
        for t in &self.tenants {
            let p = format!("daemon.t{}", t.id);
            out.push((format!("{p}.applied"), t.applied));
            out.push((format!("{p}.offered"), t.stats.offered));
            out.push((format!("{p}.admitted"), t.stats.admitted));
            out.push((format!("{p}.shed"), t.stats.shed_total()));
            out.push((format!("{p}.shed.quarantine"), t.shed_quarantine));
            out.push((format!("{p}.duplicates"), t.stats.duplicates));
            out.push((format!("{p}.backpressure.waits"), t.stats.backpressure_waits));
            out.push((format!("{p}.restarts"), t.restarts));
            out.push((format!("{p}.quarantined"), u64::from(t.quarantined)));
        }
        if let Some(f) = &self.fleet {
            out.push(("fleet.rebalance.count".to_string(), f.rebalances));
            out.push((
                "fleet.migrations".to_string(),
                f.migrations_in + f.migrations_out,
            ));
            out.push(("fleet.migrations.in".to_string(), f.migrations_in));
            out.push(("fleet.migrations.out".to_string(), f.migrations_out));
            out.push(("fleet.migrate.failed".to_string(), f.migrate_failed));
            out.push(("fleet.foreign".to_string(), f.foreign));
            out.push(("fleet.adopted".to_string(), f.adopted.len() as u64));
            for (peer, trust) in &f.peer_trust {
                // Trust is reported in milli-units so it fits the u64
                // counter channel.
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let millis = (trust * 1000.0).round().clamp(0.0, 1000.0) as u64;
                out.push((format!("fleet.peer_trust.p{peer}"), millis));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// The query-latency histogram is fed by the workers' answers: a
    /// replay with `Q trust`/`Q round` lines yields a positive p99, and a
    /// replay without queries leaves it at zero.
    #[test]
    fn query_latency_p99_is_recorded_only_for_answered_queries() {
        use tibfit_experiments::replay::{render_replay, replay_records};
        let stream = render_replay(&replay_records(1, 7, 2, 1));
        let run = |name: &str, replay: String| {
            let dir = std::env::temp_dir()
                .join(format!("tibfit-query-p99-{name}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let mut daemon = Daemon::new(DaemonConfig::standard(1, 7, dir.clone())).unwrap();
            daemon.run(std::io::Cursor::new(replay.into_bytes())).unwrap();
            let p99 = daemon.query_latency_p99_us();
            let _ = std::fs::remove_dir_all(&dir);
            p99
        };
        assert_eq!(run("none", stream.clone()), 0.0);
        let mut queried = stream;
        for i in 0..8 {
            let _ = writeln!(queried, "Q trust 0 {i}");
        }
        queried.push_str("Q round 0\n");
        let p99 = run("some", queried);
        assert!(p99 > 0.0, "no query latencies recorded: {p99}");
    }

    /// The router's view of a mobile tenant equals the engine's node
    /// positions after every tick's drain barrier, including the first
    /// tick after a worker respawn, although the worker publishes it
    /// only at tick ends.
    #[test]
    fn the_router_view_after_each_tick_is_the_engine_positions() {
        let dir = std::env::temp_dir().join(format!("tibfit-view-ticks-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = DaemonConfig::standard(1, 11, dir.clone());
        cfg.scenario = small_scenario;
        cfg.snapshot_every = 3;
        std::fs::create_dir_all(&cfg.decisions_dir).unwrap();
        let (mut slot, route) = build_slot(&cfg, 0, None).unwrap();
        let scenario = small_scenario(tenant_seed(11, 0));
        let mut reference = scenario.sequential().unwrap();
        let engine_points = |engine: &tibfit_experiments::multicluster::MultiClusterSim| {
            let mut out = vec![(0.0, 0.0); engine.node_count()];
            engine.for_each_position(|node, p| out[node.index()] = (p.x, p.y));
            out
        };
        assert_eq!(route.positions.points(), engine_points(&reference));
        let per_tick = 3;
        let events = scenario.events(12 * per_tick);
        for tick in 1..=12u64 {
            for (k, p) in events[(tick as usize - 1) * per_tick..][..per_tick].iter().enumerate() {
                route.queue.offer(Report {
                    tenant: 0,
                    time: tick,
                    src: 0,
                    seq: (tick - 1) * per_tick as u64 + k as u64 + 1,
                    x: p.x,
                    y: p.y,
                });
                reference.run_event(*p);
            }
            let positions = Arc::clone(&route.positions);
            route.queue.end_tick(tick, move |r| positions.impact_of(r.x, r.y));
            assert!(route.queue.wait_settled(Duration::from_secs(30)), "tick {tick}");
            assert_eq!(route.positions.points(), engine_points(&reference), "tick {tick}");
            if tick == 7 {
                // A replacement restores tick 6's snapshot and replays
                // tick 7 before it takes tick 8.
                respawn_slot(&cfg, &mut slot, 0);
                assert!(matches!(slot.health, Health::Probation { .. }));
            }
        }
        assert!(slot.incarnation >= 1, "the worker was respawned");
        slot.queue.close();
        slot.handle.take().unwrap().join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_late_panic_never_overwrites_a_newer_respawn_error() {
        let dir = std::env::temp_dir().join(format!("tibfit-late-harvest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = DaemonConfig::standard(1, 7, dir.clone());
        cfg.scenario = small_scenario;
        std::fs::create_dir_all(&cfg.decisions_dir).unwrap();
        let (mut slot, _route) = build_slot(&cfg, 0, None).unwrap();
        // Shut the real worker down: its final snapshot is the state
        // file the respawn below reads.
        slot.queue.close();
        slot.handle.take().unwrap().join().unwrap().unwrap();

        // Incarnation 0 is now a worker that panics only when released,
        // so it is still running when the watchdog retires it.
        let (release, gate) = std::sync::mpsc::channel::<()>();
        slot.handle = Some(std::thread::spawn(move || {
            let _ = gate.recv();
            panic!("injected late panic");
        }));
        // The respawn reads that state file under another master seed
        // and fails with a typed error.
        let mut other = cfg.clone();
        other.master_seed = 8;
        respawn_slot(&other, &mut slot, 0);
        assert!(matches!(slot.health, Health::Quarantined { .. }));
        assert_eq!(slot.retired.len(), 1, "the retired worker is still running");
        let typed = slot.last_error.clone().expect("the respawn recorded its error");
        assert!(typed.1.contains("seed"), "{}", typed.1);

        // Only now does the retired incarnation finish, panicking.
        release.send(()).unwrap();
        harvest_retired(&mut slot, true);
        assert!(slot.retired.is_empty());
        assert_eq!(slot.last_error, Some(typed), "the late panic is older");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

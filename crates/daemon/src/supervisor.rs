//! The daemon proper: per-tenant worker threads, the router that feeds
//! them, and the watchdog that restarts them.
//!
//! ## Threads
//!
//! - **Router** (the caller of [`Daemon::run`]): frames each read
//!   buffer's complete lines in place, offers each run of one tenant's
//!   records to its queue as one batch, closes ticks (which applies
//!   backpressure — see `queue`), and honours shutdown requests. It
//!   offers what it holds before any other frame and before any read
//!   that can block, so it never waits holding records.
//! - **Workers** (one per tenant): pop admitted work, run engine
//!   rounds, append decision lines, snapshot on a tick cadence.
//! - **Watchdog**: every check interval it observes each slot (worker
//!   finished, heartbeat, outstanding work) and hands that to the
//!   slot's [`Watch`], the Impact-style detector in `watchdog`, then
//!   carries out its verdict: respawn the worker from its last snapshot
//!   plus the queue's recovery buffer (zero admitted records lost), or
//!   quarantine the tenant (its ingest shed, its tick barrier released
//!   so other tenants keep flowing). Every respawn, this one or an
//!   aborted migration's, tells the watch at once whether a worker
//!   started. It never holds the tenant table's lock while it respawns.
//! - **Fleet** (fleet mode): a monitor thread probes the peers and feeds
//!   the outcomes to the `fleet::PeerMonitor`, adopting the tenants its
//!   step names; a listener answers the fleet port, one thread per
//!   connection.
//!
//! Every hosted tenant is one `Slot` in one table, the `Tenants`
//! map. The router reads a slot's queue and health without a
//! supervisor lock; its worker and watchdog state sit behind the
//! slot's own lock. Whether the router feeds a tenant is the queue's
//! own state, so a migration's unroute and the router's admissions and
//! tick issues are ordered by the queue lock.
//!
//! ## Decision-log epochs
//!
//! A wedged worker may come back to life *after* its replacement has
//! truncated and reopened the decision log; its buffered lines must
//! not reach the file. All log writes go through a [`LogSink`] guarded
//! by an epoch number — writes from a superseded incarnation are
//! silently dropped.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
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
use crate::fleet::{owner_of, FleetConfig, MonitorStep, PeerEvent, PeerMonitor, PeerState};
use crate::latency;
use crate::migrate::{
    decode_bundle, encode_bundle, push_bundle, MigrateError, MigrationBundle, MAX_BUNDLE_BYTES,
};
use crate::net_io::{accept_polling, bind_polling, fleet_call};
use crate::queue::{Offer, QueuePolicy, QueueStats, SharedQueue, WorkItem};
use crate::state::{
    decision_log_path, decode_tenant_state, encode_tenant_state, read_tenant_snapshot,
    read_tenant_state, remove_tenant_state, tenant_state_path, truncate_decision_log,
    write_tenant_state,
};
use crate::tenant::{EngineKind, PositionView, Tenant};
use crate::watchdog::{Action, Health, Observed, Watch, WatchdogPolicy};
use crate::wire::{
    frame_in_place, parse_fleet_line, parse_frame, read_bounded_line, read_frame, FleetMsg, Frame,
    IngestError, Query, Report,
};
use crate::DaemonError;

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
        self.supersede();
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

type WorkerHandle = JoinHandle<Result<(), DaemonError>>;

/// One hosted tenant: the only record of it. The router, the worker
/// and the watchdog share it; the router and worker touch only its
/// queue and atomics, and the worker and watchdog state sit behind
/// `sup`, the slot's own lock.
struct Slot {
    id: usize,
    queue: SharedQueue,
    positions: Arc<PositionView>,
    /// The watch's [`Health`], published for the router, which sheds a
    /// quarantined tenant's ingest.
    health: AtomicU8,
    heartbeat: AtomicU64,
    applied: AtomicU64,
    shed_quarantine: AtomicU64,
    /// Wall-clock latency of each answered query, for the p99 figure.
    query_latency: latency::Histogram,
    sink: Mutex<LogSink>,
    sup: Mutex<Supervision>,
}

/// A slot's worker and watchdog state.
#[derive(Default)]
struct Supervision {
    watch: Watch,
    /// An outbound migration owns the slot: the watchdog leaves it be.
    detached: bool,
    cancel: Arc<AtomicBool>,
    handle: Option<WorkerHandle>,
    /// Superseded incarnations that had not finished when replaced — a
    /// wedge, or a panic still unwinding. Each is canceled and fenced,
    /// so it can only exit; its outcome is harvested once it has. Each
    /// handle carries its incarnation.
    retired: Vec<(u64, WorkerHandle)>,
    incarnation: u64,
    /// The newest error and the incarnation it belongs to (see
    /// [`record_error`]).
    last_error: Option<(u64, String)>,
}

impl Slot {
    fn quarantined(&self) -> bool {
        self.health.load(Ordering::SeqCst) == Health::Quarantined as u8
    }

    fn set_health(&self, health: Health) {
        self.health.store(health as u8, Ordering::SeqCst);
    }

    /// Sheds the tenant: its undelivered work is dropped and its issued
    /// ticks released, so the router never waits on it. The recovery
    /// buffer stays for the respawn.
    fn quarantine(&self) {
        self.set_health(Health::Quarantined);
        self.queue.abandon_tick();
    }
}

/// The tenant table: every hosted tenant's slot by id, shared with the
/// watchdog and the fleet threads so adoption and migration can add or
/// remove tenants while the router is streaming.
type Tenants = Arc<RwLock<BTreeMap<usize, Arc<Slot>>>>;

fn read_tenants(tenants: &Tenants) -> std::sync::RwLockReadGuard<'_, BTreeMap<usize, Arc<Slot>>> {
    tenants.read().unwrap_or_else(PoisonError::into_inner)
}

fn write_tenants(tenants: &Tenants) -> std::sync::RwLockWriteGuard<'_, BTreeMap<usize, Arc<Slot>>> {
    tenants.write().unwrap_or_else(PoisonError::into_inner)
}

/// The slots, cloned out of the table so a caller that blocks (a tick
/// barrier, a join) holds no lock on it.
fn slots_of(tenants: &Tenants) -> Vec<Arc<Slot>> {
    read_tenants(tenants).values().cloned().collect()
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
    /// Queries refused because the tenant already had a full queue's
    /// worth waiting for a tick boundary.
    pub queries_shed: u64,
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
    /// Rejection breakdown by [`crate::wire::IngestError::kind`].
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
    slot: Arc<Slot>,
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

/// Locks `m`, recovering the guard from a panicked holder: every
/// update under these locks leaves the data valid at each step.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn write_snapshot(task: &WorkerTask) -> Result<(), DaemonError> {
    let (highwater, stats) = task.slot.queue.snapshot_view();
    let bytes = encode_tenant_state(&task.tenant, &highwater, stats)?;
    let mut backoff = JitteredBackoff::new(task.backoff_seed, 2, 64);
    let mut attempts = 0u32;
    loop {
        // The state-file write and the replay-buffer clear commit
        // atomically under the queue lock, fenced by generation: a
        // superseded worker must not publish a snapshot the respawn
        // sequence no longer accounts for (it already read the old
        // state file), nor clear the replay its replacement needs.
        match task.slot.queue.commit_snapshot(task.generation, || {
            write_tenant_state(&task.state_path, &bytes)
        }) {
            Ok(_committed) => return Ok(()),
            Err(_) if attempts < 3 => {
                attempts += 1;
                std::thread::sleep(backoff.next_delay());
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
        task.slot.query_latency.record(nanos);
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
        lock(&task.slot.sink).write_block(task.epoch, buf)?;
        buf.clear();
    }
    Ok(())
}

/// Writes out everything the worker holds: answers to stdout, decision
/// lines to the sink, and the sink to its file.
fn flush_output(task: &WorkerTask, out: &mut TickOutput) -> Result<(), DaemonError> {
    flush_answers(task, out);
    flush_lines(task, &mut out.lines)?;
    lock(&task.slot.sink).flush(task.epoch)
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
            task.slot.applied.fetch_add(1, Ordering::SeqCst);
            task.slot.heartbeat.fetch_add(1, Ordering::SeqCst);
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
            if live && task.slot.queue.is_snapshot_tick(t) {
                write_snapshot(task)?;
            }
            task.slot.queue.complete_tick(task.generation, t);
            task.slot.heartbeat.fetch_add(1, Ordering::SeqCst);
        }
        WorkItem::Query(q) => {
            out.asked.push(Instant::now());
            answer_query(&task.tenant, q, &mut out.answers);
            task.slot.heartbeat.fetch_add(1, Ordering::SeqCst);
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
        let Some(item) = task.slot.queue.pop(task.generation) else {
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

/// What a tenant's newest state slot holds besides the engine: the
/// round it was taken at and the queue's dedup highwaters and counters
/// at that round. All empty for a tenant without a snapshot.
#[derive(Default)]
struct SnapshotMeta {
    round: u64,
    highwater: Vec<(u64, u64)>,
    stats: QueueStats,
}

/// Loads tenant `id` from its newest state slot, or fresh from the
/// scenario when it has none. Every worker start, first or replacement,
/// reads the state directory here and nowhere else.
///
/// # Errors
///
/// [`DaemonError::State`] when the slot's seed is not the configured
/// one, and any error reading, decoding or restoring the slot.
fn load_tenant(cfg: &DaemonConfig, id: usize) -> Result<(Tenant, SnapshotMeta), DaemonError> {
    let scenario = (cfg.scenario)(tenant_seed(cfg.master_seed, id));
    let Some(state) = read_tenant_state(&tenant_state_path(&cfg.state_dir, id))? else {
        let tenant = Tenant::new(id, scenario, EngineKind::Sequential, cfg.threads)?;
        return Ok((tenant, SnapshotMeta::default()));
    };
    if state.seed != scenario.seed {
        return Err(DaemonError::State(format!(
            "tenant {id} state file has seed {} but the configuration expects {}",
            state.seed, scenario.seed
        )));
    }
    let tenant = Tenant::from_blob(id, scenario, state.kind, cfg.threads, &state.blob)?;
    let meta = SnapshotMeta {
        round: state.round,
        highwater: state.highwater,
        stats: state.stats,
    };
    Ok((tenant, meta))
}

/// Starts worker `incarnation` of the slot on `tenant`, restored at
/// snapshot `round`: cuts the decision log back to that round, opens a
/// new sink epoch, attaches the tenant to the router's position view,
/// and spawns the worker fenced at queue generation `fenced.0`, with
/// the recovery buffer `fenced.1` to replay before it takes live work.
/// This is the only place a tenant worker thread is spawned. On error
/// nothing is spawned and the slot keeps its incarnation.
fn start_worker(
    cfg: &DaemonConfig,
    slot: &Arc<Slot>,
    sup: &mut Supervision,
    mut tenant: Tenant,
    round: u64,
    incarnation: u64,
    fenced: (u64, Vec<WorkItem>),
) -> Result<(), DaemonError> {
    let id = slot.id;
    cut_log_to_snapshot(&decision_log_path(&cfg.decisions_dir, id), id, round)?;
    let epoch = lock(&slot.sink).reopen()?;
    tenant.set_positions(Arc::clone(&slot.positions));
    sup.cancel = Arc::new(AtomicBool::new(false));
    sup.incarnation = incarnation;
    let (generation, recovery) = fenced;
    let task = WorkerTask {
        incarnation,
        generation,
        tenant,
        slot: Arc::clone(slot),
        epoch,
        cancel: Arc::clone(&sup.cancel),
        state_path: tenant_state_path(&cfg.state_dir, id),
        fault: cfg.fault_for(id),
        recovery,
        backoff_seed: cfg.master_seed ^ (id as u64) ^ (incarnation << 32),
    };
    let handle = std::thread::Builder::new()
        .name(format!("tibfit-tenant-{id}"))
        .spawn(move || run_worker(task))
        .expect("spawning a tenant worker thread");
    sup.handle = Some(handle);
    Ok(())
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
fn record_error(sup: &mut Supervision, incarnation: u64, msg: String) {
    if sup.last_error.as_ref().is_none_or(|(at, _)| incarnation >= *at) {
        sup.last_error = Some((incarnation, msg));
    }
}

/// Cancels the slot's current worker and retires its handle, then
/// harvests every retired incarnation that has finished. An unfinished
/// one stays retired until a later harvest: a worker that panicked may
/// still be unwinding when the watchdog replaces it, and its panic must
/// not be lost.
fn retire_worker(sup: &mut Supervision) {
    sup.cancel.store(true, Ordering::SeqCst);
    let incarnation = sup.incarnation;
    sup.retired
        .extend(sup.handle.take().map(|h| (incarnation, h)));
    harvest_retired(sup, false);
}

/// Joins retired incarnations and records how they ended: the finished
/// ones only, or (`wait`) all of them. Waiting is safe because every
/// retired worker is canceled and fenced out of its queue, so it can
/// only exit.
fn harvest_retired(sup: &mut Supervision, wait: bool) {
    let mut i = 0;
    while i < sup.retired.len() {
        if wait || sup.retired[i].1.is_finished() {
            let (incarnation, handle) = sup.retired.remove(i);
            match handle.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => record_error(sup, incarnation, e.to_string()),
                Err(_) => record_error(sup, incarnation, "worker panicked".into()),
            }
        } else {
            i += 1;
        }
    }
}

/// Replaces a slot's worker: fence the queue, supersede the log epoch,
/// reload the tenant from its last snapshot and start it, replaying the
/// recovery buffer. The watch learns the outcome at once, and the
/// slot's health is published: on probation, or quarantined if no
/// worker started.
fn respawn_slot(cfg: &DaemonConfig, slot: &Arc<Slot>, sup: &mut Supervision) {
    // A wedged (unfinished) worker is retired, not joined: its epoch is
    // superseded below and its cancel flag set, so it can only exit.
    retire_worker(sup);
    // Fence FIRST: bumping the queue generation stops a still-running
    // old incarnation (a wedge, or a watchdog false positive under CPU
    // starvation) from consuming items, acknowledging ticks, or
    // committing a snapshot after this point. Only then is it safe to
    // read the state file and truncate the log — nothing can move them
    // anymore.
    let fenced = slot.queue.recovery_view();
    // Epoch-supersede the sink before truncating: a woken old worker
    // exits through its flush path, and its block must be rejected
    // rather than appended to a log we are about to (or just did)
    // truncate.
    lock(&slot.sink).supersede();
    let attempt = sup.incarnation + 1;
    let started = load_tenant(cfg, slot.id).and_then(|(tenant, meta)| {
        start_worker(cfg, slot, sup, tenant, meta.round, attempt, fenced)
    });
    sup.watch.respawned(started.is_ok(), slot.heartbeat.load(Ordering::SeqCst));
    match started {
        Ok(()) => slot.set_health(sup.watch.health()),
        Err(e) => {
            record_error(sup, attempt, e.to_string());
            slot.quarantine();
        }
    }
}

/// One watchdog check of one slot: observe, let the watch decide, and
/// carry the verdict out. Returns the trust the check saw, or `None`
/// for a slot an outbound migration has detached.
fn supervise(cfg: &DaemonConfig, slot: &Arc<Slot>, check_no: u64) -> Option<f64> {
    let mut sup = lock(&slot.sup);
    if sup.detached {
        return None;
    }
    let observed = Observed {
        finished: sup.handle.as_ref().is_none_or(JoinHandle::is_finished),
        heartbeat: slot.heartbeat.load(Ordering::SeqCst),
        outstanding: slot.queue.has_outstanding(),
    };
    let (action, trust) = sup.watch.check(&cfg.watchdog, check_no, observed);
    match action {
        Action::Keep => slot.set_health(sup.watch.health()),
        Action::Respawn => respawn_slot(cfg, slot, &mut sup),
        Action::Quarantine => {
            retire_worker(&mut sup);
            slot.quarantine();
        }
    }
    Some(trust)
}

/// Checks every slot on the policy cadence until `stop`, and returns the
/// minimum over checks of Σ(e^(-λ·v))/slots.
fn watchdog_loop(cfg: &DaemonConfig, tenants: &Tenants, stop: &AtomicBool) -> f64 {
    let interval = Duration::from_millis(cfg.watchdog.check_interval_ms.max(1));
    let mut min_impact = 1.0f64;
    let mut check_no = 0u64;
    while !stop.load(Ordering::SeqCst) {
        std::thread::sleep(interval);
        check_no += 1;
        let (mut sum, mut n) = (0.0, 0usize);
        for slot in slots_of(tenants) {
            if let Some(trust) = supervise(cfg, &slot, check_no) {
                sum += trust;
                n += 1;
            }
        }
        min_impact = min_impact.min(sum / n.max(1) as f64);
    }
    min_impact
}

/// The trust impacts of a shedding tick's records, under one read of
/// the tenant's position view.
fn impacts(view: &PositionView, batch: &[Report], out: &mut Vec<u64>) {
    view.impacts_into(batch.iter().map(|r| (r.x, r.y)), out);
}

/// Builds one tenant slot from the state directory: resume from the
/// tenant's snapshot if present (fresh otherwise), seed its queue with
/// the snapshot's highwaters and counters, and start incarnation 0. A
/// migration `bundle` also seeds the live highwaters and counters, has
/// the worker replay its recovery buffer, and re-offers its pending
/// records. The shared build path for startup, fleet adoption, and
/// migration install; the caller enters the slot into the tenant table.
fn build_slot(
    cfg: &DaemonConfig,
    id: usize,
    bundle: Option<MigrationBundle>,
) -> Result<Arc<Slot>, DaemonError> {
    let (tenant, meta) = load_tenant(cfg, id)?;
    let queue = SharedQueue::with_snapshot_every(cfg.queue, cfg.snapshot_every);
    queue.seed_highwater(meta.highwater);
    queue.seed_stats(meta.stats);
    let (mut recovery, mut pending) = (Vec::new(), Vec::new());
    if let Some(bundle) = bundle {
        queue.seed_highwater(bundle.live_highwater);
        queue.seed_stats(bundle.live_stats);
        // The replay completes renumbered ticks 1..=k; marking them
        // issued makes the next end_tick wait for the replay to settle.
        queue.seed_ticks(
            bundle
                .replay
                .iter()
                .filter(|i| matches!(i, WorkItem::TickEnd(_)))
                .count() as u64,
        );
        recovery = bundle.replay;
        pending = bundle.pending;
    }
    let slot = Arc::new(Slot {
        id,
        queue,
        positions: tenant.positions(),
        health: AtomicU8::new(Health::Active as u8),
        heartbeat: AtomicU64::new(0),
        applied: AtomicU64::new(0),
        shed_quarantine: AtomicU64::new(0),
        query_latency: latency::Histogram::new(),
        sink: Mutex::new(LogSink {
            path: decision_log_path(&cfg.decisions_dir, id),
            epoch: 0,
            file: None,
        }),
        sup: Mutex::new(Supervision::default()),
    });
    start_worker(
        cfg,
        &slot,
        &mut lock(&slot.sup),
        tenant,
        meta.round,
        0,
        (0, recovery),
    )?;
    for r in pending {
        slot.queue.offer(r);
    }
    Ok(slot)
}

/// The daemon: build with [`Daemon::new`] (which resumes from any
/// existing state directory), then feed it a frame stream with
/// [`Daemon::run`].
pub struct Daemon {
    cfg: Arc<DaemonConfig>,
    tenants: Tenants,
    /// Stops the watchdog (and with it the fleet monitor and listener).
    stop: Arc<AtomicBool>,
    /// Returns the minimum impact trust it observed.
    watchdog: Option<JoinHandle<f64>>,
    fleet: Option<FleetRuntime>,
    ticks: u64,
}

/// The router's ingest counters.
#[derive(Debug, Default, PartialEq)]
struct IngestCounts {
    /// Rejected lines by [`crate::wire::IngestError::kind`].
    rejected: BTreeMap<&'static str, u64>,
    /// Records for a valid tenant this daemon does not route (fleet
    /// mode: placed on a peer, or migrating out).
    foreign: u64,
}

/// The router's state between lines: its counters and the run of
/// consecutive `R` frames for one tenant it has not offered yet.
#[derive(Default)]
struct Router {
    counts: IngestCounts,
    tenant: usize,
    batch: Vec<Report>,
}

impl Router {
    /// Offers the held run of records.
    fn flush(&mut self, daemon: &Daemon) {
        if !self.batch.is_empty() {
            daemon.route_reports(self.tenant, &self.batch, &mut self.counts);
            self.batch.clear();
        }
    }
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
        let mut tenants = BTreeMap::new();
        for id in owned {
            tenants.insert(id, build_slot(&cfg, id, None)?);
        }
        let tenants: Tenants = Arc::new(RwLock::new(tenants));
        let stop = Arc::new(AtomicBool::new(false));
        let watchdog = std::thread::Builder::new()
            .name("tibfit-watchdog".into())
            .spawn({
                let cfg = Arc::clone(&cfg);
                let tenants = Arc::clone(&tenants);
                let stop = Arc::clone(&stop);
                move || watchdog_loop(&cfg, &tenants, &stop)
            })
            .expect("spawning the watchdog thread");
        let fleet = match &cfg.fleet {
            Some(fcfg) => Some(start_fleet(&cfg, fcfg.clone(), &tenants, &stop)?),
            None => None,
        };
        Ok(Daemon {
            cfg,
            tenants,
            stop,
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
        for slot in read_tenants(&self.tenants).values() {
            merged.merge_from(&slot.query_latency);
        }
        #[allow(clippy::cast_precision_loss)]
        let ns = merged.percentile(99.0) as f64;
        ns / 1_000.0
    }

    fn close_tick(&mut self) {
        self.ticks += 1;
        // Out of the table: the tick barrier may wait on a worker, and
        // the watchdog must be able to read the table to respawn it.
        for slot in slots_of(&self.tenants) {
            if slot.quarantined() {
                continue;
            }
            // Per-slot numbering: an adopted or migrated-in tenant
            // joined mid-run and counts its own ticks. The queue of an
            // unrouted (migrating) tenant issues nothing, atomically
            // with the migration's capture.
            let tick = slot.queue.last_tick() + 1;
            slot.queue.end_tick_with(tick, |batch, out| impacts(&slot.positions, batch, out));
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
        let (counts, drained_early) = self.ingest(input)?;
        if !drained_early {
            self.linger();
        }
        self.finish(counts, drained_early)
    }

    /// Routes `input` until end-of-stream (`false`) or a drain request
    /// (`true`). Each read buffer's complete lines are framed in place;
    /// a line the buffer cuts, or one over the cap, goes through the
    /// bounded framer. The held records are offered before every read,
    /// since a read can block on input.
    fn ingest(&mut self, mut input: impl BufRead) -> Result<(IngestCounts, bool), DaemonError> {
        let mut router = Router::default();
        let mut raw = Vec::new();
        let drained = loop {
            router.flush(self);
            if shutdown::requested() {
                break true;
            }
            let buf = input.fill_buf().map_err(DaemonError::Io)?;
            if buf.is_empty() {
                break false;
            }
            let (mut used, mut stop) = (0, false);
            while let Some((line, len)) = frame_in_place(&buf[used..]) {
                used += len;
                stop = self.dispatch(line.and_then(parse_frame), &mut router)
                    || shutdown::requested();
                if stop {
                    break;
                }
            }
            input.consume(used);
            if stop {
                break true;
            }
            if used == 0 {
                let Some(parsed) = read_frame(&mut input, &mut raw).map_err(DaemonError::Io)? else {
                    break false;
                };
                if self.dispatch(parsed, &mut router) {
                    break true;
                }
            }
        };
        router.flush(self);
        Ok((router.counts, drained))
    }

    /// Acts on one framed line, holding a report in the router's run
    /// and offering that run before any other frame. Returns whether
    /// ingest drains now.
    fn dispatch(
        &mut self,
        parsed: Result<Option<Frame>, IngestError>,
        router: &mut Router,
    ) -> bool {
        match parsed {
            Ok(None) => {}
            Ok(Some(Frame::Report(r))) => {
                if r.tenant != router.tenant {
                    router.flush(self);
                    router.tenant = r.tenant;
                }
                router.batch.push(r);
            }
            Ok(Some(Frame::Query(q))) => {
                router.flush(self);
                self.route_query(q, &mut router.counts);
            }
            Ok(Some(Frame::Tick)) => {
                router.flush(self);
                self.close_tick();
                if self.cfg.crash_plan.fires_after(self.ticks) {
                    self.cfg.crash_plan.execute();
                }
                return self.cfg.drain_after_ticks.is_some_and(|d| self.ticks >= d);
            }
            Err(e) => *router.counts.rejected.entry(e.kind()).or_insert(0) += 1,
        }
        false
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

    /// Routes a run of records for `tenant` under one read of the
    /// tenant table and one queue lock.
    fn route_reports(&self, tenant: usize, batch: &[Report], counts: &mut IngestCounts) {
        let n = batch.len() as u64;
        let tenants = read_tenants(&self.tenants);
        match tenants.get(&tenant) {
            Some(slot) if slot.quarantined() && slot.queue.routed() => {
                slot.shed_quarantine.fetch_add(n, Ordering::SeqCst);
            }
            // A tenant migrating out refuses the records under its
            // queue lock, so the capture has them or they are foreign.
            Some(slot) => slot.queue.offer_batch(batch, |offer| {
                if offer == Offer::Unrouted {
                    counts.foreign += 1;
                }
            }),
            // Fleet mode: a valid tenant placed on a peer. Ignored
            // without touching any highwater — if this daemon ever
            // adopts the tenant, catch-up re-admits the records in their
            // original batch context.
            None if tenant < self.cfg.tenants => counts.foreign += n,
            None => *counts.rejected.entry("unknown_tenant").or_insert(0) += n,
        }
    }

    fn route_query(&self, q: Query, counts: &mut IngestCounts) {
        let id = match q {
            Query::Status => {
                #[cfg(test)]
                tests::observe_status(self);
                // Spans every tenant and the peer roster: answered here,
                // immediately, not at a tick boundary.
                for line in self.status_lines() {
                    println!("{line}");
                }
                return;
            }
            Query::Trust { tenant, .. } | Query::Round { tenant } => tenant,
        };
        let tenants = read_tenants(&self.tenants);
        match tenants.get(&id) {
            Some(slot) if !slot.quarantined() => slot.queue.offer_query(q),
            None if id >= self.cfg.tenants => {
                *counts.rejected.entry("unknown_tenant").or_insert(0) += 1
            }
            _ => {}
        }
    }

    /// The `Q status` answer: self id, per-peer state + trust, and the
    /// current tenant placement as this daemon computes it.
    fn status_lines(&self) -> Vec<String> {
        match &self.fleet {
            Some(fleet) => status_dump("A status", &fleet.shared),
            None => {
                let mut out = vec!["A status self -".to_string()];
                for id in read_tenants(&self.tenants).keys() {
                    out.push(format!("A status tenant {id} self"));
                }
                out.push("A status end".to_string());
                out
            }
        }
    }

    fn finish(
        &mut self,
        counts: IngestCounts,
        drained_early: bool,
    ) -> Result<DaemonReport, DaemonError> {
        // Stop the fleet threads first and close the fleet: an adoption,
        // install or migration in flight completes, and any later one is
        // refused, so the tenant table is final below.
        let fleet_summary = self.fleet.take().map(|f| f.stop(counts.foreign));
        // A final tick flushes any open batch and pending queries.
        self.close_tick();
        let slots = slots_of(&self.tenants);
        // Pipelined ticks let a worker trail its router by up to one
        // snapshot window. Wait, with the watchdog still running, until
        // every live worker has applied all it was issued: a worker
        // that panics or wedges in that window is respawned and replays
        // it, as anywhere mid-stream. A quarantined tenant has no
        // worker to wait for.
        for slot in &slots {
            while !slot.quarantined() && !slot.queue.wait_settled(Duration::from_millis(5)) {}
        }
        // Stop the watchdog before closing queues so it cannot
        // misread a cleanly exiting worker as a crash.
        self.stop.store(true, Ordering::SeqCst);
        let min_impact_trust = self
            .watchdog
            .take()
            .map_or(1.0, |h| h.join().unwrap_or(0.0));
        for slot in &slots {
            slot.queue.close();
        }
        let mut tenants = Vec::with_capacity(slots.len());
        for slot in &slots {
            let mut sup = lock(&slot.sup);
            // Every worker exits now: the live one on its queue's
            // Shutdown, a quarantined tenant's had already died or been
            // canceled. Join them all; a panic that was still unwinding
            // when its worker was replaced reaches the report, unless a
            // newer incarnation or respawn attempt recorded an error
            // since.
            retire_worker(&mut sup);
            harvest_retired(&mut sup, true);
            let quarantined = slot.quarantined();
            tenants.push(TenantSummary {
                id: slot.id,
                applied: slot.applied.load(Ordering::SeqCst),
                stats: slot.queue.stats(),
                shed_quarantine: slot.shed_quarantine.load(Ordering::SeqCst),
                queries_shed: slot.queue.queries_shed(),
                restarts: sup.watch.restarts(),
                quarantined,
                last_error: sup.last_error.as_ref().map(|(_, e)| e.clone()),
            });
        }
        Ok(DaemonReport {
            ticks: self.ticks,
            rejected: counts.rejected.values().sum(),
            rejected_by_kind: counts
                .rejected
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            tenants,
            drained_early,
            min_impact_trust,
            fleet: fleet_summary,
        })
    }

    /// The shed-key log of one tenant (tests; requires
    /// [`QueuePolicy::record_shed`]).
    #[must_use]
    pub fn shed_log_of(&self, tenant: usize) -> Vec<(u64, u64, u64)> {
        read_tenants(&self.tenants)
            .get(&tenant)
            .map(|s| s.queue.shed_log())
            .unwrap_or_default()
    }
}

/// What the admin paths (adopt, install, migrate) record, under the
/// lock that serializes them.
#[derive(Default)]
struct Admin {
    /// The daemon has stopped: installs and migrations are refused.
    closed: bool,
    /// Tenants adopted from dead peers, in adoption order.
    adopted: Vec<usize>,
    migrations_in: u64,
    migrations_out: u64,
    migrate_failed: u64,
}

/// Fleet mode's shared state: what the monitor thread, the listener and
/// its connection threads, and the router's status answer work on.
struct Fleet {
    cfg: Arc<DaemonConfig>,
    fcfg: FleetConfig,
    tenants: Tenants,
    /// The daemon's stop flag.
    daemon_stop: Arc<AtomicBool>,
    /// Stops the monitor and the listener.
    stop: AtomicBool,
    monitor: Mutex<PeerMonitor>,
    /// Serializes adopt/install/migrate so two administrative paths
    /// cannot race on the same tenant.
    admin: Mutex<Admin>,
    start: Instant,
    last_activity_ms: AtomicU64,
}

impl Fleet {
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

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst) || self.daemon_stop.load(Ordering::SeqCst)
    }

    fn hosts(&self, tenant: usize) -> bool {
        read_tenants(&self.tenants).contains_key(&tenant)
    }

    /// Feeds `events` seen at `now_ms` to the peer monitor.
    fn observe(&self, now_ms: u64, events: &[PeerEvent]) -> MonitorStep {
        lock(&self.monitor).step(now_ms, events, |t| self.hosts(t))
    }

    fn addr_of(&self, peer: usize) -> Option<&str> {
        let spec = self.fcfg.peers.iter().find(|p| p.id == peer)?;
        Some(&spec.addr)
    }

    /// One probe round trip: `FPING <self>` → expect any `FPONG`.
    fn answers(&self, peer: usize, timeout: Duration) -> bool {
        let ping = format!("FPING {}", self.fcfg.id);
        self.addr_of(peer).is_some_and(|addr| {
            fleet_call(addr, &ping, None, timeout).is_ok_and(|reply| {
                matches!(
                    reply.first().map(|line| parse_fleet_line(line)),
                    Some(Ok(Some(FleetMsg::Pong { .. })))
                )
            })
        })
    }
}

/// Everything [`Daemon`] needs to shut fleet mode down and report.
struct FleetRuntime {
    shared: Arc<Fleet>,
    local_addr: std::net::SocketAddr,
    /// The monitor and listener threads.
    threads: Vec<JoinHandle<()>>,
}

impl FleetRuntime {
    /// Stops the monitor and listener, closes the fleet once any admin
    /// path in flight has finished, and reports. `foreign` is the
    /// router's count.
    fn stop(self, foreign: u64) -> FleetSummary {
        self.shared.stop.store(true, Ordering::SeqCst);
        for thread in self.threads {
            let _ = thread.join();
        }
        // Connection threads are detached: one may still deliver an
        // `MPUSH` or `MIGRATE`, which the closed flag refuses.
        let mut admin = lock(&self.shared.admin);
        admin.closed = true;
        let policy = self.shared.fcfg.policy;
        let peer_trust = lock(&self.shared.monitor)
            .peers()
            .iter()
            .map(|p| (p.spec.id, p.trust(&policy)))
            .collect();
        FleetSummary {
            id: self.shared.fcfg.id,
            adopted: admin.adopted.clone(),
            rebalances: admin.adopted.len() as u64,
            migrations_in: admin.migrations_in,
            migrations_out: admin.migrations_out,
            migrate_failed: admin.migrate_failed,
            foreign,
            peer_trust,
        }
    }
}

/// Binds the fleet port and starts the monitor and listener threads.
fn start_fleet(
    cfg: &Arc<DaemonConfig>,
    fcfg: FleetConfig,
    tenants: &Tenants,
    daemon_stop: &Arc<AtomicBool>,
) -> Result<FleetRuntime, DaemonError> {
    let listener = bind_polling(&fcfg.listen).map_err(DaemonError::Io)?;
    let local_addr = listener.local_addr().map_err(DaemonError::Io)?;
    let fleet = Arc::new(Fleet {
        cfg: Arc::clone(cfg),
        monitor: Mutex::new(PeerMonitor::new(&fcfg, cfg.tenants)),
        fcfg,
        tenants: Arc::clone(tenants),
        daemon_stop: Arc::clone(daemon_stop),
        stop: AtomicBool::new(false),
        admin: Mutex::default(),
        start: Instant::now(),
        last_activity_ms: AtomicU64::new(0),
    });
    let (monitor, listen) = (Arc::clone(&fleet), Arc::clone(&fleet));
    let threads = vec![
        std::thread::Builder::new()
            .name("tibfit-fleet-monitor".into())
            .spawn(move || monitor_loop(&monitor))
            .expect("spawning the fleet monitor thread"),
        std::thread::Builder::new()
            .name("tibfit-fleet-listen".into())
            .spawn(move || listener_loop(&listen, &listener))
            .expect("spawning the fleet listener thread"),
    ];
    Ok(FleetRuntime {
        shared: fleet,
        local_addr,
        threads,
    })
}

/// Probes every peer on the policy cadence and feeds the outcomes to
/// the peer monitor: it names the suspects to re-probe (once, at double
/// timeout, so a single stall cannot split ownership) and, when a
/// confirm fails, the tenants to adopt.
fn monitor_loop(fleet: &Fleet) {
    let policy = fleet.fcfg.policy;
    let interval = Duration::from_millis(policy.check_interval_ms.max(1));
    let timeout = Duration::from_millis(policy.probe_timeout_ms.max(1));
    while !fleet.stopped() {
        std::thread::sleep(interval);
        let now_ms = fleet.elapsed_ms();
        let mut probes = Vec::with_capacity(fleet.fcfg.peers.len());
        for spec in &fleet.fcfg.peers {
            if fleet.stop.load(Ordering::SeqCst) {
                return;
            }
            probes.push(if fleet.answers(spec.id, timeout) {
                PeerEvent::Contact(spec.id)
            } else {
                PeerEvent::Missed(spec.id)
            });
        }
        let suspects = fleet.observe(now_ms, &probes).reprobe;
        if suspects.is_empty() {
            continue;
        }
        let confirms: Vec<PeerEvent> = suspects
            .into_iter()
            .map(|peer| {
                if fleet.answers(peer, timeout * 2) {
                    PeerEvent::Contact(peer)
                } else {
                    PeerEvent::ConfirmMissed(peer)
                }
            })
            .collect();
        for tenant in fleet.observe(now_ms, &confirms).adopt {
            if let Err(e) = adopt_tenant(fleet, tenant) {
                eprintln!(
                    "tibfit-daemon: fleet {}: adopting tenant {tenant} failed: {e}",
                    fleet.fcfg.id
                );
            }
        }
    }
}

/// Takes over a dead peer's tenant: resume from its shared state file
/// exactly as crash-restart does, then catch up to the head of the
/// stream by re-streaming the catch-up replay file through this slot
/// (dedup regenerates the decision-log suffix byte-identically). The
/// slot only enters the tenant table after catch-up, so the live
/// router never interleaves ticks with it.
fn adopt_tenant(fleet: &Fleet, tenant: usize) -> Result<(), DaemonError> {
    let mut admin = lock(&fleet.admin);
    if fleet.hosts(tenant) {
        return Ok(());
    }
    let slot = build_slot(&fleet.cfg, tenant, None)?;
    if let Some(path) = &fleet.fcfg.catchup_replay {
        let file = File::open(path).map_err(DaemonError::Io)?;
        let mut reader = BufReader::new(file);
        let mut raw = Vec::new();
        // Catch-up skips bad lines and other tenants' records.
        while let Some(parsed) = read_frame(&mut reader, &mut raw).map_err(DaemonError::Io)? {
            match parsed {
                Ok(Some(Frame::Report(r))) if r.tenant == tenant => {
                    slot.queue.offer(r);
                }
                Ok(Some(Frame::Tick)) => {
                    slot.queue.end_tick_with(slot.queue.last_tick() + 1, |batch, out| {
                        impacts(&slot.positions, batch, out);
                    });
                }
                _ => {}
            }
        }
    }
    write_tenants(&fleet.tenants).insert(tenant, slot);
    admin.adopted.push(tenant);
    fleet.touch();
    Ok(())
}

/// The refusal an install or migration gets once the daemon has stopped.
fn stopped_error() -> MigrateError {
    MigrateError::Refused("the daemon has stopped".into())
}

/// Installs a pushed migration bundle: validate, persist the embedded
/// state file, rebuild the tenant from it and the bundle (see
/// [`build_slot`]), and only then enter the tenant in the table. Fail-closed:
/// any error, or a daemon that has stopped, installs nothing.
fn install_bundle(fleet: &Fleet, bundle: MigrationBundle) -> Result<(), MigrateError> {
    let mut admin = lock(&fleet.admin);
    if admin.closed {
        return Err(stopped_error());
    }
    let cfg = &fleet.cfg;
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
    if fleet.hosts(tenant) {
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
    let slot = build_slot(cfg, tenant, Some(bundle))
        .map_err(|e| MigrateError::Mismatch(format!("install: {e}")))?;
    write_tenants(&fleet.tenants).insert(tenant, slot);
    admin.migrations_in += 1;
    fleet.touch();
    Ok(())
}

/// Operator-driven live migration: quiesce the tenant, capture its
/// snapshot + live queue views + recovery buffer + pending records,
/// ship the bundle, and release the tenant only on the destination's
/// acknowledgement. Any failure re-offers the pending records,
/// respawns the worker, and keeps serving locally.
fn migrate_out(fleet: &Fleet, tenant: usize, dest: usize) -> Result<(), MigrateError> {
    let mut admin = lock(&fleet.admin);
    if admin.closed {
        return Err(stopped_error());
    }
    let dest_addr = fleet
        .addr_of(dest)
        .ok_or_else(|| MigrateError::Mismatch(format!("unknown destination daemon {dest}")))?;
    let Some(slot) = read_tenants(&fleet.tenants).get(&tenant).cloned() else {
        return Err(MigrateError::Mismatch(format!(
            "tenant {tenant} is not hosted here"
        )));
    };
    // Unroute first: from here the queue admits no record and issues no
    // tick, so the capture below sees all the tenant ever took. The
    // watchdog still supervises its drain.
    slot.queue.set_routed(false);
    // Every issued tick complete means nothing issued is left to apply:
    // a tick's items are queued before its `TickEnd`.
    if !slot.queue.wait_settled(Duration::from_secs(10)) {
        slot.queue.set_routed(true);
        return Err(MigrateError::Mismatch(format!(
            "tenant {tenant} did not drain in time"
        )));
    }
    // Detach the slot from the watchdog so the fenced worker below is
    // not mistaken for a crash and respawned mid-transfer.
    let handle = {
        let mut sup = lock(&slot.sup);
        sup.detached = true;
        sup.handle.take()
    };
    // Fence the worker (it exits through its flush path) and capture
    // the stable views.
    let (_generation, replay) = slot.queue.recovery_view();
    let pending = slot.queue.drain_pending();
    let (live_highwater, live_stats) = slot.queue.snapshot_view();
    if let Some(handle) = handle {
        // Joining guarantees the worker's final flush hit the log file
        // before the destination truncates and regenerates it.
        let _ = handle.join();
    }
    let scenario = (fleet.cfg.scenario)(tenant_seed(fleet.cfg.master_seed, tenant));
    let state_path = tenant_state_path(&fleet.cfg.state_dir, tenant);
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
        push_bundle(dest_addr, tenant, &encode_bundle(&bundle))
    })();
    match outcome {
        Ok(()) => {
            // Released: the destination owns the tenant (and its log
            // file) now. Supersede the sink so nothing stale can write.
            lock(&slot.sink).supersede();
            write_tenants(&fleet.tenants).remove(&tenant);
            admin.migrations_out += 1;
            fleet.touch();
            Ok(())
        }
        Err(e) => {
            // Keep serving locally: restore the pending records and
            // respawn the worker from snapshot + recovery buffer.
            for r in pending {
                slot.queue.offer(r);
            }
            let mut sup = lock(&slot.sup);
            respawn_slot(&fleet.cfg, &slot, &mut sup);
            sup.detached = false;
            drop(sup);
            slot.queue.set_routed(true);
            admin.migrate_failed += 1;
            fleet.touch();
            Err(e)
        }
    }
}

/// Renders the status dump (fleet port `STATUS` and ingest `Q status`
/// share it, under different line prefixes).
fn status_dump(prefix: &str, fleet: &Fleet) -> Vec<String> {
    let policy = fleet.fcfg.policy;
    let mut out = vec![format!("{prefix} self {}", fleet.fcfg.id)];
    let alive = {
        let monitor = lock(&fleet.monitor);
        for p in monitor.peers() {
            let state = match p.state {
                PeerState::Active => "active",
                PeerState::Suspect => "suspect",
                PeerState::Quarantined => "quarantined",
                PeerState::Probation => "probation",
            };
            out.push(format!(
                "{prefix} peer {} {state} {:.6}",
                p.spec.id,
                p.trust(&policy)
            ));
        }
        monitor.alive()
    };
    let hosted = read_tenants(&fleet.tenants);
    for tenant in 0..fleet.cfg.tenants {
        let owner = if hosted.get(&tenant).is_some_and(|s| s.queue.routed()) {
            fleet.fcfg.id.to_string()
        } else {
            owner_of(fleet.fcfg.seed, tenant, &alive)
                .map_or_else(|| "-".to_string(), |o| o.to_string())
        };
        out.push(format!("{prefix} tenant {tenant} {owner}"));
    }
    out.push(format!("{prefix} end"));
    out
}

fn listener_loop(fleet: &Arc<Fleet>, listener: &TcpListener) {
    // Accept latency lands on every fleet round trip (probe, STATUS,
    // and twice per MIGRATE: the command and the bundle push), so the
    // poll must stay well under the migrate-restore budget.
    const POLL: Duration = Duration::from_millis(1);
    // A failed accept is retried on the next poll.
    while let Ok(Some(stream)) = accept_polling(listener, POLL, || fleet.stopped(), |_| Ok(())) {
        // Connections are short-lived (one command each); a thread per
        // connection keeps probe replies prompt while an install or
        // migration is in flight.
        let fleet = Arc::clone(fleet);
        let _ = std::thread::Builder::new()
            .name("tibfit-fleet-conn".into())
            .spawn(move || handle_fleet_conn(&fleet, &stream));
    }
}

/// One fleet-port connection: a single command line, an optional framed
/// payload (`MPUSH`), and the reply, ended by closing the connection.
/// A line the framer rejects (not UTF-8, oversized) is answered `MERR`.
fn handle_fleet_conn(fleet: &Fleet, stream: &TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut raw = Vec::new();
    let Ok(Some(line)) = read_bounded_line(&mut reader, &mut raw) else {
        return;
    };
    let mut w = stream;
    match line.and_then(parse_fleet_line) {
        Ok(Some(FleetMsg::Ping { from })) => {
            // Any contact clears a suspicion (and ends boot grace).
            fleet.observe(fleet.elapsed_ms(), &[PeerEvent::Contact(from)]);
            let _ = writeln!(w, "FPONG {}", fleet.fcfg.id);
        }
        Ok(Some(FleetMsg::Status)) => {
            for l in status_dump("S", fleet) {
                let _ = writeln!(w, "{l}");
            }
        }
        Ok(Some(FleetMsg::Migrate { tenant, dest })) => {
            reply_admin(w, tenant, migrate_out(fleet, tenant, dest));
        }
        Ok(Some(FleetMsg::Push { tenant })) => {
            let installed = read_framed(&mut reader, MAX_BUNDLE_BYTES)
                .map_err(MigrateError::from)
                .and_then(|bytes| decode_bundle(&bytes))
                .and_then(|bundle| {
                    if bundle.tenant == tenant {
                        install_bundle(fleet, bundle)
                    } else {
                        Err(MigrateError::Mismatch(format!(
                            "MPUSH names tenant {tenant} but the bundle carries {}",
                            bundle.tenant
                        )))
                    }
                });
            reply_admin(w, tenant, installed);
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

/// Answers a `MIGRATE` or `MPUSH` with `MOK <tenant>` or `MERR <why>`.
fn reply_admin(mut w: &TcpStream, tenant: usize, outcome: Result<(), MigrateError>) {
    let _ = match outcome {
        Ok(()) => writeln!(w, "MOK {tenant}"),
        Err(e) => writeln!(w, "MERR {e}"),
    };
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
            out.push((format!("{p}.queries_shed"), t.queries_shed));
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
    use crate::wire::parse_line;

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

    thread_local! {
        /// Every `Q status` the router on this thread answered: each
        /// slot's `(id, offered, shed_quarantine)` at that moment.
        static STATUS_SEEN: std::cell::RefCell<Vec<Vec<(usize, u64, u64)>>> =
            const { std::cell::RefCell::new(Vec::new()) };
    }

    /// Records what a `Q status` answer sees of the queues.
    pub(super) fn observe_status(daemon: &Daemon) {
        let seen = slots_of(&daemon.tenants)
            .iter()
            .map(|s| (s.id, s.queue.stats().offered, s.shed_quarantine.load(Ordering::SeqCst)))
            .collect();
        STATUS_SEEN.with(|v| v.borrow_mut().push(seen));
    }

    /// The router as it was before read-buffer framing: one bounded
    /// read, one parse and one offer per line. The differential
    /// reference for [`Daemon::ingest`].
    fn ingest_per_record(daemon: &mut Daemon, mut input: impl BufRead) -> (IngestCounts, bool) {
        let mut counts = IngestCounts::default();
        let mut raw = Vec::new();
        while let Some(line) = read_bounded_line(&mut input, &mut raw).unwrap() {
            match line.and_then(parse_line) {
                Ok(None) => {}
                Ok(Some(Frame::Report(r))) => route_report(daemon, r, &mut counts),
                Ok(Some(Frame::Query(q))) => daemon.route_query(q, &mut counts),
                Ok(Some(Frame::Tick)) => {
                    daemon.close_tick();
                    if daemon.cfg.drain_after_ticks.is_some_and(|d| daemon.ticks >= d) {
                        return (counts, true);
                    }
                }
                Err(e) => *counts.rejected.entry(e.kind()).or_insert(0) += 1,
            }
        }
        (counts, false)
    }

    /// The per-record routing [`Daemon::route_reports`] replaced.
    fn route_report(daemon: &Daemon, r: Report, counts: &mut IngestCounts) {
        let tenants = read_tenants(&daemon.tenants);
        match tenants.get(&r.tenant) {
            Some(slot) if slot.quarantined() && slot.queue.routed() => {
                slot.shed_quarantine.fetch_add(1, Ordering::SeqCst);
            }
            Some(slot) => {
                if slot.queue.offer(r) == Offer::Unrouted {
                    counts.foreign += 1;
                }
            }
            None if r.tenant < daemon.cfg.tenants => counts.foreign += 1,
            None => *counts.rejected.entry("unknown_tenant").or_insert(0) += 1,
        }
    }

    /// A seeded ingest stream over tenants 0..6 (4 and 5 unknown): runs
    /// of one tenant's records with same-tick and cross-tick
    /// duplicates, out-of-order and `seq 0` records from three feeds,
    /// ticks over the budget and over the pending cap, queries of every
    /// kind, and garbage: bad tags and numbers, non-finite coordinates,
    /// `\r` endings, non-UTF-8 and oversized lines, blanks, comments.
    fn seeded_stream(seed: u64) -> Vec<u8> {
        use crate::wire::MAX_LINE_BYTES;
        let mut rng = tibfit_sim::rng::SimRng::seed_from(seed);
        let mut out = Vec::new();
        let mut next_seq = [[0u64; 3]; 6];
        for tick in 0..10u64 {
            let most = if rng.chance(0.3) { 300 } else { 30 };
            let lines = rng.uniform_usize(most);
            let mut tenant = 0;
            for _ in 0..lines {
                if rng.chance(0.3) {
                    tenant = [0, 0, 1, 1, 2, 3, 4, 5][rng.uniform_usize(8)];
                }
                let line: Vec<u8> = match rng.uniform_usize(40) {
                    0 => b"Q status".to_vec(),
                    1 => format!("Q trust {tenant} {}", rng.uniform_usize(20)).into_bytes(),
                    2 => format!("Q round {tenant}").into_bytes(),
                    3 => b"R 0 1 2 three 4 5".to_vec(),
                    4 => format!("R {tenant} {tick} 0 1 NaN 3").into_bytes(),
                    5 => b"X what".to_vec(),
                    6 => b"R 1 \xff\xfe 0 1 2 3".to_vec(),
                    7 => vec![b'9'; MAX_LINE_BYTES + 1 + rng.uniform_usize(3)],
                    8 => Vec::new(),
                    9 => b"# a comment".to_vec(),
                    10 => b"T extra".to_vec(),
                    _ => {
                        let src = rng.uniform_usize(3);
                        let feed = &mut next_seq[tenant][src];
                        let seq = match rng.uniform_usize(8) {
                            0 => rng.next_u64() % (*feed + 1),
                            1 => feed.saturating_sub(rng.next_u64() % 4),
                            _ => {
                                *feed += 1;
                                *feed
                            }
                        };
                        let (x, y) = (rng.uniform_range(0.0, 40.0), rng.uniform_range(0.0, 40.0));
                        format!("R {tenant} {tick} {src} {seq} {x} {y}").into_bytes()
                    }
                };
                out.extend_from_slice(&line);
                if rng.chance(0.05) {
                    out.push(b'\r');
                }
                out.push(b'\n');
            }
            out.extend_from_slice(b"T\n");
        }
        out
    }

    /// Hands `inner`'s bytes to a `BufReader` and, at every read, checks
    /// that the router holds no record: every complete `R` line before
    /// that point for a routed tenant has been offered, or shed as the
    /// tenant is quarantined.
    struct FlushProbe<'a> {
        bytes: &'a [u8],
        pos: usize,
        tenants: Tenants,
        /// Newline offsets of each routed tenant's `R` lines.
        reports: BTreeMap<usize, Vec<usize>>,
    }

    impl std::io::Read for FlushProbe<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            for (tenant, ends) in &self.reports {
                let slot = read_tenants(&self.tenants)[tenant].clone();
                let taken =
                    slot.queue.stats().offered + slot.shed_quarantine.load(Ordering::SeqCst);
                let sent = ends.partition_point(|&end| end < self.pos) as u64;
                assert_eq!(taken, sent, "tenant {tenant}: held records at byte {}", self.pos);
            }
            let n = buf.len().min(self.bytes.len() - self.pos);
            buf[..n].copy_from_slice(&self.bytes[self.pos..][..n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// A daemon of six small tenants for the router differential: 2 is
    /// quarantined and 3 is unrouted for the whole run, the budget is 2
    /// and the pending cap 32, and some seeds drain after five ticks.
    fn router_daemon(dir: &Path, drain: bool) -> Daemon {
        let _ = std::fs::remove_dir_all(dir);
        let mut cfg = DaemonConfig::standard(4, 5, dir.to_path_buf());
        cfg.scenario = small_scenario;
        cfg.queue = QueuePolicy { capacity: 2, tick_budget: 2, record_shed: true };
        cfg.drain_after_ticks = drain.then_some(5);
        let daemon = Daemon::new(cfg).unwrap();
        let table = read_tenants(&daemon.tenants);
        // Detached, the watchdog leaves the quarantine in place.
        lock(&table[&2].sup).detached = true;
        table[&2].quarantine();
        table[&3].queue.set_routed(false);
        drop(table);
        daemon
    }

    /// Seeded streams through the read-buffer router, over read buffers
    /// of 1 to 64 bytes (lines straddle them) and of 8 KiB, and through
    /// the per-record reference: the same counters, rejections, queue
    /// stats, highwaters, shed logs and decision logs, the same queue
    /// state at every `Q status`, and no record held across a read.
    #[test]
    fn the_read_buffer_router_matches_the_per_record_router() {
        let root = std::env::temp_dir().join(format!("tibfit-router-diff-{}", std::process::id()));
        let mut overflowed = false;
        for seed in 0..8u64 {
            let stream = seeded_stream(seed);
            let drain = seed % 4 == 3;
            let capacity = if seed % 2 == 0 { 1 + seed as usize * 9 } else { 8 << 10 };
            let run = |name: &str, batched: bool| {
                let dir = root.join(format!("{seed}-{name}"));
                let mut daemon = router_daemon(&dir, drain);
                STATUS_SEEN.with(|v| v.borrow_mut().clear());
                let (counts, drained) = if batched {
                    let mut reports: BTreeMap<usize, Vec<usize>> =
                        [0, 1, 2].into_iter().map(|t| (t, Vec::new())).collect();
                    let mut start = 0;
                    let newlines = stream.iter().enumerate().filter(|(_, &b)| b == b'\n');
                    for end in newlines.map(|(i, _)| i) {
                        if let Some((Ok(line), _)) = frame_in_place(&stream[start..=end]) {
                            if let Ok(Some(Frame::Report(r))) = parse_line(line) {
                                reports.entry(r.tenant).and_modify(|ends| ends.push(end));
                            }
                        }
                        start = end + 1;
                    }
                    let probe = FlushProbe {
                        bytes: &stream,
                        pos: 0,
                        tenants: Arc::clone(&daemon.tenants),
                        reports,
                    };
                    daemon.ingest(BufReader::with_capacity(capacity, probe)).unwrap()
                } else {
                    ingest_per_record(&mut daemon, &stream[..])
                };
                let status = STATUS_SEEN.with(|v| std::mem::take(&mut *v.borrow_mut()));
                let shed: Vec<_> = (0..4)
                    .map(|t| {
                        let highwater = read_tenants(&daemon.tenants)[&t].queue.snapshot_view().0;
                        (highwater, daemon.shed_log_of(t))
                    })
                    .collect();
                let report = daemon.finish(counts, drained).unwrap();
                let logs: Vec<Vec<u8>> = (0..4)
                    .map(|t| {
                        std::fs::read(decision_log_path(&dir.join("decisions"), t)).unwrap_or_default()
                    })
                    .collect();
                // Whether a close found its worker done is timing.
                let tenants: Vec<_> = report
                    .tenants
                    .iter()
                    .map(|t| {
                        let stats = QueueStats { backpressure_waits: 0, ..t.stats };
                        (t.id, stats, t.shed_quarantine, t.queries_shed)
                    })
                    .collect();
                let summary =
                    (report.ticks, report.rejected_by_kind, report.drained_early, tenants);
                (summary, status, shed, logs)
            };
            let (want, want_status, want_shed, want_logs) = run("reference", false);
            let (got, got_status, got_shed, got_logs) = run("batched", true);
            assert_eq!(got, want, "seed {seed}");
            assert_eq!(got_status, want_status, "seed {seed}: queues at Q status");
            assert_eq!(got_shed, want_shed, "seed {seed}: highwaters and shed logs");
            assert!(want_shed.iter().any(|(_, l)| !l.is_empty()), "seed {seed} shed nothing");
            assert!(got_logs == want_logs, "seed {seed}: decision logs differ");
            assert!(!want_logs[0].is_empty() && !want_logs[1].is_empty(), "seed {seed}");
            overflowed |= want.3.iter().any(|t| t.1.shed_overflow > 0);
        }
        assert!(overflowed, "no seed overflowed the pending cap");
        let _ = std::fs::remove_dir_all(&root);
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
        let slot = build_slot(&cfg, 0, None).unwrap();
        let scenario = small_scenario(tenant_seed(11, 0));
        let mut reference = scenario.sequential().unwrap();
        let engine_points = |engine: &tibfit_experiments::multicluster::MultiClusterSim| {
            let mut out = vec![(0.0, 0.0); engine.node_count()];
            engine.for_each_position(|node, p| out[node.index()] = (p.x, p.y));
            out
        };
        assert_eq!(slot.positions.points(), engine_points(&reference));
        let per_tick = 3;
        let events = scenario.events(12 * per_tick);
        for tick in 1..=12u64 {
            for (k, p) in events[(tick as usize - 1) * per_tick..][..per_tick].iter().enumerate() {
                slot.queue.offer(Report {
                    tenant: 0,
                    time: tick,
                    src: 0,
                    seq: (tick - 1) * per_tick as u64 + k as u64 + 1,
                    x: p.x,
                    y: p.y,
                });
                reference.run_event(*p);
            }
            slot.queue
                .end_tick(tick, |r| slot.positions.impact_of(r.x, r.y));
            assert!(
                slot.queue.wait_settled(Duration::from_secs(30)),
                "tick {tick}"
            );
            assert_eq!(
                slot.positions.points(),
                engine_points(&reference),
                "tick {tick}"
            );
            if tick == 7 {
                // A replacement restores tick 6's snapshot and replays
                // tick 7 before it takes tick 8.
                respawn_slot(&cfg, &slot, &mut lock(&slot.sup));
                assert_eq!(slot.health.load(Ordering::SeqCst), Health::Probation as u8);
            }
        }
        let mut sup = lock(&slot.sup);
        assert!(sup.incarnation >= 1, "the worker was respawned");
        slot.queue.close();
        sup.handle.take().unwrap().join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A respawn the watch did not order (an aborted migration's)
    /// still reaches it: a quarantined slot is on probation at once, so
    /// the router stops shedding its ingest, and no restart is counted.
    #[test]
    fn a_respawn_out_of_quarantine_is_on_probation_at_once() {
        let dir = std::env::temp_dir().join(format!("tibfit-unquarantine-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = DaemonConfig::standard(1, 9, dir.clone());
        cfg.scenario = small_scenario;
        std::fs::create_dir_all(&cfg.decisions_dir).unwrap();
        let slot = build_slot(&cfg, 0, None).unwrap();
        let mut sup = lock(&slot.sup);
        sup.watch.respawned(false, 0);
        slot.quarantine();
        respawn_slot(&cfg, &slot, &mut sup);
        assert_eq!(sup.watch.health(), Health::Probation);
        assert!(!slot.quarantined());
        assert_eq!(sup.watch.restarts(), 0);
        slot.queue.close();
        retire_worker(&mut sup);
        harvest_retired(&mut sup, true);
        assert_eq!(sup.last_error, None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_late_panic_never_overwrites_a_newer_respawn_error() {
        let dir = std::env::temp_dir().join(format!("tibfit-late-harvest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = DaemonConfig::standard(1, 7, dir.clone());
        cfg.scenario = small_scenario;
        std::fs::create_dir_all(&cfg.decisions_dir).unwrap();
        let slot = build_slot(&cfg, 0, None).unwrap();
        let mut sup = lock(&slot.sup);
        // Shut the real worker down: its final snapshot is the state
        // file the respawn below reads.
        slot.queue.close();
        sup.handle.take().unwrap().join().unwrap().unwrap();

        // Incarnation 0 is now a worker that panics only when released,
        // so it is still running when the watchdog retires it.
        let (release, gate) = std::sync::mpsc::channel::<()>();
        sup.handle = Some(std::thread::spawn(move || {
            let _ = gate.recv();
            panic!("injected late panic");
        }));
        // The respawn reads that state file under another master seed
        // and fails with a typed error.
        let mut other = cfg.clone();
        other.master_seed = 8;
        respawn_slot(&other, &slot, &mut sup);
        assert!(slot.quarantined());
        assert_eq!(
            sup.watch.health(),
            Health::Quarantined,
            "the watch learns the respawn failed at once"
        );
        assert_eq!(sup.retired.len(), 1, "the retired worker is still running");
        let typed = sup
            .last_error
            .clone()
            .expect("the respawn recorded its error");
        assert!(typed.1.contains("seed"), "{}", typed.1);

        // Only now does the retired incarnation finish, panicking.
        release.send(()).unwrap();
        harvest_retired(&mut sup, true);
        assert!(sup.retired.is_empty());
        assert_eq!(sup.last_error, Some(typed), "the late panic is older");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

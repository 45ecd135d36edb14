//! The daemon proper: the tenant table, the router that feeds it, and
//! the supervision that keeps each tenant's worker alive. Its threads,
//! clocks and fleet sockets are in `driver`, which also lists which
//! thread runs what.
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
use std::io::{BufRead, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

use tibfit_experiments::replay::{tenant_seed, FieldScenario};
use tibfit_faults::ProcessCrashPlan;
use tibfit_sim::shutdown;

use crate::driver::{
    spawn_watchdog, spawn_worker, start_fleet, status_dump, Fleet, WatchdogHandle, WorkerHandle,
    WorkerTask,
};
use crate::fleet::{owner_of, FleetConfig};
use crate::migrate::MigrationBundle;
use crate::queue::{Offer, QueuePolicy, QueueStats, SharedQueue, WorkItem};
use crate::state::{
    decision_log_path, read_tenant_state, tenant_state_path, truncate_decision_log,
};
use crate::tenant::{EngineKind, PositionView, Tenant};
use crate::watchdog::{Action, Health, Observed, Watch, WatchdogPolicy};
use crate::wire::{frame_in_place, parse_frame, read_frame, Frame, IngestError, Query, Report};
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
    pub(crate) fn supersede(&mut self) {
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
    pub(crate) fn write_block(&mut self, epoch: u64, block: &str) -> Result<(), DaemonError> {
        if epoch != self.epoch {
            return Ok(());
        }
        if let Some(f) = self.file.as_mut() {
            f.write_all(block.as_bytes()).map_err(DaemonError::Io)?;
        }
        Ok(())
    }

    pub(crate) fn flush(&mut self, epoch: u64) -> Result<(), DaemonError> {
        if epoch != self.epoch {
            return Ok(());
        }
        if let Some(f) = self.file.as_mut() {
            f.flush().map_err(DaemonError::Io)?;
        }
        Ok(())
    }
}

/// One hosted tenant: the only record of it. The router, the worker
/// and the watchdog share it; the router and worker touch only its
/// queue and atomics, and the worker and watchdog state sit behind
/// `sup`, the slot's own lock.
pub(crate) struct Slot {
    pub(crate) id: usize,
    pub(crate) queue: SharedQueue,
    pub(crate) positions: Arc<PositionView>,
    /// The watch's [`Health`], published for the router, which sheds a
    /// quarantined tenant's ingest.
    health: AtomicU8,
    pub(crate) heartbeat: AtomicU64,
    pub(crate) applied: AtomicU64,
    shed_quarantine: AtomicU64,
    pub(crate) sink: Mutex<LogSink>,
    pub(crate) sup: Mutex<Supervision>,
}

/// A slot's worker and watchdog state.
#[derive(Default)]
pub(crate) struct Supervision {
    watch: Watch,
    /// An outbound migration owns the slot: the watchdog leaves it be.
    pub(crate) detached: bool,
    cancel: Arc<AtomicBool>,
    pub(crate) handle: Option<WorkerHandle>,
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
pub(crate) type Tenants = Arc<RwLock<BTreeMap<usize, Arc<Slot>>>>;

pub(crate) fn read_tenants(tenants: &Tenants) -> RwLockReadGuard<'_, BTreeMap<usize, Arc<Slot>>> {
    tenants.read().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn write_tenants(tenants: &Tenants) -> RwLockWriteGuard<'_, BTreeMap<usize, Arc<Slot>>> {
    tenants.write().unwrap_or_else(PoisonError::into_inner)
}

/// The slots, cloned out of the table so a caller that blocks (a tick
/// barrier, a join) holds no lock on it.
pub(crate) fn slots_of(tenants: &Tenants) -> Vec<Arc<Slot>> {
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
#[derive(Debug, Clone, Default, PartialEq)]
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

/// Locks `m`, recovering the guard from a panicked holder: every
/// update under these locks leaves the data valid at each step.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
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
/// Every tenant worker thread is spawned here, by the driver. On error
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
    sup.handle = Some(spawn_worker(task));
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
pub(crate) fn respawn_slot(cfg: &DaemonConfig, slot: &Arc<Slot>, sup: &mut Supervision) {
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
pub(crate) fn supervise(cfg: &DaemonConfig, slot: &Arc<Slot>, check_no: u64) -> Option<f64> {
    let mut sup = lock(&slot.sup);
    if sup.detached {
        return None;
    }
    let observed = Observed {
        finished: sup.handle.as_ref().is_none_or(WorkerHandle::is_finished),
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

/// The trust impacts of a shedding tick's records, under one read of
/// the tenant's position view.
pub(crate) fn impacts(view: &PositionView, batch: &[Report], out: &mut Vec<u64>) {
    view.impacts_into(batch.iter().map(|r| (r.x, r.y)), out);
}

/// Builds one tenant slot from the state directory: resume from the
/// tenant's snapshot if present (fresh otherwise), seed its queue with
/// the snapshot's highwaters and counters, and start incarnation 0. A
/// migration `bundle` also seeds the live highwaters and counters, has
/// the worker replay its recovery buffer, and re-offers its pending
/// records. The shared build path for startup, fleet adoption, and
/// migration install; the caller enters the slot into the tenant table.
pub(crate) fn build_slot(
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
    /// Stops the watchdog.
    stop: Arc<AtomicBool>,
    /// Returns the minimum impact trust it observed.
    watchdog: Option<WatchdogHandle>,
    fleet: Option<Arc<Fleet>>,
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
        let watchdog = spawn_watchdog(Arc::clone(&cfg), Arc::clone(&tenants), Arc::clone(&stop));
        let fleet = cfg.fleet.clone().map(|fcfg| start_fleet(&cfg, fcfg, &tenants)).transpose()?;
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
        if let Some(fleet) = self.fleet.as_ref().filter(|_| !drained_early) {
            fleet.linger();
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
            Some(fleet) => status_dump("A status", fleet),
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
    use std::io::BufReader;

    use crate::wire::{parse_line, read_bounded_line};

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

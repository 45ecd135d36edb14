//! The daemon's I/O: every thread it starts, every clock it reads and
//! every fleet socket it opens, carrying out what the plain decisions
//! elsewhere return. Those decisions take time as a `now_ms` argument
//! and outcomes as values, so a test drives them without a thread, a
//! clock or a socket: `supervisor::supervise` and `respawn_slot` over
//! `watchdog::Watch::check`, `fleet::monitor_round` over
//! `fleet::PeerMonitor::step`, and `migrate::Migration` and
//! `migrate::check_install`.
//!
//! ## Threads
//!
//! - **Router** (the caller of `Daemon::run`; its code is in
//!   `supervisor.rs`): frames each read buffer's complete lines in
//!   place, offers each run of one tenant's records to its queue as one
//!   batch, closes ticks (which applies backpressure — see `queue`), and
//!   honours shutdown requests. It offers what it holds before any other
//!   frame and before any read that can block, so it never waits holding
//!   records. After ingest ends in fleet mode it lingers here while
//!   peers still rebalance or migrate.
//! - **Workers** (one per tenant; `spawn_worker` and `run_worker`
//!   here): pop admitted work, run engine rounds, append decision lines,
//!   snapshot on a tick cadence.
//! - **Watchdog** (`watchdog_loop` here): every check interval it runs
//!   `supervisor::supervise` on each slot, which observes the slot
//!   (worker finished, heartbeat, outstanding work), hands that to the
//!   slot's `Watch`, the Impact-style detector in `watchdog`, and carries
//!   out its verdict: respawn the worker from its last snapshot plus the
//!   queue's recovery buffer (zero admitted records lost), or quarantine
//!   the tenant (its ingest shed, its tick barrier released so other
//!   tenants keep flowing). Every respawn, this one or an aborted
//!   migration's, tells the watch at once whether a worker started. It
//!   never holds the tenant table's lock while it respawns.
//! - **Fleet** (fleet mode; all here): a monitor thread runs
//!   `fleet::monitor_round` every interval, probing the peers, and
//!   adopts the tenants it returns; a listener answers the fleet port,
//!   one thread per connection, and carries out the migrations and
//!   installs those connections ask for.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tibfit_experiments::replay::tenant_seed;
use tibfit_sim::shutdown;
use tibfit_sim::snapshot::read_framed;

use crate::backoff::JitteredBackoff;
use crate::fleet::{monitor_round, owner_of, FleetConfig, PeerEvent, PeerMonitor, PeerState};
use crate::migrate::{
    check_install, decode_bundle, encode_bundle, Captured, Effect, Facts, MigrateError, Migration,
    MigrationBundle, MAX_BUNDLE_BYTES,
};
use crate::net_io::{accept_polling, bind_polling, fleet_call};
use crate::queue::WorkItem;
use crate::state::{
    encode_tenant_state, read_tenant_snapshot, remove_tenant_state, tenant_state_path,
    write_tenant_state,
};
use crate::supervisor::{
    build_slot, impacts, lock, read_tenants, respawn_slot, slots_of, supervise, write_tenants,
    DaemonConfig, FleetSummary, Slot, Tenants, WorkerFault,
};
use crate::tenant::Tenant;
use crate::wire::{parse_fleet_line, read_bounded_line, read_frame, FleetMsg, Frame, Query};
use crate::DaemonError;

/// A tenant worker thread; it returns how its incarnation ended.
pub(crate) type WorkerHandle = JoinHandle<Result<(), DaemonError>>;

/// The watchdog thread; it returns the minimum impact trust it saw.
pub(crate) type WatchdogHandle = JoinHandle<f64>;

pub(crate) struct WorkerTask {
    pub(crate) incarnation: u64,
    /// Queue-generation fence: the worker passes this to every `pop`,
    /// `complete_tick`, and snapshot commit, so once the watchdog
    /// supersedes it (respawn bumps the queue generation) it can no
    /// longer consume work or publish state, even if still running.
    pub(crate) generation: u64,
    pub(crate) tenant: Tenant,
    pub(crate) slot: Arc<Slot>,
    pub(crate) epoch: u64,
    pub(crate) cancel: Arc<AtomicBool>,
    pub(crate) state_path: PathBuf,
    pub(crate) fault: WorkerFault,
    pub(crate) recovery: Vec<WorkItem>,
    pub(crate) backoff_seed: u64,
}

enum Step {
    Continue,
    Exit,
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

/// Writes the buffered answers to stdout in one locked write. A failed
/// write (the reader went away) drops the answers; it must not stop
/// decisions.
fn flush_answers(out: &mut TickOutput) {
    if out.answers.is_empty() {
        return;
    }
    let mut stdout = std::io::stdout().lock();
    let _ = stdout
        .write_all(out.answers.as_bytes())
        .and_then(|()| stdout.flush());
    drop(stdout);
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
    flush_answers(out);
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

/// Spawns the worker thread of `task`: the only place a tenant worker
/// thread starts (`supervisor::start_worker` prepares every task).
pub(crate) fn spawn_worker(task: WorkerTask) -> WorkerHandle {
    std::thread::Builder::new()
        .name(format!("tibfit-tenant-{}", task.slot.id))
        .spawn(move || run_worker(task))
        .expect("spawning a tenant worker thread")
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

/// Starts the watchdog thread over `tenants`; it runs until `stop`.
pub(crate) fn spawn_watchdog(
    cfg: Arc<DaemonConfig>,
    tenants: Tenants,
    stop: Arc<AtomicBool>,
) -> WatchdogHandle {
    std::thread::Builder::new()
        .name("tibfit-watchdog".into())
        .spawn(move || watchdog_loop(&cfg, &tenants, &stop))
        .expect("spawning the watchdog thread")
}

/// What the admin paths (adopt, install, migrate) record, under the
/// lock that serializes them.
#[derive(Default)]
struct Admin {
    /// The daemon has stopped: installs and migrations are refused.
    closed: bool,
    /// The tenants adopted, in adoption order, and the migrations in,
    /// out and failed; the rest of the summary is filled in at stop.
    done: FleetSummary,
}

/// Fleet mode: what the monitor thread, the listener and its connection
/// threads, and the router's status answer work on, and what the
/// `Daemon` needs to shut fleet mode down and report.
pub(crate) struct Fleet {
    cfg: Arc<DaemonConfig>,
    fcfg: FleetConfig,
    tenants: Tenants,
    /// The fleet port's address (port 0 in the configuration resolves
    /// here).
    pub(crate) local_addr: SocketAddr,
    /// The monitor and listener threads.
    threads: Mutex<Vec<JoinHandle<()>>>,
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

    fn hosts(&self, tenant: usize) -> bool {
        read_tenants(&self.tenants).contains_key(&tenant)
    }

    /// What an install or a migration of `tenant` is decided on. The
    /// caller holds `admin`, so the answers stay true until it lets go.
    fn facts(&self, admin: &Admin, tenant: usize) -> Facts {
        Facts {
            closed: admin.closed,
            tenants: self.cfg.tenants,
            seed: (self.cfg.scenario)(tenant_seed(self.cfg.master_seed, tenant)).seed,
            hosted: self.hosts(tenant),
            dest_known: false,
        }
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

    /// Stops the monitor and listener, closes the fleet once any admin
    /// path in flight has finished, and reports. `foreign` is the
    /// router's count.
    pub(crate) fn stop(&self, foreign: u64) -> FleetSummary {
        self.stop.store(true, Ordering::SeqCst);
        for thread in lock(&self.threads).drain(..) {
            let _ = thread.join();
        }
        // Connection threads are detached: one may still deliver an
        // `MPUSH` or `MIGRATE`, which the closed flag refuses.
        let mut admin = lock(&self.admin);
        admin.closed = true;
        let policy = self.fcfg.policy;
        let peer_trust = lock(&self.monitor)
            .peers()
            .iter()
            .map(|p| (p.spec.id, p.trust(&policy)))
            .collect();
        FleetSummary {
            id: self.fcfg.id,
            rebalances: admin.done.adopted.len() as u64,
            foreign,
            peer_trust,
            ..admin.done.clone()
        }
    }

    /// Fleet mode keeps serving the fleet port after ingest EOF: peers
    /// may still be rebalancing onto us or migrating tenants in/out.
    /// The linger window restarts on every fleet event and ends early
    /// on a shutdown signal.
    pub(crate) fn linger(&self) {
        let linger_ms = self.fcfg.linger_ms;
        self.touch();
        while !shutdown::requested() && self.idle_ms() < linger_ms {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

/// Binds the fleet port and starts the monitor and listener threads.
pub(crate) fn start_fleet(
    cfg: &Arc<DaemonConfig>,
    fcfg: FleetConfig,
    tenants: &Tenants,
) -> Result<Arc<Fleet>, DaemonError> {
    let listener = bind_polling(&fcfg.listen).map_err(DaemonError::Io)?;
    let local_addr = listener.local_addr().map_err(DaemonError::Io)?;
    let fleet = Arc::new(Fleet {
        cfg: Arc::clone(cfg),
        monitor: Mutex::new(PeerMonitor::new(&fcfg, cfg.tenants)),
        fcfg,
        tenants: Arc::clone(tenants),
        local_addr,
        threads: Mutex::default(),
        stop: AtomicBool::new(false),
        admin: Mutex::default(),
        start: Instant::now(),
        last_activity_ms: AtomicU64::new(0),
    });
    let (monitor, listen) = (Arc::clone(&fleet), Arc::clone(&fleet));
    *lock(&fleet.threads) = vec![
        std::thread::Builder::new()
            .name("tibfit-fleet-monitor".into())
            .spawn(move || monitor_loop(&monitor))
            .expect("spawning the fleet monitor thread"),
        std::thread::Builder::new()
            .name("tibfit-fleet-listen".into())
            .spawn(move || listener_loop(&listen, &listener))
            .expect("spawning the fleet listener thread"),
    ];
    Ok(fleet)
}

/// Runs a `fleet::monitor_round` on the policy cadence, each probe an
/// `FPING` round trip, and adopts the tenants a round returns. A stop
/// request ends the loop between rounds.
fn monitor_loop(fleet: &Fleet) {
    let interval = Duration::from_millis(fleet.fcfg.policy.check_interval_ms.max(1));
    loop {
        std::thread::sleep(interval);
        if fleet.stop.load(Ordering::SeqCst) {
            return;
        }
        let adopt = monitor_round(
            &fleet.monitor,
            fleet.elapsed_ms(),
            |peer, timeout_ms| fleet.answers(peer, Duration::from_millis(timeout_ms)),
            |t| fleet.hosts(t),
        );
        for tenant in adopt {
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
    admin.done.adopted.push(tenant);
    fleet.touch();
    Ok(())
}

/// Installs a pushed migration bundle once `migrate::check_install`
/// accepts it: persist the embedded state file, rebuild the tenant from
/// it and the bundle (see `build_slot`), and only then enter the tenant
/// in the table. Fail-closed: any error, or a daemon that has stopped,
/// installs nothing.
fn install_bundle(fleet: &Fleet, bundle: MigrationBundle) -> Result<(), MigrateError> {
    let mut admin = lock(&fleet.admin);
    check_install(&bundle, &fleet.facts(&admin, bundle.tenant))?;
    let tenant = bundle.tenant;
    let path = tenant_state_path(&fleet.cfg.state_dir, tenant);
    if bundle.state_bytes.is_empty() {
        // The source never snapshotted: the replay buffer is the whole
        // history and must rebuild from a fresh engine, so every slot
        // an earlier hosting left behind goes.
        remove_tenant_state(&path).map_err(MigrateError::Io)?;
    } else {
        write_tenant_state(&path, &bundle.state_bytes)
            .map_err(|e| MigrateError::Mismatch(format!("state write: {e}")))?;
    }
    let slot = build_slot(&fleet.cfg, tenant, Some(bundle))
        .map_err(|e| MigrateError::Mismatch(format!("install: {e}")))?;
    write_tenants(&fleet.tenants).insert(tenant, slot);
    admin.done.migrations_in += 1;
    fleet.touch();
    Ok(())
}

/// Operator-driven live migration: carries out the steps of a
/// [`Migration`] on the tenant's slot, under the admin lock, and counts
/// how it ended.
fn migrate_out(fleet: &Fleet, tenant: usize, dest: usize) -> Result<(), MigrateError> {
    let mut admin = lock(&fleet.admin);
    let facts = Facts {
        dest_known: fleet.addr_of(dest).is_some(),
        ..fleet.facts(&admin, tenant)
    };
    let (mut migration, mut effect) = Migration::start(tenant, dest, &facts)?;
    // Under the admin lock the tenant stays hosted and the peer known.
    let slot = read_tenants(&fleet.tenants)[&tenant].clone();
    let addr = fleet.addr_of(dest).unwrap_or_default();
    // The three ending effects return; the others step the migration.
    loop {
        effect = match effect {
            Effect::Unroute => {
                slot.queue.set_routed(false);
                migration.on_settled(slot.queue.wait_settled(Duration::from_secs(10)))
            }
            Effect::Capture => migration.on_captured(capture(&fleet.cfg, &slot)),
            Effect::Push(bundle) => {
                migration.on_pushed(push_bundle(addr, tenant, &encode_bundle(&bundle)))
            }
            Effect::Release => {
                // The destination owns the tenant (and its log file) now.
                // Supersede the sink so nothing stale can write.
                lock(&slot.sink).supersede();
                write_tenants(&fleet.tenants).remove(&tenant);
                admin.done.migrations_out += 1;
                fleet.touch();
                return Ok(());
            }
            Effect::Abort { reoffer, error } => {
                let mut sup = lock(&slot.sup);
                respawn_slot(&fleet.cfg, &slot, &mut sup);
                sup.detached = false;
                drop(sup);
                slot.queue.reroute(&reoffer);
                admin.done.migrate_failed += 1;
                fleet.touch();
                return Err(error);
            }
            Effect::Reroute(error) => {
                slot.queue.reroute(&[]);
                return Err(error);
            }
        };
    }
}

/// The capture of a settled tenant. Detach the slot from the watchdog,
/// so the fenced worker is not mistaken for a crash and respawned
/// mid-transfer; fence the worker (it exits through its flush path) and
/// take the queue's stable views; join the worker, so its final flush is
/// on disk before the destination cuts and regenerates the log; and read
/// the newest state slot's container, byte for byte as it was committed.
fn capture(cfg: &DaemonConfig, slot: &Slot) -> Captured {
    let handle = {
        let mut sup = lock(&slot.sup);
        sup.detached = true;
        sup.handle.take()
    };
    let (_generation, replay) = slot.queue.recovery_view();
    let pending = slot.queue.drain_pending();
    let (live_highwater, live_stats) = slot.queue.snapshot_view();
    let _ = handle.map(WorkerHandle::join);
    let state = read_tenant_snapshot(&tenant_state_path(&cfg.state_dir, slot.id))
        .map(|stored| stored.map(|s| (s.bytes, s.state.round)));
    Captured {
        replay,
        pending,
        live_highwater,
        live_stats,
        state,
    }
}

/// An administrative fleet call, `net_io::fleet_call` with a 30 s
/// timeout: a bundle push, and the command line's `migrate` and
/// `status`. Sends `command` and an optional framed `payload` to `addr`
/// and returns the reply lines.
///
/// # Errors
///
/// Any connect, write or read failure, or a timeout.
pub fn admin_call(addr: &str, command: &str, payload: Option<&[u8]>) -> io::Result<Vec<String>> {
    fleet_call(addr, command, payload, Duration::from_secs(30))
}

/// Ships an encoded bundle to a peer's fleet port: `MPUSH <tenant>`,
/// the framed bytes, then waits for `MOK <tenant>` / `MERR <reason>`.
///
/// # Errors
///
/// [`MigrateError::Io`] on transport failure (a 30 s timeout bounds
/// the connect and every read and write), [`MigrateError::Refused`]
/// if the peer answers `MERR` (or anything other than a matching
/// `MOK`).
pub fn push_bundle(addr: &str, tenant: usize, encoded: &[u8]) -> Result<(), MigrateError> {
    let command = format!("MPUSH {tenant}");
    let reply = admin_call(addr, &command, Some(encoded)).map_err(MigrateError::Io)?;
    let reply = reply.first().map_or("", String::as_str);
    match parse_fleet_line(reply) {
        Ok(Some(FleetMsg::PushOk { tenant: t })) if t == tenant => Ok(()),
        Ok(Some(FleetMsg::PushErr(reason))) => Err(MigrateError::Refused(reason)),
        _ => Err(MigrateError::Refused(format!("unexpected reply {reply:?}"))),
    }
}

/// Renders the status dump (fleet port `STATUS` and ingest `Q status`
/// share it, under different line prefixes).
pub(crate) fn status_dump(prefix: &str, fleet: &Fleet) -> Vec<String> {
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
    let stopped = || fleet.stop.load(Ordering::SeqCst);
    // A failed accept is retried on the next poll.
    while let Ok(Some(stream)) = accept_polling(listener, POLL, stopped, |_| Ok(())) {
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
            // Any contact clears a suspicion (and ends boot grace); it
            // never confirms a death, so nothing is adopted here.
            let contact = [PeerEvent::Contact(from)];
            lock(&fleet.monitor).step(fleet.elapsed_ms(), &contact, |_| true);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::migrate::{Captured, Effect, Facts, Migration};
    use crate::queue::{Offer, QueuePolicy, SharedQueue};
    use crate::wire::Report;

    fn report(seq: u64) -> Report {
        Report { tenant: 0, time: seq, src: 1, seq, x: 0.0, y: 0.0 }
    }

    /// A tenant worker stepped by hand: it applies what it pops, commits
    /// a snapshot at each snapshot tick and completes ticks, as
    /// `run_worker` does, and a respawn replays the recovery buffer
    /// without snapshotting.
    struct Worker {
        generation: u64,
        committed: Vec<u64>,
        uncommitted: Vec<u64>,
    }

    impl Worker {
        fn apply(&mut self, q: &SharedQueue, item: WorkItem, live: bool) {
            match item {
                WorkItem::Record(r) => self.uncommitted.push(r.seq),
                WorkItem::TickEnd(t) => {
                    if live
                        && q.is_snapshot_tick(t)
                        && q.commit_snapshot(self.generation, || Ok::<(), ()>(())) == Ok(true)
                    {
                        self.committed.append(&mut self.uncommitted);
                    }
                    q.complete_tick(self.generation, t);
                }
                other => panic!("unexpected item {other:?}"),
            }
        }

        /// Applies everything issued to this incarnation.
        fn run(&mut self, q: &SharedQueue) {
            while q.has_outstanding() {
                let Some(item) = q.pop(self.generation) else {
                    return;
                };
                self.apply(q, item, true);
            }
        }

        /// `respawn_slot`: fence the queue, drop what no snapshot holds,
        /// and replay the recovery buffer.
        fn respawn(&mut self, q: &SharedQueue) {
            let (generation, replay) = q.recovery_view();
            self.generation = generation;
            self.uncommitted.clear();
            for item in replay {
                self.apply(q, item, false);
            }
        }
    }

    /// One migration racing a parked tick close (see the test below),
    /// the barrier released at hook `release_at`; returns how it ended.
    fn migrate_parked(release_at: usize, push_ok: bool) -> &'static str {
        let policy = QueuePolicy { capacity: 64, tick_budget: 8, record_shed: false };
        let q = Arc::new(SharedQueue::with_snapshot_every(policy, 2));
        let mut worker = Worker { generation: 0, committed: Vec::new(), uncommitted: Vec::new() };
        let (mut offered, mut foreign, mut next_seq) = (Vec::new(), Vec::new(), 1);
        let mut offer = |q: &SharedQueue| {
            offered.push(next_seq);
            if q.offer(report(next_seq)) == Offer::Unrouted {
                foreign.push(next_seq);
            }
            next_seq += 1;
        };
        let close = |q: &SharedQueue, tick| {
            q.end_tick_with(tick, |batch, out| out.resize(batch.len(), 0));
        };
        for tick in 1..=2 {
            offer(&q);
            close(&q, tick);
        }
        // Tick 1 applied; tick 2 is issued and waits on the worker.
        for _ in 0..2 {
            let item = q.pop(0).unwrap();
            worker.apply(&q, item, true);
        }
        offer(&q);
        let mut router = Some({
            let q = Arc::clone(&q);
            std::thread::spawn(move || close(&q, 3))
        });
        while q.stats().backpressure_waits < 1 {
            std::thread::yield_now();
        }

        // At each hook the router offers a record, the worker applies
        // tick 2 if this is the hook, and while the tenant is unrouted
        // its last tick must be the one it had at the unroute.
        let mut hook = 0;
        let mut unrouted_at: Option<u64> = None;
        let mut at_hook = |q: &SharedQueue, worker: &mut Worker, unrouted: Option<u64>| {
            offer(q);
            if hook == release_at {
                worker.run(q);
                router.take().unwrap().join().unwrap();
                worker.run(q);
            }
            if let Some(tick) = unrouted {
                assert_eq!(q.last_tick(), tick, "a tick issued while unrouted");
            }
            hook += 1;
            hook
        };
        let facts = Facts { closed: false, tenants: 1, seed: 7, hosted: true, dest_known: true };
        let (mut migration, mut effect) = Migration::start(0, 1, &facts).unwrap();
        let mut bundle = None;
        let outcome = loop {
            at_hook(&q, &mut worker, unrouted_at);
            effect = match effect {
                Effect::Unroute => {
                    q.set_routed(false);
                    unrouted_at = Some(q.last_tick());
                    at_hook(&q, &mut worker, unrouted_at);
                    migration.on_settled(q.wait_settled(Duration::ZERO))
                }
                Effect::Capture => {
                    let (_generation, replay) = q.recovery_view();
                    let pending = q.drain_pending();
                    let (live_highwater, live_stats) = q.snapshot_view();
                    let state = Ok(None);
                    migration.on_captured(Captured {
                        replay,
                        pending,
                        live_highwater,
                        live_stats,
                        state,
                    })
                }
                Effect::Push(pushed) => {
                    bundle = Some(pushed);
                    let refused = MigrateError::Refused("the destination said no".into());
                    migration.on_pushed(if push_ok { Ok(()) } else { Err(refused) })
                }
                Effect::Release => break "release",
                Effect::Abort { reoffer, error } => {
                    assert_eq!(error.kind(), "refused");
                    worker.respawn(&q);
                    q.reroute(&reoffer);
                    unrouted_at = None;
                    break "abort";
                }
                Effect::Reroute(error) => {
                    assert!(error.to_string().contains("did not drain in time"), "{error}");
                    q.reroute(&[]);
                    unrouted_at = None;
                    break "reroute";
                }
            };
        };
        // After the last effect; a release still due lands here.
        while at_hook(&q, &mut worker, unrouted_at) <= release_at {}
        let mut accounted = Vec::new();
        if outcome == "release" {
            let bundle = bundle.unwrap();
            for item in &bundle.replay {
                if let WorkItem::Record(r) = item {
                    accounted.push(r.seq);
                }
            }
            accounted.extend(bundle.pending.iter().map(|r| r.seq));
        } else {
            // Kept: the router closes one more tick, the worker applies it.
            close(&q, q.last_tick() + 1);
            worker.run(&q);
            accounted.extend(&worker.uncommitted);
        }
        accounted.extend(&worker.committed);
        accounted.extend(&foreign);
        accounted.sort_unstable();
        assert_eq!(accounted, offered, "release at {release_at}, push ok {push_ok}: {outcome}");
        outcome
    }

    /// The unroute race, step by step: a migration unroutes a tenant
    /// while the router's tick close is parked. Tick 2, a snapshot tick, is
    /// issued and not yet applied, so the router's close of tick 3 parks
    /// on the snapshot barrier (seen through `backpressure_waits`, with
    /// no sleep). A `Migration`'s effects then run against the real
    /// queue, with the queue calls `migrate_out` and `capture` make, for
    /// both push outcomes. The worker applies tick 2, which releases the
    /// barrier, at each hook between effects in turn, including inside
    /// the drain wait; the router offers a record at each hook too.
    ///
    /// From the unroute until the tenant is routed again no tick may be
    /// issued, so the capture sees all the tenant ever took, and every
    /// offered record must be accounted for exactly once: applied (for a
    /// released tenant: in a committed snapshot), in the bundle's replay
    /// or pending set, or counted foreign. The drain wait settles only
    /// once tick 2 is applied, so a later release reroutes.
    #[test]
    fn a_migration_accounts_for_every_record_wherever_the_parked_tick_lands() {
        for release_at in 0..6 {
            for push_ok in [true, false] {
                let expected = match (release_at <= 1, push_ok) {
                    (true, true) => "release",
                    (true, false) => "abort",
                    (false, _) => "reroute",
                };
                let outcome = migrate_parked(release_at, push_ok);
                assert_eq!(outcome, expected, "release at {release_at}, push ok {push_ok}");
            }
        }
    }
}

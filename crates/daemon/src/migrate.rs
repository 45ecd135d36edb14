//! Live-migration bundles: everything one tenant needs to move between
//! daemons with zero record loss, packed in the PR-5 snapshot
//! container and shipped as one CRC-framed blob.
//!
//! A bundle carries three things:
//!
//! 1. **The tenant's durable state file bytes** — the same `TBSN`
//!    container [`crate::state`] writes to disk, embedded verbatim, so
//!    the receiver resumes it *exactly* as crash-resume does today
//!    (decode, rebuild engine, truncate the decision log to the
//!    snapshot round).
//! 2. **The live dedup highwaters and counters** — ahead of the
//!    embedded snapshot's, covering records the source admitted *or
//!    shed* since its last snapshot. Seeding these before any catch-up
//!    stream is what prevents both double-apply and shed-record
//!    resurrection on the new owner.
//! 3. **The recovery replay buffer** — records and tick boundaries
//!    issued since the last snapshot, with tick numbers renumbered to
//!    `1..=k` so the receiver's fresh per-slot tick counter accepts
//!    them. Replaying it regenerates the decision-log suffix
//!    byte-identically, exactly like a watchdog respawn.
//!
//! Every decode failure is a typed [`MigrateError`]; nothing panics,
//! and a failed transfer leaves the source tenant untouched (the
//! source only releases a tenant after the receiver acknowledges the
//! install).
//!
//! The decisions of a transfer live here too, with no I/O: the source
//! side is the [`Migration`] step machine, which returns each
//! [`Effect`] for the driver to carry out, and the receiving side is
//! [`check_install`].

use std::fmt;

use tibfit_sim::snapshot::{FrameError, SnapshotError, SnapshotReader, SnapshotWriter};

use crate::queue::{QueueStats, WorkItem};
use crate::state::decode_tenant_state;
use crate::wire::Report;
use crate::DaemonError;

/// Section tag: bundle metadata (tenant id, seed, snapshot round).
const TAG_MIGRATE_META: u8 = 30;
/// Section tag: embedded tenant state-file container bytes.
const TAG_MIGRATE_STATE: u8 = 31;
/// Section tag: live dedup highwaters + live queue counters.
const TAG_MIGRATE_LIVE: u8 = 32;
/// Section tag: renumbered recovery replay buffer.
const TAG_MIGRATE_REPLAY: u8 = 33;
/// Section tag: the open tick's pending (offered, not yet admitted)
/// records, captured un-highwatered so the receiver re-offers them
/// into the same batch they would have competed in.
const TAG_MIGRATE_PENDING: u8 = 34;

/// Hard bound on a framed bundle accepted off a socket — keeps a
/// corrupt or hostile length field from driving a huge allocation.
pub const MAX_BUNDLE_BYTES: u64 = 256 * 1024 * 1024;

/// Replay-item tag inside [`TAG_MIGRATE_REPLAY`].
const ITEM_RECORD: u8 = 0;
const ITEM_TICK_END: u8 = 1;

/// Every way a live migration can fail. The transfer protocol is
/// fail-closed: any variant means the receiver installed nothing and
/// the source keeps serving.
#[derive(Debug)]
pub enum MigrateError {
    /// The framed socket transfer failed (disconnect, bad magic,
    /// length bound, CRC).
    Frame(FrameError),
    /// The bundle container (or a field inside it) is malformed.
    Container(SnapshotError),
    /// The bundle is structurally valid but contradicts itself or the
    /// receiver's configuration (wrong tenant, seed mismatch, ...).
    Mismatch(String),
    /// Socket or filesystem I/O outside the framed transfer.
    Io(std::io::Error),
    /// The peer refused the transfer (its `MERR` reason).
    Refused(String),
}

impl MigrateError {
    /// Stable counter key for the failure breakdown
    /// (`fleet.migrate.failed.<kind>`).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            MigrateError::Frame(_) => "frame",
            MigrateError::Container(_) => "container",
            MigrateError::Mismatch(_) => "mismatch",
            MigrateError::Io(_) => "io",
            MigrateError::Refused(_) => "refused",
        }
    }
}

impl fmt::Display for MigrateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MigrateError::Frame(e) => write!(f, "framed transfer: {e}"),
            MigrateError::Container(e) => write!(f, "malformed bundle: {e}"),
            MigrateError::Mismatch(msg) => write!(f, "bundle mismatch: {msg}"),
            MigrateError::Io(e) => write!(f, "transfer I/O: {e}"),
            MigrateError::Refused(reason) => write!(f, "peer refused: {reason}"),
        }
    }
}

impl std::error::Error for MigrateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MigrateError::Frame(e) => Some(e),
            MigrateError::Container(e) => Some(e),
            MigrateError::Io(e) => Some(e),
            MigrateError::Mismatch(_) | MigrateError::Refused(_) => None,
        }
    }
}

impl From<FrameError> for MigrateError {
    fn from(e: FrameError) -> Self {
        MigrateError::Frame(e)
    }
}

impl From<SnapshotError> for MigrateError {
    fn from(e: SnapshotError) -> Self {
        MigrateError::Container(e)
    }
}

/// One tenant, packed for transport.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationBundle {
    /// Tenant index.
    pub tenant: usize,
    /// The tenant's scenario seed (validated against the receiver's
    /// configuration before anything is installed).
    pub seed: u64,
    /// Engine round of the embedded snapshot — the round the receiver
    /// truncates the decision log to before replaying the buffer.
    pub state_round: u64,
    /// The tenant's durable state file, byte-for-byte.
    pub state_bytes: Vec<u8>,
    /// Live dedup highwaters `(src, max_seq)` — at or ahead of the
    /// embedded snapshot's map.
    pub live_highwater: Vec<(u64, u64)>,
    /// Live queue counters.
    pub live_stats: QueueStats,
    /// Recovery buffer since the last snapshot: records and tick
    /// boundaries, tick numbers renumbered to `1..=k` by
    /// [`encode_bundle`].
    pub replay: Vec<WorkItem>,
    /// The open tick's pending records, drained from the source queue
    /// without advancing its highwaters. The receiver offers them after
    /// seeding the live highwaters; the next tick boundary admits them.
    pub pending: Vec<Report>,
}

fn put_report(s: &mut tibfit_sim::snapshot::SectionBuf, r: &Report) {
    s.put_usize(r.tenant);
    s.put_u64(r.time);
    s.put_u64(r.src);
    s.put_u64(r.seq);
    s.put_f64(r.x);
    s.put_f64(r.y);
}

fn take_report(s: &mut tibfit_sim::snapshot::SectionReader<'_>) -> Result<Report, SnapshotError> {
    Ok(Report {
        tenant: s.take_usize()?,
        time: s.take_u64()?,
        src: s.take_u64()?,
        seq: s.take_u64()?,
        x: s.take_f64()?,
        y: s.take_f64()?,
    })
}

/// Encodes a bundle. Replay tick boundaries are renumbered to `1..=k`
/// in encounter order so the receiver's fresh tick counter lines up;
/// queries and shutdown markers never appear in a recovery buffer and
/// are skipped defensively.
#[must_use]
pub fn encode_bundle(bundle: &MigrationBundle) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    w.section(TAG_MIGRATE_META, |s| {
        s.put_usize(bundle.tenant);
        s.put_u64(bundle.seed);
        s.put_u64(bundle.state_round);
    });
    w.section(TAG_MIGRATE_STATE, |s| s.put_bytes(&bundle.state_bytes));
    w.section(TAG_MIGRATE_LIVE, |s| {
        s.put_usize(bundle.live_highwater.len());
        for &(src, seq) in &bundle.live_highwater {
            s.put_u64(src);
            s.put_u64(seq);
        }
        s.put_u64(bundle.live_stats.offered);
        s.put_u64(bundle.live_stats.admitted);
        s.put_u64(bundle.live_stats.shed_budget);
        s.put_u64(bundle.live_stats.shed_overflow);
        s.put_u64(bundle.live_stats.duplicates);
        s.put_u64(bundle.live_stats.backpressure_waits);
    });
    w.section(TAG_MIGRATE_PENDING, |s| {
        s.put_usize(bundle.pending.len());
        for r in &bundle.pending {
            put_report(s, r);
        }
    });
    w.section(TAG_MIGRATE_REPLAY, |s| {
        let items: Vec<&WorkItem> = bundle
            .replay
            .iter()
            .filter(|i| matches!(i, WorkItem::Record(_) | WorkItem::TickEnd(_)))
            .collect();
        s.put_usize(items.len());
        let mut next_tick = 0u64;
        for item in items {
            match item {
                WorkItem::Record(r) => {
                    s.put_u8(ITEM_RECORD);
                    put_report(s, r);
                }
                WorkItem::TickEnd(_) => {
                    next_tick += 1;
                    s.put_u8(ITEM_TICK_END);
                    s.put_u64(next_tick);
                }
                WorkItem::Query(_) | WorkItem::Shutdown => unreachable!("filtered above"),
            }
        }
    });
    w.finish()
}

/// Decodes a bundle. Purely structural — semantic checks (tenant
/// identity, seed agreement) happen at install time, where the
/// receiver's configuration is in scope.
///
/// # Errors
///
/// [`MigrateError::Container`] for any malformed byte,
/// [`MigrateError::Mismatch`] for a replay item with an unknown tag.
pub fn decode_bundle(bytes: &[u8]) -> Result<MigrationBundle, MigrateError> {
    let mut r = SnapshotReader::new(bytes)?;
    let mut s = r.section(TAG_MIGRATE_META)?;
    let tenant = s.take_usize()?;
    let seed = s.take_u64()?;
    let state_round = s.take_u64()?;
    s.end()?;
    let mut s = r.section(TAG_MIGRATE_STATE)?;
    let state_bytes = s.take_bytes()?;
    s.end()?;
    let mut s = r.section(TAG_MIGRATE_LIVE)?;
    let n = s.take_count(16)?;
    let mut live_highwater = Vec::with_capacity(n);
    for _ in 0..n {
        let src = s.take_u64()?;
        let seq = s.take_u64()?;
        live_highwater.push((src, seq));
    }
    let live_stats = QueueStats {
        offered: s.take_u64()?,
        admitted: s.take_u64()?,
        shed_budget: s.take_u64()?,
        shed_overflow: s.take_u64()?,
        duplicates: s.take_u64()?,
        backpressure_waits: s.take_u64()?,
    };
    s.end()?;
    let mut s = r.section(TAG_MIGRATE_PENDING)?;
    let n = s.take_count(48)?;
    let mut pending = Vec::with_capacity(n);
    for _ in 0..n {
        pending.push(take_report(&mut s)?);
    }
    s.end()?;
    let mut s = r.section(TAG_MIGRATE_REPLAY)?;
    let n = s.take_count(2)?;
    let mut replay = Vec::with_capacity(n);
    let mut last_tick = 0u64;
    for _ in 0..n {
        match s.take_u8()? {
            ITEM_RECORD => {
                replay.push(WorkItem::Record(take_report(&mut s)?));
            }
            ITEM_TICK_END => {
                let tick = s.take_u64()?;
                if tick != last_tick + 1 {
                    return Err(MigrateError::Mismatch(format!(
                        "replay tick {tick} breaks the 1..=k renumbering"
                    )));
                }
                last_tick = tick;
                replay.push(WorkItem::TickEnd(tick));
            }
            other => {
                return Err(MigrateError::Mismatch(format!(
                    "unknown replay item tag {other}"
                )))
            }
        }
    }
    s.end()?;
    r.finish()?;
    Ok(MigrationBundle {
        tenant,
        seed,
        state_round,
        state_bytes,
        live_highwater,
        live_stats,
        replay,
        pending,
    })
}

/// What an outbound migration or an install is decided on: the facts
/// about this daemon, gathered under the lock that serializes adoption,
/// install and migration, so they hold until the caller lets go of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Facts {
    /// The daemon has stopped: installs and migrations are refused.
    pub closed: bool,
    /// The fleet's tenant count; tenant ids run `0..tenants`.
    pub tenants: usize,
    /// The configured scenario seed of the tenant in question.
    pub seed: u64,
    /// The tenant in question is hosted here.
    pub hosted: bool,
    /// A migration's destination is a configured peer.
    pub dest_known: bool,
}

/// What the driver must do next for an outbound [`Migration`]. The first
/// three are answered by one `Migration::on_*` call each; the last three
/// end the migration, and which one it is decides what is counted.
#[derive(Debug)]
pub enum Effect {
    /// Unroute the tenant (its queue admits no record and issues no tick
    /// from here on), wait for its issued ticks to complete, and answer
    /// [`Migration::on_settled`].
    Unroute,
    /// Detach the slot from the watchdog, fence its worker, take the
    /// queue's recovery buffer, pending records and live views, join the
    /// worker, read the newest state slot, and answer
    /// [`Migration::on_captured`].
    Capture,
    /// Ship the bundle to the destination and answer
    /// [`Migration::on_pushed`] with its reply.
    Push(MigrationBundle),
    /// The destination installed the tenant: supersede its log sink and
    /// drop it from the table. Counted in `migrations_out`.
    Release,
    /// Keep serving locally: respawn the worker from its snapshot and
    /// recovery buffer, then route the tenant again with `reoffer` back
    /// in its open tick. Counted in `migrate_failed`; fails with `error`.
    Abort {
        /// The captured pending records.
        reoffer: Vec<Report>,
        /// Why the migration failed.
        error: MigrateError,
    },
    /// The queue never settled, so nothing was captured and the worker
    /// still serves the tenant: route it again. Counted in neither; fails
    /// with the error it carries.
    Reroute(MigrateError),
}

/// What [`Effect::Capture`] took.
#[derive(Debug)]
pub struct Captured {
    /// The recovery buffer since the last snapshot.
    pub replay: Vec<WorkItem>,
    /// The open tick's pending records.
    pub pending: Vec<Report>,
    /// The live dedup highwaters.
    pub live_highwater: Vec<(u64, u64)>,
    /// The live queue counters.
    pub live_stats: QueueStats,
    /// The newest state slot's container bytes and round, `None` for a
    /// tenant that never snapshotted, or why the slot could not be read.
    pub state: Result<Option<(Vec<u8>, u64)>, DaemonError>,
}

/// One outbound live migration as a step machine that does no I/O:
/// unroute, capture, push, then release on the destination's `MOK`, or
/// abort and keep serving. [`Migration::start`] makes the refusals and
/// returns the first [`Effect`]; each `on_*` call takes the outcome of
/// the effect before it and returns the next one, until an ending one.
#[derive(Debug)]
pub struct Migration {
    tenant: usize,
    seed: u64,
    /// The captured pending records, kept for an abort after the push.
    pending: Vec<Report>,
}

impl Migration {
    /// Starts moving `tenant` to daemon `dest`, or refuses: the daemon
    /// has stopped, the destination is unknown, or the tenant is not
    /// hosted here. The first effect is always [`Effect::Unroute`].
    ///
    /// # Errors
    ///
    /// [`MigrateError::Refused`] once the daemon has stopped,
    /// [`MigrateError::Mismatch`] for the other two refusals.
    pub fn start(
        tenant: usize,
        dest: usize,
        facts: &Facts,
    ) -> Result<(Self, Effect), MigrateError> {
        if facts.closed {
            return Err(MigrateError::Refused("the daemon has stopped".into()));
        }
        if !facts.dest_known {
            return Err(MigrateError::Mismatch(format!("unknown destination daemon {dest}")));
        }
        if !facts.hosted {
            return Err(MigrateError::Mismatch(format!("tenant {tenant} is not hosted here")));
        }
        let migration = Migration {
            tenant,
            seed: facts.seed,
            pending: Vec::new(),
        };
        Ok((migration, Effect::Unroute))
    }

    /// Whether every issued tick completed in time: capture, or give up
    /// with nothing captured.
    pub fn on_settled(&self, settled: bool) -> Effect {
        if settled {
            return Effect::Capture;
        }
        let why = format!("tenant {} did not drain in time", self.tenant);
        Effect::Reroute(MigrateError::Mismatch(why))
    }

    /// Packs the capture into the bundle to push, or aborts when the
    /// state slot could not be read.
    pub fn on_captured(&mut self, captured: Captured) -> Effect {
        let (state_bytes, state_round) = match captured.state {
            Ok(state) => state.unwrap_or_default(),
            Err(e) => {
                let error = match e {
                    DaemonError::Io(e) => MigrateError::Io(e),
                    e => MigrateError::Mismatch(format!("state file: {e}")),
                };
                let reoffer = captured.pending;
                return Effect::Abort { reoffer, error };
            }
        };
        self.pending.clone_from(&captured.pending);
        Effect::Push(MigrationBundle {
            tenant: self.tenant,
            seed: self.seed,
            state_round,
            state_bytes,
            live_highwater: captured.live_highwater,
            live_stats: captured.live_stats,
            replay: captured.replay,
            pending: captured.pending,
        })
    }

    /// The destination's answer: release on its `MOK`, abort otherwise.
    pub fn on_pushed(&mut self, pushed: Result<(), MigrateError>) -> Effect {
        match pushed {
            Ok(()) => Effect::Release,
            Err(error) => {
                let reoffer = std::mem::take(&mut self.pending);
                Effect::Abort { reoffer, error }
            }
        }
    }
}

/// Whether this daemon may install `bundle`: it is refused once the
/// daemon has stopped, for a tenant outside the fleet's range, for a
/// seed other than the configured one, for a tenant already hosted here,
/// and for embedded state that does not decode or disagrees with the
/// bundle. The caller then writes (or, for an empty state, removes) the
/// state file and builds the slot.
///
/// # Errors
///
/// [`MigrateError::Refused`] once the daemon has stopped,
/// [`MigrateError::Mismatch`] for every other refusal.
pub fn check_install(bundle: &MigrationBundle, facts: &Facts) -> Result<(), MigrateError> {
    let (tenant, seed) = (bundle.tenant, facts.seed);
    let mismatch = |why: String| Err(MigrateError::Mismatch(why));
    if facts.closed {
        return Err(MigrateError::Refused("the daemon has stopped".into()));
    }
    if tenant >= facts.tenants {
        let why = format!("tenant {tenant} is outside this fleet's 0..{} range", facts.tenants);
        return mismatch(why);
    }
    if bundle.seed != seed {
        let got = bundle.seed;
        let why = format!("bundle seed {got} does not match the configured scenario seed {seed}");
        return mismatch(why);
    }
    if facts.hosted {
        return mismatch(format!("tenant {tenant} is already hosted here"));
    }
    if !bundle.state_bytes.is_empty() {
        let st = decode_tenant_state(&bundle.state_bytes)
            .map_err(|e| MigrateError::Mismatch(format!("embedded state: {e}")))?;
        if st.id != tenant || st.seed != seed || st.round != bundle.state_round {
            return mismatch("embedded state disagrees with the bundle metadata".into());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bundle() -> MigrationBundle {
        MigrationBundle {
            tenant: 3,
            seed: 0xFEED,
            state_round: 12,
            state_bytes: vec![1, 2, 3, 4, 5],
            live_highwater: vec![(3, 40), (7, 41)],
            live_stats: QueueStats {
                offered: 50,
                admitted: 40,
                shed_budget: 6,
                shed_overflow: 1,
                duplicates: 3,
                backpressure_waits: 2,
            },
            replay: vec![
                WorkItem::Record(Report {
                    tenant: 3,
                    time: 12,
                    src: 3,
                    seq: 40,
                    x: 1.5,
                    y: -0.25,
                }),
                WorkItem::TickEnd(1),
                WorkItem::Record(Report {
                    tenant: 3,
                    time: 13,
                    src: 7,
                    seq: 41,
                    x: 0.0,
                    y: 9.0,
                }),
                WorkItem::TickEnd(2),
            ],
            pending: vec![Report {
                tenant: 3,
                time: 14,
                src: 3,
                seq: 42,
                x: 2.5,
                y: 0.5,
            }],
        }
    }

    #[test]
    fn bundle_round_trips() {
        let bundle = sample_bundle();
        let bytes = encode_bundle(&bundle);
        let back = decode_bundle(&bytes).unwrap();
        assert_eq!(back, bundle);
    }

    #[test]
    fn encode_renumbers_ticks_from_one() {
        let mut bundle = sample_bundle();
        // Source tick numbers are arbitrary — 17 and 18, say.
        bundle.replay[1] = WorkItem::TickEnd(17);
        bundle.replay[3] = WorkItem::TickEnd(18);
        let back = decode_bundle(&encode_bundle(&bundle)).unwrap();
        assert_eq!(back.replay[1], WorkItem::TickEnd(1));
        assert_eq!(back.replay[3], WorkItem::TickEnd(2));
    }

    #[test]
    fn any_bit_flip_is_a_typed_error() {
        let bytes = encode_bundle(&sample_bundle());
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x10;
            if corrupt == bytes {
                continue;
            }
            // Either a typed error or (for a flip in slack-free fields
            // like the seed) a decode to different-but-valid content —
            // never a panic. Structural fields must error.
            let _ = decode_bundle(&corrupt);
        }
        // A CRC-covered payload flip specifically must error.
        let mut corrupt = bytes.clone();
        corrupt[10] ^= 0x01;
        assert!(decode_bundle(&corrupt).is_err());
    }

    #[test]
    fn truncation_anywhere_is_a_typed_error() {
        let bytes = encode_bundle(&sample_bundle());
        for cut in 0..bytes.len() {
            assert!(decode_bundle(&bytes[..cut]).is_err(), "cut at {cut} slipped through");
        }
    }

    #[test]
    fn broken_renumbering_is_rejected() {
        let mut bundle = sample_bundle();
        bundle.replay.truncate(2);
        let mut bytes = encode_bundle(&bundle);
        // Rewrite the single TickEnd's number from 1 to 2 and fix the
        // section CRC so only the semantic check can catch it.
        let pos = bytes.len() - 4 - 8; // CRC32 + tick u64
        bytes[pos] = 2;
        let crc_pos = bytes.len() - 4;
        let payload_start = crc_pos
            - (8 /* count */ + 1 + 8 /* count+record fields */ + 8 * 5 + 1 + 8);
        let crc = tibfit_sim::snapshot::crc32(&bytes[payload_start..crc_pos]);
        bytes[crc_pos..].copy_from_slice(&crc.to_le_bytes());
        match decode_bundle(&bytes) {
            Err(MigrateError::Mismatch(msg)) => assert!(msg.contains("renumbering")),
            other => panic!("expected Mismatch, got {other:?}"),
        }
    }

    #[test]
    fn errors_display_and_kind() {
        let eof = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "eof");
        for (e, kind) in [
            (MigrateError::Frame(FrameError::BadMagic), "frame"),
            (MigrateError::Container(SnapshotError::Truncated), "container"),
            (MigrateError::Mismatch("x".into()), "mismatch"),
            (MigrateError::Io(eof), "io"),
            (MigrateError::Refused("busy".into()), "refused"),
        ] {
            assert!(!e.to_string().is_empty());
            assert_eq!(e.kind(), kind);
        }
    }

    fn facts() -> Facts {
        Facts { closed: false, tenants: 4, seed: 0xFEED, hosted: false, dest_known: true }
    }

    /// Tenant 3's state file bytes at round 0, under seed `0xFEED`.
    fn state_bytes() -> Vec<u8> {
        use tibfit_experiments::replay::FieldScenario;
        let mobile = FieldScenario::mobile(0xFEED);
        let scenario = FieldScenario { nodes: 16, clusters: 2, field: 40.0, faulty: 4, ..mobile };
        let kind = crate::EngineKind::Sequential;
        let tenant = crate::tenant::Tenant::new(3, scenario, kind, 1).unwrap();
        crate::state::encode_tenant_state(&tenant, &[(3, 40)], QueueStats::default()).unwrap()
    }

    /// One case per refusal, in the order they are checked: each
    /// refused by kind and message, and the unchanged bundle accepted,
    /// with and without embedded state.
    #[test]
    fn check_install_refuses_each_case_by_kind_and_message() {
        let state_bytes = state_bytes();
        let good = MigrationBundle { state_bytes, state_round: 0, ..sample_bundle() };
        assert!(check_install(&good, &facts()).is_ok());
        let fresh = MigrationBundle { state_bytes: Vec::new(), ..sample_bundle() };
        assert!(check_install(&fresh, &facts()).is_ok(), "no snapshot: nothing to decode");
        let cases: Vec<(&str, MigrationBundle, Facts, &str, &str)> = vec![
            ("closed", good.clone(), Facts { closed: true, hosted: true, ..facts() }, "refused",
                "peer refused: the daemon has stopped"),
            ("out of range", MigrationBundle { tenant: 4, ..good.clone() }, facts(), "mismatch",
                "bundle mismatch: tenant 4 is outside this fleet's 0..4 range"),
            ("seed", MigrationBundle { seed: 7, ..good.clone() }, facts(), "mismatch",
                "bundle mismatch: bundle seed 7 does not match the configured scenario seed 65261"),
            ("hosted", good.clone(), Facts { hosted: true, ..facts() }, "mismatch",
                "bundle mismatch: tenant 3 is already hosted here"),
            ("state round", MigrationBundle { state_round: 12, ..good.clone() }, facts(),
                "mismatch", "bundle mismatch: embedded state disagrees with the bundle metadata"),
            ("state tenant", MigrationBundle { tenant: 2, ..good.clone() }, facts(),
                "mismatch", "bundle mismatch: embedded state disagrees with the bundle metadata"),
            ("state bytes", MigrationBundle { state_bytes: vec![1, 2, 3], ..good.clone() }, facts(),
                "mismatch", "bundle mismatch: embedded state: "),
        ];
        for (name, bundle, facts, kind, message) in cases {
            let e = check_install(&bundle, &facts).expect_err(name);
            assert_eq!(e.kind(), kind, "{name}");
            assert!(e.to_string().starts_with(message), "{name}: {e}");
            if name != "state bytes" {
                assert_eq!(e.to_string(), message, "{name}");
            }
        }
    }

    #[test]
    fn a_migration_refuses_before_it_unroutes() {
        let start = |f: Facts| Migration::start(3, 9, &f).map(|(_, effect)| effect);
        for (f, kind, message) in [
            (Facts { closed: true, dest_known: false, ..facts() }, "refused",
                "peer refused: the daemon has stopped"),
            (Facts { dest_known: false, ..facts() }, "mismatch",
                "bundle mismatch: unknown destination daemon 9"),
            (facts(), "mismatch", "bundle mismatch: tenant 3 is not hosted here"),
        ] {
            let e = start(f).expect_err(message);
            assert_eq!((e.kind(), e.to_string().as_str()), (kind, message));
        }
        assert!(matches!(start(Facts { hosted: true, ..facts() }), Ok(Effect::Unroute)));
    }

    fn captured(state: Result<Option<(Vec<u8>, u64)>, DaemonError>) -> Captured {
        let bundle = sample_bundle();
        Captured {
            replay: bundle.replay,
            pending: bundle.pending,
            live_highwater: bundle.live_highwater,
            live_stats: bundle.live_stats,
            state,
        }
    }

    /// Every path through the steps: the bundle packs the capture, a
    /// `MOK` releases, and a failed push or state read aborts with the
    /// captured pending records to re-offer, while an unsettled queue
    /// reroutes with nothing captured.
    #[test]
    fn each_step_returns_the_next_effect() {
        let started = || Migration::start(3, 9, &Facts { hosted: true, ..facts() }).unwrap().0;
        let pending = sample_bundle().pending;

        let mut m = started();
        assert!(matches!(m.on_settled(true), Effect::Capture));
        let state = Ok(Some((vec![1, 2, 3, 4, 5], 12)));
        let Effect::Push(bundle) = m.on_captured(captured(state)) else {
            panic!("a capture with its state is pushed");
        };
        assert_eq!(bundle, sample_bundle());
        assert!(matches!(m.on_pushed(Ok(())), Effect::Release));

        let mut m = started();
        let Effect::Push(bundle) = m.on_captured(captured(Ok(None))) else {
            panic!("a tenant without a snapshot is pushed");
        };
        assert_eq!((bundle.state_bytes, bundle.state_round), (Vec::new(), 0));
        match m.on_pushed(Err(MigrateError::Refused("busy".into()))) {
            Effect::Abort { reoffer, error } => {
                assert_eq!(reoffer, pending);
                assert_eq!(error.to_string(), "peer refused: busy");
            }
            other => panic!("a refused push aborts, not {other:?}"),
        }

        let eof = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "eof");
        for (state, kind) in [
            (DaemonError::Io(eof), "io"),
            (DaemonError::State("torn".into()), "mismatch"),
        ] {
            match started().on_captured(captured(Err(state))) {
                Effect::Abort { reoffer, error } => {
                    assert_eq!(reoffer, pending);
                    assert_eq!(error.kind(), kind);
                }
                other => panic!("an unreadable state slot aborts, not {other:?}"),
            }
        }

        match started().on_settled(false) {
            Effect::Reroute(e) => {
                assert_eq!(e.to_string(), "bundle mismatch: tenant 3 did not drain in time");
            }
            other => panic!("an unsettled queue reroutes, not {other:?}"),
        }
    }
}

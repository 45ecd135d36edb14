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

use std::fmt;
use std::time::Duration;

use tibfit_sim::snapshot::{FrameError, SnapshotError, SnapshotReader, SnapshotWriter};

use crate::net_io::fleet_call;
use crate::queue::{QueueStats, WorkItem};
use crate::wire::{parse_fleet_line, FleetMsg, Report};

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
    let reply = fleet_call(addr, &command, Some(encoded), Duration::from_secs(30))
        .map_err(MigrateError::Io)?;
    let reply = reply.first().map_or("", String::as_str);
    match parse_fleet_line(reply) {
        Ok(Some(FleetMsg::PushOk { tenant: t })) if t == tenant => Ok(()),
        Ok(Some(FleetMsg::PushErr(reason))) => Err(MigrateError::Refused(reason)),
        _ => Err(MigrateError::Refused(format!("unexpected reply {reply:?}"))),
    }
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
}

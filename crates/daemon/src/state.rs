//! Durable tenant state: a versioned snapshot container wrapping the
//! engine checkpoint blob together with everything else a resume needs
//! to be byte-identical — the dedup highwaters and the mirrored queue
//! counters — plus the decision-log truncation that squares the log
//! with the snapshot after a crash.
//!
//! **Two slots, committed in place.** A tenant's state lives in two
//! fixed slot files next to the path [`tenant_state_path`] names
//! (`tenantN.a.tbsl`, `tenantN.b.tbsl`, see [`tenant_state_slots`]).
//! Each is a [`SLOT_HEADER`]-byte header — magic, generation, payload
//! length, a CRC over the payload's top-level section CRCs, and a CRC
//! of the header itself — followed by the exact
//! [`encode_tenant_state`] container. A commit re-reads both headers
//! from disk, overwrites the slot that does not hold the newest valid
//! generation with the next one (payload first, header last) and calls
//! `sync_data` once. Once both files exist it creates, renames and
//! unlinks nothing and never fsyncs the directory. A slot file is
//! created holding its first commit: written and synced under a
//! temporary name, renamed into place, then the directory is fsynced,
//! so a kill mid-creation never leaves a slot that reads as corrupt.
//! LMDB's twin meta pages work the same way.
//!
//! A restore loads the newest slot that validates — header CRC, every
//! section CRC, and the header's digest of the section CRCs, which
//! rejects a slot holding sections of two generations — and falls back
//! to the other, then to a legacy plain `tenantN.tbsn` (what earlier
//! versions wrote with `.tmp` + rename), which counts as generation 0.
//! A slot whose header is valid but whose payload is not is demoted
//! (its header zeroed), so the next commit overwrites it rather than
//! the slot just loaded. Slot files that exist with none valid are a
//! typed error; only missing files read as "no state".
//!
//! Commits happen only at tick boundaries, so every valid slot is
//! internally consistent: the engine round, the highwater map, and the
//! counters all describe the same instant.
//!
//! **What a committed snapshot promises.** The decision log is flushed
//! to the OS *before* the snapshot is committed, so after a process
//! crash a snapshot at round `r` implies rounds `1..=r` are in the log;
//! anything after `r` (including a torn final line) is regenerated
//! deterministically by the replayed stream and is truncated away on
//! restore. The log is flushed but not fsynced, so a power cut can
//! keep snapshot `r` while losing log lines at or before `r`: that gap
//! is still open.
//!
//! That ordering is also the log's whole damage model: a crash can
//! only leave extra or torn bytes *after* round `r`, never damage
//! before it. Truncation therefore reads the log backward from its
//! end and cuts it in place ([`truncate_decision_log`]), at a cost
//! bounded by the bytes after the cut — one snapshot interval plus a
//! torn tail — however long the log has grown.

use std::cmp::Reverse;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use tibfit_experiments::checkpoint::{read_checkpoint, sync_dir, CheckpointError};
use tibfit_sim::snapshot::{crc32, section_crc_digest, SectionBuf, SnapshotReader, SnapshotWriter};

use crate::queue::QueueStats;
use crate::tenant::{decision_line_round, EngineKind, Tenant};
use crate::DaemonError;

/// Section tag: tenant metadata (id, seed, kind, round, highwaters,
/// counters).
const TAG_TENANT_META: u8 = 20;
/// Section tag: the engine checkpoint blob.
const TAG_TENANT_ENGINE: u8 = 21;

/// First four bytes of a state slot.
const SLOT_MAGIC: [u8; 4] = *b"TBSL";

/// Length of a slot's header: magic · generation (u64 LE) · payload
/// length (u64 LE) · [`section_crc_digest`] of the payload (u32 LE) ·
/// CRC32 of the preceding 24 bytes (u32 LE). The payload follows it.
pub const SLOT_HEADER: usize = 28;

/// Everything a tenant state file holds, decoded.
pub struct TenantState {
    /// Tenant index.
    pub id: usize,
    /// Scenario master seed the tenant was built from (validated
    /// against the daemon's configuration on restore).
    pub seed: u64,
    /// Engine tag of the state file: `Sequential` for every state this
    /// version writes, `Sharded` for a legacy one (see [`EngineKind`]).
    /// Either restores the same way.
    pub kind: EngineKind,
    /// Engine round at snapshot time.
    pub round: u64,
    /// Dedup highwaters `(src, max_seq)` at snapshot time.
    pub highwater: Vec<(u64, u64)>,
    /// Queue counters at snapshot time.
    pub stats: QueueStats,
    /// The engine checkpoint blob.
    pub blob: Vec<u8>,
}

/// A tenant's newest valid snapshot, as committed.
pub struct StoredState {
    /// Commit generation: `1, 2, …` for slots, `0` for a legacy file.
    pub generation: u64,
    /// The container bytes exactly as [`encode_tenant_state`] made them.
    pub bytes: Vec<u8>,
    /// The same bytes, decoded.
    pub state: TenantState,
}

/// Path of tenant `id`'s state under `state_dir`: the legacy
/// single-file name, from which the slot files are derived
/// ([`tenant_state_slots`]).
#[must_use]
pub fn tenant_state_path(state_dir: &Path, id: usize) -> PathBuf {
    state_dir.join(format!("tenant{id}.tbsn"))
}

/// The two slot files behind the state path `path`.
#[must_use]
pub fn tenant_state_slots(path: &Path) -> [PathBuf; 2] {
    [path.with_extension("a.tbsl"), path.with_extension("b.tbsl")]
}

/// Path of tenant `id`'s decision log under `decisions_dir`.
#[must_use]
pub fn decision_log_path(decisions_dir: &Path, id: usize) -> PathBuf {
    decisions_dir.join(format!("tenant{id}.log"))
}

/// Encodes a tenant's durable state.
///
/// The engine checkpoint is written in place inside the engine section
/// ([`SectionBuf::put_nested`]): the bytes are exactly those of
/// `put_bytes(&save_sequential(..))`, without building and copying that
/// blob.
///
/// # Errors
///
/// [`DaemonError::Snapshot`] if the engine state cannot be captured.
pub fn encode_tenant_state(
    tenant: &Tenant,
    highwater: &[(u64, u64)],
    stats: QueueStats,
) -> Result<Vec<u8>, DaemonError> {
    let mut w = SnapshotWriter::new();
    w.section(TAG_TENANT_META, |s| put_meta(s, tenant, highwater, stats));
    w.section(TAG_TENANT_ENGINE, |s| s.put_nested(|e| tenant.save_engine_into(e)))?;
    Ok(w.finish())
}

fn put_meta(s: &mut SectionBuf, tenant: &Tenant, highwater: &[(u64, u64)], stats: QueueStats) {
    s.put_usize(tenant.id());
    s.put_u64(tenant.scenario().seed);
    s.put_u8(EngineKind::Sequential.tag());
    s.put_u64(tenant.round());
    s.put_usize(highwater.len());
    for &(src, seq) in highwater {
        s.put_u64(src);
        s.put_u64(seq);
    }
    s.put_u64(stats.offered);
    s.put_u64(stats.admitted);
    s.put_u64(stats.shed_budget);
    s.put_u64(stats.shed_overflow);
    s.put_u64(stats.duplicates);
    s.put_u64(stats.backpressure_waits);
}

/// Decodes a tenant state file's bytes.
///
/// # Errors
///
/// [`DaemonError::Snapshot`] on a malformed container.
pub fn decode_tenant_state(bytes: &[u8]) -> Result<TenantState, DaemonError> {
    let mut r = SnapshotReader::new(bytes).map_err(DaemonError::Snapshot)?;
    let mut s = r.section(TAG_TENANT_META).map_err(DaemonError::Snapshot)?;
    let id = s.take_usize().map_err(DaemonError::Snapshot)?;
    let seed = s.take_u64().map_err(DaemonError::Snapshot)?;
    let kind = EngineKind::from_tag(s.take_u8().map_err(DaemonError::Snapshot)?)?;
    let round = s.take_u64().map_err(DaemonError::Snapshot)?;
    let n = s.take_count(16).map_err(DaemonError::Snapshot)?;
    let mut highwater = Vec::with_capacity(n);
    for _ in 0..n {
        let src = s.take_u64().map_err(DaemonError::Snapshot)?;
        let seq = s.take_u64().map_err(DaemonError::Snapshot)?;
        highwater.push((src, seq));
    }
    let stats = QueueStats {
        offered: s.take_u64().map_err(DaemonError::Snapshot)?,
        admitted: s.take_u64().map_err(DaemonError::Snapshot)?,
        shed_budget: s.take_u64().map_err(DaemonError::Snapshot)?,
        shed_overflow: s.take_u64().map_err(DaemonError::Snapshot)?,
        duplicates: s.take_u64().map_err(DaemonError::Snapshot)?,
        backpressure_waits: s.take_u64().map_err(DaemonError::Snapshot)?,
    };
    s.end().map_err(DaemonError::Snapshot)?;
    let mut s = r.section(TAG_TENANT_ENGINE).map_err(DaemonError::Snapshot)?;
    let blob = s.take_bytes().map_err(DaemonError::Snapshot)?;
    s.end().map_err(DaemonError::Snapshot)?;
    r.finish().map_err(DaemonError::Snapshot)?;
    Ok(TenantState {
        id,
        seed,
        kind,
        round,
        highwater,
        stats,
        blob,
    })
}

/// A slot's header, decoded.
#[derive(Clone, Copy, Debug)]
struct SlotHeader {
    generation: u64,
    len: u64,
    /// [`section_crc_digest`] of the payload.
    digest: u32,
}

impl SlotHeader {
    fn encode(self) -> [u8; SLOT_HEADER] {
        let mut h = [0u8; SLOT_HEADER];
        h[..4].copy_from_slice(&SLOT_MAGIC);
        h[4..12].copy_from_slice(&self.generation.to_le_bytes());
        h[12..20].copy_from_slice(&self.len.to_le_bytes());
        h[20..24].copy_from_slice(&self.digest.to_le_bytes());
        let crc = crc32(&h[..24]);
        h[24..].copy_from_slice(&crc.to_le_bytes());
        h
    }

    /// `None` unless the magic and the header CRC check out.
    fn decode(h: &[u8; SLOT_HEADER]) -> Option<SlotHeader> {
        let u32_at = |at: usize| u32::from_le_bytes(h[at..at + 4].try_into().expect("4 bytes"));
        let u64_at = |at: usize| u64::from_le_bytes(h[at..at + 8].try_into().expect("8 bytes"));
        (h[..4] == SLOT_MAGIC && crc32(&h[..24]) == u32_at(24)).then(|| SlotHeader {
            generation: u64_at(4),
            len: u64_at(12),
            digest: u32_at(20),
        })
    }
}

/// The filesystem operations a commit can make besides reads and
/// in-place writes, counted per thread in unit tests so the cost of a
/// commit is pinned rather than assumed.
#[derive(Clone, Copy)]
enum FsOp {
    Create,
    Rename,
    SyncData,
    SyncDir,
    Unlink,
}

#[cfg(test)]
thread_local! {
    static FS_OPS: std::cell::Cell<[u32; 5]> = const { std::cell::Cell::new([0; 5]) };
}

fn note(op: FsOp) {
    #[cfg(test)]
    FS_OPS.with(|c| {
        let mut n = c.get();
        n[op as usize] += 1;
        c.set(n);
    });
    #[cfg(not(test))]
    let _ = op;
}

/// Opens a slot file, `None` if it does not exist.
fn open_slot(path: &Path, write: bool) -> io::Result<Option<File>> {
    match OpenOptions::new().read(true).write(write).open(path) {
        Ok(f) => Ok(Some(f)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// Reads a freshly opened slot's header: `None` if the file is shorter
/// than a header or the header does not validate.
fn read_header(mut file: &File) -> io::Result<Option<SlotHeader>> {
    let mut h = [0u8; SLOT_HEADER];
    match file.read_exact(&mut h) {
        Ok(()) => Ok(SlotHeader::decode(&h)),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(None),
        Err(e) => Err(e),
    }
}

/// Writes `bytes` and then `header` into a slot in place and syncs its
/// data once. Payload before header: a process killed in between
/// leaves the slot's old header over a payload it does not match.
fn write_slot(mut file: &File, header: SlotHeader, bytes: &[u8]) -> io::Result<()> {
    file.seek(SeekFrom::Start(SLOT_HEADER as u64))?;
    file.write_all(bytes)?;
    file.seek(SeekFrom::Start(0))?;
    file.write_all(&header.encode())?;
    note(FsOp::SyncData);
    file.sync_data()
}

/// Commits a tenant state container into the slot files behind `path`
/// (see the module doc): the next generation goes into the slot that
/// does not hold the newest valid one, with one `sync_data`. Which
/// slot that is gets re-read from disk on every call, so a writer
/// holds no "next slot" that could go stale. Creating a slot file also
/// fsyncs the directory and then removes a legacy `path` file, which
/// any slot outranks.
///
/// # Errors
///
/// [`DaemonError::Snapshot`] if `bytes` is not a well-framed container,
/// [`DaemonError::Io`] on any filesystem failure.
pub fn write_tenant_state(path: &Path, bytes: &[u8]) -> Result<(), DaemonError> {
    let digest = section_crc_digest(bytes).map_err(DaemonError::Snapshot)?;
    let slots = tenant_state_slots(path);
    let mut files = [None, None];
    // (slot index, generation) of the newest valid header.
    let mut newest: Option<(usize, u64)> = None;
    for (i, slot) in slots.iter().enumerate() {
        files[i] = open_slot(slot, true).map_err(DaemonError::Io)?;
        if let Some(file) = &files[i] {
            if let Some(h) = read_header(file).map_err(DaemonError::Io)? {
                if newest.is_none_or(|(_, g)| h.generation > g) {
                    newest = Some((i, h.generation));
                }
            }
        }
    }
    let target = usize::from(newest.is_some_and(|(i, _)| i == 0));
    let header = SlotHeader {
        generation: newest.map_or(0, |(_, g)| g) + 1,
        len: bytes.len() as u64,
        digest,
    };
    let written = match &files[target] {
        Some(file) => write_slot(file, header, bytes),
        None => create_slot(&slots[target], path, header, bytes),
    };
    written.map_err(DaemonError::Io)
}

/// Creates a slot file holding its first commit. The commit is written
/// and synced under a temporary name and renamed into place before the
/// directory is fsynced, so a slot file never exists without a valid
/// commit in it: a process killed mid-creation must not leave a slot
/// that reads as corrupt. The legacy file at `legacy`, which any slot
/// outranks, then goes.
fn create_slot(slot: &Path, legacy: &Path, header: SlotHeader, bytes: &[u8]) -> io::Result<()> {
    let dir = parent_dir(slot);
    std::fs::create_dir_all(dir)?;
    let tmp = slot.with_extension("tmp");
    note(FsOp::Create);
    write_slot(&File::create(&tmp)?, header, bytes)?;
    note(FsOp::Rename);
    std::fs::rename(&tmp, slot)?;
    note(FsOp::SyncDir);
    sync_dir(dir)?;
    note(FsOp::Unlink);
    match std::fs::remove_file(legacy) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// Reads and validates the payload a slot header describes: `None` if
/// the file is too short for it, its digest or a section CRC does not
/// match, or it does not decode.
fn read_slot(mut file: &File, h: SlotHeader) -> io::Result<Option<(Vec<u8>, TenantState)>> {
    let available = file.metadata()?.len().saturating_sub(SLOT_HEADER as u64);
    let Some(len) = usize::try_from(h.len).ok().filter(|_| h.len <= available) else {
        return Ok(None);
    };
    let mut bytes = Vec::with_capacity(len);
    file.seek(SeekFrom::Start(SLOT_HEADER as u64))?;
    file.take(h.len).read_to_end(&mut bytes)?;
    if bytes.len() != len || section_crc_digest(&bytes) != Ok(h.digest) {
        return Ok(None);
    }
    Ok(decode_tenant_state(&bytes).ok().map(|state| (bytes, state)))
}

/// Reads a tenant's newest valid snapshot (see the module doc for the
/// order slots and a legacy file are tried in). `Ok(None)` only if no
/// slot file and no legacy file exists.
///
/// A slot whose header validates but whose payload does not — a torn
/// commit — has its header zeroed once another snapshot loads, so the
/// next commit overwrites it instead of the snapshot just loaded.
///
/// # Errors
///
/// [`DaemonError::State`] if slot files exist but none (and no legacy
/// file) is valid, [`DaemonError::Snapshot`] for a corrupt legacy file,
/// [`DaemonError::Io`] / [`DaemonError::Checkpoint`] on I/O failure.
pub fn read_tenant_snapshot(path: &Path) -> Result<Option<StoredState>, DaemonError> {
    let slots = tenant_state_slots(path);
    let mut found = false;
    let mut candidates = Vec::with_capacity(2);
    for (i, slot) in slots.iter().enumerate() {
        let Some(file) = open_slot(slot, false).map_err(DaemonError::Io)? else {
            continue;
        };
        found = true;
        if let Some(h) = read_header(&file).map_err(DaemonError::Io)? {
            candidates.push((h, file, i));
        }
    }
    candidates.sort_by_key(|(h, _, _)| Reverse(h.generation));
    let mut torn = Vec::new();
    let mut loaded = None;
    for (h, file, i) in candidates {
        match read_slot(&file, h).map_err(DaemonError::Io)? {
            Some((bytes, state)) => {
                loaded = Some(StoredState { generation: h.generation, bytes, state });
                break;
            }
            None => torn.push(i),
        }
    }
    let loaded = match loaded {
        Some(stored) => stored,
        None => match read_legacy(path)? {
            Some(stored) => stored,
            None if found => {
                return Err(DaemonError::State(format!(
                    "no valid snapshot in the state slots of {}",
                    path.display()
                )))
            }
            None => return Ok(None),
        },
    };
    for i in torn {
        demote(&slots[i]).map_err(DaemonError::Io)?;
    }
    Ok(Some(loaded))
}

/// Reads a legacy single-file state as generation 0, `None` if absent.
fn read_legacy(path: &Path) -> Result<Option<StoredState>, DaemonError> {
    match read_checkpoint(path) {
        Ok(bytes) => {
            let state = decode_tenant_state(&bytes)?;
            Ok(Some(StoredState { generation: 0, bytes, state }))
        }
        Err(CheckpointError::Io(e)) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(DaemonError::Checkpoint(e)),
    }
}

/// Zeroes a slot's header. No sync: until a commit has made the slot
/// valid again, every commit writes into this slot and leaves the
/// loaded one alone, so the zeroing needs to outlive nothing else.
fn demote(slot: &Path) -> io::Result<()> {
    let mut file = OpenOptions::new().write(true).open(slot)?;
    file.write_all(&[0; SLOT_HEADER])
}

/// Reads a tenant's newest valid snapshot, decoded ([`read_tenant_snapshot`]).
///
/// # Errors
///
/// As [`read_tenant_snapshot`].
pub fn read_tenant_state(path: &Path) -> Result<Option<TenantState>, DaemonError> {
    Ok(read_tenant_snapshot(path)?.map(|s| s.state))
}

/// Retires a tenant's durable state: both slot files and any legacy
/// file, then fsyncs the directory, so nothing from an earlier hosting
/// can come back on a later restore.
///
/// # Errors
///
/// Any filesystem failure but a missing file.
pub fn remove_tenant_state(path: &Path) -> io::Result<()> {
    let [a, b] = tenant_state_slots(path);
    for file in [a.as_path(), b.as_path(), path] {
        match std::fs::remove_file(file) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
    }
    sync_dir(parent_dir(path))
}

/// The directory holding `path` (`.` for a bare file name).
fn parent_dir(path: &Path) -> &Path {
    path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."))
}

/// Backward-scan read size of [`truncate_decision_log`].
const SCAN_BLOCK: u64 = 4096;

/// Truncates a decision log to rounds `<= round`, in place: cuts the
/// file just after its last complete (newline-terminated), well-formed
/// decision line whose round is `<= round`, then fsyncs it. Everything
/// after the cut goes — later rounds a dead incarnation got ahead on,
/// and any torn or unterminated final line, even one whose round is
/// `<= round`. A missing file (or directory) is created empty.
/// Returns the round of the last kept line (`0` if none is kept),
/// which on any log the daemon wrote is the number of lines kept.
///
/// The contract is the module's damage model, not a re-validation of
/// the whole history: lines before the cut are kept unread, so a
/// malformed line in the middle of the log stays there along with
/// everything after it up to the cut. The scan reads the bytes after
/// the cut plus at most one [`SCAN_BLOCK`] (more only if the kept line
/// is itself longer than a block). A crash mid-truncation leaves the
/// file at its old length or at the cut, and both re-truncate to the
/// same cut on the next start.
///
/// # Errors
///
/// [`DaemonError::Io`] on any filesystem failure.
pub fn truncate_decision_log(path: &Path, round: u64) -> Result<u64, DaemonError> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(DaemonError::Io)?;
        }
    }
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)
        .map_err(DaemonError::Io)?;
    let (cut, kept) = find_cut(&mut file, round, SCAN_BLOCK).map_err(DaemonError::Io)?;
    file.set_len(cut).map_err(DaemonError::Io)?;
    file.sync_all().map_err(DaemonError::Io)?;
    Ok(kept)
}

/// Scans `log` backward in reads of at most `block` bytes for the end
/// of its last complete line that is a well-formed decision line with
/// round `<= round`. Returns `(offset just past that line's newline,
/// its round)`, or `(0, 0)` if no line qualifies.
fn find_cut<R: Read + Seek>(log: &mut R, round: u64, block: u64) -> io::Result<(u64, u64)> {
    let keeps = |line: &[u8]| {
        std::str::from_utf8(line)
            .ok()
            .and_then(decision_line_round)
            .filter(|&r| r <= round)
    };
    let mut pos = log.seek(SeekFrom::End(0))?;
    // Bytes `[pos, pos + buf.len())`: read, and not yet split into lines.
    let mut buf: Vec<u8> = Vec::new();
    // Offset just past the newline that ends `buf`'s last line — the
    // candidate cut. `None` while `buf` is the unterminated tail.
    let mut line_end: Option<u64> = None;
    loop {
        if let Some(i) = buf.iter().rposition(|&b| b == b'\n') {
            if let Some(end) = line_end {
                if let Some(r) = keeps(&buf[i + 1..]) {
                    return Ok((end, r));
                }
            }
            line_end = Some(pos + i as u64 + 1);
            buf.truncate(i);
        } else if pos == 0 {
            let first = line_end.and_then(|end| keeps(&buf).map(|r| (end, r)));
            return Ok(first.unwrap_or((0, 0)));
        } else {
            // Read back no further than one block before the candidate
            // cut, which bounds the bytes read by the bytes after the
            // cut plus one block; only a longer line reads on.
            let lo = match line_end.map(|end| end.saturating_sub(block)) {
                Some(floor) if floor < pos => floor.max(pos.saturating_sub(block)),
                _ => pos.saturating_sub(block),
            };
            let n = usize::try_from(pos - lo).expect("a read is at most one block");
            buf.splice(0..0, std::iter::repeat_n(0, n));
            log.seek(SeekFrom::Start(lo))?;
            log.read_exact(&mut buf[..n])?;
            pos = lo;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::Tenant;
    use std::io::Cursor;
    use tibfit_experiments::replay::FieldScenario;
    use tibfit_sim::rng::SimRng;

    fn scenario(seed: u64) -> FieldScenario {
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

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tibfit-daemon-state-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn tenant_state_round_trips() {
        let sc = scenario(3);
        let mut tenant = Tenant::new(2, sc.clone(), EngineKind::Sequential, 1).unwrap();
        for (i, p) in sc.events(3).into_iter().enumerate() {
            tenant.apply(&crate::wire::Report {
                tenant: 2,
                time: i as u64,
                src: 2,
                seq: i as u64 + 1,
                x: p.x,
                y: p.y,
            });
        }
        let hw = vec![(2u64, 3u64)];
        let stats = QueueStats {
            offered: 5,
            admitted: 3,
            shed_budget: 1,
            shed_overflow: 1,
            duplicates: 0,
            backpressure_waits: 2,
        };
        let bytes = encode_tenant_state(&tenant, &hw, stats).unwrap();
        let state = decode_tenant_state(&bytes).unwrap();
        assert_eq!(state.id, 2);
        assert_eq!(state.seed, 3);
        assert_eq!(state.kind, EngineKind::Sequential);
        assert_eq!(state.round, 3);
        assert_eq!(state.highwater, hw);
        assert_eq!(state.stats, stats);
        let restored =
            Tenant::from_blob(state.id, sc, state.kind, 1, &state.blob).unwrap();
        assert_eq!(restored.round(), 3);
        assert_eq!(restored.trust_digest(), tenant.trust_digest());
    }

    /// The two-step encoder the engine section used before nesting in
    /// place: save the engine to a blob of its own, then copy it in.
    fn encode_two_step(
        tenant: &Tenant,
        engine_blob: &[u8],
        highwater: &[(u64, u64)],
        stats: QueueStats,
    ) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.section(TAG_TENANT_META, |s| put_meta(s, tenant, highwater, stats));
        w.section(TAG_TENANT_ENGINE, |s| s.put_bytes(engine_blob));
        w.finish()
    }

    #[test]
    fn encode_matches_the_two_step_reference() {
        use tibfit_experiments::checkpoint::save_sequential;

        let sc = scenario(6);
        let hw = vec![(0u64, 9u64), (5, 2)];
        let stats = QueueStats {
            offered: 11,
            admitted: 9,
            duplicates: 2,
            ..QueueStats::default()
        };
        let mut tenant = Tenant::new(1, sc.clone(), EngineKind::Sequential, 1).unwrap();
        let mut engine = sc.sequential().unwrap();
        for (i, p) in sc.events(9).iter().enumerate() {
            tenant.apply(&crate::wire::Report {
                tenant: 1,
                time: i as u64,
                src: 0,
                seq: i as u64 + 1,
                x: p.x,
                y: p.y,
            });
            engine.run_event(*p);
        }
        let engine_blob = save_sequential(&engine).unwrap();
        let reference = encode_two_step(&tenant, &engine_blob, &hw, stats);
        let bytes = encode_tenant_state(&tenant, &hw, stats).unwrap();
        assert_eq!(bytes, reference);
        assert_eq!(decode_tenant_state(&bytes).unwrap().blob, engine_blob);
    }

    #[test]
    fn corrupt_state_is_a_typed_error() {
        let sc = scenario(4);
        let tenant = Tenant::new(0, sc, EngineKind::Sequential, 1).unwrap();
        let mut bytes = encode_tenant_state(&tenant, &[], QueueStats::default()).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert!(matches!(
            decode_tenant_state(&bytes),
            Err(DaemonError::Snapshot(_))
        ));
    }

    #[test]
    fn missing_state_file_reads_as_none() {
        let dir = tempdir("missing");
        assert!(read_tenant_state(&tenant_state_path(&dir, 0)).unwrap().is_none());
    }

    /// Containers for rounds `1..=n` of one tenant, each a different
    /// payload of the same shape.
    fn payloads(n: usize) -> Vec<Vec<u8>> {
        let sc = scenario(9);
        let mut tenant = Tenant::new(0, sc.clone(), EngineKind::Sequential, 1).unwrap();
        let mut out = Vec::with_capacity(n);
        for (i, p) in sc.events(n).into_iter().enumerate() {
            let seq = i as u64 + 1;
            tenant.apply(&crate::wire::Report {
                tenant: 0,
                time: i as u64,
                src: 0,
                seq,
                x: p.x,
                y: p.y,
            });
            out.push(encode_tenant_state(&tenant, &[(0, seq)], QueueStats::default()).unwrap());
        }
        out
    }

    /// This thread's `[create, rename, sync_data, sync_dir, unlink]`
    /// counts since the last call.
    fn take_fs_ops() -> [u32; 5] {
        FS_OPS.with(|c| c.replace([0; 5]))
    }

    fn stored(path: &Path) -> (u64, Vec<u8>) {
        let s = read_tenant_snapshot(path).unwrap().expect("a snapshot");
        (s.generation, s.bytes)
    }

    #[test]
    fn once_both_slots_exist_a_commit_is_one_sync_data_and_nothing_else() {
        let dir = tempdir("cheap");
        let path = tenant_state_path(&dir, 0);
        let p = payloads(10);
        take_fs_ops();
        for bytes in &p[..2] {
            write_tenant_state(&path, bytes).unwrap();
            // Creating a slot: its data under a temporary name, the
            // rename, then the directory entry; the legacy file goes
            // after all of it is durable.
            assert_eq!(take_fs_ops(), [1, 1, 1, 1, 1]);
        }
        let slots = tenant_state_slots(&path);
        #[cfg(unix)]
        let inodes = || {
            use std::os::unix::fs::MetadataExt;
            slots.clone().map(|s| std::fs::metadata(s).unwrap().ino())
        };
        #[cfg(unix)]
        let before = inodes();
        for (i, bytes) in p.iter().enumerate().skip(2) {
            write_tenant_state(&path, bytes).unwrap();
            assert_eq!(take_fs_ops(), [0, 0, 1, 0, 0], "commit {}", i + 1);
            assert_eq!(stored(&path), (i as u64 + 1, bytes.clone()));
        }
        #[cfg(unix)]
        assert_eq!(inodes(), before, "no slot was recreated or renamed over");
        let mut names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(names, ["tenant0.a.tbsl", "tenant0.b.tbsl"]);
        // The newest generation alternates slots, and the payload is the
        // container byte for byte behind a fixed-size header.
        let a = std::fs::read(&slots[0]).unwrap();
        let b = std::fs::read(&slots[1]).unwrap();
        assert_eq!(&a[SLOT_HEADER..SLOT_HEADER + p[8].len()], &p[8][..]);
        assert_eq!(&b[SLOT_HEADER..SLOT_HEADER + p[9].len()], &p[9][..]);
    }

    #[test]
    fn a_kill_while_creating_a_slot_leaves_no_slot_behind() {
        let dir = tempdir("create-kill");
        let path = tenant_state_path(&dir, 0);
        let p = payloads(2);
        // What a kill between the temporary file's write and its
        // rename leaves: no slot, so nothing reads as corrupt.
        let [a, b] = tenant_state_slots(&path);
        std::fs::write(a.with_extension("tmp"), &p[0][..100]).unwrap();
        assert!(read_tenant_state(&path).unwrap().is_none());
        write_tenant_state(&path, &p[0]).unwrap();
        assert_eq!(stored(&path), (1, p[0].clone()));
        std::fs::write(b.with_extension("tmp"), b"").unwrap();
        assert_eq!(stored(&path), (1, p[0].clone()));
        write_tenant_state(&path, &p[1]).unwrap();
        assert_eq!(stored(&path), (2, p[1].clone()));
        // The next creation reused the temporary name and renamed it.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 2);
    }

    #[test]
    fn the_next_slot_is_read_from_disk_on_every_commit() {
        let dir = tempdir("reread");
        let path = tenant_state_path(&dir, 0);
        let p = payloads(4);
        for bytes in &p[..3] {
            write_tenant_state(&path, bytes).unwrap();
        }
        // Slot a holds generation 3, b holds 2. Swap them behind the
        // writer's back, as another incarnation's commits could: a
        // writer that remembered "b is next" would now overwrite 3.
        let [a, b] = tenant_state_slots(&path);
        let (image_a, image_b) = (std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        std::fs::write(&a, &image_b).unwrap();
        std::fs::write(&b, &image_a).unwrap();
        write_tenant_state(&path, &p[3]).unwrap();
        assert_eq!(std::fs::read(&b).unwrap(), image_a, "generation 3 is untouched");
        assert_eq!(stored(&path), (4, p[3].clone()));
    }

    #[test]
    fn a_torn_newest_slot_is_overwritten_next_not_the_one_restored() {
        let dir = tempdir("demote");
        let path = tenant_state_path(&dir, 0);
        let p = payloads(4);
        for bytes in &p[..3] {
            write_tenant_state(&path, bytes).unwrap();
        }
        // Generation 3 in slot a keeps a valid header over a torn payload.
        let [a, b] = tenant_state_slots(&path);
        let mut torn = std::fs::read(&a).unwrap();
        let last = torn.len() - 1;
        torn[last] ^= 0x5A;
        std::fs::write(&a, &torn).unwrap();
        assert_eq!(stored(&path), (2, p[1].clone()));
        // Without the demotion the next commit would go to b, the only
        // valid slot, and a crash in that write would lose both.
        let image_b = std::fs::read(&b).unwrap();
        write_tenant_state(&path, &p[3]).unwrap();
        assert_eq!(std::fs::read(&b).unwrap(), image_b);
        assert_eq!(stored(&path), (3, p[3].clone()));
    }

    #[test]
    fn a_legacy_file_is_generation_zero_and_never_outranks_a_slot() {
        use tibfit_experiments::checkpoint::write_checkpoint;

        let dir = tempdir("legacy");
        let path = tenant_state_path(&dir, 0);
        let p = payloads(3);
        write_checkpoint(&path, &p[0]).unwrap();
        assert_eq!(stored(&path), (0, p[0].clone()));
        write_tenant_state(&path, &p[1]).unwrap();
        assert!(!path.exists(), "the first slot retires the legacy file");
        // A kill between the slot's creation and the unlink leaves both.
        write_checkpoint(&path, &p[2]).unwrap();
        assert_eq!(stored(&path), (1, p[1].clone()));
        // A torn first slot falls back to the legacy file.
        let [a, _] = tenant_state_slots(&path);
        std::fs::write(&a, b"TBSL").unwrap();
        assert_eq!(stored(&path), (0, p[2].clone()));
    }

    #[test]
    fn slot_files_with_nothing_valid_are_a_typed_error() {
        let dir = tempdir("nothing-valid");
        let path = tenant_state_path(&dir, 0);
        let [a, b] = tenant_state_slots(&path);
        std::fs::write(&a, b"").unwrap();
        assert!(matches!(read_tenant_state(&path), Err(DaemonError::State(_))));
        std::fs::write(&b, [0xFFu8; 64]).unwrap();
        assert!(matches!(read_tenant_state(&path), Err(DaemonError::State(_))));
        // Both files survive the failed read for inspection.
        assert!(a.exists() && b.exists());
    }

    #[test]
    fn retiring_removes_every_slot_and_the_legacy_file() {
        let dir = tempdir("retire");
        let path = tenant_state_path(&dir, 0);
        for bytes in &payloads(2) {
            write_tenant_state(&path, bytes).unwrap();
        }
        std::fs::write(&path, b"legacy").unwrap();
        remove_tenant_state(&path).unwrap();
        assert!(read_tenant_state(&path).unwrap().is_none());
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        remove_tenant_state(&path).unwrap();
    }

    #[test]
    fn a_commit_of_bytes_that_are_not_a_container_is_refused() {
        let dir = tempdir("junk");
        let path = tenant_state_path(&dir, 0);
        assert!(matches!(
            write_tenant_state(&path, b"not a container"),
            Err(DaemonError::Snapshot(_))
        ));
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
    }

    #[test]
    fn truncation_drops_future_rounds_and_torn_tails() {
        let dir = tempdir("trunc");
        let path = decision_log_path(&dir, 0);
        let full = "D 1 0 1 at=1,2 by=0 trust=0000000000000001\n\
                    D 2 0 2 at=- by=- trust=0000000000000002\n\
                    D 3 0 3 at=3,4 by=1 trust=0000000000000003\n\
                    D 4 0 4 at=5,6 by=0 tru";
        std::fs::write(&path, full).unwrap();
        let kept = truncate_decision_log(&path, 2).unwrap();
        assert_eq!(kept, 2);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.ends_with("trust=0000000000000002\n"));
        // Truncating an absent log creates an empty one.
        let fresh = decision_log_path(&dir, 1);
        assert_eq!(truncate_decision_log(&fresh, 10).unwrap(), 0);
        assert_eq!(std::fs::read_to_string(&fresh).unwrap(), "");
    }

    /// The forward scan truncation used before the in-place backward
    /// one: keep the longest prefix of well-formed, strictly increasing
    /// lines with rounds `<= round`, each written back with a newline.
    /// Returns the kept text and how many lines it holds.
    fn reference_truncate(text: &str, round: u64) -> (String, u64) {
        let mut kept = String::with_capacity(text.len());
        let mut kept_lines = 0u64;
        let mut last_round = 0u64;
        for line in text.lines() {
            match decision_line_round(line) {
                Some(r) if r <= round && r > last_round => {
                    kept.push_str(line);
                    kept.push('\n');
                    kept_lines += 1;
                    last_round = r;
                }
                _ => break,
            }
        }
        (kept, kept_lines)
    }

    /// A decision line for round `r`, newline included, shaped like the
    /// daemon's; a long `by=` list now and then makes it longer than
    /// the small scan blocks the tests use.
    fn decision_line(rng: &mut SimRng, r: u64) -> String {
        let seq = r + rng.uniform_usize(3) as u64;
        let (at, by) = if rng.chance(0.2) {
            ("-".to_string(), "-".to_string())
        } else {
            let clusters = if rng.chance(0.1) { 40 } else { 1 + rng.uniform_usize(3) };
            let by: Vec<String> = (0..clusters).map(|c| c.to_string()).collect();
            (format!("{},{}", rng.uniform_usize(500), rng.uniform_usize(500)), by.join(","))
        };
        format!("D {r} 0 {seq} at={at} by={by} trust={:016x}\n", rng.next_u64())
    }

    /// Rounds `1..=rounds`, one line each.
    fn decision_log(rng: &mut SimRng, rounds: u64) -> String {
        (1..=rounds).map(|r| decision_line(rng, r)).collect()
    }

    /// Appends later rounds from `from` on until exactly `len` bytes
    /// were added, the last of them a torn (unterminated) line prefix.
    fn push_tail(rng: &mut SimRng, log: &mut String, from: u64, len: usize) {
        let mut added = 0;
        for r in from.. {
            let line = decision_line(rng, r);
            if added + line.len() <= len {
                added += line.len();
                log.push_str(&line);
            } else {
                log.push_str(&line[..len - added]);
                return;
            }
        }
    }

    fn cut_of(log: &str, round: u64, block: u64) -> (u64, u64) {
        find_cut(&mut Cursor::new(log.as_bytes()), round, block).unwrap()
    }

    #[test]
    fn backward_cut_equals_the_forward_reference_inside_the_crash_model() {
        let dir = tempdir("equiv");
        let mut rng = SimRng::seed_from(0x7B1F);
        for case in 0..400u64 {
            let lines = rng.uniform_usize(60) as u64;
            let snapshot = rng.uniform_usize(70) as u64;
            let mut log = decision_log(&mut rng, lines);
            if rng.chance(0.7) {
                // A crash tears the next line at any byte. Losing only
                // the newline of a line the snapshot covers is the one
                // deliberate difference from the forward scan, pinned
                // by `an_unterminated_final_line_is_never_kept`.
                let next = decision_line(&mut rng, lines + 1);
                let max = if lines < snapshot { next.len() - 1 } else { next.len() };
                log.push_str(&next[..rng.uniform_usize(max)]);
            }
            let (want, want_lines) = reference_truncate(&log, snapshot);
            for block in [1, 7, 64, SCAN_BLOCK] {
                let (cut, kept) = cut_of(&log, snapshot, block);
                assert_eq!(&log[..cut as usize], want, "case {case} block {block}");
                assert_eq!(kept, want_lines, "case {case} block {block}");
            }
            if case % 16 == 0 {
                let path = decision_log_path(&dir, case as usize);
                std::fs::write(&path, &log).unwrap();
                assert_eq!(truncate_decision_log(&path, snapshot).unwrap(), want_lines);
                assert_eq!(std::fs::read_to_string(&path).unwrap(), want, "case {case}");
            }
        }
    }

    #[test]
    fn an_unterminated_final_line_is_never_kept() {
        let dir = tempdir("unterminated");
        let path = decision_log_path(&dir, 0);
        let log = "D 1 0 1 at=1,2 by=0 trust=0000000000000001\n\
                   D 2 0 2 at=- by=- trust=0000000000000002\n\
                   D 3 0 3 at=3,4 by=1 trust=0000000000000003";
        std::fs::write(&path, log).unwrap();
        assert_eq!(truncate_decision_log(&path, 5).unwrap(), 2);
        let kept = std::fs::read_to_string(&path).unwrap();
        assert!(kept.ends_with("trust=0000000000000002\n"), "{kept}");
        // The forward scan kept it, and gave it a newline.
        assert_eq!(reference_truncate(log, 5), (format!("{log}\n"), 3));
    }

    #[test]
    fn a_malformed_middle_line_no_longer_discards_later_history() {
        let dir = tempdir("middle");
        let path = decision_log_path(&dir, 0);
        let head = "D 1 0 1 at=1,2 by=0 trust=0000000000000001\n\
                    D 2 0 2 at=- by=- trust=0000000000000002\n";
        let log = format!(
            "{head}D 3 0 3 at=1,2 by=0 trust=00\n\
             D 4 0 4 at=3,4 by=1 trust=0000000000000004\n\
             D 5 0 5 at=3,4 by=1 trust=0000000000000005\n"
        );
        std::fs::write(&path, &log).unwrap();
        assert_eq!(truncate_decision_log(&path, 4).unwrap(), 4);
        let kept = std::fs::read_to_string(&path).unwrap();
        assert_eq!(kept, log[..log.find("D 5").unwrap()]);
        // The forward scan stopped at the malformed line.
        assert_eq!(reference_truncate(&log, 4), (head.to_string(), 2));
    }

    #[test]
    fn a_kept_line_straddling_a_block_boundary_is_read_whole() {
        let mut rng = SimRng::seed_from(5);
        let mut log = decision_log(&mut rng, 300);
        let cut = log.len();
        let start = log[..cut - 1].rfind('\n').map_or(0, |i| i + 1);
        // Put the boundary one block before the end inside line 300.
        push_tail(&mut rng, &mut log, 301, SCAN_BLOCK as usize - (cut - start) / 2);
        let boundary = log.len() - SCAN_BLOCK as usize;
        assert!(start < boundary && boundary < cut);
        assert_eq!(cut_of(&log, 300, SCAN_BLOCK), (cut as u64, 300));
        assert_eq!(reference_truncate(&log, 300).0, log[..cut]);
    }

    #[test]
    fn a_torn_tail_longer_than_a_block_is_cut_whole() {
        let mut rng = SimRng::seed_from(6);
        let mut log = decision_log(&mut rng, 50);
        let cut = log.len();
        push_tail(&mut rng, &mut log, 51, 3 * SCAN_BLOCK as usize + 17);
        assert_eq!(cut_of(&log, 50, SCAN_BLOCK), (cut as u64, 50));
        assert_eq!(reference_truncate(&log, 50).0, log[..cut]);
    }

    #[test]
    fn snapshot_round_zero_empties_the_log() {
        let dir = tempdir("zero");
        let path = decision_log_path(&dir, 0);
        std::fs::write(&path, decision_log(&mut SimRng::seed_from(7), 12)).unwrap();
        assert_eq!(truncate_decision_log(&path, 0).unwrap(), 0);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "");
    }

    #[test]
    fn a_missing_directory_is_created_with_an_empty_log() {
        let dir = tempdir("nodir");
        let path = decision_log_path(&dir.join("a").join("b"), 3);
        assert_eq!(truncate_decision_log(&path, 9).unwrap(), 0);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "");
    }

    /// A reader that counts the bytes it hands out.
    struct CountingReader {
        inner: Cursor<Vec<u8>>,
        read: u64,
    }

    impl Read for CountingReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.read += n as u64;
            Ok(n)
        }
    }

    impl Seek for CountingReader {
        fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
            self.inner.seek(pos)
        }
    }

    #[test]
    fn the_scan_reads_the_tail_plus_at_most_one_block() {
        let mut rng = SimRng::seed_from(8);
        for lines in [10u64, 100_000] {
            let log = decision_log(&mut rng, lines);
            let ends: Vec<usize> = log.match_indices('\n').map(|(i, _)| i + 1).collect();
            for case in 0..12 {
                // A snapshot in the last 64 rounds, then later rounds up
                // to two blocks long, the last of them torn. Every other
                // tail puts the block boundary inside the kept line.
                let snapshot = lines - rng.uniform_usize(lines.min(64) as usize) as u64;
                let cut = ends[snapshot as usize - 1];
                let start = if snapshot == 1 { 0 } else { ends[snapshot as usize - 2] };
                let tail = if case % 2 == 0 {
                    SCAN_BLOCK as usize - (cut - start) / 2
                } else {
                    rng.uniform_usize(2 * SCAN_BLOCK as usize)
                };
                let mut torn = log[..cut].to_string();
                push_tail(&mut rng, &mut torn, snapshot + 1, tail);
                let mut reader = CountingReader {
                    inner: Cursor::new(torn.clone().into_bytes()),
                    read: 0,
                };
                let got = find_cut(&mut reader, snapshot, SCAN_BLOCK).unwrap();
                assert_eq!(got, (cut as u64, snapshot));
                let after = (torn.len() - cut) as u64;
                assert!(
                    reader.read <= after + SCAN_BLOCK,
                    "{lines} lines: read {} bytes, {after} after the cut",
                    reader.read
                );
            }
        }
    }
}

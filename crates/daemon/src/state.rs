//! Durable tenant state: a versioned snapshot container wrapping the
//! engine checkpoint blob together with everything else a resume needs
//! to be byte-identical — the dedup highwaters and the mirrored queue
//! counters — plus the decision-log truncation that squares the log
//! with the snapshot after a crash.
//!
//! A tenant file is written atomically (`.tmp` + rename, directory
//! fsync) via the PR-5 checkpoint machinery, and only at tick
//! boundaries, so every file on disk is internally consistent: the
//! engine round, the highwater map, and the counters all describe the
//! same instant. The decision log is flushed *before* the snapshot is
//! written, so a snapshot at round `r` implies rounds `1..=r` are in
//! the log; anything after `r` (including a torn final line) is
//! regenerated deterministically by the replayed stream and is
//! truncated away on restore.
//!
//! That ordering is also the log's whole damage model: a crash can
//! only leave extra or torn bytes *after* round `r`, never damage
//! before it. Truncation therefore reads the log backward from its
//! end and cuts it in place ([`truncate_decision_log`]), at a cost
//! bounded by the bytes after the cut — one snapshot interval plus a
//! torn tail — however long the log has grown.

use std::fs::OpenOptions;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use tibfit_experiments::checkpoint::{read_checkpoint, write_checkpoint, CheckpointError};
use tibfit_sim::snapshot::{SectionBuf, SnapshotReader, SnapshotWriter};

use crate::queue::QueueStats;
use crate::tenant::{decision_line_round, EngineKind, Tenant};
use crate::DaemonError;

/// Section tag: tenant metadata (id, seed, kind, round, highwaters,
/// counters).
const TAG_TENANT_META: u8 = 20;
/// Section tag: the engine checkpoint blob.
const TAG_TENANT_ENGINE: u8 = 21;

/// Everything a tenant state file holds, decoded.
pub struct TenantState {
    /// Tenant index.
    pub id: usize,
    /// Scenario master seed the tenant was built from (validated
    /// against the daemon's configuration on restore).
    pub seed: u64,
    /// Engine flavor the blob was saved from.
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

/// Path of tenant `id`'s state file under `state_dir`.
#[must_use]
pub fn tenant_state_path(state_dir: &Path, id: usize) -> PathBuf {
    state_dir.join(format!("tenant{id}.tbsn"))
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
/// `put_bytes(&save_sequential(..))` (or `save_sharded`), without
/// building and copying that blob.
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
    s.put_u8(tenant.kind().tag());
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

/// Writes a tenant state file atomically.
///
/// # Errors
///
/// [`DaemonError::Checkpoint`] on I/O failure.
pub fn write_tenant_state(path: &Path, bytes: &[u8]) -> Result<(), DaemonError> {
    write_checkpoint(path, bytes).map_err(DaemonError::Checkpoint)
}

/// Reads a tenant state file. `Ok(None)` if it does not exist.
///
/// # Errors
///
/// [`DaemonError::Checkpoint`] on I/O failure, [`DaemonError::Snapshot`]
/// on corruption.
pub fn read_tenant_state(path: &Path) -> Result<Option<TenantState>, DaemonError> {
    let bytes = match read_checkpoint(path) {
        Ok(b) => b,
        Err(CheckpointError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(None)
        }
        Err(e) => return Err(DaemonError::Checkpoint(e)),
    };
    decode_tenant_state(&bytes).map(Some)
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
    fn encode_matches_the_two_step_reference_on_both_engines() {
        use tibfit_experiments::checkpoint::{save_sequential, save_sharded};

        let sc = scenario(6);
        let events = sc.events(9);
        let hw = vec![(0u64, 9u64), (5, 2)];
        let stats = QueueStats {
            offered: 11,
            admitted: 9,
            duplicates: 2,
            ..QueueStats::default()
        };
        for kind in [EngineKind::Sequential, EngineKind::Sharded] {
            let mut tenant = Tenant::new(1, sc.clone(), kind, 2).unwrap();
            let mut seq = sc.sequential().unwrap();
            let mut par = sc.sharded(2).unwrap();
            for (i, p) in events.iter().enumerate() {
                tenant.apply(&crate::wire::Report {
                    tenant: 1,
                    time: i as u64,
                    src: 0,
                    seq: i as u64 + 1,
                    x: p.x,
                    y: p.y,
                });
                seq.run_event(*p);
                par.run_event(*p);
            }
            let engine_blob = match kind {
                EngineKind::Sequential => save_sequential(&seq).unwrap(),
                EngineKind::Sharded => save_sharded(&par).unwrap(),
            };
            let reference = encode_two_step(&tenant, &engine_blob, &hw, stats);
            let bytes = encode_tenant_state(&tenant, &hw, stats).unwrap();
            assert_eq!(bytes, reference, "{kind:?}");
            assert_eq!(decode_tenant_state(&bytes).unwrap().blob, engine_blob, "{kind:?}");
        }
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

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

use std::io::Write;
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

/// Truncates a decision log to rounds `<= round`: keeps the longest
/// prefix of well-formed, strictly increasing decision lines ending at
/// or before `round`, drops everything after — later rounds a dead
/// incarnation got ahead on, and any torn final line. Missing file is
/// treated as an empty log. Returns how many lines were kept.
///
/// The rewrite goes through a `.tmp` + rename so a crash mid-truncation
/// leaves either the old or the new log, both of which re-truncate
/// cleanly on the next start.
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
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(DaemonError::Io(e)),
    };
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
    let tmp = path.with_extension("log.tmp");
    {
        let mut f = std::fs::File::create(&tmp).map_err(DaemonError::Io)?;
        f.write_all(kept.as_bytes()).map_err(DaemonError::Io)?;
        f.sync_all().map_err(DaemonError::Io)?;
    }
    std::fs::rename(&tmp, path).map_err(DaemonError::Io)?;
    Ok(kept_lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::Tenant;
    use tibfit_experiments::replay::FieldScenario;

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
}

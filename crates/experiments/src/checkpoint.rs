//! Checkpoint/restore for the multi-cluster engine.
//!
//! A checkpoint captures a deployment at a round boundary — the only
//! instant where no timers are in flight and no reports are buffered —
//! and serializes it into the versioned, CRC-framed container from
//! [`tibfit_sim::snapshot`]. That is what makes
//! kill-anywhere/resume-bit-identical work: the crash harness in
//! `tests/crash_resume.rs` snapshots a [`MultiClusterSim`], resumes it,
//! and the completed run's declarations, trust trajectories, counters,
//! and CSVs match the uninterrupted run byte for byte. The format
//! carries no engine tag: blobs an earlier, since removed sharded engine
//! saved are the same bytes and restore here unchanged.
//!
//! ## Layout (container version 2)
//!
//! ```text
//! section 1 (deployment): round, n_nodes, cluster_count,
//!     sensing_radius, r_error, λ, f_r, arithmetic byte (always 0),
//!     drift_sigma, reelect_every,
//!     field_w, field_h, sites
//! section 2 × cluster_count (one per cluster, ascending index):
//!     index, head, members, positions, behaviors, channel, rng,
//!     trust table (counters, cached TI, status, policy, metrics),
//!     trace counters
//! ```
//!
//! Every decoded field is validated (lengths agree, probabilities in
//! range, member positions inside the field, cached TI bit-equal to
//! `e^(−λ·v)`, membership a partition of the node set), so a corrupt or
//! truncated blob — *any* corrupt blob — surfaces as a typed
//! [`SnapshotError`], never a panic. The fuzz tests in
//! `tests/snapshot_fuzz.rs` pin that contract with seeded bit-flips and
//! truncations, and this module's `resealed_` tests with values mutated
//! inside CRC-resealed sections.
//!
//! Restore is one pass: each cluster section decodes straight into its
//! `ClusterState`, with its membership checked against the node set as
//! it is read ([`restore_sequential`]).

use std::io::Write as _;
use std::path::Path;

use tibfit_core::engine::TibfitEngine;
use tibfit_core::trust::{NodeStatus, TrustParams, TrustTable, TrustTableState};
use tibfit_net::channel::ChannelSnapshot;
use tibfit_net::geometry::Point;
use tibfit_net::topology::NodeId;
use tibfit_adversary::behavior::BehaviorSnapshot;
use tibfit_adversary::Level0Config;
use tibfit_sim::rng::{RngState, SimRng};
use tibfit_sim::snapshot::{
    SectionBuf, SectionReader, SnapshotError, SnapshotReader, SnapshotWriter,
};

use crate::multicluster::{
    ClusterState, DeploymentHeader, MultiClusterConfig, MultiClusterSim, COUNTER_NAMES,
};

/// Section tag: deployment-wide header.
const TAG_DEPLOYMENT: u8 = 1;
/// Section tag: one cluster.
const TAG_CLUSTER: u8 = 2;
/// The deployment header's trust-arithmetic byte. Version 2 of the
/// container reserved it for a backend selector; f64 (`0`) is the only
/// arithmetic left, so it is written as a frozen constant. A blob with
/// byte `1` came from the retired Q16.16 backend.
const ARITH_F64: u8 = 0;

/// Why a checkpoint operation failed.
#[derive(Debug)]
pub enum CheckpointError {
    /// The blob was malformed, corrupt, or version-skewed.
    Snapshot(SnapshotError),
    /// Reading or writing the checkpoint file failed.
    Io(std::io::Error),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Snapshot(e) => write!(f, "checkpoint rejected: {e}"),
            CheckpointError::Io(e) => write!(f, "checkpoint I/O failed: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Snapshot(e) => Some(e),
            CheckpointError::Io(e) => Some(e),
        }
    }
}

impl From<SnapshotError> for CheckpointError {
    fn from(e: SnapshotError) -> Self {
        CheckpointError::Snapshot(e)
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Serializes the sequential engine's current state.
///
/// # Errors
///
/// [`SnapshotError::Unsupported`] if any behaviour or channel in the
/// deployment has no snapshot form (e.g. level-2 colluders).
pub fn save_sequential(sim: &MultiClusterSim) -> Result<Vec<u8>, SnapshotError> {
    let mut w = SnapshotWriter::new();
    save_sequential_into(sim, &mut w)?;
    Ok(w.finish())
}

/// [`save_sequential`] writing the checkpoint's sections into an
/// already-started container — e.g. one nested in place inside another
/// container's section via [`SectionBuf::put_nested`]. On error the
/// container holds a partial checkpoint and must be discarded.
///
/// # Errors
///
/// As [`save_sequential`].
pub fn save_sequential_into(
    sim: &MultiClusterSim,
    w: &mut SnapshotWriter,
) -> Result<(), SnapshotError> {
    encode_into(&sim.checkpoint_header()?, w, |f| sim.try_for_each_cluster(f))
}

/// Restores a blob into the engine.
///
/// # Errors
///
/// [`CheckpointError::Snapshot`] for any malformed, corrupt, or
/// internally inconsistent blob.
pub fn restore_sequential(bytes: &[u8]) -> Result<MultiClusterSim, CheckpointError> {
    Ok(decode(bytes)?)
}

/// Writes a checkpoint atomically: the bytes land in `path.tmp` first,
/// are fsynced and renamed over `path`, and the directory is fsynced
/// after the rename. A crash mid-write can never leave a half-written
/// blob where a resume would look for one, and once this returns the
/// new file survives a power cut too.
///
/// # Errors
///
/// [`CheckpointError::Io`] on any filesystem failure.
pub fn write_checkpoint(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    // The first checkpoint of a sweep can land before anything else has
    // created the --out directory.
    let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(parent) = parent {
        std::fs::create_dir_all(parent)?;
    }
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    sync_dir(parent.unwrap_or(Path::new(".")))?;
    Ok(())
}

/// Fsyncs a directory, making the creations, renames and unlinks in it
/// durable. A no-op where directories cannot be opened as files.
///
/// # Errors
///
/// Any I/O error from opening or syncing `dir`.
pub fn sync_dir(dir: &Path) -> std::io::Result<()> {
    #[cfg(unix)]
    std::fs::File::open(dir)?.sync_all()?;
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
}

/// Reads a checkpoint file.
///
/// # Errors
///
/// [`CheckpointError::Io`] on any filesystem failure.
pub fn read_checkpoint(path: &Path) -> Result<Vec<u8>, CheckpointError> {
    Ok(std::fs::read(path)?)
}

fn put_point(s: &mut SectionBuf, p: Point) {
    s.put_f64(p.x);
    s.put_f64(p.y);
}

/// Reads a point as stored, unvalidated: the struct literal, not
/// [`Point::new`], which panics on a non-finite coordinate. Each caller
/// checks the range its field allows.
fn take_point(s: &mut SectionReader<'_>) -> Result<Point, SnapshotError> {
    let x = s.take_f64()?;
    let y = s.take_f64()?;
    Ok(Point { x, y })
}

fn put_level0(s: &mut SectionBuf, c: &Level0Config) {
    s.put_f64(c.missed_alarm);
    s.put_f64(c.false_alarm);
    s.put_f64(c.loc_sigma);
    s.put_f64(c.drop_prob);
}

fn take_level0(s: &mut SectionReader<'_>) -> Result<Level0Config, SnapshotError> {
    Ok(Level0Config {
        missed_alarm: s.take_f64()?,
        false_alarm: s.take_f64()?,
        loc_sigma: s.take_f64()?,
        drop_prob: s.take_f64()?,
    })
}

fn put_behavior(s: &mut SectionBuf, b: &BehaviorSnapshot) {
    match b {
        BehaviorSnapshot::Correct { ner, loc_sigma } => {
            s.put_u8(0);
            s.put_f64(*ner);
            s.put_f64(*loc_sigma);
        }
        BehaviorSnapshot::Level0 { config } => {
            s.put_u8(1);
            put_level0(s, config);
        }
        BehaviorSnapshot::Level1 {
            lie_config,
            honest_sigma,
            params,
            thresholds,
            lying,
            estimate_v,
        } => {
            s.put_u8(2);
            put_level0(s, lie_config);
            s.put_f64(*honest_sigma);
            s.put_f64(params.lambda);
            s.put_f64(params.fault_rate);
            match thresholds {
                Some((lo, hi)) => {
                    s.put_bool(true);
                    s.put_f64(*lo);
                    s.put_f64(*hi);
                }
                None => s.put_bool(false),
            }
            s.put_bool(*lying);
            s.put_f64(*estimate_v);
        }
    }
}

fn take_behavior(s: &mut SectionReader<'_>) -> Result<BehaviorSnapshot, SnapshotError> {
    match s.take_u8()? {
        0 => Ok(BehaviorSnapshot::Correct {
            ner: s.take_f64()?,
            loc_sigma: s.take_f64()?,
        }),
        1 => Ok(BehaviorSnapshot::Level0 {
            config: take_level0(s)?,
        }),
        2 => {
            let lie_config = take_level0(s)?;
            let honest_sigma = s.take_f64()?;
            let lambda = s.take_f64()?;
            let fault_rate = s.take_f64()?;
            let params = TrustParams::try_new(lambda, fault_rate)
                .map_err(|_| SnapshotError::Invalid("level-1 mirror params out of range"))?;
            let thresholds = if s.take_bool()? {
                Some((s.take_f64()?, s.take_f64()?))
            } else {
                None
            };
            Ok(BehaviorSnapshot::Level1 {
                lie_config,
                honest_sigma,
                params,
                thresholds,
                lying: s.take_bool()?,
                estimate_v: s.take_f64()?,
            })
        }
        _ => Err(SnapshotError::Invalid("unknown behavior tag")),
    }
}

fn put_channel(s: &mut SectionBuf, c: &ChannelSnapshot) {
    match c {
        ChannelSnapshot::Perfect => s.put_u8(0),
        ChannelSnapshot::Bernoulli { loss_probability } => {
            s.put_u8(1);
            s.put_f64(*loss_probability);
        }
        ChannelSnapshot::Distance {
            reliable_range,
            max_range,
        } => {
            s.put_u8(2);
            s.put_f64(*reliable_range);
            s.put_f64(*max_range);
        }
        ChannelSnapshot::GilbertElliott {
            p_gb,
            p_bg,
            loss_good,
            loss_bad,
            bad,
            forced,
        } => {
            s.put_u8(3);
            s.put_f64(*p_gb);
            s.put_f64(*p_bg);
            s.put_f64(*loss_good);
            s.put_f64(*loss_bad);
            s.put_bool(*bad);
            s.put_bool(*forced);
        }
    }
}

fn take_channel(s: &mut SectionReader<'_>) -> Result<ChannelSnapshot, SnapshotError> {
    match s.take_u8()? {
        0 => Ok(ChannelSnapshot::Perfect),
        1 => Ok(ChannelSnapshot::Bernoulli {
            loss_probability: s.take_f64()?,
        }),
        2 => Ok(ChannelSnapshot::Distance {
            reliable_range: s.take_f64()?,
            max_range: s.take_f64()?,
        }),
        3 => Ok(ChannelSnapshot::GilbertElliott {
            p_gb: s.take_f64()?,
            p_bg: s.take_f64()?,
            loss_good: s.take_f64()?,
            loss_bad: s.take_f64()?,
            bad: s.take_bool()?,
            forced: s.take_bool()?,
        }),
        _ => Err(SnapshotError::Invalid("unknown channel tag")),
    }
}

fn put_status(s: &mut SectionBuf, st: NodeStatus) {
    match st {
        NodeStatus::Active => s.put_u8(0),
        NodeStatus::Quarantined { remaining } => {
            s.put_u8(1);
            s.put_u64(remaining);
        }
        NodeStatus::Probation { remaining } => {
            s.put_u8(2);
            s.put_u64(remaining);
        }
    }
}

fn take_status(s: &mut SectionReader<'_>) -> Result<NodeStatus, SnapshotError> {
    match s.take_u8()? {
        0 => Ok(NodeStatus::Active),
        1 => Ok(NodeStatus::Quarantined {
            remaining: s.take_u64()?,
        }),
        2 => Ok(NodeStatus::Probation {
            remaining: s.take_u64()?,
        }),
        _ => Err(SnapshotError::Invalid("unknown node-status tag")),
    }
}

/// A point's bytes as [`put_point`] writes them.
fn point_bytes(p: &Point) -> [u8; 16] {
    let mut out = [0; 16];
    out[..8].copy_from_slice(&p.x.to_bits().to_le_bytes());
    out[8..].copy_from_slice(&p.y.to_bits().to_le_bytes());
    out
}

/// Bytes a checkpoint reserves per node: id, position, a level-0
/// behaviour (tag and four f64s), counter, cached TI and a status tag,
/// rounded up. Honest nodes take less and level-1 nodes more.
const RESERVE_NODE_BYTES: usize = 80;

/// Bytes a checkpoint reserves per cluster for its section frame and
/// fixed fields (index, head, counts, channel, RNG, trust settings and
/// trace counters) and its site in the deployment section, rounded up.
const RESERVE_CLUSTER_BYTES: usize = 256;

/// Writes one cluster section straight from the live cluster: each
/// fixed-size array field (members, positions, counters, cached TI) in
/// one pass, behaviours and statuses member by member, and the trace
/// counters through their handles.
///
/// # Errors
///
/// [`SnapshotError::Unsupported`] if a member behaviour or the channel
/// has no snapshot form (e.g. level-2 colluders, whose shared
/// coordinator cannot be serialized).
fn encode_cluster(s: &mut SectionBuf, c: &ClusterState) -> Result<(), SnapshotError> {
    let members = c.members();
    s.put_usize(c.index());
    put_point(s, c.head_position());
    s.put_usize(members.len());
    s.put_records(members, |m| (m.index() as u64).to_le_bytes());
    s.put_records(c.positions(), point_bytes);
    for b in c.behaviors() {
        let snapshot = b
            .snapshot()
            .ok_or(SnapshotError::Unsupported("behavior kind cannot be checkpointed"))?;
        put_behavior(s, &snapshot);
    }
    let channel = c
        .channel()
        .snapshot()
        .ok_or(SnapshotError::Unsupported("channel kind cannot be checkpointed"))?;
    put_channel(s, &channel);
    let rng = c.rng_state();
    for w in rng.s {
        s.put_u64(w);
    }
    s.put_opt_f64(rng.gauss_spare);
    // Trust table. λ/f_r are deployment-wide (section 1), not repeated.
    let trust = c.trust_state();
    s.put_records(trust.counters, |v| v.to_bits().to_le_bytes());
    s.put_records(trust.cached_ti, |ti| ti.to_bits().to_le_bytes());
    for st in trust.status {
        put_status(s, *st);
    }
    s.put_opt_f64(trust.isolation_threshold);
    match trust.reintegration {
        Some((q, p)) => {
            s.put_bool(true);
            s.put_u64(q);
            s.put_u64(p);
        }
        None => s.put_bool(false),
    }
    s.put_u64(trust.exp_evals);
    s.put_u64(trust.ti_reads);
    for v in c.trace_counters() {
        s.put_u64(v);
    }
    Ok(())
}

/// A member id as [`SectionBuf::put_records`] wrote it. An id this
/// platform's `usize` cannot hold maps to `usize::MAX`, which the
/// partition check rejects as out of range.
fn member_from_bytes(b: &[u8; 8]) -> NodeId {
    NodeId(usize::try_from(u64::from_le_bytes(*b)).unwrap_or(usize::MAX))
}

/// A point as [`point_bytes`] wrote it, unvalidated like [`take_point`].
fn point_from_bytes(b: &[u8; 16]) -> Point {
    let (x, y) = b.split_at(8);
    let f = |h: &[u8]| f64::from_bits(u64::from_le_bytes(h.try_into().expect("8-byte half")));
    Point { x: f(x), y: f(y) }
}

/// An `f64` as its raw bits, as [`SectionBuf::put_records`] wrote it.
fn f64_from_bytes(b: &[u8; 8]) -> f64 {
    f64::from_bits(u64::from_le_bytes(*b))
}

/// Decodes cluster section `index` straight into a [`ClusterState`], in
/// one pass: each fixed-size array (members, positions, counters,
/// cached TI) with one bounds check, each behaviour restored and
/// validated as it is read, and the trust vectors moved into the
/// restored table. Every member id is marked in `seen`, so membership
/// is checked to partition the node set in the same pass.
///
/// # Errors
///
/// [`SnapshotError::Invalid`] on any field no healthy cluster holds,
/// [`SnapshotError::Truncated`] if the section ends early.
fn decode_cluster(
    s: &mut SectionReader<'_>,
    index: usize,
    head: &DeploymentHeader,
    seen: &mut [bool],
) -> Result<ClusterState, SnapshotError> {
    if s.take_usize()? != index {
        return Err(SnapshotError::Invalid("cluster sections out of order"));
    }
    let head_position = take_point(s)?;
    if !(head_position.x.is_finite() && head_position.y.is_finite()) {
        return Err(SnapshotError::Invalid("non-finite position"));
    }
    let n = s.take_count(8)?;
    if n == 0 {
        return Err(SnapshotError::Invalid("cluster has no members"));
    }
    let members = s.take_records(n, member_from_bytes)?;
    if !members.windows(2).all(|w| w[0] < w[1]) {
        return Err(SnapshotError::Invalid("cluster members not strictly ascending"));
    }
    for m in &members {
        let slot = seen
            .get_mut(m.index())
            .ok_or(SnapshotError::Invalid("member id out of range"))?;
        if *slot {
            return Err(SnapshotError::Invalid("node in two clusters"));
        }
        *slot = true;
    }
    let positions = s.take_records(n, point_from_bytes)?;
    let (field_w, field_h) = head.field;
    // In the field implies finite: the range tests fail on NaN.
    let in_field = |p: &Point| (0.0..=field_w).contains(&p.x) && (0.0..=field_h).contains(&p.y);
    if !positions.iter().all(in_field) {
        return Err(SnapshotError::Invalid("member position outside the field"));
    }
    let mut behaviors = Vec::with_capacity(n);
    let mut non_quiet = 0;
    for _ in 0..n {
        let b = take_behavior(s)?.restore().map_err(SnapshotError::Invalid)?;
        non_quiet += usize::from(!b.quiet_unless_sensed());
        behaviors.push(b);
    }
    let channel = take_channel(s)?
        .restore()
        .map_err(|_| SnapshotError::Invalid("channel snapshot out of range"))?;
    let mut words = [0u64; 4];
    for w in &mut words {
        *w = s.take_u64()?;
    }
    let rng = SimRng::from_state(RngState {
        s: words,
        gauss_spare: s.take_opt_f64()?,
    })
    .ok_or(SnapshotError::Invalid("rng state degenerate"))?;
    let counters = s.take_records(n, f64_from_bytes)?;
    let cached_ti = s.take_records(n, f64_from_bytes)?;
    let mut status = Vec::with_capacity(n);
    for _ in 0..n {
        status.push(take_status(s)?);
    }
    let isolation_threshold = s.take_opt_f64()?;
    let reintegration = if s.take_bool()? {
        Some((s.take_u64()?, s.take_u64()?))
    } else {
        None
    };
    let table = TrustTable::from_state(TrustTableState {
        lambda: head.config.trust.lambda,
        fault_rate: head.config.trust.fault_rate,
        counters,
        cached_ti,
        status,
        isolation_threshold,
        reintegration,
        exp_evals: s.take_u64()?,
        ti_reads: s.take_u64()?,
    })
    .map_err(|e| SnapshotError::Invalid(e.message()))?;
    let mut trace = [0u64; COUNTER_NAMES.len()];
    for c in &mut trace {
        *c = s.take_u64()?;
    }
    let mut cluster = ClusterState::new(
        index,
        head_position,
        members,
        positions,
        head.config,
        behaviors,
        non_quiet,
        channel,
        rng,
        TibfitEngine::from_table(table),
        field_w,
        field_h,
    );
    cluster.restore_trace_counters(trace);
    Ok(cluster)
}

/// The checkpoint encoder. `for_each_cluster` hands over every
/// cluster in index order, read in place; each is written straight
/// into its framed section, with no staging copy. The blob's buffer is
/// sized once up front from the node and cluster counts, so a typical
/// checkpoint grows it in one step instead of doubling its way up
/// (the reserved tail past the written bytes is never touched).
fn encode_into(
    head: &DeploymentHeader,
    w: &mut SnapshotWriter,
    for_each_cluster: impl FnOnce(
        &mut dyn FnMut(&ClusterState) -> Result<(), SnapshotError>,
    ) -> Result<(), SnapshotError>,
) -> Result<(), SnapshotError> {
    w.reserve(head.n_nodes * RESERVE_NODE_BYTES + head.cluster_count * RESERVE_CLUSTER_BYTES);
    w.section(TAG_DEPLOYMENT, |s| {
        s.put_u64(head.round);
        s.put_usize(head.n_nodes);
        s.put_usize(head.cluster_count);
        s.put_f64(head.config.sensing_radius);
        s.put_f64(head.config.r_error);
        s.put_f64(head.config.trust.lambda);
        s.put_f64(head.config.trust.fault_rate);
        s.put_u8(ARITH_F64);
        s.put_f64(head.config.drift_sigma);
        s.put_u64(head.config.reelect_every);
        s.put_f64(head.field.0);
        s.put_f64(head.field.1);
        s.put_usize(head.sites.len());
        for site in &head.sites {
            put_point(s, *site);
        }
    });
    for_each_cluster(&mut |cluster| w.section(TAG_CLUSTER, |s| encode_cluster(s, cluster)))
}

/// Reads and validates the deployment section. `n_nodes` is bounded by
/// the blob's length (every node takes at least its 8-byte id), so a
/// corrupt count cannot drive a huge allocation.
fn decode_header(
    r: &mut SnapshotReader<'_>,
    blob_len: usize,
) -> Result<DeploymentHeader, SnapshotError> {
    let mut s = r.section(TAG_DEPLOYMENT)?;
    let round = s.take_u64()?;
    let n_nodes = s.take_usize()?;
    let cluster_count = s.take_usize()?;
    let sensing_radius = s.take_f64()?;
    let r_error = s.take_f64()?;
    let lambda = s.take_f64()?;
    let fault_rate = s.take_f64()?;
    match s.take_u8()? {
        ARITH_F64 => {}
        1 => {
            return Err(SnapshotError::Invalid(
                "Q16.16 trust arithmetic is no longer supported",
            ))
        }
        _ => return Err(SnapshotError::Invalid("unknown trust arithmetic backend")),
    }
    let drift_sigma = s.take_f64()?;
    let reelect_every = s.take_u64()?;
    let field_w = s.take_f64()?;
    let field_h = s.take_f64()?;
    let n_sites = s.take_count(16)?;
    let sites = s.take_records(n_sites, point_from_bytes)?;
    s.end()?;

    let trust = TrustParams::try_new(lambda, fault_rate)
        .map_err(|_| SnapshotError::Invalid("trust params out of range"))?;
    let config = MultiClusterConfig {
        sensing_radius,
        r_error,
        trust,
        drift_sigma,
        reelect_every,
    };
    config
        .validate()
        .map_err(|_| SnapshotError::Invalid("deployment config out of range"))?;
    if !(field_w.is_finite() && field_w > 0.0 && field_h.is_finite() && field_h > 0.0) {
        return Err(SnapshotError::Invalid("field dimensions out of range"));
    }
    if cluster_count == 0 || n_nodes == 0 {
        return Err(SnapshotError::Invalid("empty deployment"));
    }
    if n_nodes > blob_len / 8 {
        return Err(SnapshotError::Invalid("node count larger than the blob holds"));
    }
    if sites.len() != cluster_count {
        return Err(SnapshotError::Invalid("site count disagrees with cluster count"));
    }
    if sites
        .iter()
        .any(|p| !(p.x.is_finite() && p.y.is_finite()))
    {
        return Err(SnapshotError::Invalid("non-finite site"));
    }
    Ok(DeploymentHeader {
        config,
        sites,
        cluster_count,
        n_nodes,
        round,
        field: (field_w, field_h),
    })
}

/// The checkpoint decoder: the deployment section, then each cluster
/// section straight into its [`ClusterState`] ([`decode_cluster`]),
/// then the check that every node found a cluster.
fn decode(bytes: &[u8]) -> Result<MultiClusterSim, SnapshotError> {
    let mut r = SnapshotReader::new(bytes)?;
    let head = decode_header(&mut r, bytes.len())?;
    let mut seen = vec![false; head.n_nodes];
    let mut clusters = Vec::with_capacity(head.cluster_count);
    for i in 0..head.cluster_count {
        let mut s = r.section(TAG_CLUSTER)?;
        clusters.push(decode_cluster(&mut s, i, &head, &mut seen)?);
        s.end()?;
    }
    r.finish()?;
    if !seen.iter().all(|&s| s) {
        return Err(SnapshotError::Invalid("node in no cluster"));
    }
    Ok(MultiClusterSim::from_parts(
        head.config,
        head.sites,
        clusters,
        head.n_nodes,
        head.round,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multicluster::five_ch_sites;
    use tibfit_adversary::behavior::NodeBehavior;
    use tibfit_adversary::{CorrectNode, Level0Config, Level0Node};
    use tibfit_net::channel::{BernoulliLoss, ChannelModel};
    use tibfit_net::topology::Topology;

    fn build(seed: u64) -> MultiClusterSim {
        let topo = Topology::uniform_grid(64, 80.0, 80.0);
        let faulty = SimRng::seed_from(seed ^ 0xAA).choose_indices(64, 16);
        let behaviors: Vec<Box<dyn NodeBehavior + Send>> = (0..64)
            .map(|i| -> Box<dyn NodeBehavior + Send> {
                if faulty.contains(&i) {
                    Box::new(Level0Node::new(Level0Config::experiment2(4.25)))
                } else {
                    Box::new(CorrectNode::new(0.0, 1.6))
                }
            })
            .collect();
        MultiClusterSim::new(
            MultiClusterConfig::paper().mobile(0.6, 3),
            topo,
            five_ch_sites(80.0),
            behaviors,
            |_| Box::new(BernoulliLoss::new(0.005)) as Box<dyn ChannelModel + Send>,
            seed,
        )
    }

    fn run_rounds(sim: &mut MultiClusterSim, from: u64, count: u64) {
        let mut rng = SimRng::seed_from(0xE7E7);
        // Skip to the right point in the shared event stream.
        for _ in 0..from {
            let _ = (rng.uniform_range(0.0, 80.0), rng.uniform_range(0.0, 80.0));
        }
        for _ in 0..count {
            let event = Point::new(rng.uniform_range(0.0, 80.0), rng.uniform_range(0.0, 80.0));
            sim.run_event(event);
        }
    }

    /// Everything a cluster needs to be rebuilt bit-identically:
    /// membership, geometry, behaviour snapshots, channel snapshot, RNG
    /// state, the full trust-table state and the trace counter values —
    /// the staging copy the capture references encode from and decode
    /// into.
    #[derive(Debug, Clone)]
    struct ClusterCapture {
        index: usize,
        head_position: Point,
        members: Vec<NodeId>,
        positions: Vec<Point>,
        behaviors: Vec<BehaviorSnapshot>,
        channel: ChannelSnapshot,
        rng: RngState,
        trust: TrustTableState,
        /// Values of the counters in [`COUNTER_NAMES`], same order.
        counters: [u64; COUNTER_NAMES.len()],
    }

    /// One cluster section read element by element into a capture.
    fn decode_capture(
        s: &mut SectionReader<'_>,
        trust_params: TrustParams,
    ) -> Result<ClusterCapture, SnapshotError> {
        let index = s.take_usize()?;
        let head_position = take_point(s)?;
        let n = s.take_count(8)?;
        if n == 0 {
            return Err(SnapshotError::Invalid("cluster has no members"));
        }
        let mut members = Vec::with_capacity(n);
        for _ in 0..n {
            members.push(NodeId(s.take_usize()?));
        }
        let mut positions = Vec::with_capacity(n);
        for _ in 0..n {
            positions.push(take_point(s)?);
        }
        let mut behaviors = Vec::with_capacity(n);
        for _ in 0..n {
            behaviors.push(take_behavior(s)?);
        }
        let channel = take_channel(s)?;
        let mut words = [0u64; 4];
        for w in &mut words {
            *w = s.take_u64()?;
        }
        let rng = RngState {
            s: words,
            gauss_spare: s.take_opt_f64()?,
        };
        let mut counters = Vec::with_capacity(n);
        for _ in 0..n {
            counters.push(s.take_f64()?);
        }
        let mut cached_ti = Vec::with_capacity(n);
        for _ in 0..n {
            cached_ti.push(s.take_f64()?);
        }
        let mut status = Vec::with_capacity(n);
        for _ in 0..n {
            status.push(take_status(s)?);
        }
        let isolation_threshold = s.take_opt_f64()?;
        let reintegration = if s.take_bool()? {
            Some((s.take_u64()?, s.take_u64()?))
        } else {
            None
        };
        let trust = TrustTableState {
            lambda: trust_params.lambda,
            fault_rate: trust_params.fault_rate,
            counters,
            cached_ti,
            status,
            isolation_threshold,
            reintegration,
            exp_evals: s.take_u64()?,
            ti_reads: s.take_u64()?,
        };
        let mut trace = [0u64; COUNTER_NAMES.len()];
        for c in &mut trace {
            *c = s.take_u64()?;
        }
        Ok(ClusterCapture {
            index,
            head_position,
            members,
            positions,
            behaviors,
            channel,
            rng,
            trust,
            counters: trace,
        })
    }

    /// Rebuilds a cluster from a capture: validates, restores each
    /// behaviour from its snapshot, and checks every cached TI against
    /// its own `exp`, zero counters included, before the table is
    /// rebuilt.
    fn from_capture(
        cap: ClusterCapture,
        head: &DeploymentHeader,
    ) -> Result<ClusterState, SnapshotError> {
        let (field_w, field_h) = head.field;
        if !cap.members.windows(2).all(|w| w[0] < w[1]) {
            return Err(SnapshotError::Invalid("cluster members not strictly ascending"));
        }
        let finite = |p: &Point| p.x.is_finite() && p.y.is_finite();
        if !finite(&cap.head_position) || !cap.positions.iter().all(finite) {
            return Err(SnapshotError::Invalid("non-finite position"));
        }
        // `Topology::from_positions` panics on a position off the field.
        let in_field = |p: &Point| (0.0..=field_w).contains(&p.x) && (0.0..=field_h).contains(&p.y);
        if !cap.positions.iter().all(in_field) {
            return Err(SnapshotError::Invalid("member position outside the field"));
        }
        let mut non_quiet = 0;
        let behaviors = cap
            .behaviors
            .iter()
            .map(|snapshot| {
                let b = snapshot.restore()?;
                non_quiet += usize::from(!b.quiet_unless_sensed());
                Ok(b)
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(SnapshotError::Invalid)?;
        let channel = cap
            .channel
            .restore()
            .map_err(|_| SnapshotError::Invalid("channel snapshot out of range"))?;
        let rng = SimRng::from_state(cap.rng)
            .ok_or(SnapshotError::Invalid("rng state degenerate"))?;
        let lambda = cap.trust.lambda;
        for (&v, &ti) in cap.trust.counters.iter().zip(&cap.trust.cached_ti) {
            if v.is_finite() && v >= 0.0 && ti.to_bits() != (-lambda * v).exp().to_bits() {
                return Err(SnapshotError::Invalid("cached trust index disagrees with its counter"));
            }
        }
        let table =
            TrustTable::from_state(cap.trust).map_err(|e| SnapshotError::Invalid(e.message()))?;
        let mut state = ClusterState::new(
            cap.index,
            cap.head_position,
            cap.members,
            cap.positions,
            head.config,
            behaviors,
            non_quiet,
            channel,
            rng,
            TibfitEngine::from_table(table),
            field_w,
            field_h,
        );
        state.restore_trace_counters(cap.counters);
        Ok(state)
    }

    /// The two-pass restore the one-pass decoder replaced, kept as its
    /// differential reference: every cluster section is first copied
    /// into a [`ClusterCapture`], membership is checked once all are
    /// read, and only then is each capture rebuilt ([`from_capture`]).
    fn reference_restore(bytes: &[u8]) -> Result<MultiClusterSim, SnapshotError> {
        let mut r = SnapshotReader::new(bytes)?;
        let head = decode_header(&mut r, bytes.len())?;
        let mut captures = Vec::with_capacity(head.cluster_count);
        for i in 0..head.cluster_count {
            let mut s = r.section(TAG_CLUSTER)?;
            let cap = decode_capture(&mut s, head.config.trust)?;
            s.end()?;
            if cap.index != i {
                return Err(SnapshotError::Invalid("cluster sections out of order"));
            }
            captures.push(cap);
        }
        r.finish()?;
        let mut seen = vec![false; head.n_nodes];
        for cap in &captures {
            for m in &cap.members {
                let slot = seen
                    .get_mut(m.index())
                    .ok_or(SnapshotError::Invalid("member id out of range"))?;
                if *slot {
                    return Err(SnapshotError::Invalid("node in two clusters"));
                }
                *slot = true;
            }
        }
        if !seen.iter().all(|&s| s) {
            return Err(SnapshotError::Invalid("node in no cluster"));
        }
        let clusters = captures
            .into_iter()
            .map(|c| from_capture(c, &head))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(MultiClusterSim::from_parts(
            head.config,
            head.sites,
            clusters,
            head.n_nodes,
            head.round,
        ))
    }

    /// A blob's contents as the capture reference holds them: the
    /// deployment header, its trust-arithmetic byte and one capture per
    /// cluster.
    #[derive(Debug, Clone)]
    struct Contents {
        head: DeploymentHeader,
        arith: u8,
        clusters: Vec<ClusterCapture>,
    }

    /// `sim` copied cluster by cluster into captures, with the trace
    /// counters looked up by name.
    fn capture(sim: &MultiClusterSim) -> Contents {
        let head = sim.checkpoint_header().unwrap();
        let by_name: std::collections::HashMap<String, u64> = sim.counters().into_iter().collect();
        let mut clusters = Vec::new();
        sim.try_for_each_cluster(|c| -> Result<(), SnapshotError> {
            let t = c.trust_state();
            let trace = c.trace_counters();
            clusters.push(ClusterCapture {
                index: c.index(),
                head_position: c.head_position(),
                members: c.members().to_vec(),
                positions: c.positions().to_vec(),
                behaviors: c.behaviors().iter().map(|b| b.snapshot().unwrap()).collect(),
                channel: c.channel().snapshot().unwrap(),
                rng: c.rng_state(),
                trust: TrustTableState {
                    lambda: head.config.trust.lambda,
                    fault_rate: head.config.trust.fault_rate,
                    counters: t.counters.to_vec(),
                    cached_ti: t.cached_ti.to_vec(),
                    status: t.status.to_vec(),
                    isolation_threshold: t.isolation_threshold,
                    reintegration: t.reintegration,
                    exp_evals: t.exp_evals,
                    ti_reads: t.ti_reads,
                },
                counters: std::array::from_fn(|i| {
                    let name = format!("c{}.{}", c.index(), COUNTER_NAMES[i]);
                    let value = by_name.get(&name).copied().unwrap_or(0);
                    assert_eq!(value, trace[i], "{name}");
                    value
                }),
            });
            Ok(())
        })
        .unwrap();
        Contents {
            head,
            arith: ARITH_F64,
            clusters,
        }
    }

    /// `contents` written field by field, whatever their values.
    fn encode_contents(contents: &Contents) -> Vec<u8> {
        let head = &contents.head;
        let mut w = SnapshotWriter::new();
        w.section(TAG_DEPLOYMENT, |s| {
            s.put_u64(head.round);
            s.put_usize(head.n_nodes);
            s.put_usize(head.cluster_count);
            s.put_f64(head.config.sensing_radius);
            s.put_f64(head.config.r_error);
            s.put_f64(head.config.trust.lambda);
            s.put_f64(head.config.trust.fault_rate);
            s.put_u8(contents.arith);
            s.put_f64(head.config.drift_sigma);
            s.put_u64(head.config.reelect_every);
            s.put_f64(head.field.0);
            s.put_f64(head.field.1);
            s.put_usize(head.sites.len());
            for site in &head.sites {
                put_point(s, *site);
            }
        });
        for cap in &contents.clusters {
            w.section(TAG_CLUSTER, |s| {
                s.put_usize(cap.index);
                put_point(s, cap.head_position);
                s.put_usize(cap.members.len());
                for m in &cap.members {
                    s.put_usize(m.index());
                }
                for p in &cap.positions {
                    put_point(s, *p);
                }
                for b in &cap.behaviors {
                    put_behavior(s, b);
                }
                put_channel(s, &cap.channel);
                for w in cap.rng.s {
                    s.put_u64(w);
                }
                s.put_opt_f64(cap.rng.gauss_spare);
                for v in &cap.trust.counters {
                    s.put_f64(*v);
                }
                for ti in &cap.trust.cached_ti {
                    s.put_f64(*ti);
                }
                for st in &cap.trust.status {
                    put_status(s, *st);
                }
                s.put_opt_f64(cap.trust.isolation_threshold);
                match cap.trust.reintegration {
                    Some((q, p)) => {
                        s.put_bool(true);
                        s.put_u64(q);
                        s.put_u64(p);
                    }
                    None => s.put_bool(false),
                }
                s.put_u64(cap.trust.exp_evals);
                s.put_u64(cap.trust.ti_reads);
                for c in cap.counters {
                    s.put_u64(c);
                }
            });
        }
        w.finish()
    }

    /// The capture-then-encode save the one-pass encoder replaced, kept
    /// as its differential reference: every cluster is first copied into
    /// a [`ClusterCapture`], then written element by element.
    fn reference_save(sim: &MultiClusterSim) -> Vec<u8> {
        encode_contents(&capture(sim))
    }

    /// A 144-node deployment with every behaviour and channel kind a
    /// checkpoint can hold: honest, level-0 and level-1 nodes,
    /// Gilbert–Elliott and Bernoulli channels.
    fn build_mixed(seed: u64) -> MultiClusterSim {
        mixed_field(144, 9, 96.0, seed)
    }

    /// [`build_mixed`]'s kinds on `nodes` nodes and `clusters` clusters
    /// in a `field`-sided square.
    fn mixed_field(nodes: usize, clusters: usize, field: f64, seed: u64) -> MultiClusterSim {
        use tibfit_adversary::Level1Node;
        use tibfit_net::channel::GilbertElliott;
        let topo = Topology::uniform_grid(nodes, field, field);
        let params = MultiClusterConfig::paper().trust;
        let behaviors: Vec<Box<dyn NodeBehavior + Send>> = (0..nodes)
            .map(|i| -> Box<dyn NodeBehavior + Send> {
                match i % 5 {
                    0 => Box::new(Level0Node::new(Level0Config::experiment2(4.25))),
                    1 => Box::new(Level1Node::new(
                        Level0Config::experiment2(4.25),
                        1.6,
                        params,
                        0.5,
                        0.8,
                    )),
                    _ => Box::new(CorrectNode::new(0.01, 1.6)),
                }
            })
            .collect();
        MultiClusterSim::new(
            MultiClusterConfig::paper().mobile(0.8, 2),
            topo,
            crate::multicluster::grid_sites(clusters, field),
            behaviors,
            |ci| -> Box<dyn ChannelModel + Send> {
                if ci % 2 == 0 {
                    Box::new(GilbertElliott::new(0.1, 0.3, 0.01, 0.5))
                } else {
                    Box::new(BernoulliLoss::new(0.02))
                }
            },
            seed,
        )
    }

    /// The differential fields, each with its side: the paper's five-CH
    /// field, every behaviour and channel kind a checkpoint can hold,
    /// and a 4096-node, 256-cluster field.
    fn differential_fields() -> [(&'static str, MultiClusterSim, f64); 3] {
        use crate::replay::FieldScenario;
        let big = FieldScenario {
            nodes: 4096,
            clusters: 256,
            field: 640.0,
            faulty: 1024,
            ..FieldScenario::mobile(0xB1)
        };
        [
            ("paper five-CH", build(31), 80.0),
            ("mixed kinds", build_mixed(32), 96.0),
            ("big field", big.sequential().unwrap(), 640.0),
        ]
    }

    fn random_event(rng: &mut SimRng, field: f64) -> Point {
        let x = rng.uniform_range(0.0, field);
        let y = rng.uniform_range(0.0, field);
        Point::new(x, y)
    }

    #[test]
    fn one_pass_encoder_matches_the_capture_reference() {
        for (what, mut sim, field) in differential_fields() {
            let mut rng = SimRng::seed_from(0x0E);
            for round in 0..=12 {
                if round > 0 {
                    sim.run_event(random_event(&mut rng, field));
                }
                assert!(
                    save_sequential(&sim).unwrap() == reference_save(&sim),
                    "{what} round {round}: encoders disagree"
                );
            }
        }
    }

    #[test]
    fn one_pass_decoder_matches_the_capture_reference() {
        for (what, mut sim, field) in differential_fields() {
            let mut rng = SimRng::seed_from(0x0D);
            for round in 0..=12 {
                if round > 0 {
                    sim.run_event(random_event(&mut rng, field));
                }
                let blob = save_sequential(&sim).unwrap();
                let mut one_pass = restore_sequential(&blob).unwrap();
                let mut reference = reference_restore(&blob).unwrap();
                for (how, restored) in [("one-pass", &one_pass), ("reference", &reference)] {
                    assert!(
                        save_sequential(restored).unwrap() == blob,
                        "{what} round {round}: the {how} restore re-saves other bytes"
                    );
                    assert_eq!(restored.counters(), sim.counters(), "{what} round {round}: {how}");
                }
                let mut next = SimRng::seed_from(0x20 + round);
                for step in 1..=20 {
                    let event = random_event(&mut next, field);
                    assert_eq!(
                        one_pass.run_event(event),
                        reference.run_event(event),
                        "{what} round {round}, {step} rounds after the restore"
                    );
                }
                assert!(
                    save_sequential(&one_pass).unwrap() == save_sequential(&reference).unwrap(),
                    "{what} round {round}: the restores part ways within 20 rounds"
                );
            }
        }
    }

    /// A container's sections, each as `(tag, payload)`.
    type Sections = Vec<(u8, Vec<u8>)>;

    /// The container's sections.
    fn sections(blob: &[u8]) -> Sections {
        let mut out = Vec::new();
        let mut pos = 6;
        while pos < blob.len() {
            let len = u32::from_le_bytes(blob[pos + 1..pos + 5].try_into().unwrap()) as usize;
            out.push((blob[pos], blob[pos + 5..pos + 5 + len].to_vec()));
            pos += 5 + len + 4;
        }
        out
    }

    /// A container of `sections` under `blob`'s magic and version, each
    /// framed with its true length and CRC: a corrupt value inside a
    /// resealed section reaches field validation, not the CRC check.
    fn reseal(blob: &[u8], sections: &[(u8, Vec<u8>)]) -> Vec<u8> {
        let mut out = blob[..6].to_vec();
        for (tag, payload) in sections {
            out.push(*tag);
            out.extend_from_slice(&u32::try_from(payload.len()).unwrap().to_le_bytes());
            out.extend_from_slice(payload);
            out.extend_from_slice(&tibfit_sim::snapshot::crc32(payload).to_le_bytes());
        }
        out
    }

    /// Values a mutated 8-byte field takes, by their bits.
    fn mutations(old: u64, rng: &mut SimRng) -> [u64; 3] {
        let f = f64::from_bits(old);
        let menu = [
            0,
            1,
            u64::MAX,
            old.wrapping_add(1),
            old.wrapping_sub(1),
            old ^ (1 << rng.uniform_usize(64)),
            f64::NAN.to_bits(),
            (-1.0f64).to_bits(),
            (-f).to_bits(),
            (f * 2.0 + 1.0).to_bits(),
            f64::INFINITY.to_bits(),
            0.5f64.to_bits(),
            1 << 40,
            rng.next_u64(),
        ];
        std::array::from_fn(|_| menu[rng.uniform_usize(menu.len())])
    }

    #[test]
    fn resealed_field_mutations_get_the_reference_decision() {
        // Every 8-byte window of every section, aligned to a field or
        // not, takes three seeded values and the section is resealed.
        // The one-pass decoder must accept exactly what the capture
        // reference accepts, and both must then hold the same engine;
        // only which fault is reported first may differ.
        let blob = save_sequential(&small_mixed_field()).unwrap();
        let clean = sections(&blob);
        assert_eq!(reseal(&blob, &clean), blob);
        let mut rng = SimRng::seed_from(0x5E4A);
        let (mut tried, mut accepted) = (0usize, 0usize);
        for (si, (_, payload)) in clean.iter().enumerate() {
            for at in 0..=payload.len().saturating_sub(8) {
                let old = u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
                for value in mutations(old, &mut rng) {
                    if value == old {
                        continue;
                    }
                    let mut mutated = clean.clone();
                    mutated[si].1[at..at + 8].copy_from_slice(&value.to_le_bytes());
                    let bad = reseal(&blob, &mutated);
                    let what = format!("section {si} bytes {at}..{} = {value:#x}", at + 8);
                    tried += 1;
                    match (restore_sequential(&bad), reference_restore(&bad)) {
                        (Ok(mut one_pass), Ok(mut reference)) => {
                            accepted += 1;
                            assert!(
                                save_sequential(&one_pass).unwrap()
                                    == save_sequential(&reference).unwrap(),
                                "{what}: both accept, but re-save other bytes"
                            );
                            let event = Point::new(30.0, 30.0);
                            assert_eq!(one_pass.run_event(event), reference.run_event(event), "{what}");
                        }
                        (Err(_), Err(_)) => {}
                        (one_pass, reference) => panic!(
                            "{what}: one-pass {:?}, reference {:?}",
                            one_pass.map(|_| "accepted"),
                            reference.map(|_| "accepted")
                        ),
                    }
                }
            }
        }
        // Both outcomes must be common for the agreement to mean much.
        assert!(tried > 8_000, "only {tried} mutations");
        assert!(
            (1_000..tried - 1_000).contains(&accepted),
            "{accepted} of {tried} mutations were accepted"
        );
    }

    /// A 30-node, 3-cluster field with every behaviour and channel kind
    /// (hysteresis thresholds included), 5 rounds in.
    fn small_mixed_field() -> MultiClusterSim {
        let mut sim = mixed_field(30, 3, 60.0, 33);
        run_rounds(&mut sim, 0, 5);
        sim
    }

    /// The first byte at which two blobs' sections differ, as
    /// `(section, offset)`.
    fn first_difference(a: &[u8], b: &[u8]) -> (usize, usize) {
        sections(a)
            .iter()
            .zip(&sections(b))
            .enumerate()
            .find_map(|(si, (x, y))| x.1.iter().zip(&y.1).position(|(p, q)| p != q).map(|at| (si, at)))
            .expect("the edit changes a section's bytes")
    }

    /// One semantic mutation: its name, the resealed blob and the typed
    /// error it must get.
    struct Case {
        what: &'static str,
        blob: Vec<u8>,
        want: SnapshotError,
    }

    /// The semantic mutations of `sim`'s blob. Most edit one captured
    /// value and re-encode through [`encode_contents`], so no field
    /// offset is written down here. A value no capture can hold (a tag,
    /// a boolean, a count) is patched in at the first byte an edit of
    /// that field changes: a tag's or flag's own byte, and a count's
    /// lowest byte when the count drops by one.
    fn semantic_cases(sim: &MultiClusterSim) -> Vec<Case> {
        let clean = capture(sim);
        let blob = encode_contents(&clean);
        assert!(blob == save_sequential(sim).unwrap(), "the reference encoding is the blob");
        let edited = |edit: &dyn Fn(&mut Contents)| {
            let mut c = clean.clone();
            edit(&mut c);
            encode_contents(&c)
        };
        let resealed = |edit: &dyn Fn(&mut Sections)| {
            let mut s = sections(&blob);
            edit(&mut s);
            reseal(&blob, &s)
        };
        let patched = |locate: &dyn Fn(&mut Contents), bytes: &[u8]| {
            let (si, at) = first_difference(&blob, &edited(locate));
            resealed(&|s| s[si].1[at..at + bytes.len()].copy_from_slice(bytes))
        };
        let mut cases = Vec::new();
        let mut case = |what, want, blob| cases.push(Case { what, blob, want });
        let invalid = SnapshotError::Invalid;

        // The deployment section.
        let arith = |v| edited(&|c| c.arith = v);
        case("arith byte 1", invalid("Q16.16 trust arithmetic is no longer supported"), arith(1));
        case("arith byte 2", invalid("unknown trust arithmetic backend"), arith(2));
        case(
            "negative lambda",
            invalid("trust params out of range"),
            edited(&|c| c.head.config.trust.lambda = -1.0),
        );
        case(
            "NaN sensing radius",
            invalid("deployment config out of range"),
            edited(&|c| c.head.config.sensing_radius = f64::NAN),
        );
        case(
            "zero field width",
            invalid("field dimensions out of range"),
            edited(&|c| c.head.field.0 = 0.0),
        );
        case("zero nodes", invalid("empty deployment"), edited(&|c| c.head.n_nodes = 0));
        case(
            "inflated node count",
            invalid("node count larger than the blob holds"),
            edited(&|c| c.head.n_nodes = 1 << 60),
        );
        case("one node more", invalid("node in no cluster"), edited(&|c| c.head.n_nodes += 1));
        case(
            "one cluster more",
            invalid("site count disagrees with cluster count"),
            edited(&|c| c.head.cluster_count += 1),
        );
        case(
            "inflated site count",
            SnapshotError::Truncated,
            patched(&|c| { c.head.sites.pop(); }, &(u64::MAX / 2).to_le_bytes()),
        );
        case("NaN site", invalid("non-finite site"), edited(&|c| c.head.sites[0].x = f64::NAN));
        case(
            "deployment trailing byte",
            invalid("section has trailing bytes"),
            resealed(&|s| s[0].1.push(0)),
        );

        // Membership.
        case(
            "cluster index skipped",
            invalid("cluster sections out of order"),
            edited(&|c| c.clusters[1].index = 2),
        );
        case(
            "NaN head position",
            invalid("non-finite position"),
            edited(&|c| c.clusters[0].head_position.x = f64::NAN),
        );
        case(
            "no members",
            invalid("cluster has no members"),
            edited(&|c| c.clusters[0].members.clear()),
        );
        case(
            "inflated member count",
            SnapshotError::Truncated,
            patched(&|c| { c.clusters[0].members.pop(); }, &(u64::MAX / 16).to_le_bytes()),
        );
        case(
            "swapped member ids",
            invalid("cluster members not strictly ascending"),
            edited(&|c| c.clusters[0].members.swap(0, 1)),
        );
        case(
            "duplicate member id",
            invalid("cluster members not strictly ascending"),
            edited(&|c| c.clusters[0].members[1] = c.clusters[0].members[0]),
        );
        case(
            "member id out of range",
            invalid("member id out of range"),
            edited(&|c| *c.clusters[0].members.last_mut().unwrap() = NodeId(c.head.n_nodes)),
        );
        assert!(
            clean.clusters[0].members[0] < clean.clusters[1].members[1],
            "cluster 0's first member must sort before cluster 1's second"
        );
        case(
            "member in two clusters",
            invalid("node in two clusters"),
            edited(&|c| c.clusters[1].members[0] = c.clusters[0].members[0]),
        );
        for (what, x) in [
            ("NaN member position", f64::NAN),
            ("negative member position", -1.0),
            ("member position past the field", clean.head.field.0 + 1.0),
        ] {
            case(
                what,
                invalid("member position outside the field"),
                edited(&|c| c.clusters[0].positions[2].x = x),
            );
        }

        // Behaviours: the first member of each kind.
        let c0 = &clean.clusters[0].behaviors;
        let correct = c0.iter().position(|b| matches!(b, BehaviorSnapshot::Correct { .. }));
        let level0 = c0.iter().position(|b| matches!(b, BehaviorSnapshot::Level0 { .. }));
        let (correct, level0) = (correct.expect("a correct member"), level0.expect("a level-0 member"));
        let (l1c, l1m) = clean
            .clusters
            .iter()
            .enumerate()
            .find_map(|(ci, c)| {
                let m = c.behaviors.iter().position(|b| matches!(b, BehaviorSnapshot::Level1 { .. }));
                m.map(|m| (ci, m))
            })
            .expect("a level-1 member");
        // The blob with the level-1 member's snapshot edited.
        let level1 = |edit: &dyn Fn(&mut BehaviorSnapshot)| {
            edited(&|c| edit(&mut c.clusters[l1c].behaviors[l1m]))
        };
        let set_correct = |c: &mut Contents| {
            c.clusters[0].behaviors[correct] = BehaviorSnapshot::Level0 {
                config: Level0Config::experiment2(4.25),
            };
        };
        case("unknown behavior tag", invalid("unknown behavior tag"), patched(&set_correct, &[7]));
        case(
            "correct ner 1.5",
            invalid("correct-node snapshot out of range"),
            edited(&|c| {
                if let BehaviorSnapshot::Correct { ner, .. } = &mut c.clusters[0].behaviors[correct] {
                    *ner = 1.5;
                }
            }),
        );
        case(
            "level-0 missed alarm -0.1",
            invalid("level-0 snapshot out of range"),
            edited(&|c| {
                if let BehaviorSnapshot::Level0 { config } = &mut c.clusters[0].behaviors[level0] {
                    config.missed_alarm = -0.1;
                }
            }),
        );
        case(
            "level-1 lie drop prob 2",
            invalid("level-1 lie config out of range"),
            level1(&|b| {
                if let BehaviorSnapshot::Level1 { lie_config, .. } = b {
                    lie_config.drop_prob = 2.0;
                }
            }),
        );
        case(
            "level-1 honest sigma -1",
            invalid("level-1 honest sigma out of range"),
            level1(&|b| {
                if let BehaviorSnapshot::Level1 { honest_sigma, .. } = b {
                    *honest_sigma = -1.0;
                }
            }),
        );
        case(
            "level-1 mirror lambda -1",
            invalid("level-1 mirror params out of range"),
            level1(&|b| {
                if let BehaviorSnapshot::Level1 { params, .. } = b {
                    params.lambda = -1.0;
                }
            }),
        );
        case(
            "level-1 thresholds reversed",
            invalid("level-1 hysteresis thresholds invalid"),
            level1(&|b| {
                if let BehaviorSnapshot::Level1 { thresholds: Some((lo, _)), .. } = b {
                    *lo = 0.9;
                }
            }),
        );
        let flip_lying = |c: &mut Contents| {
            if let BehaviorSnapshot::Level1 { lying, .. } = &mut c.clusters[l1c].behaviors[l1m] {
                *lying = !*lying;
            }
        };
        case("level-1 lying flag 2", invalid("boolean field not 0 or 1"), patched(&flip_lying, &[2]));
        case(
            "level-1 NaN estimate",
            invalid("level-1 trust estimate invalid"),
            level1(&|b| {
                if let BehaviorSnapshot::Level1 { estimate_v, .. } = b {
                    *estimate_v = f64::NAN;
                }
            }),
        );

        // Channel and RNG.
        let channel = |kind: fn(&ChannelSnapshot) -> bool| {
            clean.clusters.iter().position(|c| kind(&c.channel)).expect("a cluster of each channel kind")
        };
        let bernoulli = channel(|c| matches!(c, ChannelSnapshot::Bernoulli { .. }));
        let ge = channel(|c| matches!(c, ChannelSnapshot::GilbertElliott { .. }));
        case(
            "unknown channel tag",
            invalid("unknown channel tag"),
            patched(&|c| c.clusters[ge].channel = ChannelSnapshot::Perfect, &[9]),
        );
        case(
            "Bernoulli loss 2",
            invalid("channel snapshot out of range"),
            edited(&|c| {
                if let ChannelSnapshot::Bernoulli { loss_probability } = &mut c.clusters[bernoulli].channel {
                    *loss_probability = 2.0;
                }
            }),
        );
        case(
            "Gilbert–Elliott p_gb -1",
            invalid("channel snapshot out of range"),
            edited(&|c| {
                if let ChannelSnapshot::GilbertElliott { p_gb, .. } = &mut c.clusters[ge].channel {
                    *p_gb = -1.0;
                }
            }),
        );
        case(
            "all-zero RNG state",
            invalid("rng state degenerate"),
            edited(&|c| c.clusters[0].rng.s = [0; 4]),
        );

        // The trust table.
        for (what, v) in [("NaN counter", f64::NAN), ("negative counter", -1.0)] {
            case(
                what,
                invalid("trust state fault counter negative or non-finite"),
                edited(&|c| c.clusters[0].trust.counters[1] = v),
            );
        }
        // A counter value an earlier node of its cluster also holds: the
        // later node's own cached TI is still compared.
        let (rc, rj) = clean
            .clusters
            .iter()
            .enumerate()
            .find_map(|(ci, c)| {
                let v = &c.trust.counters;
                (1..v.len())
                    .find(|&j| v[..j].iter().any(|x| x.to_bits() == v[j].to_bits()))
                    .map(|j| (ci, j))
            })
            .expect("a counter value repeated within a cluster");
        for (what, step) in [("cached TI one ulp up", 1i64), ("cached TI one ulp down", -1)] {
            case(
                what,
                invalid("cached trust index disagrees with its counter"),
                edited(&|c| {
                    let ti = &mut c.clusters[rc].trust.cached_ti[rj];
                    *ti = f64::from_bits(ti.to_bits().wrapping_add_signed(step));
                }),
            );
        }
        let quarantine = |c: &mut Contents| {
            c.clusters[0].trust.status[0] = NodeStatus::Quarantined { remaining: 1 };
        };
        case("unknown status tag", invalid("unknown node-status tag"), patched(&quarantine, &[3]));
        case(
            "isolation threshold 1.5",
            invalid("isolation threshold outside (0, 1)"),
            edited(&|c| c.clusters[0].trust.isolation_threshold = Some(1.5)),
        );
        case(
            "zero quarantine rounds",
            invalid("reintegration durations must be positive"),
            edited(&|c| c.clusters[0].trust.reintegration = Some((0, 2))),
        );
        let isolate = |c: &mut Contents| c.clusters[0].trust.isolation_threshold = Some(0.5);
        case("isolation flag 2", invalid("boolean field not 0 or 1"), patched(&isolate, &[2]));
        case(
            "cluster trailing byte",
            invalid("section has trailing bytes"),
            resealed(&|s| s[1].1.push(0)),
        );

        // The container.
        case(
            "cluster section retagged",
            SnapshotError::UnexpectedSection { expected: 2, found: 1 },
            resealed(&|s| s[1].0 = TAG_DEPLOYMENT),
        );
        case("last cluster missing", SnapshotError::Truncated, resealed(&|s| { s.pop(); }));
        case(
            "extra cluster",
            SnapshotError::TrailingBytes,
            resealed(&|s| s.push(s.last().unwrap().clone())),
        );
        let flipped = |at: usize, to: u8| {
            let mut bad = blob.clone();
            bad[at] = to;
            bad
        };
        case("bad magic", SnapshotError::BadMagic, flipped(0, blob[0] ^ 1));
        case(
            "future version",
            SnapshotError::UnsupportedVersion { found: 9, supported: 2 },
            flipped(4, 9),
        );
        let last = blob.len() - 5;
        case(
            "payload byte, CRC kept",
            SnapshotError::CrcMismatch { tag: TAG_CLUSTER },
            flipped(last, blob[last] ^ 1),
        );
        cases
    }

    #[test]
    fn resealed_semantic_mutations_get_their_typed_error() {
        let sim = small_mixed_field();
        let mut reached = std::collections::BTreeSet::new();
        for case in semantic_cases(&sim) {
            match restore_sequential(&case.blob) {
                Err(CheckpointError::Snapshot(got)) => {
                    assert_eq!(got, case.want, "{}", case.what);
                    reached.insert(got.to_string());
                }
                Err(e) => panic!("{}: {e}", case.what),
                Ok(_) => panic!("{}: accepted", case.what),
            }
        }
        // Every typed error the decoder can return on this platform. (A
        // 64-bit id that overflows `usize` needs a 32-bit target.)
        let every = [
            SnapshotError::BadMagic,
            SnapshotError::UnsupportedVersion { found: 9, supported: 2 },
            SnapshotError::Truncated,
            SnapshotError::CrcMismatch { tag: TAG_CLUSTER },
            SnapshotError::UnexpectedSection { expected: 2, found: 1 },
            SnapshotError::TrailingBytes,
        ]
        .into_iter()
        .chain(
            [
                "Q16.16 trust arithmetic is no longer supported",
                "unknown trust arithmetic backend",
                "trust params out of range",
                "deployment config out of range",
                "field dimensions out of range",
                "empty deployment",
                "node count larger than the blob holds",
                "site count disagrees with cluster count",
                "non-finite site",
                "section has trailing bytes",
                "cluster sections out of order",
                "non-finite position",
                "cluster has no members",
                "cluster members not strictly ascending",
                "member id out of range",
                "node in two clusters",
                "node in no cluster",
                "member position outside the field",
                "unknown behavior tag",
                "correct-node snapshot out of range",
                "level-0 snapshot out of range",
                "level-1 lie config out of range",
                "level-1 honest sigma out of range",
                "level-1 mirror params out of range",
                "level-1 hysteresis thresholds invalid",
                "level-1 trust estimate invalid",
                "boolean field not 0 or 1",
                "unknown channel tag",
                "channel snapshot out of range",
                "rng state degenerate",
                "trust state fault counter negative or non-finite",
                "cached trust index disagrees with its counter",
                "unknown node-status tag",
                "isolation threshold outside (0, 1)",
                "reintegration durations must be positive",
            ]
            .map(SnapshotError::Invalid),
        )
        .map(|e| e.to_string())
        .collect::<std::collections::BTreeSet<_>>();
        let missed: Vec<_> = every.difference(&reached).collect();
        assert!(missed.is_empty(), "typed errors no mutation reached: {missed:?}");
    }

    #[test]
    fn save_restore_save_is_byte_identical() {
        let mut sim = build(21);
        run_rounds(&mut sim, 0, 7);
        let blob = save_sequential(&sim).unwrap();
        let restored = restore_sequential(&blob).unwrap();
        let blob2 = save_sequential(&restored).unwrap();
        assert_eq!(blob, blob2, "save → restore → save must be a fixed point");
    }

    #[test]
    fn restored_run_matches_uninterrupted_run() {
        let mut full = build(23);
        run_rounds(&mut full, 0, 12);

        let mut half = build(23);
        run_rounds(&mut half, 0, 5);
        let blob = save_sequential(&half).unwrap();
        let mut resumed = restore_sequential(&blob).unwrap();
        run_rounds(&mut resumed, 5, 7);

        assert_eq!(full.trust_snapshot(), resumed.trust_snapshot());
        assert_eq!(full.position_snapshot(), resumed.position_snapshot());
        assert_eq!(full.counters(), resumed.counters());
    }

    #[test]
    fn corrupt_blobs_are_rejected_not_panicked() {
        let mut sim = build(25);
        run_rounds(&mut sim, 0, 4);
        let blob = save_sequential(&sim).unwrap();

        // Truncations at a few structural offsets.
        for cut in [0, 3, 6, 20, blob.len() / 2, blob.len() - 1] {
            assert!(
                restore_sequential(&blob[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
        // A flipped bit anywhere fails CRC or field validation.
        for offset in [0, 4, 8, 40, blob.len() / 2, blob.len() - 2] {
            let mut bad = blob.clone();
            bad[offset] ^= 0x10;
            assert!(
                restore_sequential(&bad).is_err(),
                "bit flip at {offset} accepted"
            );
        }
    }

    #[test]
    fn checkpoint_files_roundtrip_atomically() {
        let mut sim = build(26);
        run_rounds(&mut sim, 0, 3);
        let blob = save_sequential(&sim).unwrap();
        let dir = std::env::temp_dir().join("tibfit-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.tbsn");
        write_checkpoint(&path, &blob).unwrap();
        assert_eq!(read_checkpoint(&path).unwrap(), blob);
        assert!(
            !path.with_extension("tmp").exists(),
            "temp file must be renamed away"
        );
        std::fs::remove_file(&path).unwrap();
        // Missing file surfaces as Io, not a panic.
        assert!(matches!(
            read_checkpoint(&path),
            Err(CheckpointError::Io(_))
        ));
    }

    #[test]
    fn errors_display() {
        let e = CheckpointError::Snapshot(SnapshotError::BadMagic);
        assert!(e.to_string().contains("magic"));
        let e = CheckpointError::Io(std::io::Error::other("disk gone"));
        assert!(e.to_string().contains("disk gone"));
    }
}

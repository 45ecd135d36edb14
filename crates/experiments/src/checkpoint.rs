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
//! range, cached TI bit-equal to `e^(−λ·v)`, membership a partition of
//! the node set), so a corrupt or truncated blob — *any* corrupt blob —
//! surfaces as a typed [`SnapshotError`], never a panic. The fuzz tests
//! in `tests/snapshot_fuzz.rs` pin that contract with seeded bit-flips
//! and truncations.

use std::io::Write as _;
use std::path::Path;

use tibfit_core::trust::{NodeStatus, TrustParams, TrustTableState};
use tibfit_net::channel::ChannelSnapshot;
use tibfit_net::geometry::Point;
use tibfit_net::topology::NodeId;
use tibfit_adversary::behavior::BehaviorSnapshot;
use tibfit_adversary::Level0Config;
use tibfit_sim::rng::RngState;
use tibfit_sim::snapshot::{
    SectionBuf, SectionReader, SnapshotError, SnapshotReader, SnapshotWriter,
};

use crate::multicluster::{
    ClusterCapture, ClusterState, DeploymentHeader, MultiClusterConfig, MultiClusterSim,
    COUNTER_NAMES,
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
    let (head, captures) = decode(bytes)?;
    let clusters = build_clusters(&head, captures)?;
    Ok(MultiClusterSim::from_parts(
        head.config,
        head.sites,
        clusters,
        head.n_nodes,
        head.round,
    ))
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

fn take_point(s: &mut SectionReader<'_>) -> Result<Point, SnapshotError> {
    let x = s.take_f64()?;
    let y = s.take_f64()?;
    Ok(Point::new(x, y))
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

fn decode_cluster(
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
    let exp_evals = s.take_u64()?;
    let ti_reads = s.take_u64()?;
    let trust = TrustTableState {
        lambda: trust_params.lambda,
        fault_rate: trust_params.fault_rate,
        counters,
        cached_ti,
        status,
        isolation_threshold,
        reintegration,
        exp_evals,
        ti_reads,
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

fn decode(bytes: &[u8]) -> Result<(DeploymentHeader, Vec<ClusterCapture>), SnapshotError> {
    let mut r = SnapshotReader::new(bytes)?;
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
    let mut sites = Vec::with_capacity(n_sites);
    for _ in 0..n_sites {
        sites.push(take_point(&mut s)?);
    }
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
    if sites.len() != cluster_count {
        return Err(SnapshotError::Invalid("site count disagrees with cluster count"));
    }
    if sites
        .iter()
        .any(|p| !(p.x.is_finite() && p.y.is_finite()))
    {
        return Err(SnapshotError::Invalid("non-finite site"));
    }

    let mut clusters = Vec::with_capacity(cluster_count);
    for i in 0..cluster_count {
        let mut s = r.section(TAG_CLUSTER)?;
        let cap = decode_cluster(&mut s, trust)?;
        s.end()?;
        if cap.index != i {
            return Err(SnapshotError::Invalid("cluster sections out of order"));
        }
        clusters.push(cap);
    }
    r.finish()?;

    // Membership must partition the node set: every id exactly once.
    let mut seen = vec![false; n_nodes];
    for cluster in &clusters {
        for m in &cluster.members {
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

    let head = DeploymentHeader {
        config,
        sites,
        cluster_count,
        n_nodes,
        round,
        field: (field_w, field_h),
    };
    Ok((head, clusters))
}

fn build_clusters(
    head: &DeploymentHeader,
    captures: Vec<ClusterCapture>,
) -> Result<Vec<ClusterState>, SnapshotError> {
    let (field_w, field_h) = head.field;
    captures
        .into_iter()
        .map(|c| ClusterState::from_capture(c, head.config, field_w, field_h))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multicluster::five_ch_sites;
    use tibfit_adversary::behavior::NodeBehavior;
    use tibfit_adversary::{CorrectNode, Level0Config, Level0Node};
    use tibfit_net::channel::{BernoulliLoss, ChannelModel};
    use tibfit_net::topology::Topology;
    use tibfit_sim::rng::SimRng;

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

    /// The capture-then-encode save the one-pass encoder replaced, kept
    /// as its differential reference: every cluster is first copied into
    /// a [`ClusterCapture`], then written element by element, with the
    /// trace counters looked up by name.
    fn reference_save(sim: &MultiClusterSim) -> Vec<u8> {
        fn encode_capture(s: &mut SectionBuf, cap: &ClusterCapture) {
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
        }
        let head = sim.checkpoint_header().unwrap();
        let mut w = SnapshotWriter::new();
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
        let by_name: std::collections::HashMap<String, u64> = sim.counters().into_iter().collect();
        sim.try_for_each_cluster(|c| -> Result<(), SnapshotError> {
            let t = c.trust_state();
            let trace = c.trace_counters();
            let cap = ClusterCapture {
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
            };
            w.section(TAG_CLUSTER, |s| encode_capture(s, &cap));
            Ok(())
        })
        .unwrap();
        w.finish()
    }

    /// A deployment with every behaviour and channel kind a checkpoint
    /// can hold: honest, level-0 and level-1 nodes, Gilbert–Elliott and
    /// Bernoulli channels.
    fn build_mixed(seed: u64) -> MultiClusterSim {
        use tibfit_adversary::Level1Node;
        use tibfit_net::channel::GilbertElliott;
        let topo = Topology::uniform_grid(144, 96.0, 96.0);
        let params = MultiClusterConfig::paper().trust;
        let behaviors: Vec<Box<dyn NodeBehavior + Send>> = (0..144)
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
            crate::multicluster::grid_sites(9, 96.0),
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

    #[test]
    fn one_pass_encoder_matches_the_capture_reference() {
        use crate::replay::FieldScenario;
        let big = FieldScenario {
            nodes: 4096,
            clusters: 256,
            field: 640.0,
            faulty: 1024,
            ..FieldScenario::mobile(0xB1)
        };
        let mut sims = [
            ("paper five-CH", build(31), 80.0),
            ("mixed kinds", build_mixed(32), 96.0),
            ("big field", big.sequential().unwrap(), 640.0),
        ];
        for (what, sim, field) in &mut sims {
            let mut rng = SimRng::seed_from(0x0E);
            for round in 0..=12 {
                if round > 0 {
                    let x = rng.uniform_range(0.0, *field);
                    let y = rng.uniform_range(0.0, *field);
                    sim.run_event(Point::new(x, y));
                }
                assert!(
                    save_sequential(sim).unwrap() == reference_save(sim),
                    "{what} round {round}: encoders disagree"
                );
            }
        }
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

//! One hosted field: an engine (sequential or sharded), its shared
//! position view for the router's impact metric, and the deterministic
//! decision-line formatter.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use tibfit_experiments::checkpoint;
use tibfit_experiments::multicluster::{MultiClusterSim, MultiRoundResult};
use tibfit_experiments::replay::FieldScenario;
use tibfit_experiments::sharded::ShardedMultiCluster;
use tibfit_net::geometry::Point;
use tibfit_net::topology::NodeId;
use tibfit_sim::snapshot::SnapshotWriter;

use crate::wire::Report;
use crate::DaemonError;

/// Which engine implementation backs a tenant. Both are bit-identical
/// (pinned by the differential suite), so the choice is operational:
/// the sharded engine trades threads for throughput on big fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The sequential reference engine.
    Sequential,
    /// The sharded parallel engine.
    Sharded,
}

impl EngineKind {
    /// Stable on-disk tag.
    #[must_use]
    pub fn tag(self) -> u8 {
        match self {
            EngineKind::Sequential => 0,
            EngineKind::Sharded => 1,
        }
    }

    /// Parses the on-disk tag.
    ///
    /// # Errors
    ///
    /// [`DaemonError::State`] on an unknown tag.
    pub fn from_tag(tag: u8) -> Result<Self, DaemonError> {
        match tag {
            0 => Ok(EngineKind::Sequential),
            1 => Ok(EngineKind::Sharded),
            other => Err(DaemonError::State(format!("unknown engine tag {other}"))),
        }
    }

    /// CLI spelling.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Config`] on an unknown name.
    pub fn from_name(name: &str) -> Result<Self, DaemonError> {
        match name {
            "seq" | "sequential" => Ok(EngineKind::Sequential),
            "sharded" | "par" => Ok(EngineKind::Sharded),
            other => Err(DaemonError::Config(format!(
                "unknown engine {other:?} (expected seq|sharded)"
            ))),
        }
    }
}

enum TenantEngine {
    // Boxed: the engines carry cache-line-aligned hot state, so the
    // variants are far larger than the enum's other residents.
    Sequential(Box<MultiClusterSim>),
    Sharded(Box<ShardedMultiCluster>),
}

impl TenantEngine {
    /// Writes every node's position into `out` (indexed by node id) in
    /// one pass; `out` keeps its allocation across calls.
    fn positions_into(&self, out: &mut Vec<(f64, f64)>) {
        let n = match self {
            TenantEngine::Sequential(e) => e.node_count(),
            TenantEngine::Sharded(e) => e.node_count(),
        };
        out.resize(n, (0.0, 0.0));
        let put = |node: NodeId, p: Point| out[node.index()] = (p.x, p.y);
        match self {
            TenantEngine::Sequential(e) => e.for_each_position(put),
            TenantEngine::Sharded(e) => e.for_each_position(put),
        }
    }
}

/// The engine's node positions, shared with the router so admission
/// can rank pending records by trust impact without touching the
/// engine. Refreshed by the worker after every applied round; read by
/// the router only after the drain barrier, so reads always see a
/// settled tick boundary.
pub struct PositionView {
    radius: f64,
    points: Mutex<Vec<(f64, f64)>>,
}

impl PositionView {
    fn lock(&self) -> MutexGuard<'_, Vec<(f64, f64)>> {
        self.points.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// How many deployed nodes can sense a stimulus at `(x, y)` — the
    /// shedding metric: records nobody can corroborate are shed first.
    #[must_use]
    pub fn impact_of(&self, x: f64, y: f64) -> u64 {
        let pts = self.lock();
        let r2 = self.radius * self.radius;
        pts.iter()
            .filter(|(px, py)| {
                let dx = px - x;
                let dy = py - y;
                dx * dx + dy * dy <= r2
            })
            .count() as u64
    }
}

/// One hosted field.
pub struct Tenant {
    id: usize,
    scenario: FieldScenario,
    kind: EngineKind,
    engine: TenantEngine,
    positions: Arc<PositionView>,
    /// Scratch for the per-record trust digest — the apply path runs
    /// once per admitted record and must not allocate a full trust
    /// vector each time.
    trust_scratch: Vec<u64>,
}

/// Multiplier of the decision-line fingerprint. NOT the standard
/// 64-bit FNV prime (`0x100_0000_01b3`, one more hex digit): the digest
/// shipped with this value, every committed decision log embeds it, and
/// the crash-resume and fleet tests diff logs byte for byte, so it is a
/// frozen format constant, not a tunable.
const TRUST_DIGEST_PRIME: u64 = 0x1_0000_01b3;

/// FNV-1a-style hash over a slice of u64 words, little-endian byte
/// order, with [`TRUST_DIGEST_PRIME`] — the decision-line trust
/// fingerprint.
fn fnv1a_u64s(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &bits in words {
        for byte in bits.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(TRUST_DIGEST_PRIME);
        }
    }
    h
}

impl Tenant {
    fn build(id: usize, scenario: FieldScenario, kind: EngineKind, engine: TenantEngine) -> Self {
        let radius = match &engine {
            TenantEngine::Sequential(e) => e.config().sensing_radius,
            TenantEngine::Sharded(e) => e.config().sensing_radius,
        };
        let mut points = Vec::new();
        engine.positions_into(&mut points);
        Tenant {
            id,
            scenario,
            kind,
            engine,
            positions: Arc::new(PositionView {
                radius,
                points: Mutex::new(points),
            }),
            trust_scratch: Vec::new(),
        }
    }

    /// Builds a fresh tenant from its scenario.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Engine`] if the deployment is rejected.
    pub fn new(
        id: usize,
        scenario: FieldScenario,
        kind: EngineKind,
        threads: usize,
    ) -> Result<Self, DaemonError> {
        let engine = match kind {
            EngineKind::Sequential => {
                TenantEngine::Sequential(Box::new(scenario.sequential().map_err(DaemonError::Engine)?))
            }
            EngineKind::Sharded => {
                TenantEngine::Sharded(Box::new(scenario.sharded(threads).map_err(DaemonError::Engine)?))
            }
        };
        Ok(Tenant::build(id, scenario, kind, engine))
    }

    /// Rebuilds a tenant from a checkpointed engine blob.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Checkpoint`] if the blob is corrupt or the
    /// decoded deployment is rejected.
    pub fn from_blob(
        id: usize,
        scenario: FieldScenario,
        kind: EngineKind,
        threads: usize,
        blob: &[u8],
    ) -> Result<Self, DaemonError> {
        let engine = match kind {
            EngineKind::Sequential => TenantEngine::Sequential(Box::new(
                checkpoint::restore_sequential(blob).map_err(DaemonError::Checkpoint)?,
            )),
            EngineKind::Sharded => TenantEngine::Sharded(Box::new(
                checkpoint::restore_sharded(blob, threads).map_err(DaemonError::Checkpoint)?,
            )),
        };
        Ok(Tenant::build(id, scenario, kind, engine))
    }

    /// Tenant index.
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// The scenario this tenant was built from.
    #[must_use]
    pub fn scenario(&self) -> &FieldScenario {
        &self.scenario
    }

    /// Engine flavor.
    #[must_use]
    pub fn kind(&self) -> EngineKind {
        self.kind
    }

    /// The shared position view the router ranks impact with.
    #[must_use]
    pub fn positions(&self) -> Arc<PositionView> {
        Arc::clone(&self.positions)
    }

    /// Re-attaches a replacement tenant to the position view the router
    /// already holds (worker restarts must not leave the router ranking
    /// against a dead incarnation's frozen positions). Refreshes the
    /// view from this engine's state immediately.
    pub fn set_positions(&mut self, view: Arc<PositionView>) {
        debug_assert_eq!(view.radius.to_bits(), self.positions.radius.to_bits());
        self.engine.positions_into(&mut view.lock());
        self.positions = view;
    }

    /// Completed event rounds.
    #[must_use]
    pub fn round(&self) -> u64 {
        match &self.engine {
            TenantEngine::Sequential(e) => e.round(),
            TenantEngine::Sharded(e) => e.round(),
        }
    }

    fn trust_bits(&self) -> Vec<u64> {
        match &self.engine {
            TenantEngine::Sequential(e) => e.trust_snapshot(),
            TenantEngine::Sharded(e) => e.trust_snapshot(),
        }
    }

    /// Raw trust counter `v` of one node (the value behind
    /// `TI = e^(−λv)`, bit-equal to its [`Self::trust_digest`] input),
    /// or `None` out of range. One affiliation lookup plus a binary
    /// search in the node's cluster, not a walk of the whole field.
    #[must_use]
    pub fn trust_of(&self, node: usize) -> Option<f64> {
        let node = NodeId(node);
        match &self.engine {
            TenantEngine::Sequential(e) => {
                (node.index() < e.node_count()).then(|| e.trust_counter_of(node))
            }
            TenantEngine::Sharded(e) => {
                (node.index() < e.node_count()).then(|| e.trust_counter_of(node))
            }
        }
    }

    /// FNV-1a digest over the bit-exact trust vector — a cheap
    /// whole-state fingerprint embedded in every decision line, so a
    /// diff catches divergence at the exact round it appears.
    #[must_use]
    pub fn trust_digest(&self) -> u64 {
        fnv1a_u64s(&self.trust_bits())
    }

    /// Applies one admitted report: runs the event round, refreshes the
    /// shared position view, and returns the decision line.
    pub fn apply(&mut self, report: &Report) -> String {
        let mut line = String::new();
        self.apply_into(report, &mut line);
        line
    }

    /// [`Self::apply`] appending the decision line to a caller-owned
    /// buffer (no trailing newline). The worker's per-record hot path:
    /// position refresh, trust digest, and line formatting all reuse
    /// scratch buffers, so a steady-state apply performs no heap
    /// allocation beyond what the engine round itself needs.
    pub fn apply_into(&mut self, report: &Report, out: &mut String) {
        let stimulus = Point::new(report.x, report.y);
        let result = match &mut self.engine {
            TenantEngine::Sequential(e) => e.run_event(stimulus),
            TenantEngine::Sharded(e) => e.run_event(stimulus),
        };
        self.engine.positions_into(&mut self.positions.lock());
        self.decision_line_into(report, &result, out);
    }

    /// Formats the decision line for a completed round into `out`.
    /// Deterministic byte-for-byte: coordinates use shortest round-trip
    /// formatting, the digest pins the full trust state.
    fn decision_line_into(&mut self, report: &Report, result: &MultiRoundResult, out: &mut String) {
        use std::fmt::Write;
        let round = self.round();
        let _ = write!(out, "D {round} {} {} at=", report.src, report.seq);
        if result.declared.is_empty() {
            out.push('-');
        }
        for (i, p) in result.declared.iter().enumerate() {
            if i > 0 {
                out.push(';');
            }
            let _ = write!(out, "{},{}", p.x, p.y);
        }
        out.push_str(" by=");
        if result.declaring_clusters.is_empty() {
            out.push('-');
        }
        for (i, c) in result.declaring_clusters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{c}");
        }
        match &self.engine {
            TenantEngine::Sequential(e) => e.trust_snapshot_into(&mut self.trust_scratch),
            TenantEngine::Sharded(e) => e.trust_snapshot_into(&mut self.trust_scratch),
        }
        let _ = write!(out, " trust={:016x}", fnv1a_u64s(&self.trust_scratch));
    }

    /// Writes the engine checkpoint's sections into an already-started
    /// container — the tenant state file nests it in place (see
    /// [`crate::state::encode_tenant_state`]).
    ///
    /// # Errors
    ///
    /// [`DaemonError::Snapshot`] if the engine state cannot be captured.
    pub fn save_engine_into(&self, w: &mut SnapshotWriter) -> Result<(), DaemonError> {
        match &self.engine {
            TenantEngine::Sequential(e) => checkpoint::save_sequential_into(e, w),
            TenantEngine::Sharded(e) => checkpoint::save_sharded_into(e, w),
        }
        .map_err(DaemonError::Snapshot)
    }
}

/// Parses the round number out of a decision line (`D <round> ...`).
/// `None` for anything that is not a well-formed decision line —
/// including a partial line torn by a crash.
#[must_use]
pub fn decision_line_round(line: &str) -> Option<u64> {
    let mut it = line.split_ascii_whitespace();
    if it.next() != Some("D") {
        return None;
    }
    let round = it.next()?.parse().ok()?;
    // A complete line has src, seq, at=, by=, trust=.
    let rest: Vec<&str> = it.collect();
    if rest.len() != 5 || !rest[4].starts_with("trust=") {
        return None;
    }
    Some(round)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tibfit_experiments::replay::tenant_seed;

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

    fn report(seq: u64, x: f64, y: f64) -> Report {
        Report {
            tenant: 0,
            time: seq,
            src: 0,
            seq,
            x,
            y,
        }
    }

    #[test]
    fn engines_produce_identical_decision_lines() {
        let sc = small_scenario(tenant_seed(11, 0));
        let mut seq = Tenant::new(0, sc.clone(), EngineKind::Sequential, 1).unwrap();
        let mut par = Tenant::new(0, sc.clone(), EngineKind::Sharded, 2).unwrap();
        for (i, p) in sc.events(6).into_iter().enumerate() {
            let a = seq.apply(&report(i as u64 + 1, p.x, p.y));
            let b = par.apply(&report(i as u64 + 1, p.x, p.y));
            assert_eq!(a, b, "round {i}");
            assert!(a.starts_with(&format!("D {} ", i + 1)));
        }
    }

    #[test]
    fn blob_round_trip_resumes_identically() {
        let sc = small_scenario(5);
        let mut live = Tenant::new(0, sc.clone(), EngineKind::Sequential, 1).unwrap();
        let events = sc.events(8);
        for (i, p) in events[..4].iter().enumerate() {
            live.apply(&report(i as u64 + 1, p.x, p.y));
        }
        let mut w = SnapshotWriter::new();
        live.save_engine_into(&mut w).unwrap();
        let blob = w.finish();
        let mut restored =
            Tenant::from_blob(0, sc.clone(), EngineKind::Sequential, 1, &blob).unwrap();
        assert_eq!(restored.round(), 4);
        for (i, p) in events[4..].iter().enumerate() {
            let a = live.apply(&report(i as u64 + 5, p.x, p.y));
            let b = restored.apply(&report(i as u64 + 5, p.x, p.y));
            assert_eq!(a, b);
        }
    }

    #[test]
    fn trust_of_matches_the_full_snapshot_on_both_engines() {
        // Drift 3.0 with re-election every 4 rounds hands nodes between
        // clusters, so the lookup is checked across affiliation changes
        // too (a stale sharded affiliation map fails this test).
        let sc = FieldScenario {
            nodes: 64,
            clusters: 4,
            field: 60.0,
            drift_sigma: 3.0,
            ..small_scenario(tenant_seed(13, 0))
        };
        for (kind, threads) in [(EngineKind::Sequential, 1), (EngineKind::Sharded, 2)] {
            let mut tenant = Tenant::new(0, sc.clone(), kind, threads).unwrap();
            for (i, p) in sc.events(10).into_iter().enumerate() {
                tenant.apply(&report(i as u64 + 1, p.x, p.y));
                let all = tenant.trust_bits();
                for (node, &bits) in all.iter().enumerate() {
                    let v = tenant.trust_of(node).expect("node in range");
                    assert_eq!(v.to_bits(), bits, "{kind:?} round {} node {node}", i + 1);
                }
                assert_eq!(tenant.trust_of(all.len()), None);
                assert_eq!(tenant.trust_of(usize::MAX), None);
            }
            assert!(
                tenant.trust_bits().iter().any(|&b| b != 0),
                "{kind:?}: the run must move some counter off zero"
            );
        }
    }

    #[test]
    fn trust_digest_prime_is_pinned() {
        // Frozen by every committed decision log: a "fix" to the
        // standard FNV prime would change every trust= field.
        assert_eq!(fnv1a_u64s(&[]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_u64s(&[0]), 0x21ae_156a_281a_39c5);
        assert_eq!(fnv1a_u64s(&[1, 2]), 0xe64a_ea73_63c8_e066);
        assert_eq!(fnv1a_u64s(&[0x0123_4567_89ab_cdef]), 0xd5a3_39af_4776_1c55);
    }

    #[test]
    fn impact_counts_in_range_nodes() {
        let sc = small_scenario(9);
        let tenant = Tenant::new(0, sc.clone(), EngineKind::Sequential, 1).unwrap();
        let view = tenant.positions();
        // The field is 40×40; a stimulus in the middle reaches more
        // nodes than one far outside.
        let center = view.impact_of(20.0, 20.0);
        let outside = view.impact_of(4000.0, 4000.0);
        assert!(center > 0);
        assert_eq!(outside, 0);
    }

    #[test]
    fn decision_round_parser_rejects_torn_lines() {
        assert_eq!(decision_line_round("D 7 0 9 at=1,2 by=0 trust=00000000deadbeef"), Some(7));
        assert_eq!(decision_line_round("D 7 0 9 at=1,2 by=0 trust"), None);
        assert_eq!(decision_line_round("D 7 0 9 at=1,2"), None);
        assert_eq!(decision_line_round("garbage"), None);
        assert_eq!(decision_line_round(""), None);
    }

    #[test]
    fn engine_kind_tags_round_trip() {
        for kind in [EngineKind::Sequential, EngineKind::Sharded] {
            assert_eq!(EngineKind::from_tag(kind.tag()).unwrap(), kind);
        }
        assert!(EngineKind::from_tag(9).is_err());
        assert_eq!(EngineKind::from_name("seq").unwrap(), EngineKind::Sequential);
        assert_eq!(EngineKind::from_name("sharded").unwrap(), EngineKind::Sharded);
        assert!(EngineKind::from_name("gpu").is_err());
    }
}

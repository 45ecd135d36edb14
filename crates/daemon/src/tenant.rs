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
    /// The per-record trust digest, re-hashed only from the first
    /// trust word that changed since the previous record.
    digest: TrustDigest,
}

/// Multiplier of the decision-line fingerprint. NOT the standard
/// 64-bit FNV prime (`0x100_0000_01b3`, one more hex digit): the digest
/// shipped with this value, every committed decision log embeds it, and
/// the crash-resume and fleet tests diff logs byte for byte, so it is a
/// frozen format constant, not a tunable.
const TRUST_DIGEST_PRIME: u64 = 0x1_0000_01b3;

/// FNV-1a offset basis: the fingerprint of an empty trust vector.
const TRUST_DIGEST_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a-style hash over a slice of u64 words, little-endian byte
/// order, with [`TRUST_DIGEST_PRIME`] — the decision-line trust
/// fingerprint.
fn fnv1a_u64s(words: &[u64]) -> u64 {
    fnv1a_fold(TRUST_DIGEST_BASIS, words)
}

/// The FNV state after hashing `words` on from state `h`.
fn fnv1a_fold(mut h: u64, words: &[u64]) -> u64 {
    for &bits in words {
        for byte in bits.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(TRUST_DIGEST_PRIME);
        }
    }
    h
}

/// Trust words per cached FNV state of a [`TrustDigest`].
const DIGEST_BLOCK: usize = 64;

/// `fnv1a_u64s` of the trust vector, kept across records so that each
/// record re-hashes only from the block holding the lowest word that
/// changed. FNV is a left fold, so the state after any prefix of the
/// words is enough to carry on from there; a round moves a handful of
/// counters out of thousands, and the rest of the vector is compared,
/// not hashed.
#[derive(Debug, Default)]
struct TrustDigest {
    /// The trust words to digest next: the engine fills it before each
    /// [`Self::update`].
    words: Vec<u64>,
    /// The words the last digest covered. Swapped with `words` after
    /// each update, so the two buffers are the tenant's only trust
    /// copies and no record copies a vector.
    prev: Vec<u64>,
    /// `prefix[b]` is the FNV state after words `[0, 64·b)` of `prev`,
    /// for every block boundary `b` up to and including the end of the
    /// vector, so the last entry is the digest. Empty until the first
    /// update; an update whose vector length differs from `prev`'s
    /// re-hashes from word 0.
    prefix: Vec<u64>,
}

impl TrustDigest {
    /// Digests `words`, equal to `fnv1a_u64s(&self.words)`, then keeps
    /// them as the new `prev`.
    fn update(&mut self) -> u64 {
        let n = self.words.len();
        let cached = self.prev.len() == n && self.prefix.len() == n.div_ceil(DIGEST_BLOCK) + 1;
        let first_changed = if cached {
            self.words.iter().zip(&self.prev).position(|(a, b)| a != b).unwrap_or(n)
        } else {
            0
        };
        let block = first_changed / DIGEST_BLOCK;
        self.prefix.truncate(block + 1);
        if self.prefix.is_empty() {
            self.prefix.push(TRUST_DIGEST_BASIS);
        }
        let mut h = self.prefix[block];
        for chunk in self.words[block * DIGEST_BLOCK..].chunks(DIGEST_BLOCK) {
            h = fnv1a_fold(h, chunk);
            self.prefix.push(h);
        }
        std::mem::swap(&mut self.words, &mut self.prev);
        h
    }
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
            digest: TrustDigest::default(),
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
    /// diff catches divergence at the exact round it appears. This
    /// hashes the whole vector; the decision line carries the same
    /// value, kept incrementally by the tenant's `TrustDigest`.
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
            TenantEngine::Sequential(e) => e.trust_snapshot_into(&mut self.digest.words),
            TenantEngine::Sharded(e) => e.trust_snapshot_into(&mut self.digest.words),
        }
        let _ = write!(out, " trust={:016x}", self.digest.update());
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
/// including a partial line torn by a crash, which is why the digest
/// must be all 16 lowercase hex digits [`Tenant`] writes: a line torn
/// inside `trust=` is rejected, not counted as complete.
#[must_use]
pub fn decision_line_round(line: &str) -> Option<u64> {
    let mut it = line.split_ascii_whitespace();
    if it.next() != Some("D") {
        return None;
    }
    let round = it.next()?.parse().ok()?;
    // A complete line has src, seq, at=, by=, trust= and nothing after.
    let digest = it.nth(4)?.strip_prefix("trust=")?;
    let is_digest = digest.len() == 16
        && digest.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    (is_digest && it.next().is_none()).then_some(round)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tibfit_experiments::replay::tenant_seed;
    use tibfit_sim::rng::SimRng;

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

    /// The digest a decision line carries.
    fn line_digest(line: &str) -> u64 {
        let hex = line.rsplit_once(" trust=").expect("a decision line").1;
        u64::from_str_radix(hex, 16).expect("a hex digest")
    }

    /// Every decision line's digest is the full hash of the trust vector
    /// at that round. Returns how many lines changed the digest.
    fn assert_lines_carry_full_digests(
        tenant: &mut Tenant,
        events: &[Point],
        first_seq: u64,
    ) -> usize {
        let mut changed = 0;
        let mut last = tenant.trust_digest();
        for (i, p) in events.iter().enumerate() {
            let line = tenant.apply(&report(first_seq + i as u64, p.x, p.y));
            let digest = line_digest(&line);
            assert_eq!(digest, fnv1a_u64s(&tenant.trust_bits()), "{line}");
            changed += usize::from(digest != last);
            last = digest;
        }
        changed
    }

    /// Digests `words` through `digest` and checks it against the full
    /// hash, and the cache it leaves behind.
    fn check_digest(digest: &mut TrustDigest, words: &[u64], what: &str) {
        let n = words.len();
        digest.words.clear();
        digest.words.extend_from_slice(words);
        assert_eq!(digest.update(), fnv1a_u64s(words), "n {n}: {what}");
        assert_eq!(digest.prev, words, "n {n}: {what}");
        assert_eq!(digest.prefix.len(), n.div_ceil(DIGEST_BLOCK) + 1, "n {n}: {what}");
    }

    /// Flips one seeded bit of each in-range word in `at`.
    fn flip(rng: &mut SimRng, words: &mut [u64], at: &[usize]) {
        for &i in at {
            if let Some(w) = words.get_mut(i) {
                *w ^= 1 << rng.uniform_usize(64);
            }
        }
    }

    #[test]
    fn cached_trust_digest_is_the_full_hash_under_seeded_mutations() {
        let mut rng = SimRng::seed_from(0xD16E);
        for n in [0usize, 1, 63, 64, 65, 127, 128, 130, 1000, 4096, 4133] {
            let mut digest = TrustDigest::default();
            let mut words: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
            check_digest(&mut digest, &words, "first digest");
            check_digest(&mut digest, &words, "no change");
            check_digest(&mut digest, &words, "no change again");
            let last = n.saturating_sub(1);
            for (at, what) in [
                (vec![0], "first word"),
                (vec![last], "last word"),
                (vec![0, last], "first and last word"),
                (vec![63], "word 63"),
                (vec![64], "word 64"),
                (vec![65], "word 65"),
                (vec![63, 64, 65], "words 63-65"),
            ] {
                flip(&mut rng, &mut words, &at);
                check_digest(&mut digest, &words, what);
            }
            for round in 0..40 {
                let k = if round % 4 == 0 { n / 3 } else { 1 + rng.uniform_usize(5) };
                let at: Vec<usize> = (0..k).map(|_| rng.uniform_usize(n.max(1))).collect();
                flip(&mut rng, &mut words, &at);
                check_digest(&mut digest, &words, &format!("seeded round {round}, {k} words"));
            }
            // A word set back to the value it had two digests ago is
            // still a change against the previous digest.
            let before = words.clone();
            flip(&mut rng, &mut words, &[n / 2]);
            check_digest(&mut digest, &words, "middle word");
            check_digest(&mut digest, &before, "middle word restored");
            // A vector of another length hashes afresh, also where it
            // starts with the previous vector's words.
            let mut grown = before.clone();
            grown.push(rng.next_u64());
            check_digest(&mut digest, &grown, "grown by one");
            check_digest(&mut digest, &before, "shrunk by one");
            check_digest(&mut digest, &before[..n / 2], "halved");
        }
    }

    #[test]
    fn a_restored_tenant_starts_a_fresh_digest_cache() {
        let sc = FieldScenario {
            nodes: 200,
            clusters: 4,
            field: 100.0,
            drift_sigma: 2.0,
            ..small_scenario(tenant_seed(17, 0))
        };
        let events = sc.events(16);
        let mut live = Tenant::new(0, sc.clone(), EngineKind::Sequential, 1).unwrap();
        assert_lines_carry_full_digests(&mut live, &events[..8], 1);
        let mut w = SnapshotWriter::new();
        live.save_engine_into(&mut w).unwrap();
        let mut restored =
            Tenant::from_blob(0, sc.clone(), EngineKind::Sequential, 1, &w.finish()).unwrap();
        assert!(restored.digest.prefix.is_empty(), "a restored tenant has no cached states");
        assert_lines_carry_full_digests(&mut restored, &events[8..], 9);

        // A migration install rebuilds from the state container a bundle
        // carries, decoded on the receiving side.
        let state =
            crate::state::encode_tenant_state(&live, &[(0, 8)], Default::default()).unwrap();
        let bundle = crate::migrate::encode_bundle(&crate::migrate::MigrationBundle {
            tenant: 0,
            seed: sc.seed,
            state_round: 8,
            state_bytes: state,
            live_highwater: Vec::new(),
            live_stats: Default::default(),
            replay: Vec::new(),
            pending: Vec::new(),
        });
        let received = crate::migrate::decode_bundle(&bundle).unwrap();
        let st = crate::state::decode_tenant_state(&received.state_bytes).unwrap();
        let mut installed = Tenant::from_blob(0, sc, st.kind, 1, &st.blob).unwrap();
        assert!(installed.digest.prefix.is_empty(), "an installed tenant has no cached states");
        assert_lines_carry_full_digests(&mut installed, &events[8..], 9);
    }

    #[test]
    fn every_digest_of_a_big_field_replay_is_the_full_hash() {
        // The big_field benchmark workload's shape: 4096 mobile nodes in
        // 256 clusters, re-elected every 3 rounds, so affiliations and
        // the changed counters move across the whole vector.
        let sc = FieldScenario {
            nodes: 4096,
            clusters: 256,
            field: 640.0,
            faulty: 1024,
            ..FieldScenario::mobile(tenant_seed(42, 1))
        };
        let mut tenant = Tenant::new(1, sc.clone(), EngineKind::Sequential, 1).unwrap();
        let changed = assert_lines_carry_full_digests(&mut tenant, &sc.events(150), 1);
        assert!(changed > 100, "only {changed} of 150 rounds moved a trust counter");
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
        let cases = [
            ("D 7 0 9 at=1,2 by=0 trust=00000000deadbeef", Some(7)),
            ("D 7 0 9 at=- by=- trust=0123456789abcdef", Some(7)),
            ("D 7 0 9 at=1,2 by=0 trust", None),
            ("D 7 0 9 at=1,2", None),
            ("garbage", None),
            ("", None),
            // The digest must be whole: 16 lowercase hex digits, last.
            ("D 7 0 9 at=1,2 by=0 trust=", None),
            ("D 7 0 9 at=1,2 by=0 trust=0", None),
            ("D 7 0 9 at=1,2 by=0 trust=00000000deadbee", None),
            ("D 7 0 9 at=1,2 by=0 trust=00000000deadbeef0", None),
            ("D 7 0 9 at=1,2 by=0 trust=00000000DEADBEEF", None),
            ("D 7 0 9 at=1,2 by=0 trust=00000000deadbeeg", None),
            ("D 7 0 9 at=1,2 by=0 trust=00000000deadbeef extra", None),
            ("D 7 0 9 at=1,2 by=0 x=1 trust=00000000deadbeef", None),
            ("D 7 0 at=1,2 by=0 trust=00000000deadbeef", None),
            ("D x 0 9 at=1,2 by=0 trust=00000000deadbeef", None),
        ];
        for (line, want) in cases {
            assert_eq!(decision_line_round(line), want, "{line:?}");
        }
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

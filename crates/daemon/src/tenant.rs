//! One hosted field: the engine, its shared position view for the
//! router's impact metric, and the deterministic decision-line
//! formatter.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use tibfit_experiments::checkpoint;
use tibfit_experiments::multicluster::{MultiClusterSim, MultiRoundResult};
use tibfit_experiments::replay::FieldScenario;
use tibfit_net::geometry::Point;
use tibfit_net::topology::NodeId;
use tibfit_sim::snapshot::SnapshotWriter;

use crate::wire::Report;
use crate::DaemonError;

/// The engine tag a tenant state file carries. Every tenant runs one
/// engine, [`MultiClusterSim`], and new states are always written with
/// [`EngineKind::Sequential`]'s tag `0`. Tag `1` marks a state written
/// by the sharded engine earlier versions offered: its checkpoint blob
/// is the same bytes, so it restores into the same engine and resumes
/// byte-identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Tag `0`: the engine, and the tag every new state carries.
    Sequential,
    /// Tag `1`: a legacy state from the removed sharded engine.
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
}

/// Writes every node's position into `out` (indexed by node id) in one
/// pass; `out` keeps its allocation across calls.
fn positions_into(engine: &MultiClusterSim, out: &mut Vec<(f64, f64)>) {
    out.resize(engine.node_count(), (0.0, 0.0));
    engine.for_each_position(|node, p| out[node.index()] = (p.x, p.y));
}

/// The engine's node positions, shared with the router so admission
/// can rank pending records by trust impact without touching the
/// engine. The worker publishes it once per tick, at the tick's end and
/// before it completes the tick (`Tenant::publish_positions`); the
/// router reads it only after the drain barrier, so reads always see a
/// settled tick boundary.
pub struct PositionView {
    radius: f64,
    points: Mutex<Vec<(f64, f64)>>,
}

impl PositionView {
    fn lock(&self) -> MutexGuard<'_, Vec<(f64, f64)>> {
        self.points.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The published points, node-id order.
    #[cfg(test)]
    pub(crate) fn points(&self) -> Vec<(f64, f64)> {
        self.lock().clone()
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
    engine: MultiClusterSim,
    positions: Arc<PositionView>,
    /// Whether a round has moved nodes since the view was last
    /// published.
    positions_stale: bool,
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

/// `fnv1a_u64s` of the engine's trust vector, kept across records. The
/// tenant holds the vector itself, in global node order, and a round
/// patches only the words it judged; the digest is then re-hashed only
/// from the block holding the lowest word that changed. FNV is a left
/// fold, so the state after any prefix of the words is enough to carry
/// on from there, and a round moves a handful of counters out of
/// thousands. A fresh, restored or installed tenant starts empty and
/// fills the vector in full at its first record, so building a tenant
/// pays no hashing.
#[derive(Debug, Default)]
struct TrustDigest {
    /// Every node's raw trust counter bits, indexed by node id: equal
    /// to the engine's `trust_snapshot` after every record (empty
    /// before the first).
    words: Vec<u64>,
    /// `prefix[b]` is the FNV state after words `[0, 64·b)`, for every
    /// block boundary `b` up to and including the end of the vector, so
    /// the last entry is the digest.
    prefix: Vec<u64>,
}

impl TrustDigest {
    /// The digest after `engine`'s latest round: its judged words
    /// patched in, or, on a tenant's first record, its whole trust
    /// vector taken and hashed from word 0.
    fn after_round(&mut self, engine: &MultiClusterSim) -> u64 {
        if self.prefix.is_empty() {
            engine.trust_snapshot_into(&mut self.words);
            self.rehash_from(0);
            return self.digest();
        }
        self.patch(
            engine
                .judged_nodes()
                .iter()
                .map(|&node| (node.index(), engine.trust_counter_of(node).to_bits())),
        )
    }

    /// Sets each `(index, bits)` word and returns the digest of the
    /// patched vector, re-hashed from the block of the lowest word
    /// whose value changed (no change, no hashing).
    fn patch(&mut self, changes: impl IntoIterator<Item = (usize, u64)>) -> u64 {
        let mut first = usize::MAX;
        for (i, bits) in changes {
            let word = &mut self.words[i];
            if *word != bits {
                *word = bits;
                first = first.min(i);
            }
        }
        if first != usize::MAX {
            self.rehash_from(first / DIGEST_BLOCK);
        }
        self.digest()
    }

    /// Drops the cached states from block `block` on and hashes the
    /// words from there to the end.
    fn rehash_from(&mut self, block: usize) {
        self.prefix.truncate(block + 1);
        if self.prefix.is_empty() {
            self.prefix.push(TRUST_DIGEST_BASIS);
        }
        let mut h = self.prefix[block];
        for chunk in self.words[block * DIGEST_BLOCK..].chunks(DIGEST_BLOCK) {
            h = fnv1a_fold(h, chunk);
            self.prefix.push(h);
        }
    }

    /// `fnv1a_u64s(&self.words)`.
    fn digest(&self) -> u64 {
        *self.prefix.last().expect("a filled digest")
    }
}

impl Tenant {
    fn build(id: usize, scenario: FieldScenario, engine: MultiClusterSim) -> Self {
        let mut points = Vec::new();
        positions_into(&engine, &mut points);
        Tenant {
            id,
            scenario,
            positions: Arc::new(PositionView {
                radius: engine.config().sensing_radius,
                points: Mutex::new(points),
            }),
            positions_stale: false,
            engine,
            digest: TrustDigest::default(),
        }
    }

    /// Builds a fresh tenant from its scenario. `kind` and `threads`
    /// are ignored: every tenant runs the one engine.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Engine`] if the deployment is rejected.
    pub fn new(
        id: usize,
        scenario: FieldScenario,
        _kind: EngineKind,
        _threads: usize,
    ) -> Result<Self, DaemonError> {
        let engine = scenario.sequential().map_err(DaemonError::Engine)?;
        Ok(Tenant::build(id, scenario, engine))
    }

    /// Rebuilds a tenant from a checkpointed engine blob. `kind` and
    /// `threads` are ignored: a blob restores the same way whichever
    /// engine tag its state file carries.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Checkpoint`] if the blob is corrupt or the
    /// decoded deployment is rejected.
    pub fn from_blob(
        id: usize,
        scenario: FieldScenario,
        _kind: EngineKind,
        _threads: usize,
        blob: &[u8],
    ) -> Result<Self, DaemonError> {
        let engine = checkpoint::restore_sequential(blob).map_err(DaemonError::Checkpoint)?;
        Ok(Tenant::build(id, scenario, engine))
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
        positions_into(&self.engine, &mut view.lock());
        self.positions = view;
        self.positions_stale = false;
    }

    /// Publishes the engine's current node positions to the shared
    /// view, if a round has moved them since the last publish. The
    /// worker calls this once per tick, at the tick's end.
    pub(crate) fn publish_positions(&mut self) {
        if self.positions_stale {
            positions_into(&self.engine, &mut self.positions.lock());
            self.positions_stale = false;
        }
    }

    /// Completed event rounds.
    #[must_use]
    pub fn round(&self) -> u64 {
        self.engine.round()
    }

    #[cfg(test)]
    fn trust_bits(&self) -> Vec<u64> {
        self.engine.trust_snapshot()
    }

    /// Raw trust counter `v` of one node (the value behind
    /// `TI = e^(−λv)`, bit-equal to its [`Self::trust_digest`] input),
    /// or `None` out of range. One affiliation lookup plus a binary
    /// search in the node's cluster, not a walk of the whole field.
    #[must_use]
    pub fn trust_of(&self, node: usize) -> Option<f64> {
        (node < self.engine.node_count()).then(|| self.engine.trust_counter_of(NodeId(node)))
    }

    /// FNV-1a digest over the bit-exact trust vector — a cheap
    /// whole-state fingerprint embedded in every decision line, so a
    /// diff catches divergence at the exact round it appears. This
    /// hashes the engine's whole vector; the decision line carries the
    /// same value, kept incrementally by the tenant's `TrustDigest`.
    #[must_use]
    pub fn trust_digest(&self) -> u64 {
        fnv1a_u64s(&self.engine.trust_snapshot())
    }

    /// Applies one admitted report: runs the event round, refreshes the
    /// shared position view, and returns the decision line.
    pub fn apply(&mut self, report: &Report) -> String {
        let mut line = String::new();
        self.apply_into(report, &mut line);
        line
    }

    /// [`Self::apply`] appending the decision line to a caller-owned
    /// buffer (no trailing newline): `apply_record`, then
    /// `publish_positions`, for callers that drive a tenant
    /// record by record with no tick end of their own.
    pub fn apply_into(&mut self, report: &Report, out: &mut String) {
        self.apply_record(report, out);
        self.publish_positions();
    }

    /// Runs one admitted report's event round and appends its decision
    /// line to `out` (no trailing newline), leaving the shared position
    /// view for the tick's end. The worker's per-record hot path: the
    /// trust digest patches only the judged words and line formatting
    /// reuses the caller's buffer, so a steady-state apply performs no
    /// heap allocation beyond what the engine round itself needs.
    pub(crate) fn apply_record(&mut self, report: &Report, out: &mut String) {
        let stimulus = Point::new(report.x, report.y);
        let result = self.engine.run_event(stimulus);
        self.positions_stale = true;
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
        let _ = write!(out, " trust={:016x}", self.digest.after_round(&self.engine));
    }

    /// Writes the engine checkpoint's sections into an already-started
    /// container — the tenant state file nests it in place (see
    /// [`crate::state::encode_tenant_state`]).
    ///
    /// # Errors
    ///
    /// [`DaemonError::Snapshot`] if the engine state cannot be captured.
    pub fn save_engine_into(&self, w: &mut SnapshotWriter) -> Result<(), DaemonError> {
        checkpoint::save_sequential_into(&self.engine, w).map_err(DaemonError::Snapshot)
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
        // A legacy state's tag restores the same blob the same way.
        let mut restored = [EngineKind::Sequential, EngineKind::Sharded]
            .map(|kind| Tenant::from_blob(0, sc.clone(), kind, 1, &blob).unwrap());
        for (i, p) in events[4..].iter().enumerate() {
            let want = live.apply(&report(i as u64 + 5, p.x, p.y));
            for tenant in &mut restored {
                assert_eq!(tenant.apply(&report(i as u64 + 5, p.x, p.y)), want);
            }
        }
        assert!(restored.iter().all(|t| t.round() == 8));
    }

    #[test]
    fn trust_of_matches_the_full_snapshot() {
        // Drift 3.0 with re-election every 4 rounds hands nodes between
        // clusters, so the lookup is checked across affiliation changes
        // too (a stale affiliation map fails this test).
        let sc = FieldScenario {
            nodes: 64,
            clusters: 4,
            field: 60.0,
            drift_sigma: 3.0,
            ..small_scenario(tenant_seed(13, 0))
        };
        let mut tenant = Tenant::new(0, sc.clone(), EngineKind::Sequential, 1).unwrap();
        for (i, p) in sc.events(10).into_iter().enumerate() {
            tenant.apply(&report(i as u64 + 1, p.x, p.y));
            let all = tenant.trust_bits();
            for (node, &bits) in all.iter().enumerate() {
                let v = tenant.trust_of(node).expect("node in range");
                assert_eq!(v.to_bits(), bits, "round {} node {node}", i + 1);
            }
            assert_eq!(tenant.trust_of(all.len()), None);
            assert_eq!(tenant.trust_of(usize::MAX), None);
        }
        assert!(
            tenant.trust_bits().iter().any(|&b| b != 0),
            "the run must move some counter off zero"
        );
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
    /// at that round, and the tenant's patched word vector is the
    /// engine's whole trust snapshot. Returns how many lines changed the
    /// digest.
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
            let words = tenant.trust_bits();
            assert_eq!(tenant.digest.words, words, "{line}");
            assert_eq!(digest, fnv1a_u64s(&words), "{line}");
            changed += usize::from(digest != last);
            last = digest;
        }
        changed
    }

    /// A digest over `words`, hashed from word 0.
    fn filled(words: &[u64]) -> TrustDigest {
        let mut digest = TrustDigest {
            words: words.to_vec(),
            prefix: Vec::new(),
        };
        digest.rehash_from(0);
        digest
    }

    /// Patches `digest` to `words` through the entries in `at` (out of
    /// range ones dropped) and checks the result against the full hash,
    /// and the cache it leaves behind.
    fn check_patch(digest: &mut TrustDigest, words: &[u64], at: &[usize], what: &str) {
        let n = words.len();
        let changes = at.iter().filter(|&&i| i < n).map(|&i| (i, words[i]));
        assert_eq!(digest.patch(changes), fnv1a_u64s(words), "n {n}: {what}");
        assert_eq!(digest.words, words, "n {n}: {what}");
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
            let mut words: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
            let mut digest = filled(&words);
            assert_eq!(digest.digest(), fnv1a_u64s(&words), "n {n}: first digest");
            check_patch(&mut digest, &words, &[], "no change");
            check_patch(&mut digest, &words, &[0, n / 2], "unchanged words patched");
            let last = n.saturating_sub(1);
            for (at, what) in [
                (vec![0], "first word"),
                (vec![last], "last word"),
                (vec![0, last], "first and last word"),
                (vec![63], "word 63"),
                (vec![64], "word 64"),
                (vec![65], "word 65"),
                (vec![63, 64, 65], "words 63-65"),
                (vec![65, 64, 63, 64], "words 63-65 out of order, one twice"),
            ] {
                flip(&mut rng, &mut words, &at);
                check_patch(&mut digest, &words, &at, what);
            }
            for round in 0..40 {
                let k = if round % 4 == 0 { n / 3 } else { 1 + rng.uniform_usize(5) };
                let at: Vec<usize> = (0..k).map(|_| rng.uniform_usize(n.max(1))).collect();
                flip(&mut rng, &mut words, &at);
                check_patch(&mut digest, &words, &at, &format!("seeded round {round}, {k} words"));
            }
            // A word set back to the value it had two digests ago is
            // still a change against the previous digest.
            let before = words.clone();
            flip(&mut rng, &mut words, &[n / 2]);
            check_patch(&mut digest, &words, &[n / 2], "middle word");
            check_patch(&mut digest, &before, &[n / 2], "middle word restored");
            // A fill of another vector hashes afresh.
            let mut grown = before.clone();
            grown.push(rng.next_u64());
            let digest = filled(&grown);
            assert_eq!(digest.digest(), fnv1a_u64s(&grown), "n {n}: grown by one");
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
        assert!(restored.digest.prefix.is_empty(), "a restored tenant fills at its first record");
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
        assert!(
            installed.digest.prefix.is_empty(),
            "an installed tenant fills at its first record"
        );
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

    /// Every node's position in node-id order, as the view holds them.
    fn engine_points(tenant: &Tenant) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        positions_into(&tenant.engine, &mut out);
        out
    }

    #[test]
    fn the_position_view_moves_only_when_published() {
        let sc = small_scenario(11);
        let mut tenant = Tenant::new(0, sc.clone(), EngineKind::Sequential, 1).unwrap();
        let view = tenant.positions();
        let start = view.points();
        assert_eq!(start, engine_points(&tenant), "a fresh tenant publishes its positions");
        let events = sc.events(6);
        let mut line = String::new();
        for (i, p) in events[..3].iter().enumerate() {
            tenant.apply_record(&report(i as u64 + 1, p.x, p.y), &mut line);
        }
        assert_ne!(engine_points(&tenant), start, "drift must move someone");
        assert_eq!(view.points(), start, "records alone leave the view at the tick start");
        tenant.publish_positions();
        assert_eq!(view.points(), engine_points(&tenant));
        // `apply_into` publishes per record.
        tenant.apply_into(&report(4, events[3].x, events[3].y), &mut line);
        assert_eq!(view.points(), engine_points(&tenant));
        // A replacement attached to a stale view refreshes it at once.
        tenant.apply_record(&report(5, events[4].x, events[4].y), &mut line);
        let mut w = SnapshotWriter::new();
        tenant.save_engine_into(&mut w).unwrap();
        let mut replacement =
            Tenant::from_blob(0, sc, EngineKind::Sequential, 1, &w.finish()).unwrap();
        assert_ne!(view.points(), engine_points(&replacement));
        replacement.set_positions(Arc::clone(&view));
        assert_eq!(view.points(), engine_points(&replacement));
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
    }
}

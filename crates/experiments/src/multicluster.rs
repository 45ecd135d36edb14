//! Multi-cluster deployments.
//!
//! Table 2 of the paper lists "100 sensing nodes, 5 CH", although the
//! simulation text then treats the network as one logical cluster whose
//! head knows every position. This module implements the real 5-CH
//! arrangement: nodes affiliate with the nearest cluster head, each head
//! keeps its *own* trust table over its members and decides events from
//! its members' reports only, and the base station merges the per-cluster
//! conclusions (union of declared events, de-duplicated within
//! `r_error`).
//!
//! Events near cluster boundaries are the interesting case: each head
//! sees only a fragment of the event's neighborhood, so a fragment's vote
//! can fail where the whole neighborhood's would have succeeded — the
//! price of partitioned state. The tests quantify that price and check it
//! stays small for the paper's parameters.
//!
//! ## Ownership and determinism
//!
//! Every cluster is a self-contained [`ClusterState`]: it owns its
//! members' behaviours, its channel instance, its trust table, and its
//! own RNG stream derived as `SimRng::stream(master_seed, cluster_index)`.
//! Nothing a cluster does consumes another cluster's stream, so the
//! per-round result is a pure function of `(master_seed, cluster
//! composition, event sequence)`, independent of the order clusters are
//! visited in.
//!
//! With [`MultiClusterConfig::mobile`], nodes drift each round (Gaussian
//! step from the owning cluster's stream) and affiliation is re-evaluated
//! every `reelect_every` rounds: a node now nearest a different head is
//! handed off — fault counter, diagnosis state, and behaviour move with
//! it, so a liar cannot launder its record by crossing a border.

use std::cell::Cell;

use tibfit_adversary::behavior::{BehaviorSnapshot, NodeBehavior, RoundContext};
use tibfit_core::engine::{Aggregator, TibfitEngine};
use tibfit_core::location::LocatedReport;
use tibfit_core::trust::{
    TrustParams, TrustRecord, TrustTable, TrustTableState, TrustTableStateRef,
};
use tibfit_net::channel::{ChannelModel, ChannelSnapshot};
use tibfit_net::geometry::Point;
use tibfit_net::topology::{CellBox, NodeId, SiteIndex, SiteLattice, Topology};
use tibfit_sim::rng::{RngState, SimRng};
use tibfit_sim::snapshot::SnapshotError;
use tibfit_sim::trace::{CounterId, Trace};

/// Configuration of a multi-cluster deployment.
#[derive(Debug, Clone, Copy)]
pub struct MultiClusterConfig {
    /// Sensing radius `r_s`.
    pub sensing_radius: f64,
    /// Localization tolerance `r_error`.
    pub r_error: f64,
    /// Trust parameters for every cluster head's table.
    pub trust: TrustParams,
    /// Per-round Gaussian drift step for node positions (0 = static
    /// deployment, the paper's default).
    pub drift_sigma: f64,
    /// Re-evaluate cluster affiliation every this many rounds, handing
    /// drifted nodes to their new nearest head (0 = never).
    pub reelect_every: u64,
}

impl MultiClusterConfig {
    /// Table-2 values (static deployment, no re-election).
    #[must_use]
    pub fn paper() -> Self {
        MultiClusterConfig {
            sensing_radius: 20.0,
            r_error: 5.0,
            trust: TrustParams::experiment2(),
            drift_sigma: 0.0,
            reelect_every: 0,
        }
    }

    /// Enables mobility: nodes drift `sigma` per round and affiliation is
    /// re-evaluated every `reelect_every` rounds.
    #[must_use]
    pub fn mobile(mut self, sigma: f64, reelect_every: u64) -> Self {
        self.drift_sigma = sigma;
        self.reelect_every = reelect_every;
        self
    }

    /// Checks the numeric fields.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint: radii must be finite and
    /// strictly positive, drift must be finite and non-negative.
    pub fn validate(&self) -> Result<(), MultiClusterError> {
        if !(self.sensing_radius.is_finite() && self.sensing_radius > 0.0) {
            return Err(MultiClusterError::InvalidSensingRadius(self.sensing_radius));
        }
        if !(self.r_error.is_finite() && self.r_error > 0.0) {
            return Err(MultiClusterError::InvalidErrorRadius(self.r_error));
        }
        if !(self.drift_sigma.is_finite() && self.drift_sigma >= 0.0) {
            return Err(MultiClusterError::InvalidDrift(self.drift_sigma));
        }
        Ok(())
    }
}

/// Why a multi-cluster deployment could not be built.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MultiClusterError {
    /// `ch_sites` was empty.
    NoClusterHeads,
    /// The behavior list does not match the topology.
    BehaviorCountMismatch {
        /// Behaviours supplied.
        behaviors: usize,
        /// Nodes deployed.
        nodes: usize,
    },
    /// A cluster-head site attracted no members.
    EmptyCluster {
        /// The memberless cluster's index.
        cluster: usize,
    },
    /// `sensing_radius` was NaN, infinite, or not strictly positive.
    InvalidSensingRadius(f64),
    /// `r_error` was NaN, infinite, or not strictly positive.
    InvalidErrorRadius(f64),
    /// `drift_sigma` was NaN, infinite, or negative.
    InvalidDrift(f64),
}

impl std::fmt::Display for MultiClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MultiClusterError::NoClusterHeads => write!(f, "need at least one cluster head"),
            MultiClusterError::BehaviorCountMismatch { behaviors, nodes } => write!(
                f,
                "one behavior per node: got {behaviors} behaviors for {nodes} nodes"
            ),
            MultiClusterError::EmptyCluster { cluster } => {
                write!(f, "cluster {cluster} has no members")
            }
            MultiClusterError::InvalidSensingRadius(x) => {
                write!(f, "sensing radius must be positive and finite, got {x}")
            }
            MultiClusterError::InvalidErrorRadius(x) => {
                write!(f, "r_error must be positive and finite, got {x}")
            }
            MultiClusterError::InvalidDrift(x) => {
                write!(f, "drift sigma must be non-negative and finite, got {x}")
            }
        }
    }
}

impl std::error::Error for MultiClusterError {}

/// The paper's five cluster-head sites on a square field: the center and
/// the four quadrant centers.
#[must_use]
pub fn five_ch_sites(field: f64) -> Vec<Point> {
    let q = field / 4.0;
    vec![
        Point::new(2.0 * q, 2.0 * q),
        Point::new(q, q),
        Point::new(3.0 * q, q),
        Point::new(q, 3.0 * q),
        Point::new(3.0 * q, 3.0 * q),
    ]
}

/// `k` cluster-head sites on the smallest square grid covering them —
/// the scale-sweep generalization of [`five_ch_sites`] used by exp6.
///
/// # Panics
///
/// Panics if `k == 0` or `field` is not strictly positive.
#[must_use]
pub fn grid_sites(k: usize, field: f64) -> Vec<Point> {
    assert!(k > 0, "need at least one site");
    assert!(field > 0.0, "field must be positive");
    let cols = (k as f64).sqrt().ceil() as usize;
    let rows = k.div_ceil(cols);
    let dx = field / cols as f64;
    let dy = field / rows as f64;
    let mut sites = Vec::with_capacity(k);
    'outer: for r in 0..rows {
        for c in 0..cols {
            if sites.len() == k {
                break 'outer;
            }
            sites.push(Point::new((c as f64 + 0.5) * dx, (r as f64 + 0.5) * dy));
        }
    }
    sites
}

/// A node changing clusters: its identity, current position, full trust
/// record, and behaviour move together to the destination cluster.
struct Handoff {
    node: NodeId,
    position: Point,
    record: TrustRecord,
    behavior: Box<dyn NodeBehavior + Send>,
    /// Destination cluster index.
    dst: usize,
}

impl std::fmt::Debug for Handoff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Handoff")
            .field("node", &self.node)
            .field("position", &self.position)
            .field("dst", &self.dst)
            .finish_non_exhaustive()
    }
}

/// Names of the per-cluster trace counters, in registration order. This
/// doubles as the checkpoint schema for counter values: a cluster
/// section stores one `u64` per entry, in this order.
pub(crate) const COUNTER_NAMES: [&str; 7] = [
    "reports.delivered",
    "reports.dropped",
    "rounds.decided",
    "events.declared",
    "handoffs.out",
    "handoffs.in",
    "trust.exp_evals",
];

/// Everything a cluster needs to be rebuilt bit-identically: membership,
/// geometry, behaviour snapshots, channel snapshot, RNG state, the full
/// trust-table state (including the cached-TI column, so the restored
/// engine's `exp_evals` evolution matches the original), and the trace
/// counter values — what a checkpoint's cluster section decodes into.
///
/// Checkpoints are taken only at round boundaries, where no timers are
/// in flight and no reports are buffered — so no event-queue section is
/// needed here.
#[derive(Debug, Clone)]
pub(crate) struct ClusterCapture {
    pub(crate) index: usize,
    pub(crate) head_position: Point,
    pub(crate) members: Vec<NodeId>,
    pub(crate) positions: Vec<Point>,
    pub(crate) behaviors: Vec<BehaviorSnapshot>,
    pub(crate) channel: ChannelSnapshot,
    pub(crate) rng: RngState,
    pub(crate) trust: TrustTableState,
    /// Values of the counters in [`COUNTER_NAMES`], same order.
    pub(crate) counters: [u64; COUNTER_NAMES.len()],
}

/// The deployment-wide part of a checkpoint: everything except the
/// clusters. A [`MultiClusterSim`] is rebuilt from it plus the cluster
/// captures.
#[derive(Debug, Clone)]
pub(crate) struct DeploymentHeader {
    pub(crate) config: MultiClusterConfig,
    pub(crate) sites: Vec<Point>,
    pub(crate) cluster_count: usize,
    pub(crate) n_nodes: usize,
    pub(crate) round: u64,
    pub(crate) field: (f64, f64),
}

/// Relative slack on the sensing radius when a whole cluster is tested
/// against a stimulus: a box distance computed just past the radius by
/// rounding can then never hide a member whose own distance test would
/// still pass.
const SENSE_REACH_SLACK: f64 = 1.0 + 1e-9;

/// Axis-aligned bounding box of a cluster's member positions — what
/// event-local sensing tests a stimulus against.
#[derive(Debug, Clone, Copy)]
struct Bounds {
    min_x: f64,
    min_y: f64,
    max_x: f64,
    max_y: f64,
}

impl Bounds {
    const EMPTY: Bounds = Bounds {
        min_x: f64::INFINITY,
        min_y: f64::INFINITY,
        max_x: f64::NEG_INFINITY,
        max_y: f64::NEG_INFINITY,
    };

    fn of(points: &[Point]) -> Self {
        let mut b = Bounds::EMPTY;
        for &p in points {
            b.include(p);
        }
        b
    }

    fn include(&mut self, p: Point) {
        // Plain comparisons, not `f64::min`/`max`: positions are finite,
        // so the NaN handling those pay for is dead weight on the drift
        // loop.
        if p.x < self.min_x {
            self.min_x = p.x;
        }
        if p.x > self.max_x {
            self.max_x = p.x;
        }
        if p.y < self.min_y {
            self.min_y = p.y;
        }
        if p.y > self.max_y {
            self.max_y = p.y;
        }
    }

    /// Squared distance from `p` to the box (zero inside). Each axis gap
    /// is a correctly rounded difference no larger than the gap to any
    /// point inside the box, so this never exceeds the distance a member
    /// computes for itself.
    fn distance_sq_to(&self, p: Point) -> f64 {
        let dx = (self.min_x - p.x).max(p.x - self.max_x).max(0.0);
        let dy = (self.min_y - p.y).max(p.y - self.max_y).max(0.0);
        dx * dx + dy * dy
    }
}

/// One cluster as a self-contained unit: head position, members (global
/// ids, ascending), their positions/behaviours, the head's engine, the
/// cluster's channel instance, its private RNG stream, and its trace.
pub(crate) struct ClusterState {
    index: usize,
    head_position: Point,
    /// Global ids, ascending; local id = position in this vector.
    members: Vec<NodeId>,
    /// Current member positions (drift updates these), local-id order —
    /// the only copy.
    local_topo: Topology,
    engine: TibfitEngine,
    behaviors: Vec<Box<dyn NodeBehavior + Send>>,
    /// Members whose behaviour is not
    /// [`NodeBehavior::quiet_unless_sensed`]: while zero, a stimulus out
    /// of sensing range of [`ClusterState::bounds`] cannot produce a
    /// report here.
    non_quiet: usize,
    /// Bounding box of the member positions, kept current by drift and
    /// by every membership edit.
    bounds: Bounds,
    /// The conservative interior of this cluster's own lattice cell
    /// ([`SiteLattice::own_cell_box`]): a member inside it is still
    /// nearest to this head, so re-election skips its lookup. `None`
    /// off a lattice; set by [`MultiClusterSim::from_parts`].
    own_cell: Option<CellBox>,
    channel: Box<dyn ChannelModel + Send>,
    rng: SimRng,
    trace: Trace,
    c_delivered: CounterId,
    c_dropped: CounterId,
    c_decided: CounterId,
    c_declared: CounterId,
    c_handoff_out: CounterId,
    c_handoff_in: CounterId,
    c_exp_evals: CounterId,
    config: MultiClusterConfig,
    field_w: f64,
    field_h: f64,
}

impl ClusterState {
    /// `non_quiet` is the number of `behaviors` that are not
    /// [`NodeBehavior::quiet_unless_sensed`], counted by the caller in
    /// the pass that built them.
    #[allow(clippy::too_many_arguments)]
    fn new(
        index: usize,
        head_position: Point,
        members: Vec<NodeId>,
        positions: Vec<Point>,
        config: MultiClusterConfig,
        behaviors: Vec<Box<dyn NodeBehavior + Send>>,
        non_quiet: usize,
        channel: Box<dyn ChannelModel + Send>,
        rng: SimRng,
        field_w: f64,
        field_h: f64,
    ) -> Self {
        debug_assert!(members.windows(2).all(|w| w[0] < w[1]), "members sorted");
        debug_assert_eq!(
            non_quiet,
            behaviors
                .iter()
                .filter(|b| !b.quiet_unless_sensed())
                .count()
        );
        let bounds = Bounds::of(&positions);
        let local_topo = Topology::from_positions(positions, field_w, field_h);
        let engine = TibfitEngine::new(config.trust, members.len());
        let mut trace = Trace::disabled();
        let c_delivered = trace.register_counter("reports.delivered");
        let c_dropped = trace.register_counter("reports.dropped");
        let c_decided = trace.register_counter("rounds.decided");
        let c_declared = trace.register_counter("events.declared");
        let c_handoff_out = trace.register_counter("handoffs.out");
        let c_handoff_in = trace.register_counter("handoffs.in");
        let c_exp_evals = trace.register_counter("trust.exp_evals");
        ClusterState {
            index,
            head_position,
            members,
            local_topo,
            engine,
            behaviors,
            non_quiet,
            bounds,
            own_cell: None,
            channel,
            rng,
            trace,
            c_delivered,
            c_dropped,
            c_decided,
            c_declared,
            c_handoff_out,
            c_handoff_in,
            c_exp_evals,
            config,
            field_w,
            field_h,
        }
    }

    /// The cluster's index, which is also its head's site index.
    pub(crate) fn index(&self) -> usize {
        self.index
    }

    pub(crate) fn head_position(&self) -> Point {
        self.head_position
    }

    /// Global ids, ascending.
    pub(crate) fn members(&self) -> &[NodeId] {
        &self.members
    }

    fn position(&self, local: usize) -> Point {
        self.local_topo.position(NodeId(local))
    }

    /// Member positions in local-id order.
    pub(crate) fn positions(&self) -> &[Point] {
        self.local_topo.positions()
    }

    /// Member behaviours in local-id order.
    pub(crate) fn behaviors(&self) -> &[Box<dyn NodeBehavior + Send>] {
        &self.behaviors
    }

    pub(crate) fn channel(&self) -> &(dyn ChannelModel + Send) {
        &*self.channel
    }

    pub(crate) fn rng_state(&self) -> RngState {
        self.rng.state()
    }

    /// The head's trust table, read in place.
    pub(crate) fn trust_state(&self) -> TrustTableStateRef<'_> {
        self.engine.table().state_ref()
    }

    /// Values of the counters in [`COUNTER_NAMES`], same order, read
    /// through their registered handles.
    pub(crate) fn trace_counters(&self) -> [u64; COUNTER_NAMES.len()] {
        [
            self.c_delivered,
            self.c_dropped,
            self.c_decided,
            self.c_declared,
            self.c_handoff_out,
            self.c_handoff_in,
            self.c_exp_evals,
        ]
        .map(|id| self.trace.counter_value(id))
    }

    /// Raw trust counter of a local member (lossless, for snapshots).
    fn counter_of(&self, local: usize) -> f64 {
        self.engine.table().counter_of(NodeId(local))
    }

    /// Trust index of a local member.
    fn trust_of(&self, local: usize) -> f64 {
        self.engine
            .trust_of(NodeId(local))
            .expect("TIBFIT keeps trust")
    }

    /// Non-zero trace counters, sorted by name.
    fn counters(&self) -> Vec<(&'static str, u64)> {
        self.trace.counters()
    }

    /// Phase 1 of a round: every member acts on the event (consuming this
    /// cluster's stream in member order), and surviving reports reach the
    /// head through this cluster's channel. Appends local-id reports to
    /// the engine's scratch buffer.
    ///
    /// Event-local: when every member is
    /// [`NodeBehavior::quiet_unless_sensed`] and the stimulus lies beyond
    /// the sensing radius of the members' bounding box, no member senses
    /// it, so by that contract every member would return `None` without
    /// drawing — the whole cluster is skipped, with the same result.
    fn sense_into(&mut self, round: u64, event: Point, batch: &mut Vec<LocatedReport>) {
        let reach = self.config.sensing_radius * SENSE_REACH_SLACK;
        if self.non_quiet == 0 && self.bounds.distance_sq_to(event) > reach * reach {
            return;
        }
        for (local, &node_pos) in self.local_topo.positions().iter().enumerate() {
            let is_neighbor = node_pos.distance_to(event) <= self.config.sensing_radius;
            let ctx = RoundContext {
                round,
                node: self.members[local],
                node_pos,
                event: Some(event),
                is_event_neighbor: is_neighbor,
            };
            let Some(claim) = self.behaviors[local].located_action(&ctx, &mut self.rng) else {
                continue;
            };
            if self.channel.delivers(node_pos, self.head_position, &mut self.rng) {
                self.trace.bump(self.c_delivered);
                batch.push(LocatedReport::new(NodeId(local), claim));
            } else {
                self.trace.bump(self.c_dropped);
            }
        }
    }

    /// Phase 2: the head decides from its fragment and judges its
    /// members; judgements feed straight back into the member behaviours
    /// this cluster owns. An empty batch decides nothing (silence about
    /// an event nobody reported is not evidence). Appends declared
    /// locations to `declared` and the global id of every judged member
    /// (the only counters a round writes) to `judged`.
    fn decide_into(
        &mut self,
        batch: &[LocatedReport],
        declared: &mut Vec<Point>,
        judged: &mut Vec<NodeId>,
    ) {
        if batch.is_empty() {
            return;
        }
        self.trace.bump(self.c_decided);
        let exp_before = self.engine.table().exp_evals();
        let result = self.engine.located_round(
            &self.local_topo,
            self.config.sensing_radius,
            self.config.r_error,
            batch,
        );
        // Exponentials actually paid by this decision (trust-cache
        // refreshes): uncached, every weight read would cost one.
        self.trace
            .bump_by(self.c_exp_evals, self.engine.table().exp_evals() - exp_before);
        for &(local, judgement) in &result.judgements {
            self.behaviors[local.index()].observe_judgement(judgement);
            judged.push(self.members[local.index()]);
        }
        let before = declared.len();
        declared.extend(
            result
                .decisions
                .iter()
                .filter(|d| d.event_declared)
                .map(|d| d.location),
        );
        self.trace
            .bump_by(self.c_declared, (declared.len() - before) as u64);
    }

    /// End-of-round mobility: each member takes a Gaussian step (clamped
    /// to the field) drawn from this cluster's stream, in member order.
    fn drift(&mut self) {
        if self.config.drift_sigma <= 0.0 {
            return;
        }
        let mut bounds = Bounds::EMPTY;
        for local in 0..self.members.len() {
            let id = NodeId(local);
            let p = self.local_topo.position(id);
            let dx = self.rng.normal(0.0, self.config.drift_sigma);
            let dy = self.rng.normal(0.0, self.config.drift_sigma);
            let moved = Point::new(
                (p.x + dx).clamp(0.0, self.field_w),
                (p.y + dy).clamp(0.0, self.field_h),
            );
            self.local_topo.set_position(id, moved);
            bounds.include(moved);
        }
        self.bounds = bounds;
    }

    /// Re-election, sending side: members now nearest a *different*
    /// site leave, taking their trust record and behaviour with them,
    /// appended to `out` in member order. The cluster never gives up its
    /// last member (a head with no members is not a cluster), evaluated
    /// in member order so the retained node is deterministic.
    ///
    /// In place: survivors keep their order, their buffers and their
    /// cached trust ([`TrustTable::retain_nodes`]); nothing is rebuilt.
    /// A member still inside [`ClusterState::own_cell`] stays without a
    /// nearest-site lookup: the box proves the lookup would name this
    /// cluster.
    fn departures_into(&mut self, sites: &SiteIndex<'_>, out: &mut Vec<Handoff>) {
        let first = out.len();
        let positions = self.local_topo.positions();
        let index = self.index;
        let own_cell = self.own_cell;
        let mut remaining = self.members.len();
        let mut local = 0;
        // (local id, destination) of the member the filter just took.
        let taken = Cell::new((0, 0));
        let leaving = self.behaviors.extract_if(.., |_| {
            let i = local;
            local += 1;
            if own_cell.is_some_and(|b| b.contains(positions[i])) {
                return false;
            }
            let dst = sites.nearest(positions[i]).expect("non-empty sites");
            let leave = dst != index && remaining > 1;
            if leave {
                remaining -= 1;
                taken.set((i, dst));
            }
            leave
        });
        for behavior in leaving {
            let (i, dst) = taken.get();
            self.non_quiet -= usize::from(!behavior.quiet_unless_sensed());
            out.push(Handoff {
                node: self.members[i],
                position: positions[i],
                record: self.engine.table().extract(NodeId(i)),
                behavior,
                dst,
            });
        }
        let departed = &out[first..];
        if departed.is_empty() {
            return;
        }
        self.trace
            .bump_by(self.c_handoff_out, departed.len() as u64);
        // Departures were taken from the ascending member list in order,
        // so they are ascending too.
        let left = |node: NodeId| departed.binary_search_by_key(&node, |h| h.node).is_ok();
        let members = &self.members;
        self.local_topo.retain(|id| !left(members[id.index()]));
        self.engine
            .table_mut()
            .retain_nodes(|id| !left(members[id.index()]));
        self.members.retain(|&node| !left(node));
        self.bounds = Bounds::of(self.local_topo.positions());
    }

    /// Re-election, receiving side: admits one handed-off node at its
    /// sorted position. Members stay sorted by global id whatever order
    /// arrivals come in, so the final state is independent of arrival
    /// order — determinism by construction rather than by careful
    /// sequencing.
    ///
    /// In place: every buffer grows by exactly one slot when full and is
    /// never shrunk (doubling growth across hundreds of clusters would
    /// show up in resident memory), and only the arrival's trust index
    /// is recomputed ([`TrustTable::insert_node`]).
    fn admit(&mut self, h: Handoff) {
        debug_assert_eq!(h.dst, self.index, "handoff routed to wrong cluster");
        let at = self
            .members
            .binary_search(&h.node)
            .expect_err("an arrival is not yet a member");
        self.trace.bump(self.c_handoff_in);
        self.non_quiet += usize::from(!h.behavior.quiet_unless_sensed());
        self.bounds.include(h.position);
        self.members.reserve_exact(1);
        self.members.insert(at, h.node);
        self.behaviors.reserve_exact(1);
        self.behaviors.insert(at, h.behavior);
        self.local_topo.insert(NodeId(at), h.position);
        self.engine.table_mut().insert_node(at, h.record);
    }

    /// Field dimensions this cluster clamps drift to.
    fn field(&self) -> (f64, f64) {
        (self.field_w, self.field_h)
    }

    /// Rebuilds a cluster from a capture, bit-identically.
    ///
    /// The engine is reconstructed via [`TrustTable::from_state`] (which
    /// restores the cached-TI column verbatim instead of recomputing it)
    /// so the restored cluster's `trust.exp_evals` trajectory continues
    /// exactly where the original's left off. Counters are replayed by
    /// name into a fresh trace.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Invalid`] on any internally inconsistent field —
    /// a corrupt blob must surface as an error, never a panic.
    pub(crate) fn from_capture(
        cap: ClusterCapture,
        config: MultiClusterConfig,
        field_w: f64,
        field_h: f64,
    ) -> Result<Self, SnapshotError> {
        let n = cap.members.len();
        if n == 0 {
            return Err(SnapshotError::Invalid("cluster has no members"));
        }
        if cap.positions.len() != n || cap.behaviors.len() != n || cap.trust.counters.len() != n {
            return Err(SnapshotError::Invalid("cluster vectors disagree in length"));
        }
        if !cap.members.windows(2).all(|w| w[0] < w[1]) {
            return Err(SnapshotError::Invalid("cluster members not strictly ascending"));
        }
        let finite = |p: &Point| p.x.is_finite() && p.y.is_finite();
        if !finite(&cap.head_position) || !cap.positions.iter().all(finite) {
            return Err(SnapshotError::Invalid("non-finite position"));
        }
        if cap.trust.lambda.to_bits() != config.trust.lambda.to_bits()
            || cap.trust.fault_rate.to_bits() != config.trust.fault_rate.to_bits()
        {
            return Err(SnapshotError::Invalid("cluster trust params disagree with config"));
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
        let table =
            TrustTable::from_state(&cap.trust).map_err(|e| SnapshotError::Invalid(e.message()))?;
        let mut state = ClusterState::new(
            cap.index,
            cap.head_position,
            cap.members,
            cap.positions,
            config,
            behaviors,
            non_quiet,
            channel,
            rng,
            field_w,
            field_h,
        );
        state.engine = TibfitEngine::from_table(table);
        for (name, value) in COUNTER_NAMES.into_iter().zip(cap.counters) {
            if value > 0 {
                state.trace.count_by(name, value);
            }
        }
        Ok(state)
    }
}

/// Builds the per-cluster states: Voronoi affiliation over `ch_sites`, one [`ClusterState`] per
/// site with its own channel instance and RNG stream.
fn partition_clusters(
    config: MultiClusterConfig,
    topo: &Topology,
    ch_sites: &[Point],
    behaviors: Vec<Box<dyn NodeBehavior + Send>>,
    mut channels: impl FnMut(usize) -> Box<dyn ChannelModel + Send>,
    master_seed: u64,
) -> Result<Vec<ClusterState>, MultiClusterError> {
    config.validate()?;
    if ch_sites.is_empty() {
        return Err(MultiClusterError::NoClusterHeads);
    }
    if behaviors.len() != topo.len() {
        return Err(MultiClusterError::BehaviorCountMismatch {
            behaviors: behaviors.len(),
            nodes: topo.len(),
        });
    }
    let affiliation = topo.affiliation(ch_sites);
    // Tear the behavior vec apart by cluster without losing global order.
    let mut per_cluster_behaviors: Vec<Vec<(NodeId, Box<dyn NodeBehavior + Send>)>> =
        (0..ch_sites.len()).map(|_| Vec::new()).collect();
    for (idx, behavior) in behaviors.into_iter().enumerate() {
        per_cluster_behaviors[affiliation[idx]].push((NodeId(idx), behavior));
    }
    let mut clusters = Vec::with_capacity(ch_sites.len());
    for (ci, tagged) in per_cluster_behaviors.into_iter().enumerate() {
        if tagged.is_empty() {
            return Err(MultiClusterError::EmptyCluster { cluster: ci });
        }
        let mut members = Vec::with_capacity(tagged.len());
        let mut positions = Vec::with_capacity(tagged.len());
        let mut cluster_behaviors = Vec::with_capacity(tagged.len());
        let mut non_quiet = 0;
        for (node, behavior) in tagged {
            members.push(node);
            positions.push(topo.position(node));
            non_quiet += usize::from(!behavior.quiet_unless_sensed());
            cluster_behaviors.push(behavior);
        }
        clusters.push(ClusterState::new(
            ci,
            ch_sites[ci],
            members,
            positions,
            config,
            cluster_behaviors,
            non_quiet,
            channels(ci),
            SimRng::stream(master_seed, ci as u64),
            topo.width(),
            topo.height(),
        ));
    }
    Ok(clusters)
}

/// Result of one event round across all clusters.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiRoundResult {
    /// Ground truth.
    pub event: Point,
    /// Event locations the base station accepted after merging.
    pub declared: Vec<Point>,
    /// Which clusters contributed a matching declaration.
    pub declaring_clusters: Vec<usize>,
}

impl MultiRoundResult {
    /// Whether the event was detected within `r_error`.
    #[must_use]
    pub fn detected_within(&self, r_error: f64) -> bool {
        self.declared
            .iter()
            .any(|d| d.distance_to(self.event) <= r_error)
    }
}

/// Merges per-cluster declarations at the base station: declarations
/// within `r_error` of an accepted one are averaged into it, others open
/// a new accepted location. Input order is cluster order, which both
/// engines produce identically.
fn merge_declarations(
    event: Point,
    declared: Vec<(usize, Point)>,
    r_error: f64,
) -> MultiRoundResult {
    let mut merged: Vec<Point> = Vec::new();
    let mut declaring_clusters = Vec::new();
    for (ci, d) in declared {
        declaring_clusters.push(ci);
        if let Some(existing) = merged.iter_mut().find(|m| m.distance_to(d) <= r_error) {
            *existing = Point::new((existing.x + d.x) / 2.0, (existing.y + d.y) / 2.0);
        } else {
            merged.push(d);
        }
    }
    MultiRoundResult {
        event,
        declared: merged,
        declaring_clusters,
    }
}

/// A network of several TIBFIT clusters under one base station —
/// the sequential reference engine.
pub struct MultiClusterSim {
    config: MultiClusterConfig,
    sites: Vec<Point>,
    /// Cached lattice recognition over `sites` (see [`SiteLattice`]):
    /// makes each re-election's nearest-site sweep O(nodes) instead of
    /// O(nodes × sites) on grid deployments. Derived state — never
    /// snapshotted, recomputed wherever `sites` is set.
    lattice: Option<SiteLattice>,
    clusters: Vec<ClusterState>,
    /// Node → cluster index (kept current across re-elections).
    affiliation: Vec<usize>,
    n_nodes: usize,
    round: u64,
    /// Engine-lifetime scratch, reused every round: one cluster's
    /// reports, its declared locations, and a re-election's handoffs.
    /// Per engine, not per cluster — hundreds of per-cluster buffers
    /// would show up in resident memory.
    batch: Vec<LocatedReport>,
    found: Vec<Point>,
    moving: Vec<Handoff>,
    /// Global ids the last [`Self::run_event`] judged, in judgement
    /// order (see [`Self::judged_nodes`]).
    judged: Vec<NodeId>,
}

impl MultiClusterSim {
    /// Builds the deployment: every node affiliates with the nearest head
    /// (LEACH's strongest-signal rule for free-space radio). `channels`
    /// is called once per cluster so each head owns an independent
    /// channel instance; each cluster's RNG is stream `cluster_index` of
    /// `master_seed`.
    ///
    /// # Panics
    ///
    /// Panics on any [`MultiClusterError`]; use
    /// [`MultiClusterSim::try_new`] to handle bad configurations as
    /// values.
    #[must_use]
    pub fn new(
        config: MultiClusterConfig,
        topo: Topology,
        ch_sites: Vec<Point>,
        behaviors: Vec<Box<dyn NodeBehavior + Send>>,
        channels: impl FnMut(usize) -> Box<dyn ChannelModel + Send>,
        master_seed: u64,
    ) -> Self {
        match MultiClusterSim::try_new(config, topo, ch_sites, behaviors, channels, master_seed) {
            Ok(sim) => sim,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns a [`MultiClusterError`] if the config's numeric fields are
    /// out of range, `ch_sites` is empty, the behavior count does not
    /// match the topology, or any cluster would start without members.
    pub fn try_new(
        config: MultiClusterConfig,
        topo: Topology,
        ch_sites: Vec<Point>,
        behaviors: Vec<Box<dyn NodeBehavior + Send>>,
        channels: impl FnMut(usize) -> Box<dyn ChannelModel + Send>,
        master_seed: u64,
    ) -> Result<Self, MultiClusterError> {
        let n_nodes = topo.len();
        let clusters =
            partition_clusters(config, &topo, &ch_sites, behaviors, channels, master_seed)?;
        Ok(MultiClusterSim::from_parts(
            config, ch_sites, clusters, n_nodes, 0,
        ))
    }

    /// Number of clusters.
    #[must_use]
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// Total deployed nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.n_nodes
    }

    /// Completed event rounds (the daemon's tenant cursor).
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The deployment configuration the engine was built with.
    #[must_use]
    pub fn config(&self) -> &MultiClusterConfig {
        &self.config
    }

    /// The cluster a node currently belongs to.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn cluster_of(&self, node: NodeId) -> usize {
        self.affiliation[node.index()]
    }

    /// A node's current position (drift moves nodes).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn position_of(&self, node: NodeId) -> Point {
        let (cluster, local) = self.locate(node);
        cluster.position(local)
    }

    /// The trust its own head currently assigns a node.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn trust_of(&self, node: NodeId) -> f64 {
        let (cluster, local) = self.locate(node);
        cluster.trust_of(local)
    }

    /// A node's raw trust counter `v` — bit-equal to its entry in
    /// [`Self::trust_snapshot`], without building the whole vector.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn trust_counter_of(&self, node: NodeId) -> f64 {
        let (cluster, local) = self.locate(node);
        cluster.counter_of(local)
    }

    /// A node's cluster and its local index there.
    fn locate(&self, node: NodeId) -> (&ClusterState, usize) {
        let cluster = &self.clusters[self.affiliation[node.index()]];
        let local = cluster
            .members()
            .binary_search(&node)
            .expect("member of its own cluster");
        (cluster, local)
    }

    /// Bit-exact snapshot of every node's raw trust counter, indexed by
    /// global node id. `f64::to_bits` so two engines can be compared for
    /// *identity*, not approximate equality.
    #[must_use]
    pub fn trust_snapshot(&self) -> Vec<u64> {
        let mut out = Vec::new();
        self.trust_snapshot_into(&mut out);
        out
    }

    /// [`Self::trust_snapshot`] into a caller-owned buffer, for hot
    /// paths (the daemon digests trust after every applied record) that
    /// must not allocate per call.
    pub fn trust_snapshot_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.resize(self.n_nodes, 0u64);
        for cluster in &self.clusters {
            for (local, &node) in cluster.members().iter().enumerate() {
                out[node.index()] = cluster.counter_of(local).to_bits();
            }
        }
    }

    /// Global ids of the nodes the last [`Self::run_event`] judged, in
    /// judgement order (a node judged by two decisions appears twice):
    /// the only trust counters that round wrote. A round's judgements
    /// are its only counter writes — re-election moves a counter with
    /// its node but never changes it — so a caller holding the previous
    /// [`Self::trust_snapshot`] brings it up to date by re-reading these
    /// entries alone ([`Self::trust_counter_of`]).
    #[must_use]
    pub fn judged_nodes(&self) -> &[NodeId] {
        &self.judged
    }

    /// Bit-exact snapshot of every node's position.
    #[must_use]
    pub fn position_snapshot(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        self.position_snapshot_into(&mut out);
        out
    }

    /// [`Self::position_snapshot`] into a caller-owned buffer, for hot
    /// paths that must not allocate per call.
    pub fn position_snapshot_into(&self, out: &mut Vec<(u64, u64)>) {
        out.clear();
        out.resize(self.n_nodes, (0u64, 0u64));
        self.for_each_position(|node, p| out[node.index()] = (p.x.to_bits(), p.y.to_bits()));
    }

    /// Calls `f` with every node's id and current position, cluster by
    /// cluster — one pass for callers that lay positions out themselves.
    pub fn for_each_position(&self, mut f: impl FnMut(NodeId, Point)) {
        for cluster in &self.clusters {
            for (&node, &p) in cluster.members().iter().zip(cluster.positions()) {
                f(node, p);
            }
        }
    }

    /// All trace counters, prefixed per cluster (`c3.reports.delivered`),
    /// sorted — the trace half of the differential comparison.
    #[must_use]
    pub fn counters(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        for cluster in &self.clusters {
            for (name, value) in cluster.counters() {
                out.push((format!("c{}.{name}", cluster.index), value));
            }
        }
        out
    }

    /// Runs one event round: nodes act, reports go to their own heads,
    /// each head decides from its fragment, the base station merges;
    /// then (if configured) nodes drift and, on a re-election boundary,
    /// change clusters.
    pub fn run_event(&mut self, event: Point) -> MultiRoundResult {
        self.round += 1;
        let round = self.round;
        let mut declared: Vec<(usize, Point)> = Vec::new();
        self.judged.clear();
        for cluster in &mut self.clusters {
            self.batch.clear();
            cluster.sense_into(round, event, &mut self.batch);
            cluster.decide_into(&self.batch, &mut self.found, &mut self.judged);
            declared.extend(self.found.drain(..).map(|loc| (cluster.index, loc)));
        }
        let result = merge_declarations(event, declared, self.config.r_error);

        for cluster in &mut self.clusters {
            cluster.drift();
        }
        if self.config.reelect_every > 0 && round.is_multiple_of(self.config.reelect_every) {
            // All departures leave before any arrival is admitted.
            // Admission order does not matter: a
            // cluster's state after its arrivals is the same in any
            // order (see `ClusterState::admit`).
            let sites = SiteIndex::with_lattice(&self.sites, self.lattice);
            for cluster in &mut self.clusters {
                cluster.departures_into(&sites, &mut self.moving);
            }
            for h in self.moving.drain(..) {
                self.affiliation[h.node.index()] = h.dst;
                self.clusters[h.dst].admit(h);
            }
        }
        result
    }

    /// The deployment header of a checkpoint. The sequential engine
    /// holds no in-flight timers between rounds, so any point between
    /// two `run_event` calls is a valid capture point.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Invalid`] for a deployment without clusters.
    pub(crate) fn checkpoint_header(&self) -> Result<DeploymentHeader, SnapshotError> {
        let field = self
            .clusters
            .first()
            .map(ClusterState::field)
            .ok_or(SnapshotError::Invalid("deployment has no clusters"))?;
        Ok(DeploymentHeader {
            config: self.config,
            sites: self.sites.clone(),
            cluster_count: self.clusters.len(),
            n_nodes: self.n_nodes,
            round: self.round,
            field,
        })
    }

    /// Calls `f` on every cluster in index order, stopping at the first
    /// error — how a checkpoint reads cluster state in place.
    pub(crate) fn try_for_each_cluster<E>(
        &self,
        f: impl FnMut(&ClusterState) -> Result<(), E>,
    ) -> Result<(), E> {
        self.clusters.iter().try_for_each(f)
    }

    /// Reassembles a simulation from restored cluster states. The
    /// affiliation map is derived, not stored, so it cannot go stale.
    pub(crate) fn from_parts(
        config: MultiClusterConfig,
        sites: Vec<Point>,
        mut clusters: Vec<ClusterState>,
        n_nodes: usize,
        round: u64,
    ) -> Self {
        let lattice = SiteLattice::detect(&sites);
        let mut affiliation = vec![usize::MAX; n_nodes];
        for cluster in &mut clusters {
            for &node in cluster.members() {
                affiliation[node.index()] = cluster.index;
            }
            cluster.own_cell = lattice.and_then(|l| l.own_cell_box(cluster.index));
        }
        MultiClusterSim {
            config,
            lattice,
            sites,
            clusters,
            affiliation,
            n_nodes,
            round,
            batch: Vec::new(),
            found: Vec::new(),
            moving: Vec::new(),
            judged: Vec::new(),
        }
    }
}

impl std::fmt::Debug for MultiClusterSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiClusterSim")
            .field("nodes", &self.n_nodes)
            .field("clusters", &self.clusters.len())
            .field("round", &self.round)
            .finish()
    }
}

/// The pre-in-place round, kept as the differential reference for the
/// engines' in-place re-election and event-local sensing: every member
/// senses every stimulus, and every membership change rebuilds the
/// cluster from a sorted slot list with a fresh trust table.
#[cfg(test)]
mod reference {
    use super::*;

    /// One member's full state, as reassembled during a rebuild.
    struct MemberSlot {
        node: NodeId,
        position: Point,
        behavior: Box<dyn NodeBehavior + Send>,
        record: TrustRecord,
    }

    /// Phase 1 with no culling: every member acts.
    fn sense_all(c: &mut ClusterState, round: u64, event: Point) -> Vec<LocatedReport> {
        let mut batch = Vec::new();
        for local in 0..c.members.len() {
            let node_pos = c.position(local);
            let ctx = RoundContext {
                round,
                node: c.members[local],
                node_pos,
                event: Some(event),
                is_event_neighbor: node_pos.distance_to(event) <= c.config.sensing_radius,
            };
            let Some(claim) = c.behaviors[local].located_action(&ctx, &mut c.rng) else {
                continue;
            };
            if c.channel.delivers(node_pos, c.head_position, &mut c.rng) {
                c.trace.bump(c.c_delivered);
                batch.push(LocatedReport::new(NodeId(local), claim));
            } else {
                c.trace.bump(c.c_dropped);
            }
        }
        batch
    }

    fn take_slots(c: &mut ClusterState) -> Vec<MemberSlot> {
        let records: Vec<TrustRecord> = (0..c.members.len())
            .map(|l| c.engine.table().extract(NodeId(l)))
            .collect();
        let positions = c.positions().to_vec();
        std::mem::take(&mut c.members)
            .into_iter()
            .zip(positions)
            .zip(std::mem::take(&mut c.behaviors))
            .zip(records)
            .map(|(((node, position), behavior), record)| MemberSlot {
                node,
                position,
                behavior,
                record,
            })
            .collect()
    }

    fn rebuild(c: &mut ClusterState, mut slots: Vec<MemberSlot>) {
        slots.sort_by_key(|s| s.node);
        let mut positions = Vec::with_capacity(slots.len());
        let mut engine = TibfitEngine::new(c.config.trust, slots.len());
        for (local, slot) in slots.into_iter().enumerate() {
            c.members.push(slot.node);
            positions.push(slot.position);
            c.behaviors.push(slot.behavior);
            engine.table_mut().install(NodeId(local), slot.record);
        }
        c.non_quiet = c
            .behaviors
            .iter()
            .filter(|b| !b.quiet_unless_sensed())
            .count();
        c.bounds = Bounds::of(&positions);
        c.local_topo = Topology::from_positions(positions, c.field_w, c.field_h);
        c.engine = engine;
    }

    fn departures(c: &mut ClusterState, sites: &SiteIndex<'_>) -> Vec<Handoff> {
        let mut leaving = vec![false; c.members.len()];
        let mut remaining = c.members.len();
        for (leave, &position) in leaving.iter_mut().zip(c.positions()) {
            if sites.nearest(position) != Some(c.index) && remaining > 1 {
                *leave = true;
                remaining -= 1;
            }
        }
        if !leaving.contains(&true) {
            return Vec::new();
        }
        let mut kept = Vec::new();
        let mut out = Vec::new();
        for (slot, leave) in take_slots(c).into_iter().zip(leaving) {
            if leave {
                out.push(Handoff {
                    node: slot.node,
                    position: slot.position,
                    record: slot.record,
                    behavior: slot.behavior,
                    dst: sites.nearest(slot.position).expect("non-empty sites"),
                });
            } else {
                kept.push(slot);
            }
        }
        c.trace.bump_by(c.c_handoff_out, out.len() as u64);
        rebuild(c, kept);
        out
    }

    fn admit(c: &mut ClusterState, arrivals: Vec<Handoff>) {
        if arrivals.is_empty() {
            return;
        }
        c.trace.bump_by(c.c_handoff_in, arrivals.len() as u64);
        let mut slots = take_slots(c);
        slots.extend(arrivals.into_iter().map(|h| MemberSlot {
            node: h.node,
            position: h.position,
            behavior: h.behavior,
            record: h.record,
        }));
        rebuild(c, slots);
    }

    /// One round of `sim` the old way.
    pub(super) fn run_event(sim: &mut MultiClusterSim, event: Point) -> MultiRoundResult {
        sim.round += 1;
        let round = sim.round;
        let mut declared = Vec::new();
        for c in &mut sim.clusters {
            let batch = sense_all(c, round, event);
            let mut found = Vec::new();
            c.decide_into(&batch, &mut found, &mut Vec::new());
            declared.extend(found.into_iter().map(|loc| (c.index, loc)));
        }
        let result = merge_declarations(event, declared, sim.config.r_error);
        for c in &mut sim.clusters {
            c.drift();
        }
        if sim.config.reelect_every > 0 && round.is_multiple_of(sim.config.reelect_every) {
            let mut inbound: Vec<Vec<Handoff>> =
                (0..sim.clusters.len()).map(|_| Vec::new()).collect();
            let sites = SiteIndex::with_lattice(&sim.sites, sim.lattice);
            for c in &mut sim.clusters {
                for h in departures(c, &sites) {
                    inbound[h.dst].push(h);
                }
            }
            for (ci, arrivals) in inbound.into_iter().enumerate() {
                admit(&mut sim.clusters[ci], arrivals);
            }
            for c in &sim.clusters {
                for &node in &c.members {
                    sim.affiliation[node.index()] = c.index;
                }
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::save_sequential;
    use crate::replay::FieldScenario;
    use tibfit_adversary::{CorrectNode, Level0Config, Level0Node};
    use tibfit_net::channel::BernoulliLoss;

    /// Drives `build()`'s deployment through `events` under the engine
    /// and under the rebuild reference, comparing every round's result
    /// and, after every re-election (and at the end), the checkpoint
    /// bytes and the affiliation map.
    fn assert_matches_reference(what: &str, build: impl Fn() -> MultiClusterSim, events: &[Point]) {
        let mut reference = build();
        let mut sim = build();
        let reelect = reference.config().reelect_every;
        for (r, &e) in events.iter().enumerate() {
            let what = format!("{what} round={}", r + 1);
            assert_eq!(sim.run_event(e), reference::run_event(&mut reference, e), "{what}");
            let boundary = reelect > 0 && (r as u64 + 1).is_multiple_of(reelect);
            if boundary || r + 1 == events.len() {
                assert!(
                    save_sequential(&sim).unwrap() == save_sequential(&reference).unwrap(),
                    "{what}: checkpoint bytes differ"
                );
                for i in 0..reference.node_count() {
                    let node = NodeId(i);
                    assert_eq!(sim.cluster_of(node), reference.cluster_of(node), "{what}: node {i}");
                }
            }
        }
    }

    fn build(n_faulty: usize, seed: u64) -> MultiClusterSim {
        build_mobile(n_faulty, seed, 0.0, 0)
    }

    fn build_mobile(
        n_faulty: usize,
        seed: u64,
        drift: f64,
        reelect_every: u64,
    ) -> MultiClusterSim {
        let topo = Topology::uniform_grid(100, 100.0, 100.0);
        let faulty = SimRng::seed_from(seed ^ 0xAA).choose_indices(100, n_faulty);
        let behaviors: Vec<Box<dyn NodeBehavior + Send>> = (0..100)
            .map(|i| -> Box<dyn NodeBehavior + Send> {
                if faulty.contains(&i) {
                    Box::new(Level0Node::new(Level0Config::experiment2(4.25)))
                } else {
                    Box::new(CorrectNode::new(0.0, 1.6))
                }
            })
            .collect();
        MultiClusterSim::new(
            MultiClusterConfig::paper().mobile(drift, reelect_every),
            topo,
            five_ch_sites(100.0),
            behaviors,
            |_| Box::new(BernoulliLoss::new(0.005)),
            seed,
        )
    }

    #[test]
    fn five_clusters_partition_all_nodes() {
        let sim = build(0, 1);
        assert_eq!(sim.cluster_count(), 5);
        let mut counts = [0usize; 5];
        for i in 0..100 {
            counts[sim.cluster_of(NodeId(i))] += 1;
        }
        assert_eq!(counts.iter().sum::<usize>(), 100);
        for (ci, c) in counts.iter().enumerate() {
            assert!(*c > 0, "cluster {ci} empty");
        }
    }

    #[test]
    fn affiliation_is_nearest_head() {
        let sim = build(0, 2);
        let sites = five_ch_sites(100.0);
        for i in 0..100 {
            let node = NodeId(i);
            let pos = sim.position_of(node);
            let assigned = sim.cluster_of(node);
            let d_assigned = pos.distance_to(sites[assigned]);
            for s in &sites {
                assert!(d_assigned <= pos.distance_to(*s) + 1e-9);
            }
        }
    }

    #[test]
    fn interior_events_detected() {
        let mut sim = build(0, 3);
        // An event deep inside a quadrant — one cluster owns most of the
        // neighborhood.
        let result = sim.run_event(Point::new(25.0, 25.0));
        assert!(result.detected_within(5.0));
    }

    #[test]
    fn boundary_events_recovered_by_merge() {
        let mut sim = build(0, 4);
        // Dead center of the field: the neighborhood is split across all
        // five clusters; the base-station union must still see it.
        let mut hits = 0;
        for dx in [-2.0, 0.0, 2.0] {
            let result = sim.run_event(Point::new(50.0 + dx, 50.0));
            hits += usize::from(result.detected_within(5.0));
        }
        assert!(hits >= 2, "boundary detection too weak: {hits}/3");
    }

    #[test]
    fn sweep_accuracy_close_to_single_cluster() {
        // The partition penalty at 30% faulty should be bounded: within
        // 15 points of the single-cluster driver on the same workload
        // scale.
        let mut sim = build(30, 5);
        let mut event_rng = SimRng::seed_from(55);
        let mut hits = 0usize;
        let n = 200;
        for _ in 0..n {
            let event = Point::new(
                event_rng.uniform_range(0.0, 100.0),
                event_rng.uniform_range(0.0, 100.0),
            );
            hits += usize::from(sim.run_event(event).detected_within(5.0));
        }
        let acc = hits as f64 / n as f64;
        assert!(acc > 0.8, "multi-cluster accuracy {acc}");
    }

    #[test]
    fn per_cluster_trust_diagnoses_local_liars() {
        let seed = 6;
        let mut sim = build(30, seed);
        let faulty = SimRng::seed_from(seed ^ 0xAA).choose_indices(100, 30);
        let mut event_rng = SimRng::seed_from(66);
        for _ in 0..300 {
            let event = Point::new(
                event_rng.uniform_range(0.0, 100.0),
                event_rng.uniform_range(0.0, 100.0),
            );
            sim.run_event(event);
        }
        let (mut f_sum, mut f_n, mut h_sum, mut h_n) = (0.0, 0.0, 0.0, 0.0);
        for i in 0..100 {
            let t = sim.trust_of(NodeId(i));
            if faulty.contains(&i) {
                f_sum += t;
                f_n += 1.0;
            } else {
                h_sum += t;
                h_n += 1.0;
            }
        }
        assert!(
            f_sum / f_n < h_sum / h_n,
            "faulty mean {} !< honest mean {}",
            f_sum / f_n,
            h_sum / h_n
        );
    }

    #[test]
    fn run_is_deterministic() {
        let mut a = build(20, 9);
        let mut b = build(20, 9);
        for i in 0..20 {
            let event = Point::new(10.0 + 4.0 * i as f64, 50.0);
            assert_eq!(a.run_event(event), b.run_event(event));
        }
        assert_eq!(a.trust_snapshot(), b.trust_snapshot());
        assert_eq!(a.counters(), b.counters());
    }

    #[test]
    fn mobile_run_is_deterministic() {
        let mut a = build_mobile(20, 10, 0.8, 5);
        let mut b = build_mobile(20, 10, 0.8, 5);
        for i in 0..30 {
            let event = Point::new(10.0 + 2.0 * i as f64, 40.0);
            assert_eq!(a.run_event(event), b.run_event(event));
        }
        assert_eq!(a.trust_snapshot(), b.trust_snapshot());
        assert_eq!(a.position_snapshot(), b.position_snapshot());
    }

    #[test]
    fn drift_moves_nodes_and_reelection_reassigns() {
        let mut sim = build_mobile(0, 11, 2.5, 4);
        let before = sim.position_snapshot();
        for i in 0..40 {
            sim.run_event(Point::new(50.0, 10.0 + 2.0 * i as f64));
        }
        let after = sim.position_snapshot();
        assert_ne!(before, after, "drift should move nodes");
        // Re-election keeps affiliation consistent with current geometry.
        let sites = five_ch_sites(100.0);
        let handoffs: u64 = sim
            .counters()
            .iter()
            .filter(|(name, _)| name.ends_with("handoffs.in"))
            .map(|&(_, v)| v)
            .sum();
        assert!(handoffs > 0, "40 rounds of drift should hand someone off");
        for i in 0..100 {
            let node = NodeId(i);
            let pos = sim.position_of(node);
            let assigned = sim.cluster_of(node);
            // After the last re-election the node may have drifted a few
            // more rounds, so allow the drift slack.
            let d_assigned = pos.distance_to(sites[assigned]);
            let d_best = sites
                .iter()
                .map(|s| pos.distance_to(*s))
                .fold(f64::INFINITY, f64::min);
            assert!(d_assigned <= d_best + 20.0, "node {i} stranded");
        }
    }

    #[test]
    fn handoff_preserves_trust_record() {
        // A liar that drifts across a border keeps its damaged counter.
        let mut sim = build_mobile(30, 12, 2.0, 2);
        let mut event_rng = SimRng::seed_from(77);
        let mut moved_with_history = 0;
        let mut before: Vec<(usize, f64)> =
            (0..100).map(|i| (sim.cluster_of(NodeId(i)), 0.0)).collect();
        for round in 0..60 {
            let event = Point::new(
                event_rng.uniform_range(0.0, 100.0),
                event_rng.uniform_range(0.0, 100.0),
            );
            sim.run_event(event);
            let snapshot = sim.trust_snapshot();
            for i in 0..100 {
                let now = sim.cluster_of(NodeId(i));
                let counter = f64::from_bits(snapshot[i]);
                if now != before[i].0 && before[i].1 > 0.0 {
                    // The node changed clusters carrying a non-zero
                    // counter: the new head must still see it.
                    assert!(
                        counter > 0.0,
                        "round {round}: node {i} lost its record in the handoff"
                    );
                    moved_with_history += 1;
                }
                before[i] = (now, counter);
            }
        }
        assert!(moved_with_history > 0, "no handoff carried history — test is vacuous");
    }

    #[test]
    fn counters_track_reports() {
        let mut sim = build(0, 13);
        for _ in 0..5 {
            sim.run_event(Point::new(50.0, 50.0));
        }
        let counters = sim.counters();
        let delivered: u64 = counters
            .iter()
            .filter(|(n, _)| n.ends_with("reports.delivered"))
            .map(|&(_, v)| v)
            .sum();
        assert!(delivered > 0, "honest nodes near the event must report");
        let decided: u64 = counters
            .iter()
            .filter(|(n, _)| n.ends_with("rounds.decided"))
            .map(|&(_, v)| v)
            .sum();
        assert!(decided > 0);
    }

    #[test]
    #[should_panic(expected = "at least one cluster head")]
    fn rejects_empty_sites() {
        let topo = Topology::uniform_grid(4, 10.0, 10.0);
        let behaviors: Vec<Box<dyn NodeBehavior + Send>> = (0..4)
            .map(|_| -> Box<dyn NodeBehavior + Send> { Box::new(CorrectNode::new(0.0, 0.0)) })
            .collect();
        let _ = MultiClusterSim::new(
            MultiClusterConfig::paper(),
            topo,
            Vec::new(),
            behaviors,
            |_| Box::new(BernoulliLoss::new(0.0)),
            0,
        );
    }

    #[test]
    fn try_new_rejects_each_bad_config() {
        let topo = Topology::uniform_grid(4, 10.0, 10.0);
        let mk_behaviors = |n: usize| -> Vec<Box<dyn NodeBehavior + Send>> {
            (0..n)
                .map(|_| -> Box<dyn NodeBehavior + Send> { Box::new(CorrectNode::new(0.0, 0.0)) })
                .collect()
        };
        let mk_channel = |_: usize| -> Box<dyn ChannelModel + Send> {
            Box::new(BernoulliLoss::new(0.0))
        };

        // Empty sites.
        assert_eq!(
            MultiClusterSim::try_new(
                MultiClusterConfig::paper(),
                topo.clone(),
                Vec::new(),
                mk_behaviors(4),
                mk_channel,
                0,
            )
            .err(),
            Some(MultiClusterError::NoClusterHeads)
        );

        // Behavior count mismatch.
        assert_eq!(
            MultiClusterSim::try_new(
                MultiClusterConfig::paper(),
                topo.clone(),
                vec![Point::new(5.0, 5.0)],
                mk_behaviors(3),
                mk_channel,
                0,
            )
            .err(),
            Some(MultiClusterError::BehaviorCountMismatch {
                behaviors: 3,
                nodes: 4
            })
        );

        // A site so far from every node that another site wins all of
        // them: the far cluster has no members.
        assert_eq!(
            MultiClusterSim::try_new(
                MultiClusterConfig::paper(),
                topo.clone(),
                vec![Point::new(5.0, 5.0), Point::new(10.0, 10.0)],
                mk_behaviors(4),
                mk_channel,
                0,
            )
            .err(),
            Some(MultiClusterError::EmptyCluster { cluster: 1 })
        );

        // Invalid numeric config fields.
        let mut bad = MultiClusterConfig::paper();
        bad.sensing_radius = 0.0;
        assert_eq!(
            bad.validate().err(),
            Some(MultiClusterError::InvalidSensingRadius(0.0))
        );
        let mut bad = MultiClusterConfig::paper();
        bad.r_error = f64::NAN;
        assert!(matches!(
            bad.validate().err(),
            Some(MultiClusterError::InvalidErrorRadius(x)) if x.is_nan()
        ));
        let bad = MultiClusterConfig::paper().mobile(-1.0, 4);
        assert_eq!(
            bad.validate().err(),
            Some(MultiClusterError::InvalidDrift(-1.0))
        );
        assert_eq!(
            MultiClusterSim::try_new(
                bad,
                topo,
                vec![Point::new(5.0, 5.0)],
                mk_behaviors(4),
                mk_channel,
                0,
            )
            .err(),
            Some(MultiClusterError::InvalidDrift(-1.0))
        );

        // Errors render.
        assert!(MultiClusterError::NoClusterHeads
            .to_string()
            .contains("cluster head"));
        assert!(MultiClusterError::EmptyCluster { cluster: 3 }
            .to_string()
            .contains("cluster 3"));
    }

    #[test]
    fn grid_sites_counts_and_bounds() {
        for k in [1, 5, 32, 128, 256] {
            let sites = grid_sites(k, 100.0);
            assert_eq!(sites.len(), k, "k={k}");
            for s in &sites {
                assert!((0.0..=100.0).contains(&s.x) && (0.0..=100.0).contains(&s.y));
            }
        }
    }

    #[test]
    fn in_place_handoff_matches_the_rebuild_reference() {
        for seed in 0..10u64 {
            for scenario in [
                FieldScenario::mobile(seed),
                FieldScenario {
                    nodes: 1024,
                    clusters: 64,
                    field: 320.0,
                    faulty: 256,
                    ..FieldScenario::mobile(seed)
                },
            ] {
                let what = format!("seed {seed} {}n/{}c", scenario.nodes, scenario.clusters);
                let handoffs = {
                    let mut sim = scenario.sequential().unwrap();
                    for e in scenario.events(30) {
                        sim.run_event(e);
                    }
                    sim.counters()
                        .iter()
                        .filter(|(n, _)| n.ends_with("handoffs.in"))
                        .count()
                };
                assert!(
                    handoffs > 0,
                    "{what}: no handoff — the test would be vacuous"
                );
                assert_matches_reference(
                    &what,
                    || scenario.sequential().unwrap(),
                    &scenario.events(30),
                );
            }
        }
    }

    #[test]
    fn a_round_writes_only_the_counters_it_judged() {
        // Mobile, re-electing every 3 rounds: handoffs move counters
        // between clusters without changing them.
        let scenario = FieldScenario {
            nodes: 1024,
            clusters: 64,
            field: 320.0,
            faulty: 256,
            ..FieldScenario::mobile(0x1D6)
        };
        let mut sim = scenario.sequential().unwrap();
        let mut before = sim.trust_snapshot();
        let mut judged_rounds = 0;
        for (r, e) in scenario.events(60).into_iter().enumerate() {
            sim.run_event(e);
            let after = sim.trust_snapshot();
            let judged = sim.judged_nodes();
            judged_rounds += usize::from(!judged.is_empty());
            for (i, (a, b)) in before.iter().zip(&after).enumerate() {
                if a != b {
                    assert!(judged.contains(&NodeId(i)), "round {}: node {i} unjudged", r + 1);
                }
            }
            before = after;
        }
        assert!(judged_rounds > 30, "only {judged_rounds} of 60 rounds judged anyone");
    }

    #[test]
    fn own_cell_reelection_matches_the_reference_on_a_big_field() {
        // The big_field benchmark's shape: 4096 mobile nodes under 256
        // lattice heads, re-elected every 3 rounds. The engine skips the
        // nearest-site lookup for members inside their own cell's box;
        // the reference looks up every member. Checkpoint bytes are
        // compared after every re-election.
        let scenario = FieldScenario {
            nodes: 4096,
            clusters: 256,
            field: 640.0,
            faulty: 1024,
            ..FieldScenario::mobile(0x0B16)
        };
        let sim = scenario.sequential().unwrap();
        let boxed = sim.clusters.iter().filter(|c| c.own_cell.is_some()).count();
        assert_eq!(boxed, 256, "every lattice cluster has an own-cell box");
        let events = scenario.events(24);
        let mut probe = scenario.sequential().unwrap();
        for &e in &events {
            probe.run_event(e);
        }
        let handoffs: u64 = probe
            .counters()
            .iter()
            .filter(|(n, _)| n.ends_with("handoffs.in"))
            .map(|&(_, v)| v)
            .sum();
        assert!(handoffs > 0, "no handoff — the test would be vacuous");
        assert_matches_reference("big field", || scenario.sequential().unwrap(), &events);
    }

    #[test]
    fn event_local_sensing_matches_sensing_every_member() {
        // A mixed field: quiet honest nodes and quiet liars everywhere,
        // plus a band of honest nodes with a natural false-alarm rate
        // (`ner > 0`, not quiet) that drifts across several clusters.
        let build = |seed: u64| {
            let topo = Topology::uniform_grid(400, 160.0, 160.0);
            let behaviors: Vec<Box<dyn NodeBehavior + Send>> = (0..400)
                .map(|i| -> Box<dyn NodeBehavior + Send> {
                    let (col, row) = (i % 20, i / 20);
                    if row == 9 && col < 12 {
                        Box::new(CorrectNode::new(0.05, 1.6))
                    } else if (i * 7 + seed as usize).is_multiple_of(5) {
                        Box::new(Level0Node::new(Level0Config::experiment2(4.25)))
                    } else {
                        Box::new(CorrectNode::new(0.0, 1.6))
                    }
                })
                .collect();
            MultiClusterSim::new(
                MultiClusterConfig::paper().mobile(1.5, 3),
                topo,
                grid_sites(16, 160.0),
                behaviors,
                |_| Box::new(BernoulliLoss::new(0.01)),
                seed,
            )
        };
        for seed in 0..6u64 {
            let sim = build(seed);
            let quiet_clusters = sim.clusters.iter().filter(|c| c.non_quiet == 0).count();
            assert!(
                quiet_clusters > 0 && quiet_clusters < sim.clusters.len(),
                "seed {seed}: both sensing paths must run"
            );
            let mut rng = SimRng::seed_from(seed ^ 0x5E);
            let events: Vec<Point> = (0..45)
                .map(|_| Point::new(rng.uniform_range(0.0, 160.0), rng.uniform_range(0.0, 160.0)))
                .collect();
            assert_matches_reference(&format!("mixed seed {seed}"), || build(seed), &events);
        }
    }
}

//! The sharded parallel multi-cluster engine.
//!
//! Each cluster from [`crate::multicluster`] becomes one shard on the
//! conservative window-synchronized scheduler in `tibfit_sim::shard`: it
//! owns its [`ClusterState`] (members, behaviours, channel, trust table,
//! private RNG stream) plus its own timer-wheel DES queue for intra-round
//! timing (sense on event arrival, decide `T_out` later). Shards advance
//! in lockstep epochs of one decision round; the only cross-shard traffic
//! is
//!
//! * `Event` — the base station (driver) broadcasting the round's ground
//!   truth to every shard,
//! * `Declare` — a shard's accepted event locations flowing back to the
//!   driver for the base-station merge, and
//! * `Handoff` — a node changing clusters at a re-election boundary,
//!   carrying its trust record and behaviour.
//!
//! ## Why the merged trace is thread-count independent
//!
//! Within an epoch a shard touches only its own state and its inbox, so
//! any worker assignment computes the same per-shard result. Everything
//! that crosses shards rides in envelopes delivered in `(time, src, seq)`
//! order: `Declare`s reach the driver sorted by cluster index (then
//! emission order), which is byte-for-byte the order the sequential
//! [`MultiClusterSim`] collects declarations in; `Handoff`s apply before
//! the next round's sensing, as the sequential engine applies them at end
//! of round. The differential suite (`tests/differential_shards.rs`)
//! checks the equivalence across seeds and thread counts.

use tibfit_adversary::behavior::NodeBehavior;
use tibfit_core::location::LocatedReport;
use tibfit_net::channel::ChannelModel;
use tibfit_net::geometry::Point;
use std::sync::Arc;

use tibfit_net::topology::{NodeId, SiteIndex, SiteLattice, Topology};
use tibfit_sim::arena::BufferPool;
use tibfit_sim::shard::{Envelope, Outbox, PhaseProfile, Shard, ShardError, ShardScheduler, DRIVER};
use tibfit_sim::snapshot::SnapshotError;
use tibfit_sim::{Duration, Engine, SimTime};

use crate::multicluster::{
    merge_declarations, partition_clusters, ClusterState, DeploymentHeader, Handoff,
    MultiClusterConfig, MultiClusterError, MultiRoundResult, MultiClusterSim,
};

/// Ticks per decision round (= the fixed epoch window). Must exceed
/// [`T_OUT`] so a round's decide timer fires inside the epoch that
/// scheduled it.
const ROUND_TICKS: u64 = 100;
/// The CH's report-collection timeout within a round, in ticks.
const T_OUT: u64 = 50;
/// Upper bound on rounds per adaptive epoch when no re-election boundary
/// caps the batch (`reelect_every == 0`, or a very long cycle). Keeps
/// barrier latency bounded without affecting the trace.
const MAX_BATCH_ROUNDS: u64 = 32;

/// Why the sharded engine could not be built.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShardedError {
    /// The underlying deployment was rejected.
    Cluster(MultiClusterError),
    /// The shard scheduler was rejected (e.g. zero worker threads).
    Shard(ShardError),
}

impl std::fmt::Display for ShardedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardedError::Cluster(e) => e.fmt(f),
            ShardedError::Shard(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ShardedError {}

impl From<MultiClusterError> for ShardedError {
    fn from(e: MultiClusterError) -> Self {
        ShardedError::Cluster(e)
    }
}

impl From<ShardError> for ShardedError {
    fn from(e: ShardError) -> Self {
        ShardedError::Shard(e)
    }
}

/// Cross-shard message payload.
enum ClusterMsg {
    /// Driver → every shard: the round's ground-truth event.
    Event { round: u64, event: Point },
    /// Shard → driver: one accepted event location.
    Declare { location: Point },
    /// Shard → shard: a node changing clusters at a re-election boundary.
    Handoff(Handoff),
}

/// Intra-shard DES events: the per-round protocol timing.
enum LocalTimer {
    /// Members act and reports race the channel to the head.
    Sense { round: u64, event: Point },
    /// `T_out` after the event: the head decides from what arrived.
    Decide { batch: Vec<LocatedReport> },
}

/// One cluster wrapped as a shard: the cluster state plus its private
/// timer-wheel event queue.
struct ClusterShard {
    state: ClusterState,
    /// The cluster-head sites, shared read-only across all shards — at
    /// 10k+ clusters a per-shard copy would cost O(shards²) memory.
    sites: Arc<[Point]>,
    /// Cached lattice recognition over `sites` (see [`SiteLattice`]):
    /// detected once at construction, turns each re-election's
    /// nearest-site sweep from O(members × sites) into O(members).
    lattice: Option<SiteLattice>,
    config: MultiClusterConfig,
    timers: Engine<LocalTimer>,
    /// Shard-lifetime scratch for a re-election's departures, reused
    /// across epochs so the hot path allocates nothing.
    departures: Vec<Handoff>,
    /// Nodes admitted since the driver last looked, so it can update
    /// its affiliation map for just the moved nodes.
    moved_in: Vec<NodeId>,
    rounds: Vec<(SimTime, u64)>,
    /// Arena for per-round report batches: `Sense` leases a buffer, the
    /// matching `Decide` releases it, so steady-state rounds allocate no
    /// batch vectors at all.
    reports: BufferPool<LocatedReport>,
    /// Scratch for each decide's declared locations.
    declared: Vec<Point>,
}

impl Shard for ClusterShard {
    type Msg = ClusterMsg;

    fn step(
        &mut self,
        until: SimTime,
        inbox: &mut Vec<Envelope<ClusterMsg>>,
        outbox: &mut Outbox<ClusterMsg>,
    ) {
        // Handoffs sort before driver events at the epoch boundary
        // (shard src < DRIVER), so arrivals join the cluster before this
        // round's sensing — the same point in the round cycle where the
        // sequential engine applies them.
        debug_assert!(self.rounds.is_empty());
        for env in inbox.drain(..) {
            match env.msg {
                ClusterMsg::Handoff(h) => {
                    self.moved_in.push(h.node);
                    self.state.admit(h);
                }
                ClusterMsg::Event { round, event } => {
                    self.rounds.push((env.time, round));
                    self.timers.schedule_at(env.time, LocalTimer::Sense { round, event });
                }
                ClusterMsg::Declare { .. } => unreachable!("driver-bound message at a shard"),
            }
        }

        // Pump the DES queue one round at a time: a round's timers all
        // live in [start, start + ROUND_TICKS), and end-of-round mobility
        // must run after that round's decide but before the next round's
        // sensing — the exact sequential order even when an adaptive
        // epoch packs several rounds between barriers.
        let rounds = std::mem::take(&mut self.rounds);
        for &(start, round) in &rounds {
            let deadline = start + Duration::from_ticks(ROUND_TICKS - 1);
            while let Some((time, timer)) = self.timers.pop_until(deadline) {
                match timer {
                    LocalTimer::Sense { round, event } => {
                        let mut batch = self.reports.lease();
                        self.state.sense_into(round, event, &mut batch);
                        self.timers.schedule_at(
                            time + Duration::from_ticks(T_OUT),
                            LocalTimer::Decide { batch },
                        );
                    }
                    LocalTimer::Decide { batch } => {
                        self.state.decide_into(&batch, &mut self.declared);
                        self.reports.release(batch);
                        for &location in &self.declared {
                            // Driver-bound messages are exempt from the
                            // conservative horizon (the base station
                            // consumes them after the epoch), so the
                            // declaration keeps its true decision time —
                            // which is what orders declarations
                            // round-major, then cluster-major, exactly as
                            // the sequential engine collects them.
                            outbox.send(DRIVER, time, ClusterMsg::Declare { location });
                        }
                        self.declared.clear();
                    }
                }
            }

            // End-of-round mobility and re-election, exactly as the
            // sequential engine runs them after the merge. Re-election
            // boundaries always terminate an epoch (the driver never
            // batches past one), so hand-offs stamped at the horizon
            // settle in the next epoch as before.
            self.state.drift();
            if self.config.reelect_every > 0 && round.is_multiple_of(self.config.reelect_every) {
                let index = SiteIndex::with_lattice(&self.sites, self.lattice);
                self.state.departures_into(&index, &mut self.departures);
                for h in self.departures.drain(..) {
                    outbox.send(h.dst, until, ClusterMsg::Handoff(h));
                }
            }
        }
        self.rounds = rounds;
        self.rounds.clear();
    }
}

/// Interleaves the low 32 bits of `x` and `y` into a Morton (Z-order)
/// key: points close on the 2D lattice get numerically close keys, so
/// sorting by the key walks the lattice in a locality-preserving curve.
fn morton_key(x: u32, y: u32) -> u64 {
    fn spread(mut v: u64) -> u64 {
        v &= 0xffff_ffff;
        v = (v | (v << 16)) & 0x0000_ffff_0000_ffff;
        v = (v | (v << 8)) & 0x00ff_00ff_00ff_00ff;
        v = (v | (v << 4)) & 0x0f0f_0f0f_0f0f_0f0f;
        v = (v | (v << 2)) & 0x3333_3333_3333_3333;
        v = (v | (v << 1)) & 0x5555_5555_5555_5555;
        v
    }
    spread(u64::from(x)) | (spread(u64::from(y)) << 1)
}

/// The heap-construction order for shard state: cluster indices sorted by
/// the Z-order key of each cluster head's lattice cell (ties by index, so
/// the order is a deterministic permutation). Without a recognized
/// lattice there is no locality structure to exploit and the original
/// order is kept.
fn locality_order(clusters: &[ClusterState], lattice: Option<SiteLattice>) -> Vec<usize> {
    let mut order: Vec<usize> = (0..clusters.len()).collect();
    if let Some(lat) = lattice {
        order.sort_by_key(|&i| {
            let (cx, cy) = lat.cell_of(clusters[i].head_position());
            (morton_key(cx as u32, cy as u32), i)
        });
    }
    order
}

/// The parallel engine: drop-in equivalent of [`MultiClusterSim`] with a
/// `threads` knob. Same constructor inputs produce bit-identical
/// decisions, trust trajectories, and trace counters at any thread
/// count.
pub struct ShardedMultiCluster {
    scheduler: ShardScheduler<ClusterShard>,
    config: MultiClusterConfig,
    n_nodes: usize,
    round: u64,
    /// Node → cluster index, as [`MultiClusterSim`] keeps it: built at
    /// construction and updated for the moved nodes whenever handoffs
    /// settle, so point lookups skip the shard scan.
    affiliation: Vec<usize>,
    /// Reused driver-mailbox scratch: one allocation for the whole run
    /// instead of one per epoch.
    driver_buf: Vec<Envelope<ClusterMsg>>,
}

impl ShardedMultiCluster {
    /// Builds the sharded deployment over `threads` worker threads.
    ///
    /// # Errors
    ///
    /// Returns [`ShardedError::Cluster`] for any configuration the
    /// sequential engine would reject, and [`ShardedError::Shard`] for a
    /// zero thread count.
    pub fn try_new(
        config: MultiClusterConfig,
        topo: Topology,
        ch_sites: Vec<Point>,
        behaviors: Vec<Box<dyn NodeBehavior + Send>>,
        channels: impl FnMut(usize) -> Box<dyn ChannelModel + Send>,
        master_seed: u64,
        threads: usize,
    ) -> Result<Self, ShardedError> {
        let n_nodes = topo.len();
        let clusters =
            partition_clusters(config, &topo, &ch_sites, behaviors, channels, master_seed)?;
        Self::from_clusters(config, ch_sites, clusters, n_nodes, 0, threads)
    }

    /// Converts an existing sequential simulation into a sharded one —
    /// useful for switching engines mid-experiment with state intact.
    ///
    /// # Errors
    ///
    /// Returns [`ShardedError::Shard`] for a zero thread count.
    pub fn from_sequential(sim: MultiClusterSim, threads: usize) -> Result<Self, ShardedError> {
        let n_nodes = sim.node_count();
        let (config, sites, clusters, round) = sim.into_clusters();
        Self::from_clusters(config, sites, clusters, n_nodes, round, threads)
    }

    pub(crate) fn from_clusters(
        config: MultiClusterConfig,
        sites: Vec<Point>,
        clusters: Vec<ClusterState>,
        n_nodes: usize,
        round: u64,
        threads: usize,
    ) -> Result<Self, ShardedError> {
        let lattice = SiteLattice::detect(&sites);
        let sites: Arc<[Point]> = sites.into();
        // Cache-aware placement: shard *indices* are frozen by the trace
        // (messages address slot indices, (time,src,seq) keys embed them,
        // counters are named per index), so locality cannot reorder the
        // slot array. What it can order is the heap: build each shard's
        // private state following a Z-order walk of the site lattice, so
        // lattice-adjacent clusters — which exchange the most handoffs
        // and are stepped together when workers claim contiguous slot
        // chunks — get their timer wheels and scratch buffers allocated
        // adjacently. Every shard is then installed at its original slot
        // index, leaving the trace bit-identical.
        let order = locality_order(&clusters, lattice);
        let mut staging: Vec<Option<ClusterState>> = clusters.into_iter().map(Some).collect();
        let mut shards: Vec<Option<ClusterShard>> = (0..staging.len()).map(|_| None).collect();
        for i in order {
            let state = staging[i].take().expect("locality order is a permutation");
            shards[i] = Some(ClusterShard {
                state,
                sites: Arc::clone(&sites),
                lattice,
                config,
                timers: Engine::new(),
                departures: Vec::new(),
                moved_in: Vec::new(),
                rounds: Vec::new(),
                reports: BufferPool::new(),
                declared: Vec::new(),
            });
        }
        let shards: Vec<ClusterShard> = shards
            .into_iter()
            .map(|s| s.expect("every slot filled"))
            .collect();
        let scheduler =
            ShardScheduler::new(shards, Duration::from_ticks(ROUND_TICKS), threads)?;
        let mut affiliation = vec![0; n_nodes];
        scheduler.for_each_shard(|ci, s| {
            for m in s.state.members() {
                affiliation[m.index()] = ci;
            }
        });
        Ok(ShardedMultiCluster {
            scheduler,
            config,
            n_nodes,
            round,
            affiliation,
            driver_buf: Vec::new(),
        })
    }

    /// Number of clusters (= shards).
    #[must_use]
    pub fn cluster_count(&self) -> usize {
        self.scheduler.shard_count()
    }

    /// Total deployed nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.n_nodes
    }

    /// The configured worker thread count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.scheduler.threads()
    }

    /// Completed event rounds (the daemon's tenant cursor).
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Cumulative scheduler phase breakdown (stage / parallel / busy /
    /// route) since construction — the measured answer to "where does
    /// the wall-clock go" (`tibfit-bench --profile`).
    #[must_use]
    pub fn phase_profile(&self) -> PhaseProfile {
        self.scheduler.profile()
    }

    /// Threads actually participating in the parallel phase (pool
    /// workers plus the driving thread) — the divisor for interpreting
    /// [`PhaseProfile::busy_ns`].
    #[must_use]
    pub fn parallel_participants(&self) -> usize {
        self.scheduler.pool_workers() + 1
    }

    /// The deployment configuration the engine was built with.
    #[must_use]
    pub fn config(&self) -> &MultiClusterConfig {
        &self.config
    }

    /// Runs one event round (one scheduler epoch) and merges the
    /// declarations at the base station.
    ///
    /// # Panics
    ///
    /// Panics if a shard addresses a message to a nonexistent shard —
    /// impossible for destinations produced by Voronoi affiliation over
    /// the construction-time site list.
    pub fn run_event(&mut self, event: Point) -> MultiRoundResult {
        self.round += 1;
        let now = self.scheduler.now();
        for ci in 0..self.scheduler.shard_count() {
            self.scheduler
                .inject(
                    ci,
                    now,
                    ClusterMsg::Event {
                        round: self.round,
                        event,
                    },
                )
                .expect("shard indices are in range");
        }
        let mut driver_msgs = std::mem::take(&mut self.driver_buf);
        self.scheduler
            .step_epoch_into(&mut driver_msgs)
            .expect("handoff routing stays in range");
        let mut declared: Vec<(usize, Point)> = Vec::new();
        for env in driver_msgs.drain(..) {
            match env.msg {
                ClusterMsg::Declare { location } => declared.push((env.src, location)),
                _ => unreachable!("only declarations flow to the driver"),
            }
        }
        self.driver_buf = driver_msgs;
        self.settle_if_boundary();
        merge_declarations(event, declared, self.config.r_error)
    }

    /// Runs a whole sequence of event rounds through adaptive epochs:
    /// between two re-election boundaries no cross-shard traffic exists,
    /// so the scheduler widens the window to cover the entire stretch
    /// (capped at [`MAX_BATCH_ROUNDS`]) and pays one barrier per batch
    /// instead of one per round.
    ///
    /// Produces results bit-identical to calling
    /// [`ShardedMultiCluster::run_event`] once per event, at any thread
    /// count: each shard still pumps its timers round by round in the
    /// sequential order, declarations keep their per-round decision
    /// timestamps (so the `(time, src, seq)` merge is round-major then
    /// cluster-major, exactly the per-round collection order), and
    /// boundaries still terminate an epoch so hand-offs settle in their
    /// own window.
    pub fn run_events(&mut self, events: &[Point]) -> Vec<MultiRoundResult> {
        let mut results = Vec::with_capacity(events.len());
        let mut i = 0usize;
        while i < events.len() {
            // Rounds until the next re-election boundary, inclusive —
            // hand-offs only occur there, so the whole stretch is free of
            // shard-to-shard traffic and safe to run between barriers.
            let reelect = self.config.reelect_every;
            let to_boundary = if reelect > 0 {
                reelect - (self.round % reelect)
            } else {
                MAX_BATCH_ROUNDS
            };
            let k = to_boundary
                .min(MAX_BATCH_ROUNDS)
                .min((events.len() - i) as u64) as usize;

            let base = self.scheduler.now();
            for (j, &event) in events[i..i + k].iter().enumerate() {
                let t = base + Duration::from_ticks(j as u64 * ROUND_TICKS);
                let round = self.round + 1 + j as u64;
                for ci in 0..self.scheduler.shard_count() {
                    self.scheduler
                        .inject(ci, t, ClusterMsg::Event { round, event })
                        .expect("shard indices are in range");
                }
            }
            self.round += k as u64;

            let mut driver_msgs = std::mem::take(&mut self.driver_buf);
            self.scheduler
                .step_epoch_window_into(
                    Duration::from_ticks(k as u64 * ROUND_TICKS),
                    &mut driver_msgs,
                )
                .expect("handoff routing stays in range");

            // Regroup the batch's declarations per round by decision
            // timestamp; within a round they arrive cluster-major, the
            // sequential collection order.
            let mut per_round: Vec<Vec<(usize, Point)>> = (0..k).map(|_| Vec::new()).collect();
            for env in driver_msgs.drain(..) {
                let j = ((env.time.ticks() - base.ticks()) / ROUND_TICKS) as usize;
                match env.msg {
                    ClusterMsg::Declare { location } => per_round[j].push((env.src, location)),
                    _ => unreachable!("only declarations flow to the driver"),
                }
            }
            self.driver_buf = driver_msgs;
            self.settle_if_boundary();
            for (j, declared) in per_round.into_iter().enumerate() {
                results.push(merge_declarations(events[i + j], declared, self.config.r_error));
            }
            i += k;
        }
        results
    }

    /// A re-election boundary may put handoffs in flight: envelopes
    /// staged for the next epoch. Settle them with one extra, event-free
    /// epoch so the state observable between rounds (trust and position
    /// snapshots, handoff counters) matches the sequential engine, which
    /// applies hand-offs at end of round. Settlement depends only on
    /// round number and config, never on the thread count or batching, so
    /// determinism is preserved.
    fn settle_if_boundary(&mut self) {
        if self.config.reelect_every > 0 && self.round.is_multiple_of(self.config.reelect_every) {
            let mut settled = std::mem::take(&mut self.driver_buf);
            self.scheduler
                .step_epoch_into(&mut settled)
                .expect("settlement routes nothing new");
            debug_assert!(settled.is_empty(), "settlement epochs carry no declarations");
            self.driver_buf = settled;
            let affiliation = &mut self.affiliation;
            for ci in 0..self.scheduler.shard_count() {
                self.scheduler.with_shard_mut(ci, |s| {
                    for node in s.moved_in.drain(..) {
                        affiliation[node.index()] = ci;
                    }
                });
            }
        }
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

    /// The trust its own head currently assigns a node.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn trust_of(&self, node: NodeId) -> f64 {
        self.with_member(node, |state, local| state.trust_of(local))
    }

    /// A node's raw trust counter `v` — bit-equal to its entry in
    /// [`Self::trust_snapshot`], without building the whole vector.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn trust_counter_of(&self, node: NodeId) -> f64 {
        self.with_member(node, |state, local| state.counter_of(local))
    }

    /// Runs `f` on a node's cluster and its local index there.
    fn with_member<R>(&self, node: NodeId, f: impl FnOnce(&ClusterState, usize) -> R) -> R {
        self.scheduler.with_shard(self.cluster_of(node), |s| {
            let local = s
                .state
                .members()
                .binary_search(&node)
                .expect("member of its own cluster");
            f(&s.state, local)
        })
    }

    /// Bit-exact snapshot of every node's raw trust counter, indexed by
    /// global node id — directly comparable with
    /// [`MultiClusterSim::trust_snapshot`].
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
        self.scheduler.for_each_shard(|_, s| {
            for (local, &node) in s.state.members().iter().enumerate() {
                out[node.index()] = s.state.counter_of(local).to_bits();
            }
        });
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

    /// Calls `f` with every node's id and current position, shard by
    /// shard — one pass for callers that lay positions out themselves.
    pub fn for_each_position(&self, mut f: impl FnMut(NodeId, Point)) {
        for ci in 0..self.scheduler.shard_count() {
            self.scheduler.with_shard(ci, |s| {
                for (&node, &p) in s.state.members().iter().zip(s.state.positions()) {
                    f(node, p);
                }
            });
        }
    }

    /// All trace counters, prefixed per cluster, sorted the same way as
    /// [`MultiClusterSim::counters`].
    #[must_use]
    pub fn counters(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        self.scheduler.for_each_shard(|_, s| {
            for (name, value) in s.state.counters() {
                out.push((format!("c{}.{name}", s.state.index), value));
            }
        });
        out
    }

    /// The deployment header of a checkpoint, at the epoch barrier.
    /// Between epochs every shard's timer queue is provably drained (a
    /// round's Sense/Decide pair both fire inside the epoch that
    /// scheduled it) and every mailbox is empty — settlement epochs
    /// flush boundary hand-offs — so the checkpoint needs no timer or
    /// mailbox section and is byte-identical to what the sequential
    /// engine saves at the same round. This verifies the barrier claim
    /// shard by shard before anything is captured.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Unsupported`] if a shard still has timers or a
    /// mailbox has messages in flight (capture attempted mid-epoch).
    pub(crate) fn checkpoint_header(&self) -> Result<DeploymentHeader, SnapshotError> {
        let idle = self.scheduler.for_each_shard(|_, s| s.timers.is_idle());
        if idle.contains(&false) || self.scheduler.has_pending() {
            return Err(SnapshotError::Unsupported(
                "shard has work in flight — capture only at an epoch barrier",
            ));
        }
        if idle.is_empty() {
            return Err(SnapshotError::Invalid("deployment has no clusters"));
        }
        let (sites, field) = self
            .scheduler
            .with_shard(0, |s| (s.sites.to_vec(), s.state.field()));
        Ok(DeploymentHeader {
            config: self.config,
            sites,
            cluster_count: idle.len(),
            n_nodes: self.n_nodes,
            round: self.round,
            field,
        })
    }

    /// Calls `f` on every cluster in index order, stopping at the first
    /// error — how a checkpoint reads shard state in place.
    pub(crate) fn try_for_each_cluster<E>(
        &self,
        mut f: impl FnMut(&ClusterState) -> Result<(), E>,
    ) -> Result<(), E> {
        (0..self.scheduler.shard_count())
            .try_for_each(|ci| self.scheduler.with_shard(ci, |s| f(&s.state)))
    }

    /// Total DES events dispatched across all shard timer queues plus
    /// envelopes routed — the throughput denominator for the bench.
    #[must_use]
    pub fn events_dispatched(&self) -> u64 {
        let timer_events: u64 = self
            .scheduler
            .for_each_shard(|_, s| s.timers.dispatched())
            .into_iter()
            .sum();
        timer_events + self.scheduler.routed_messages()
    }
}

impl std::fmt::Debug for ShardedMultiCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedMultiCluster")
            .field("nodes", &self.n_nodes)
            .field("clusters", &self.scheduler.shard_count())
            .field("threads", &self.scheduler.threads())
            .field("round", &self.round)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multicluster::five_ch_sites;
    use tibfit_adversary::{CorrectNode, Level0Config, Level0Node};
    use tibfit_net::channel::BernoulliLoss;
    use tibfit_sim::rng::SimRng;

    fn behaviors(n: usize, n_faulty: usize, seed: u64) -> Vec<Box<dyn NodeBehavior + Send>> {
        let faulty = SimRng::seed_from(seed ^ 0xAA).choose_indices(n, n_faulty);
        (0..n)
            .map(|i| -> Box<dyn NodeBehavior + Send> {
                if faulty.contains(&i) {
                    Box::new(Level0Node::new(Level0Config::experiment2(4.25)))
                } else {
                    Box::new(CorrectNode::new(0.0, 1.6))
                }
            })
            .collect()
    }

    fn build_pair(seed: u64, threads: usize) -> (MultiClusterSim, ShardedMultiCluster) {
        let config = MultiClusterConfig::paper().mobile(0.5, 4);
        let topo = Topology::uniform_grid(100, 100.0, 100.0);
        let seq = MultiClusterSim::new(
            config,
            topo.clone(),
            five_ch_sites(100.0),
            behaviors(100, 25, seed),
            |_| Box::new(BernoulliLoss::new(0.005)),
            seed,
        );
        let par = ShardedMultiCluster::try_new(
            config,
            topo,
            five_ch_sites(100.0),
            behaviors(100, 25, seed),
            |_| Box::new(BernoulliLoss::new(0.005)),
            seed,
            threads,
        )
        .unwrap();
        (seq, par)
    }

    #[test]
    fn matches_sequential_reference_in_lockstep() {
        for threads in [1, 4] {
            let (mut seq, mut par) = build_pair(42, threads);
            let mut event_rng = SimRng::seed_from(4242);
            for round in 0..30 {
                let event = Point::new(
                    event_rng.uniform_range(0.0, 100.0),
                    event_rng.uniform_range(0.0, 100.0),
                );
                let a = seq.run_event(event);
                let b = par.run_event(event);
                assert_eq!(a, b, "threads={threads} round={round}");
                assert_eq!(
                    seq.trust_snapshot(),
                    par.trust_snapshot(),
                    "threads={threads} round={round}"
                );
                assert_eq!(
                    seq.position_snapshot(),
                    par.position_snapshot(),
                    "threads={threads} round={round}"
                );
                assert_eq!(
                    seq.counters(),
                    par.counters(),
                    "threads={threads} round={round}"
                );
            }
        }
    }

    #[test]
    fn point_lookups_track_handoffs_like_the_sequential_engine() {
        // Drift 0.5 with re-election every 4 rounds moves nodes between
        // clusters; the sharded affiliation map must follow every move,
        // whether rounds run one per epoch or batched.
        for batched in [false, true] {
            let (mut seq, mut par) = build_pair(7, 2);
            let start: Vec<usize> = (0..100).map(|i| seq.cluster_of(NodeId(i))).collect();
            let mut event_rng = SimRng::seed_from(77);
            for round in 0..5 {
                let events: Vec<Point> = (0..4)
                    .map(|_| {
                        Point::new(
                            event_rng.uniform_range(0.0, 100.0),
                            event_rng.uniform_range(0.0, 100.0),
                        )
                    })
                    .collect();
                for &e in &events {
                    seq.run_event(e);
                    if !batched {
                        par.run_event(e);
                    }
                }
                if batched {
                    par.run_events(&events);
                }
                for (i, &bits) in seq.trust_snapshot().iter().enumerate() {
                    let node = NodeId(i);
                    assert_eq!(seq.cluster_of(node), par.cluster_of(node), "round {round} node {i}");
                    assert_eq!(par.trust_counter_of(node).to_bits(), bits);
                    assert_eq!(seq.trust_counter_of(node).to_bits(), bits);
                    assert_eq!(seq.trust_of(node).to_bits(), par.trust_of(node).to_bits());
                }
            }
            assert!(
                (0..100).any(|i| seq.cluster_of(NodeId(i)) != start[i]),
                "the scenario must hand at least one node off"
            );
        }
    }

    #[test]
    fn adaptive_batches_match_per_round_stepping() {
        // run_events (wide adaptive epochs) vs the sequential engine
        // driven round by round — decisions, trust, positions, and
        // counters must be bit-identical.
        for threads in [1, 4] {
            let (mut seq, mut par) = build_pair(11, threads);
            let mut event_rng = SimRng::seed_from(1111);
            let events: Vec<Point> = (0..24)
                .map(|_| {
                    Point::new(
                        event_rng.uniform_range(0.0, 100.0),
                        event_rng.uniform_range(0.0, 100.0),
                    )
                })
                .collect();
            let expected: Vec<MultiRoundResult> =
                events.iter().map(|&e| seq.run_event(e)).collect();
            let got = par.run_events(&events);
            assert_eq!(expected, got, "threads={threads}");
            assert_eq!(seq.trust_snapshot(), par.trust_snapshot(), "threads={threads}");
            assert_eq!(
                seq.position_snapshot(),
                par.position_snapshot(),
                "threads={threads}"
            );
            assert_eq!(seq.counters(), par.counters(), "threads={threads}");
        }
    }

    #[test]
    fn adaptive_batches_cap_without_reelection_boundaries() {
        // With reelect_every == 0 no boundary caps the batch; the
        // MAX_BATCH_ROUNDS guard does, and results still match the
        // per-round path across the cap seam (40 events > 32).
        let config = MultiClusterConfig::paper();
        let topo = Topology::uniform_grid(100, 100.0, 100.0);
        let build = |threads| {
            ShardedMultiCluster::try_new(
                config,
                topo.clone(),
                five_ch_sites(100.0),
                behaviors(100, 25, 5),
                |_| Box::new(BernoulliLoss::new(0.005)),
                5,
                threads,
            )
            .unwrap()
        };
        let mut per_round = build(1);
        let mut batched = build(2);
        let events: Vec<Point> = (0..40)
            .map(|i| Point::new(2.5 * i as f64, 97.5 - 2.0 * i as f64))
            .collect();
        let expected: Vec<MultiRoundResult> =
            events.iter().map(|&e| per_round.run_event(e)).collect();
        assert_eq!(batched.run_events(&events), expected);
        assert_eq!(per_round.trust_snapshot(), batched.trust_snapshot());
    }

    #[test]
    fn run_events_interleaves_with_run_event() {
        // Mixing the two drivers mid-run keeps the trajectory identical:
        // batching is a scheduling choice, not a semantic one.
        let (_, mut reference) = build_pair(9, 1);
        let (_, mut mixed) = build_pair(9, 2);
        let events: Vec<Point> = (0..10).map(|i| Point::new(10.0 * i as f64, 50.0)).collect();
        let mut expected = Vec::new();
        for &e in &events {
            expected.push(reference.run_event(e));
        }
        let mut got = Vec::new();
        got.extend(mixed.run_events(&events[..4]));
        got.push(mixed.run_event(events[4]));
        got.extend(mixed.run_events(&events[5..]));
        assert_eq!(got, expected);
        assert_eq!(reference.trust_snapshot(), mixed.trust_snapshot());
    }

    #[test]
    fn from_sequential_continues_identically() {
        let (mut seq, _) = build_pair(7, 1);
        let (mut reference, _) = build_pair(7, 1);
        for i in 0..10 {
            let event = Point::new(5.0 + 9.0 * i as f64, 50.0);
            seq.run_event(event);
            reference.run_event(event);
        }
        let mut par = ShardedMultiCluster::from_sequential(seq, 2).unwrap();
        for i in 0..10 {
            let event = Point::new(5.0 + 9.0 * i as f64, 30.0);
            assert_eq!(reference.run_event(event), par.run_event(event), "round {i}");
        }
        assert_eq!(reference.trust_snapshot(), par.trust_snapshot());
    }

    #[test]
    fn zero_threads_rejected() {
        let config = MultiClusterConfig::paper();
        let topo = Topology::uniform_grid(100, 100.0, 100.0);
        let err = ShardedMultiCluster::try_new(
            config,
            topo,
            five_ch_sites(100.0),
            behaviors(100, 0, 0),
            |_| Box::new(BernoulliLoss::new(0.0)),
            0,
            0,
        )
        .unwrap_err();
        assert_eq!(err, ShardedError::Shard(ShardError::ZeroThreads));
        assert!(err.to_string().contains("thread"));
    }

    #[test]
    fn cluster_errors_pass_through() {
        let config = MultiClusterConfig::paper();
        let topo = Topology::uniform_grid(100, 100.0, 100.0);
        let err = ShardedMultiCluster::try_new(
            config,
            topo,
            Vec::new(),
            behaviors(100, 0, 0),
            |_| Box::new(BernoulliLoss::new(0.0)),
            0,
            1,
        )
        .unwrap_err();
        assert_eq!(err, ShardedError::Cluster(MultiClusterError::NoClusterHeads));
    }

    #[test]
    fn dispatch_metric_grows() {
        let (_, mut par) = build_pair(3, 2);
        par.run_event(Point::new(50.0, 50.0));
        let after_one = par.events_dispatched();
        assert!(after_one > 0);
        par.run_event(Point::new(25.0, 25.0));
        assert!(par.events_dispatched() > after_one);
    }
}

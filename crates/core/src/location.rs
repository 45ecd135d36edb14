//! Event localization (paper §3.2): clustering of location reports and the
//! trust-weighted decision per candidate event location.
//!
//! Reports arrive as absolute points (the cluster head resolves each
//! node's `(r, θ)` claim against its known position). The CH then:
//!
//! 1. groups the reports into **event clusters** with a K-means-style
//!    heuristic seeded by the farthest pair ([`cluster_reports`]);
//! 2. for each cluster, takes the center of gravity `cg` as the candidate
//!    event location, computes the event neighbors of `cg`, and runs the
//!    trust-weighted R-vs-NR vote ([`decide_located`]);
//! 3. judges supporters/outliers/silent neighbors for trust maintenance
//!    ([`judge_located`]).
//!
//! Reports more than `r_error` from the final `cg` are "thrown out" —
//! their senders are judged faulty even if the event itself is confirmed.
//!
//! All three steps run in one place, [`DecisionScratch::decide`], which
//! writes into buffers the caller keeps across batches: a cluster head
//! that decides every round allocates nothing once its buffers have
//! grown. [`cluster_reports`], [`decide_located`] and [`judge_located`]
//! are allocating views of that one path.

use crate::trust::Judgement;
use crate::vote::{vote_into, VoteOutcome, Weighting};
use tibfit_net::geometry::Point;
use tibfit_net::topology::{NodeId, Topology};

#[cfg(test)]
pub(crate) mod reference;

/// One localized event report, already resolved to absolute coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocatedReport {
    /// The sending node.
    pub reporter: NodeId,
    /// The claimed event location.
    pub location: Point,
}

impl LocatedReport {
    /// Creates a report.
    #[must_use]
    pub fn new(reporter: NodeId, location: Point) -> Self {
        LocatedReport { reporter, location }
    }
}

/// A group of mutually consistent reports — one candidate event.
#[derive(Debug, Clone, PartialEq)]
pub struct EventCluster {
    /// The member reports.
    pub members: Vec<LocatedReport>,
    /// The center of gravity (mean location) of the members — the paper's
    /// `C_k.cg`, i.e. the candidate event location.
    pub cg: Point,
}

/// Maximum refinement rounds before the clustering is forcibly accepted.
/// K-means-style loops converge in a handful of rounds on sensor-report
/// inputs; the cap only guards against pathological oscillation.
const MAX_ROUNDS: usize = 100;

/// Groups location reports into event clusters (paper §3.2).
///
/// The heuristic follows the paper's construction:
///
/// 1. seed centers with the farthest pair of reports (if they are more
///    than `r_error` apart — otherwise everything is one cluster);
/// 2. promote any report farther than `r_error` from every center to a new
///    center;
/// 3. assign each report to its nearest center and recompute centers of
///    gravity;
/// 4. merge centers that fall within `r_error` of each other (weighted by
///    member count) and repeat until membership stabilizes.
///
/// Postconditions (enforced by the property tests): the clusters partition
/// the input, and no two final cluster centers lie within `r_error` of
/// each other.
///
/// # Panics
///
/// Panics if `r_error` is not strictly positive.
///
/// ```rust
/// use tibfit_core::location::{cluster_reports, LocatedReport};
/// use tibfit_net::geometry::Point;
/// use tibfit_net::topology::NodeId;
///
/// let reports = vec![
///     LocatedReport::new(NodeId(0), Point::new(10.0, 10.0)),
///     LocatedReport::new(NodeId(1), Point::new(10.5, 9.5)),
///     LocatedReport::new(NodeId(2), Point::new(80.0, 80.0)),
/// ];
/// let clusters = cluster_reports(&reports, 5.0);
/// assert_eq!(clusters.len(), 2);
/// ```
#[must_use]
pub fn cluster_reports(reports: &[LocatedReport], r_error: f64) -> Vec<EventCluster> {
    let mut scratch = DecisionScratch::default();
    scratch.cluster(reports, r_error);
    let mut start = 0;
    scratch
        .groups
        .iter()
        .map(|&(cg, end)| {
            let members = scratch.order[start..end].iter().map(|&i| reports[i]).collect();
            start = end;
            EventCluster { members, cg }
        })
        .collect()
}

/// The cluster head's decision about one candidate event location.
#[derive(Debug, Clone, PartialEq)]
pub struct LocatedDecision {
    /// The candidate (and, if declared, final) event location.
    pub location: Point,
    /// Whether the event was declared at this location.
    pub event_declared: bool,
    /// The underlying R-vs-NR vote.
    pub vote: VoteOutcome,
    /// Cluster members thrown out for reporting more than `r_error` from
    /// the final center of gravity.
    pub outliers: Vec<NodeId>,
    /// Reporters in this cluster that are not event neighbors of the
    /// candidate location — their reports are false alarms by definition.
    pub non_neighbor_reporters: Vec<NodeId>,
}

/// Runs the full §3.2 decision over one batch of reports (one `T_out`
/// window): cluster, then vote per cluster.
///
/// For each event cluster with center of gravity `cg`:
///
/// * supporters `R` = members within `r_error` of `cg` that are event
///   neighbors of `cg` (sensing radius `r_s`);
/// * `NR` = event neighbors of `cg` that did not support the cluster;
/// * the event is declared at `cg` iff the weighted `R` beats `NR`.
///
/// # Panics
///
/// Panics if `r_s` or `r_error` is not strictly positive.
#[must_use]
pub fn decide_located(
    topo: &Topology,
    r_s: f64,
    r_error: f64,
    reports: &[LocatedReport],
    weighting: &Weighting<'_>,
) -> Vec<LocatedDecision> {
    let mut scratch = DecisionScratch::default();
    scratch.decide(topo, r_s, r_error, reports, weighting);
    scratch.located_decisions()
}

/// Derives per-node judgements from one located decision.
///
/// * event declared: supporters correct; silent neighbors faulty.
/// * event rejected: supporters faulty; silent neighbors correct.
/// * outliers and non-neighbor reporters: always faulty (bad location /
///   false alarm), regardless of the verdict.
#[must_use]
pub fn judge_located(decision: &LocatedDecision) -> Vec<(NodeId, Judgement)> {
    let mut out = Vec::new();
    push_judgements(
        &mut out,
        decision.event_declared,
        &decision.vote.reporters,
        &decision.vote.non_reporters,
        &decision.outliers,
        &decision.non_neighbor_reporters,
    );
    out
}

/// Appends one decision's judgements in their fixed order: winners
/// (correct), then losers, outliers and non-neighbor reporters (faulty).
/// The winners are `R` when the event was declared and `NR` otherwise.
fn push_judgements(
    out: &mut Vec<(NodeId, Judgement)>,
    event_declared: bool,
    reporters: &[NodeId],
    non_reporters: &[NodeId],
    outliers: &[NodeId],
    non_neighbor_reporters: &[NodeId],
) {
    let (winners, losers) = if event_declared {
        (reporters, non_reporters)
    } else {
        (non_reporters, reporters)
    };
    out.extend(winners.iter().map(|&n| (n, Judgement::Correct)));
    for group in [losers, outliers, non_neighbor_reporters] {
        out.extend(group.iter().map(|&n| (n, Judgement::Faulty)));
    }
}

/// One candidate event's decision as [`DecisionScratch`] holds it: the
/// vote's outcome, and where its judgements lie in
/// [`DecisionScratch::judgements`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decided {
    /// The candidate (and, if declared, final) event location.
    pub location: Point,
    /// Whether the event was declared at this location.
    pub event_declared: bool,
    /// Cumulative weight of the reporting group `R`.
    pub reporting_weight: f64,
    /// Cumulative weight of the non-reporting group `NR`.
    pub non_reporting_weight: f64,
    /// First judgement of this decision.
    start: usize,
    /// `|R|`, `|NR|`, outliers and non-neighbor reporters: the group
    /// sizes, in the order [`judge_located`] lists them after swapping
    /// `R` and `NR` for a rejected event.
    reporters: usize,
    non_reporters: usize,
    outliers: usize,
    non_neighbor_reporters: usize,
}

/// Event clusters per batch that [`DecisionScratch::reserve_members`]
/// leaves room to judge. Busy mobile fields see up to six.
pub const JUDGED_CLUSTERS: usize = 7;

/// Mark bits over dense local node ids, one byte per node.
const NEIGHBOR: u8 = 1;
const SUPPORTER: u8 = 2;

/// The §3.2 decision path's working memory, kept by the caller across
/// batches so that a decision allocates nothing once the buffers have
/// grown to the largest batch seen.
///
/// [`DecisionScratch::decide`] clusters a batch, votes per cluster and
/// lists the judgements, with exactly the float operations, in the
/// order, of [`decide_located`] followed by [`judge_located`] per
/// decision. Node ids are dense indices into the topology: membership
/// tests read a mark array, not a list.
#[derive(Debug, Default)]
pub struct DecisionScratch {
    /// Current K-means centers and the next round's, with the next
    /// round's member counts (the merge weights).
    centers: Vec<Point>,
    next_centers: Vec<Point>,
    weights: Vec<f64>,
    /// Nearest center per report, this round and the previous one.
    assignment: Vec<usize>,
    prev_assignment: Vec<usize>,
    /// Per center: coordinate sums and member count.
    sums: Vec<(f64, f64, u32)>,
    /// Report indices grouped by event cluster, report order within
    /// each group.
    order: Vec<usize>,
    /// Per event cluster: its center of gravity and the end of its
    /// members in `order`.
    groups: Vec<(Point, usize)>,
    /// Event neighbors of the cluster being decided.
    neighbors: Vec<NodeId>,
    /// [`NEIGHBOR`] and [`SUPPORTER`] bits per local id; all zero
    /// between clusters.
    marks: Vec<u8>,
    /// The cluster being decided, split four ways.
    reporters: Vec<NodeId>,
    non_reporters: Vec<NodeId>,
    outliers: Vec<NodeId>,
    non_neighbor_reporters: Vec<NodeId>,
    decisions: Vec<Decided>,
    judgements: Vec<(NodeId, Judgement)>,
}

/// Grows `v`'s capacity to at least `cap` without doubling.
fn reserve_to<T>(v: &mut Vec<T>, cap: usize) {
    v.reserve_exact(cap.saturating_sub(v.len()));
}

impl DecisionScratch {
    /// Grows every buffer to what a batch from a cluster of `members`
    /// nodes needs (at most one report per member), without doubling.
    /// A decision judges its neighbors (at most `members`) and its own
    /// reports, so a head that calls this whenever its cluster may have
    /// grown never allocates in [`Self::decide`] on a batch of up to
    /// [`JUDGED_CLUSTERS`] event clusters; a batch of more grows the
    /// judgement list.
    pub fn reserve_members(&mut self, members: usize) {
        for v in [&mut self.centers, &mut self.next_centers] {
            reserve_to(v, members);
        }
        reserve_to(&mut self.weights, members);
        for v in [&mut self.assignment, &mut self.prev_assignment, &mut self.order] {
            reserve_to(v, members);
        }
        reserve_to(&mut self.sums, members);
        reserve_to(&mut self.groups, members);
        reserve_to(&mut self.decisions, members);
        for v in [
            &mut self.neighbors,
            &mut self.reporters,
            &mut self.non_reporters,
            &mut self.outliers,
            &mut self.non_neighbor_reporters,
        ] {
            reserve_to(v, members);
        }
        if self.marks.len() < members {
            reserve_to(&mut self.marks, members);
            self.marks.resize(members, 0);
        }
        reserve_to(&mut self.judgements, (JUDGED_CLUSTERS + 1) * members);
    }

    /// Decisions of the last [`Self::decide`], one per event cluster in
    /// cluster order.
    #[must_use]
    pub fn decisions(&self) -> &[Decided] {
        &self.decisions
    }

    /// Judgements of the last [`Self::decide`]: each decision's
    /// [`judge_located`] list, in decision order.
    #[must_use]
    pub fn judgements(&self) -> &[(NodeId, Judgement)] {
        &self.judgements
    }

    /// The last [`Self::decide`]'s decisions in [`decide_located`]'s
    /// allocating form.
    #[must_use]
    pub(crate) fn located_decisions(&self) -> Vec<LocatedDecision> {
        self.decisions
            .iter()
            .map(|d| {
                let ids = |from: usize, len: usize| -> Vec<NodeId> {
                    self.judgements[from..from + len].iter().map(|&(n, _)| n).collect()
                };
                // The winners come first: R if declared, NR if not.
                let (reporters, non_reporters) = if d.event_declared {
                    (ids(d.start, d.reporters), ids(d.start + d.reporters, d.non_reporters))
                } else {
                    (ids(d.start + d.non_reporters, d.reporters), ids(d.start, d.non_reporters))
                };
                let rest = d.start + d.reporters + d.non_reporters;
                LocatedDecision {
                    location: d.location,
                    event_declared: d.event_declared,
                    vote: VoteOutcome {
                        event_declared: d.event_declared,
                        reporting_weight: d.reporting_weight,
                        non_reporting_weight: d.non_reporting_weight,
                        reporters,
                        non_reporters,
                    },
                    outliers: ids(rest, d.outliers),
                    non_neighbor_reporters: ids(rest + d.outliers, d.non_neighbor_reporters),
                }
            })
            .collect()
    }

    /// Runs the full §3.2 decision over one batch, as [`decide_located`]
    /// then [`judge_located`] per decision, into this scratch
    /// ([`Self::decisions`], [`Self::judgements`]). Trust is read through
    /// `weighting` exactly as often as that path reads it.
    ///
    /// # Panics
    ///
    /// Panics if `r_s` or `r_error` is not strictly positive.
    pub fn decide(
        &mut self,
        topo: &Topology,
        r_s: f64,
        r_error: f64,
        reports: &[LocatedReport],
        weighting: &Weighting<'_>,
    ) {
        assert!(r_s > 0.0, "sensing radius must be positive");
        self.cluster(reports, r_error);
        self.decisions.clear();
        self.judgements.clear();
        if self.marks.len() < topo.len() {
            self.marks.resize(topo.len(), 0);
        }
        let mut start = 0;
        for &(cg, end) in &self.groups {
            topo.event_neighbors_into(cg, r_s, &mut self.neighbors);
            for n in &self.neighbors {
                self.marks[n.index()] = NEIGHBOR;
            }
            self.outliers.clear();
            self.non_neighbor_reporters.clear();
            for &i in &self.order[start..end] {
                let m = reports[i];
                if m.location.distance_to(cg) > r_error {
                    self.outliers.push(m.reporter);
                } else if let Some(mark) = self
                    .marks
                    .get_mut(m.reporter.index())
                    .filter(|mark| **mark & NEIGHBOR != 0)
                {
                    *mark |= SUPPORTER;
                } else {
                    self.non_neighbor_reporters.push(m.reporter);
                }
            }
            start = end;
            let marks = &self.marks;
            let (event_declared, rw, nrw) = vote_into(
                &self.neighbors,
                |n| marks[n.index()] & SUPPORTER != 0,
                weighting,
                &mut self.reporters,
                &mut self.non_reporters,
            );
            for n in &self.neighbors {
                self.marks[n.index()] = 0;
            }
            self.decisions.push(Decided {
                location: cg,
                event_declared,
                reporting_weight: rw,
                non_reporting_weight: nrw,
                start: self.judgements.len(),
                reporters: self.reporters.len(),
                non_reporters: self.non_reporters.len(),
                outliers: self.outliers.len(),
                non_neighbor_reporters: self.non_neighbor_reporters.len(),
            });
            push_judgements(
                &mut self.judgements,
                event_declared,
                &self.reporters,
                &self.non_reporters,
                &self.outliers,
                &self.non_neighbor_reporters,
            );
        }
    }

    /// Groups `reports` into event clusters ([`cluster_reports`]):
    /// fills `order` and `groups`.
    fn cluster(&mut self, reports: &[LocatedReport], r_error: f64) {
        assert!(
            r_error.is_finite() && r_error > 0.0,
            "r_error must be positive, got {r_error}"
        );
        self.order.clear();
        self.groups.clear();
        if reports.is_empty() {
            return;
        }
        // Step 1-2: farthest pair as seeds. A single report, or reports
        // all within r_error of each other, make one cluster.
        let (i1, i2, max_d) = farthest_pair(reports);
        let n_centers = if max_d <= r_error {
            self.assignment.clear();
            self.assignment.resize(reports.len(), 0);
            1
        } else {
            self.centers.clear();
            self.centers.extend([reports[i1].location, reports[i2].location]);
            // Step 3: promote far-out reports to centers so every report
            // is within r_error of at least one center.
            for rep in reports {
                let covered = self
                    .centers
                    .iter()
                    .any(|c| c.distance_to(rep.location) <= r_error);
                if !covered {
                    self.centers.push(rep.location);
                }
            }
            // Steps 4-5: assign → recompute cg → merge close centers →
            // repeat until the centers and the assignment hold still.
            self.prev_assignment.clear();
            for _ in 0..MAX_ROUNDS {
                assign_to_nearest(reports, &self.centers, &mut self.assignment);
                sum_members(reports, &self.assignment, self.centers.len(), &mut self.sums);
                self.next_centers.clear();
                self.weights.clear();
                for &(sx, sy, n) in &self.sums {
                    if n > 0 {
                        self.next_centers.push(Point::new(sx / n as f64, sy / n as f64));
                        self.weights.push(n as f64);
                    }
                }
                merge_close_centers(&mut self.next_centers, &mut self.weights, r_error);
                let stable = self.next_centers.len() == self.centers.len()
                    && self.assignment == self.prev_assignment;
                std::mem::swap(&mut self.centers, &mut self.next_centers);
                if stable {
                    break;
                }
                std::mem::swap(&mut self.assignment, &mut self.prev_assignment);
            }
            // Final assignment against the converged centers.
            assign_to_nearest(reports, &self.centers, &mut self.assignment);
            self.centers.len()
        };
        // One event cluster per non-empty center, in center order; its
        // center of gravity is the mean of its members in report order.
        sum_members(reports, &self.assignment, n_centers, &mut self.sums);
        for (c, &(sx, sy, n)) in self.sums.iter().enumerate() {
            if n > 0 {
                let assignment = &self.assignment;
                self.order
                    .extend((0..reports.len()).filter(|&i| assignment[i] == c));
                let cg = Point::new(sx / n as f64, sy / n as f64);
                self.groups.push((cg, self.order.len()));
            }
        }
    }
}

/// Returns `(i, j, distance)` for the farthest pair of reports (the
/// first pair by strict `>` over Euclidean distances), `(0, 0, -1.0)`
/// for fewer than two.
fn farthest_pair(reports: &[LocatedReport]) -> (usize, usize, f64) {
    let mut best = (0, 0, -1.0);
    for i in 0..reports.len() {
        for j in (i + 1)..reports.len() {
            let d = reports[i].location.distance_to(reports[j].location);
            if d > best.2 {
                best = (i, j, d);
            }
        }
    }
    best
}

/// Each report's nearest center, the lowest index among equals (as
/// `Iterator::min_by` keeps the first minimum).
fn assign_to_nearest(reports: &[LocatedReport], centers: &[Point], out: &mut Vec<usize>) {
    out.clear();
    out.extend(reports.iter().map(|rep| {
        let mut best = 0;
        for i in 1..centers.len() {
            let closer = centers[best]
                .distance_sq(rep.location)
                .partial_cmp(&centers[i].distance_sq(rep.location))
                .expect("finite distances");
            if closer == std::cmp::Ordering::Greater {
                best = i;
            }
        }
        best
    }));
}

/// Per center: the coordinate sums (in report order, from `0.0`) and
/// member count of the reports assigned to it.
fn sum_members(
    reports: &[LocatedReport],
    assignment: &[usize],
    n_centers: usize,
    sums: &mut Vec<(f64, f64, u32)>,
) {
    sums.clear();
    sums.resize(n_centers, (0.0, 0.0, 0));
    for (rep, &c) in reports.iter().zip(assignment) {
        sums[c].0 += rep.location.x;
        sums[c].1 += rep.location.y;
        sums[c].2 += 1;
    }
}

/// Repeatedly merges the closest pair of centers lying within `r_error`
/// (the first such pair among equals), replacing them with their
/// weighted average (paper step 5).
fn merge_close_centers(centers: &mut Vec<Point>, weights: &mut Vec<f64>, r_error: f64) {
    loop {
        let mut closest: Option<(usize, usize, f64)> = None;
        for i in 0..centers.len() {
            for j in (i + 1)..centers.len() {
                let d = centers[i].distance_to(centers[j]);
                if d <= r_error && closest.is_none_or(|(_, _, bd)| d < bd) {
                    closest = Some((i, j, d));
                }
            }
        }
        let Some((i, j, _)) = closest else {
            return;
        };
        let merged = Point::weighted_centroid(&[(centers[i], weights[i]), (centers[j], weights[j])])
            .expect("positive weights");
        let w = weights[i] + weights[j];
        // Remove j first (j > i) to keep indices valid.
        centers.remove(j);
        weights.remove(j);
        centers[i] = merged;
        weights[i] = w;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trust::{TrustParams, TrustTable};

    fn rep(id: usize, x: f64, y: f64) -> LocatedReport {
        LocatedReport::new(NodeId(id), Point::new(x, y))
    }

    #[test]
    fn empty_input_no_clusters() {
        assert!(cluster_reports(&[], 5.0).is_empty());
    }

    #[test]
    fn single_report_single_cluster() {
        let c = cluster_reports(&[rep(0, 3.0, 4.0)], 5.0);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].cg, Point::new(3.0, 4.0));
    }

    #[test]
    fn tight_reports_form_one_cluster() {
        let reports = vec![rep(0, 10.0, 10.0), rep(1, 11.0, 10.0), rep(2, 10.0, 11.0)];
        let c = cluster_reports(&reports, 5.0);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].members.len(), 3);
    }

    #[test]
    fn distant_groups_split() {
        let reports = vec![
            rep(0, 0.0, 0.0),
            rep(1, 1.0, 0.0),
            rep(2, 50.0, 50.0),
            rep(3, 51.0, 50.0),
        ];
        let c = cluster_reports(&reports, 5.0);
        assert_eq!(c.len(), 2);
        for cluster in &c {
            assert_eq!(cluster.members.len(), 2);
        }
    }

    #[test]
    fn clusters_partition_input() {
        let reports: Vec<LocatedReport> = (0..20)
            .map(|i| rep(i, (i as f64 * 7.3) % 100.0, (i as f64 * 13.1) % 100.0))
            .collect();
        let clusters = cluster_reports(&reports, 8.0);
        let total: usize = clusters.iter().map(|c| c.members.len()).sum();
        assert_eq!(total, 20);
        let mut seen: Vec<usize> = clusters
            .iter()
            .flat_map(|c| c.members.iter().map(|m| m.reporter.index()))
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn final_centers_separated() {
        let reports: Vec<LocatedReport> = (0..30)
            .map(|i| rep(i, (i as f64 * 17.7) % 100.0, (i as f64 * 5.9) % 100.0))
            .collect();
        let clusters = cluster_reports(&reports, 10.0);
        for (i, a) in clusters.iter().enumerate() {
            for b in clusters.iter().skip(i + 1) {
                assert!(
                    a.cg.distance_to(b.cg) > 10.0 * 0.5,
                    "centers too close: {} vs {}",
                    a.cg,
                    b.cg
                );
            }
        }
    }

    #[test]
    fn outlier_forms_own_cluster() {
        let reports = vec![rep(0, 0.0, 0.0), rep(1, 0.5, 0.5), rep(2, 30.0, 0.0)];
        let c = cluster_reports(&reports, 5.0);
        assert_eq!(c.len(), 2);
        let singleton = c.iter().find(|cl| cl.members.len() == 1).unwrap();
        assert_eq!(singleton.members[0].reporter, NodeId(2));
    }

    #[test]
    #[should_panic(expected = "r_error must be positive")]
    fn rejects_nonpositive_r_error() {
        let _ = cluster_reports(&[], 0.0);
    }

    // ---- decide_located ----

    fn grid_topo() -> Topology {
        Topology::uniform_grid(100, 100.0, 100.0)
    }

    #[test]
    fn unanimous_reports_declare_event() {
        let topo = grid_topo();
        let event = Point::new(50.0, 50.0);
        let neighbors = topo.event_neighbors(event, 20.0);
        let reports: Vec<LocatedReport> = neighbors
            .iter()
            .map(|&n| LocatedReport::new(n, event))
            .collect();
        let decisions = decide_located(&topo, 20.0, 5.0, &reports, &Weighting::Uniform);
        assert_eq!(decisions.len(), 1);
        assert!(decisions[0].event_declared);
        assert!(decisions[0].location.distance_to(event) < 1e-9);
    }

    #[test]
    fn minority_fake_cluster_rejected() {
        let topo = grid_topo();
        let fake = Point::new(20.0, 20.0);
        // Only 2 nodes "report" the fake event; its neighborhood is larger.
        let reports = vec![
            LocatedReport::new(NodeId(0), fake),
            LocatedReport::new(NodeId(1), fake),
        ];
        let n_neighbors = topo.event_neighbors(fake, 20.0).len();
        assert!(n_neighbors > 4, "need a real neighborhood for this test");
        let decisions = decide_located(&topo, 20.0, 5.0, &reports, &Weighting::Uniform);
        assert_eq!(decisions.len(), 1);
        assert!(!decisions[0].event_declared);
    }

    #[test]
    fn outlier_reporter_thrown_out_and_judged() {
        let topo = grid_topo();
        let event = Point::new(55.0, 55.0);
        let neighbors = topo.event_neighbors(event, 20.0);
        // Everyone reports accurately except one wildly-off neighbor whose
        // report still lands in the same cluster envelope.
        let mut reports: Vec<LocatedReport> = neighbors
            .iter()
            .map(|&n| LocatedReport::new(n, event))
            .collect();
        let bad = neighbors[0];
        reports[0] = LocatedReport::new(bad, event.offset(4.9, 0.0));
        let decisions = decide_located(&topo, 20.0, 5.0, &reports, &Weighting::Uniform);
        assert_eq!(decisions.len(), 1);
        // The off report is within r_error of cg here (many accurate
        // reports pull cg to the event), so it still supports. Push it out:
        let mut reports2: Vec<LocatedReport> = neighbors
            .iter()
            .map(|&n| LocatedReport::new(n, event))
            .collect();
        reports2[0] = LocatedReport::new(bad, event.offset(7.0, 0.0));
        let decisions2 = decide_located(&topo, 20.0, 5.0, &reports2, &Weighting::Uniform);
        // Either the bad report forms its own cluster or is an outlier;
        // in both cases the event is still declared near the truth.
        let declared: Vec<&LocatedDecision> =
            decisions2.iter().filter(|d| d.event_declared).collect();
        assert_eq!(declared.len(), 1);
        assert!(declared[0].location.distance_to(event) <= 5.0);
        let _ = decisions;
    }

    #[test]
    fn judgements_penalize_silent_neighbors_on_declared_event() {
        let topo = grid_topo();
        let event = Point::new(50.0, 50.0);
        let neighbors = topo.event_neighbors(event, 20.0);
        // All but one neighbor report.
        let silent = neighbors[0];
        let reports: Vec<LocatedReport> = neighbors[1..]
            .iter()
            .map(|&n| LocatedReport::new(n, event))
            .collect();
        let decisions = decide_located(&topo, 20.0, 5.0, &reports, &Weighting::Uniform);
        assert!(decisions[0].event_declared);
        let judgements = judge_located(&decisions[0]);
        assert!(judgements.contains(&(silent, Judgement::Faulty)));
        for &n in &neighbors[1..] {
            assert!(judgements.contains(&(n, Judgement::Correct)));
        }
    }

    #[test]
    fn trust_weighting_defeats_colluding_majority() {
        // Colluders (with decayed trust) all report a common fake location
        // while honest nodes report the real one. TIBFIT must pick the
        // real event and reject the fake one.
        let topo = grid_topo();
        let params = TrustParams::experiment2();
        let mut table = TrustTable::new(params, topo.len());
        let real = Point::new(30.0, 30.0);
        let fake = Point::new(70.0, 70.0);
        let real_neighbors = topo.event_neighbors(real, 20.0);
        let fake_neighbors = topo.event_neighbors(fake, 20.0);
        // Make most fake-neighborhood nodes colluders with low trust.
        let colluders: Vec<NodeId> = fake_neighbors
            .iter()
            .copied()
            .take(fake_neighbors.len() * 2 / 3)
            .collect();
        for &c in &colluders {
            for _ in 0..12 {
                table.record_faulty(c);
            }
        }
        let mut reports: Vec<LocatedReport> = real_neighbors
            .iter()
            .filter(|n| !colluders.contains(n))
            .map(|&n| LocatedReport::new(n, real))
            .collect();
        reports.extend(colluders.iter().map(|&c| LocatedReport::new(c, fake)));
        let decisions =
            decide_located(&topo, 20.0, 5.0, &reports, &Weighting::Trust(&table));
        let real_decision = decisions
            .iter()
            .find(|d| d.location.distance_to(real) <= 5.0)
            .expect("real cluster exists");
        let fake_decision = decisions
            .iter()
            .find(|d| d.location.distance_to(fake) <= 5.0)
            .expect("fake cluster exists");
        assert!(real_decision.event_declared, "real event missed");
        assert!(!fake_decision.event_declared, "fake event accepted");
    }

    #[test]
    fn baseline_falls_to_colluding_majority() {
        // Same scenario as above but with uniform weighting: the fake
        // cluster wins its neighborhood because colluders are the majority
        // there — demonstrating why the baseline breaks down.
        let topo = grid_topo();
        let fake = Point::new(70.0, 70.0);
        let fake_neighbors = topo.event_neighbors(fake, 20.0);
        let colluders: Vec<NodeId> = fake_neighbors
            .iter()
            .copied()
            .take(fake_neighbors.len() * 2 / 3 + 1)
            .collect();
        let reports: Vec<LocatedReport> = colluders
            .iter()
            .map(|&c| LocatedReport::new(c, fake))
            .collect();
        let decisions = decide_located(&topo, 20.0, 5.0, &reports, &Weighting::Uniform);
        assert!(decisions[0].event_declared, "baseline should be fooled");
    }

    #[test]
    fn batched_decisions_match_per_cluster_vote_bitwise() {
        // decide_located over a whole T_out batch must reproduce the
        // per-cluster run_vote path exactly — same partition, same
        // weights bitwise, same ti_reads — across a multi-cluster window
        // with quarantined nodes, outliers, and false alarms.
        use crate::vote::run_vote;
        let topo = grid_topo();
        let params = TrustParams::experiment2();
        let mut table = TrustTable::new(params, topo.len()).with_isolation_threshold(0.05);
        let real = Point::new(30.0, 30.0);
        let fake = Point::new(70.0, 70.0);
        let real_neighbors = topo.event_neighbors(real, 20.0);
        let fake_neighbors = topo.event_neighbors(fake, 20.0);
        for (k, &n) in fake_neighbors.iter().enumerate() {
            for _ in 0..(k % 14) {
                table.record_faulty(n); // some decay to quarantine
            }
        }
        let mut reports: Vec<LocatedReport> = real_neighbors
            .iter()
            .map(|&n| LocatedReport::new(n, real))
            .collect();
        reports.extend(fake_neighbors.iter().map(|&n| LocatedReport::new(n, fake)));
        // An outlier and a non-neighbor false alarm in the real cluster.
        reports[0] = LocatedReport::new(real_neighbors[0], real.offset(4.9, 0.0));
        reports.push(LocatedReport::new(NodeId(0), real.offset(0.1, 0.0)));

        for weighting in [Weighting::Trust(&table), Weighting::Uniform] {
            let reads_before = table.ti_reads();
            let decisions = decide_located(&topo, 20.0, 5.0, &reports, &weighting);
            let batched_reads = table.ti_reads() - reads_before;
            assert!(decisions.len() >= 2, "expected multiple clusters");

            // Oracle: re-derive each decision with the single-cluster
            // run_vote primitive over the same partition.
            let clusters = cluster_reports(&reports, 5.0);
            assert_eq!(clusters.len(), decisions.len());
            let reads_before = table.ti_reads();
            for (cluster, got) in clusters.iter().zip(&decisions) {
                let neighbors = topo.event_neighbors(cluster.cg, 20.0);
                let mut supporters = Vec::new();
                let mut outliers = Vec::new();
                let mut nnr = Vec::new();
                for m in &cluster.members {
                    if m.location.distance_to(cluster.cg) > 5.0 {
                        outliers.push(m.reporter);
                    } else if neighbors.contains(&m.reporter) {
                        supporters.push(m.reporter);
                    } else {
                        nnr.push(m.reporter);
                    }
                }
                let vote = run_vote(&neighbors, &supporters, &weighting);
                assert_eq!(got.vote.reporters, vote.reporters);
                assert_eq!(got.vote.non_reporters, vote.non_reporters);
                assert_eq!(
                    got.vote.reporting_weight.to_bits(),
                    vote.reporting_weight.to_bits()
                );
                assert_eq!(
                    got.vote.non_reporting_weight.to_bits(),
                    vote.non_reporting_weight.to_bits()
                );
                assert_eq!(got.event_declared, vote.event_declared);
                assert_eq!(got.outliers, outliers);
                assert_eq!(got.non_neighbor_reporters, nnr);
            }
            let oracle_reads = table.ti_reads() - reads_before;
            assert_eq!(batched_reads, oracle_reads, "ti_reads accounting diverged");
        }
    }

    // ---- the one decision path against the allocating reference ----

    use tibfit_sim::rng::SimRng;

    /// A seeded batch of one of six shapes over a `side`×`side` field of
    /// `n` nodes: 0, 1, 2 or many scattered reports; many within
    /// `r_error / 2` of one point; honest neighbors near an event plus
    /// far-out liars; reports on three shared points with repeated
    /// reporters; and lattice-exact ties, where reports lie exactly
    /// equidistant from two centers that are too far apart to merge.
    fn seeded_batch(rng: &mut SimRng, shape: usize, topo: &Topology, r_error: f64) -> Vec<LocatedReport> {
        let n = topo.len();
        let side = topo.width();
        let node = |rng: &mut SimRng| NodeId(rng.uniform_usize(n));
        let anywhere = |rng: &mut SimRng| {
            Point::new(rng.uniform_range(0.0, side), rng.uniform_range(0.0, side))
        };
        match shape {
            0..=3 => {
                let count = [0, 1, 2, 3 + rng.uniform_usize(60)][shape];
                (0..count)
                    .map(|_| LocatedReport::new(node(rng), anywhere(rng)))
                    .collect()
            }
            4 => {
                let at = anywhere(rng);
                (0..2 + rng.uniform_usize(40))
                    .map(|_| {
                        let d = rng.uniform_range(0.0, r_error / 2.0);
                        let a = rng.uniform_range(0.0, std::f64::consts::TAU);
                        LocatedReport::new(node(rng), at.offset(d * a.cos(), d * a.sin()))
                    })
                    .collect()
            }
            5 => {
                let event = anywhere(rng);
                let mut reports = Vec::new();
                for id in topo.event_neighbors(event, 20.0) {
                    if rng.chance(0.8) {
                        let at = event.offset(rng.normal(0.0, 1.6), rng.normal(0.0, 1.6));
                        reports.push(LocatedReport::new(id, at));
                    }
                }
                for _ in 0..rng.uniform_usize(12) {
                    let liar = LocatedReport::new(node(rng), anywhere(rng));
                    let at = rng.uniform_usize(reports.len() + 1);
                    reports.insert(at, liar);
                }
                reports
            }
            6 => {
                let spots = [anywhere(rng), anywhere(rng), anywhere(rng)];
                let few = 1 + rng.uniform_usize(n.min(8));
                (0..2 + rng.uniform_usize(30))
                    .map(|_| LocatedReport::new(NodeId(rng.uniform_usize(few)), spots[rng.uniform_usize(3)]))
                    .collect()
            }
            _ => {
                // Exact ties at r_error = 5, on integer or half-integer
                // coordinates. Either groups at x0 and x0+8 that never
                // merge (8 > 5), with reports at (x0+4, y0) and
                // (x0+4, y0±3) exactly 4 and 5 from both; or reports at
                // x0 + {0, 1, 5.5, 10, 11}, whose first centers of
                // gravity, x0 + {0.5, 5.5, 10.5}, are two merge pairs
                // exactly r_error apart.
                let x0 = (8 + rng.uniform_usize(60)) as f64;
                let y0 = (8 + rng.uniform_usize(60)) as f64;
                let mut spots: Vec<Point> = if rng.chance(0.5) {
                    vec![
                        Point::new(x0, y0),
                        Point::new(x0 + 8.0, y0),
                        Point::new(x0 + 4.0, y0),
                        Point::new(x0 + 4.0, y0 + 3.0),
                        Point::new(x0 + 4.0, y0 - 3.0),
                    ]
                } else {
                    [0.0, 1.0, 5.5, 10.0, 11.0]
                        .iter()
                        .map(|dx| Point::new(x0 + dx, y0))
                        .collect()
                };
                rng.shuffle(&mut spots);
                let count = spots.len() * (1 + rng.uniform_usize(3));
                (0..count)
                    .map(|k| LocatedReport::new(node(rng), spots[k % spots.len()]))
                    .collect()
            }
        }
    }

    fn bits(p: Point) -> (u64, u64) {
        (p.x.to_bits(), p.y.to_bits())
    }

    /// Decisions equal field by field, floats bit for bit.
    fn assert_same_decisions(got: &[LocatedDecision], want: &[LocatedDecision], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: decision count");
        for (k, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(bits(g.location), bits(w.location), "{what}: decision {k} location");
            assert_eq!(g.event_declared, w.event_declared, "{what}: decision {k}");
            assert_eq!(g.vote.event_declared, w.vote.event_declared, "{what}: decision {k}");
            assert_eq!(
                g.vote.reporting_weight.to_bits(),
                w.vote.reporting_weight.to_bits(),
                "{what}: decision {k} R weight"
            );
            assert_eq!(
                g.vote.non_reporting_weight.to_bits(),
                w.vote.non_reporting_weight.to_bits(),
                "{what}: decision {k} NR weight"
            );
            assert_eq!(g.vote.reporters, w.vote.reporters, "{what}: decision {k} R");
            assert_eq!(g.vote.non_reporters, w.vote.non_reporters, "{what}: decision {k} NR");
            assert_eq!(g.outliers, w.outliers, "{what}: decision {k} outliers");
            assert_eq!(
                g.non_neighbor_reporters, w.non_neighbor_reporters,
                "{what}: decision {k} non-neighbor reporters"
            );
        }
    }

    #[test]
    fn decision_path_matches_the_allocating_reference() {
        // One scratch across every batch, so a stale buffer would show.
        let mut scratch = DecisionScratch::default();
        let mut shapes_seen = [0usize; 8];
        let mut quarantined_votes = 0;
        for seed in 0..400u64 {
            let mut rng = SimRng::seed_from(seed ^ 0xD1FF);
            let shape = (seed % 8) as usize;
            let n = [25, 64, 100, 144][rng.uniform_usize(4)];
            let side = 100.0;
            let topo = if rng.chance(0.5) {
                Topology::uniform_grid(n, side, side)
            } else {
                let positions = (0..n)
                    .map(|_| Point::new(rng.uniform_range(0.0, side), rng.uniform_range(0.0, side)))
                    .collect();
                Topology::from_positions(positions, side, side)
            };
            let r_error = if shape == 7 { 5.0 } else { [2.0, 5.0, 12.0][rng.uniform_usize(3)] };
            let r_s = [10.0, 20.0, 35.0][rng.uniform_usize(3)];
            let reports = seeded_batch(&mut rng, shape, &topo, r_error);
            shapes_seen[shape] += 1;

            // A table with decayed and quarantined (−0.0 weight) members.
            let params = TrustParams::new(rng.uniform_range(0.05, 1.0), 0.1);
            let mut table = TrustTable::new(params, n).with_isolation_threshold(0.3);
            for i in 0..n {
                for _ in 0..rng.uniform_usize(6) {
                    table.record_faulty(NodeId(i));
                }
            }
            quarantined_votes += usize::from(!table.isolated_nodes().is_empty());
            let what = format!("seed {seed} shape {shape} {} reports", reports.len());

            // Clustering alone.
            let got = cluster_reports(&reports, r_error);
            let want = reference::cluster_reports(&reports, r_error);
            assert_eq!(got.len(), want.len(), "{what}: clusters");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(bits(g.cg), bits(w.cg), "{what}: cg");
                assert_eq!(g.members, w.members, "{what}: members");
            }

            for trust in [true, false] {
                let (mut ours, mut theirs) = (table.clone(), table.clone());
                let what = format!("{what} trust={trust}");
                scratch.decide(&topo, r_s, r_error, &reports, &weigh(&ours, trust));
                let want = reference::decide_located(&topo, r_s, r_error, &reports, &weigh(&theirs, trust));
                assert_same_decisions(&scratch.located_decisions(), &want, &what);
                let want_judged: Vec<(NodeId, Judgement)> =
                    want.iter().flat_map(reference::judge_located).collect();
                assert_eq!(scratch.judgements(), &want_judged[..], "{what}: judgement order");
                assert_eq!(ours.ti_reads(), theirs.ti_reads(), "{what}: ti_reads");
                // The allocating wrappers are views of the same path.
                let wrapped = decide_located(&topo, r_s, r_error, &reports, &weigh(&table, trust));
                assert_same_decisions(&wrapped, &want, &what);
                let judged: Vec<(NodeId, Judgement)> = wrapped.iter().flat_map(judge_located).collect();
                assert_eq!(judged, want_judged, "{what}: judge_located");
                ours.apply_judgements(scratch.judgements());
                theirs.apply_judgements(&want_judged);
                assert_eq!(ours.exp_evals(), theirs.exp_evals(), "{what}: exp_evals");
                let (a, b) = (ours.export_state(), theirs.export_state());
                for (x, y) in [(&a.counters, &b.counters), (&a.cached_ti, &b.cached_ti)] {
                    let x: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
                    let y: Vec<u64> = y.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(x, y, "{what}: trust state");
                }
                assert_eq!(a.status, b.status, "{what}: statuses");
            }
        }
        assert!(shapes_seen.iter().all(|&k| k > 0));
        assert!(quarantined_votes > 100, "quarantine too rare: {quarantined_votes}");
    }

    fn weigh(table: &TrustTable, trust: bool) -> Weighting<'_> {
        if trust {
            Weighting::Trust(table)
        } else {
            Weighting::Uniform
        }
    }

    #[test]
    fn run_vote_matches_the_contains_reference() {
        let mut rng = SimRng::seed_from(0x707E);
        let params = TrustParams::new(0.5, 0.1);
        let mut table = TrustTable::new(params, 40).with_isolation_threshold(0.4);
        for i in 0..40 {
            for _ in 0..(i % 4) {
                table.record_faulty(NodeId(i));
            }
        }
        for _ in 0..300 {
            let neighbors: Vec<NodeId> = (0..rng.uniform_usize(30)).map(|_| NodeId(rng.uniform_usize(40))).collect();
            // Reporters include non-neighbors and ids past every neighbor.
            let reporters: Vec<NodeId> = (0..rng.uniform_usize(30)).map(|_| NodeId(rng.uniform_usize(60))).collect();
            for weighting in [Weighting::Trust(&table), Weighting::Uniform] {
                let before = table.ti_reads();
                let got = crate::vote::run_vote(&neighbors, &reporters, &weighting);
                let mid = table.ti_reads();
                let want = reference::run_vote(&neighbors, &reporters, &weighting);
                assert_eq!(mid - before, table.ti_reads() - mid, "ti_reads");
                assert_eq!(got.reporters, want.reporters);
                assert_eq!(got.non_reporters, want.non_reporters);
                assert_eq!(got.event_declared, want.event_declared);
                assert_eq!(got.reporting_weight.to_bits(), want.reporting_weight.to_bits());
                assert_eq!(got.non_reporting_weight.to_bits(), want.non_reporting_weight.to_bits());
            }
        }
    }
}

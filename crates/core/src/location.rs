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

use crate::trust::Judgement;
use crate::vote::{run_vote, VoteOutcome, Weighting};
use tibfit_net::geometry::Point;
use tibfit_net::topology::{NodeId, Topology};

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

impl EventCluster {
    fn from_members(members: Vec<LocatedReport>) -> Self {
        let pts: Vec<Point> = members.iter().map(|m| m.location).collect();
        let cg = Point::centroid(&pts).expect("cluster is non-empty");
        EventCluster { members, cg }
    }
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
    assert!(
        r_error.is_finite() && r_error > 0.0,
        "r_error must be positive, got {r_error}"
    );
    if reports.is_empty() {
        return Vec::new();
    }
    if reports.len() == 1 {
        return vec![EventCluster::from_members(reports.to_vec())];
    }

    // Step 1-2: farthest pair as seeds.
    let (i1, i2, max_d) = farthest_pair(reports);
    if max_d <= r_error {
        return vec![EventCluster::from_members(reports.to_vec())];
    }
    let mut centers = vec![reports[i1].location, reports[i2].location];

    // Step 3: promote far-out reports to centers so every report is within
    // r_error of at least one center.
    for rep in reports {
        let covered = centers
            .iter()
            .any(|c| c.distance_to(rep.location) <= r_error);
        if !covered {
            centers.push(rep.location);
        }
    }

    // Steps 4-5: assign → recompute cg → merge close centers → repeat.
    let mut prev_assignment: Vec<usize> = Vec::new();
    for _ in 0..MAX_ROUNDS {
        let assignment = assign_to_nearest(reports, &centers);
        let (new_centers, weights) = centers_of_gravity(reports, &assignment, centers.len());
        let merged = merge_close_centers(new_centers, weights, r_error);
        let stable = merged.len() == centers.len() && assignment == prev_assignment;
        centers = merged;
        if stable {
            break;
        }
        prev_assignment = assignment;
    }

    // Final assignment against the converged centers.
    let assignment = assign_to_nearest(reports, &centers);
    let mut buckets: Vec<Vec<LocatedReport>> = vec![Vec::new(); centers.len()];
    for (rep, &c) in reports.iter().zip(&assignment) {
        buckets[c].push(*rep);
    }
    buckets
        .into_iter()
        .filter(|b| !b.is_empty())
        .map(EventCluster::from_members)
        .collect()
}

/// Returns `(i, j, distance)` for the farthest pair of reports.
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

fn assign_to_nearest(reports: &[LocatedReport], centers: &[Point]) -> Vec<usize> {
    reports
        .iter()
        .map(|rep| {
            centers
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    a.distance_sq(rep.location)
                        .partial_cmp(&b.distance_sq(rep.location))
                        .expect("finite distances")
                })
                .map(|(i, _)| i)
                .expect("at least one center")
        })
        .collect()
}

/// Computes per-center centers of gravity and member counts; empty centers
/// are dropped.
fn centers_of_gravity(
    reports: &[LocatedReport],
    assignment: &[usize],
    n_centers: usize,
) -> (Vec<Point>, Vec<f64>) {
    let mut sums = vec![(0.0f64, 0.0f64, 0u32); n_centers];
    for (rep, &c) in reports.iter().zip(assignment) {
        sums[c].0 += rep.location.x;
        sums[c].1 += rep.location.y;
        sums[c].2 += 1;
    }
    let mut centers = Vec::new();
    let mut weights = Vec::new();
    for (sx, sy, n) in sums {
        if n > 0 {
            centers.push(Point::new(sx / n as f64, sy / n as f64));
            weights.push(n as f64);
        }
    }
    (centers, weights)
}

/// Repeatedly merges the closest pair of centers lying within `r_error`,
/// replacing them with their weighted average (paper step 5).
fn merge_close_centers(mut centers: Vec<Point>, mut weights: Vec<f64>, r_error: f64) -> Vec<Point> {
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
            return centers;
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
    assert!(r_s > 0.0, "sensing radius must be positive");
    cluster_reports(reports, r_error)
        .into_iter()
        .map(|cluster| {
            let neighbors = topo.event_neighbors(cluster.cg, r_s);
            let mut supporters = Vec::new();
            let mut outliers = Vec::new();
            let mut non_neighbor_reporters = Vec::new();
            for m in &cluster.members {
                if m.location.distance_to(cluster.cg) > r_error {
                    outliers.push(m.reporter);
                } else if neighbors.contains(&m.reporter) {
                    supporters.push(m.reporter);
                } else {
                    non_neighbor_reporters.push(m.reporter);
                }
            }
            let vote = run_vote(&neighbors, &supporters, weighting);
            LocatedDecision {
                location: cluster.cg,
                event_declared: vote.event_declared,
                vote,
                outliers,
                non_neighbor_reporters,
            }
        })
        .collect()
}

/// Derives per-node judgements from one located decision.
///
/// * event declared: supporters correct; silent neighbors faulty.
/// * event rejected: supporters faulty; silent neighbors correct.
/// * outliers and non-neighbor reporters: always faulty (bad location /
///   false alarm), regardless of the verdict.
#[must_use]
pub fn judge_located(decision: &LocatedDecision) -> Vec<(NodeId, Judgement)> {
    let (winners, losers) = if decision.event_declared {
        (&decision.vote.reporters, &decision.vote.non_reporters)
    } else {
        (&decision.vote.non_reporters, &decision.vote.reporters)
    };
    winners
        .iter()
        .map(|&n| (n, Judgement::Correct))
        .chain(losers.iter().map(|&n| (n, Judgement::Faulty)))
        .chain(decision.outliers.iter().map(|&n| (n, Judgement::Faulty)))
        .chain(
            decision
                .non_neighbor_reporters
                .iter()
                .map(|&n| (n, Judgement::Faulty)),
        )
        .collect()
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
}

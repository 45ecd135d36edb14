//! The allocating §3.2 decision path — report clustering, the R-vs-NR
//! vote and the judgements — as it was before the decision path moved
//! to reused buffers ([`DecisionScratch`]). Test-only: the differential
//! reference the one decision path is checked against, bit for bit.
//!
//! Written against the crate's public API under the `tibfit_core` name,
//! so the experiments crate's tests include the same file to replay
//! whole fields through it.
//!
//! [`DecisionScratch`]: tibfit_core::location::DecisionScratch

use tibfit_core::location::{EventCluster, LocatedDecision, LocatedReport};
use tibfit_core::trust::Judgement;
use tibfit_core::vote::{VoteOutcome, Weighting};
use tibfit_net::geometry::Point;
use tibfit_net::topology::{NodeId, Topology};

/// Refinement cap, as in the engine.
const MAX_ROUNDS: usize = 100;

fn cluster_of(members: Vec<LocatedReport>) -> EventCluster {
    let pts: Vec<Point> = members.iter().map(|m| m.location).collect();
    let cg = Point::centroid(&pts).expect("cluster is non-empty");
    EventCluster { members, cg }
}

/// Groups location reports into event clusters.
pub fn cluster_reports(reports: &[LocatedReport], r_error: f64) -> Vec<EventCluster> {
    assert!(
        r_error.is_finite() && r_error > 0.0,
        "r_error must be positive, got {r_error}"
    );
    if reports.is_empty() {
        return Vec::new();
    }
    if reports.len() == 1 {
        return vec![cluster_of(reports.to_vec())];
    }
    let (i1, i2, max_d) = farthest_pair(reports);
    if max_d <= r_error {
        return vec![cluster_of(reports.to_vec())];
    }
    let mut centers = vec![reports[i1].location, reports[i2].location];
    for rep in reports {
        let covered = centers
            .iter()
            .any(|c| c.distance_to(rep.location) <= r_error);
        if !covered {
            centers.push(rep.location);
        }
    }
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
    let assignment = assign_to_nearest(reports, &centers);
    let mut buckets: Vec<Vec<LocatedReport>> = vec![Vec::new(); centers.len()];
    for (rep, &c) in reports.iter().zip(&assignment) {
        buckets[c].push(*rep);
    }
    buckets
        .into_iter()
        .filter(|b| !b.is_empty())
        .map(cluster_of)
        .collect()
}

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
        let merged =
            Point::weighted_centroid(&[(centers[i], weights[i]), (centers[j], weights[j])])
                .expect("positive weights");
        let w = weights[i] + weights[j];
        centers.remove(j);
        weights.remove(j);
        centers[i] = merged;
        weights[i] = w;
    }
}

/// The R-vs-NR vote, partitioning with `Vec::contains`.
pub fn run_vote(
    neighbors: &[NodeId],
    reporters: &[NodeId],
    weighting: &Weighting<'_>,
) -> VoteOutcome {
    let mut r = Vec::new();
    let mut nr = Vec::new();
    for &n in neighbors {
        if reporters.contains(&n) {
            r.push(n);
        } else {
            nr.push(n);
        }
    }
    let rw = weighting.group_weight(&r);
    let nrw = weighting.group_weight(&nr);
    VoteOutcome {
        event_declared: rw > nrw,
        reporting_weight: rw,
        non_reporting_weight: nrw,
        reporters: r,
        non_reporters: nr,
    }
}

/// Cluster, then vote per cluster.
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

/// Winners, then losers, then outliers, then non-neighbor reporters.
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

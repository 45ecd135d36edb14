//! Group voting shared by the binary and location models.
//!
//! Every TIBFIT decision reduces to the same primitive: partition the event
//! neighbors into a reporting group `R` and a non-reporting group `NR`,
//! weigh each group, and let the heavier group win. TIBFIT weighs nodes by
//! trust index (the paper's CTI comparison); the baseline system weighs
//! every node at 1, which degenerates to majority voting.

use crate::trust::{is_quarantined_weight, TrustTable};
use tibfit_net::topology::NodeId;

/// How node votes are weighed.
#[derive(Debug)]
pub enum Weighting<'a> {
    /// TIBFIT: weigh each node by its trust index (isolated nodes weigh
    /// zero).
    Trust(&'a TrustTable),
    /// Baseline: every node weighs 1 (stateless majority voting).
    Uniform,
}

impl Weighting<'_> {
    /// The cumulative weight of a group (CTI under
    /// [`Weighting::Trust`], head-count under [`Weighting::Uniform`]).
    ///
    /// The trust arm goes through [`TrustTable::cumulative_trust`] — one
    /// branch-free pass over the table's dense weight slots. It is
    /// bit-identical to folding each member's weight (its TI, or zero
    /// once isolated) in group order; the tests keep that per-node fold
    /// as the reference.
    #[must_use]
    pub fn group_weight(&self, group: &[NodeId]) -> f64 {
        match self {
            Weighting::Trust(table) => {
                let s = table.cumulative_trust(group);
                // The old per-node fold added a literal +0.0 for each
                // isolated member (it never skipped), so any nonempty
                // group sums to +0.0 at worst; only the empty fold keeps
                // the -0.0 seed. cumulative_trust skips isolated members
                // instead, which can leave the seed's sign — normalize so
                // the bits match the old fold in both cases. The sentinel
                // test goes through the same is_quarantined_weight helper
                // the table itself uses, so the two paths can't diverge on
                // what counts as the quarantine sign.
                if is_quarantined_weight(s) && !group.is_empty() {
                    0.0
                } else {
                    s
                }
            }
            // Σ 1.0 over n members is exact integer float arithmetic, so
            // the cast equals the fold bitwise — but an empty fold keeps
            // the -0.0 seed.
            Weighting::Uniform => {
                if group.is_empty() {
                    -0.0
                } else {
                    group.len() as f64
                }
            }
        }
    }
}

/// The outcome of one R-vs-NR vote.
#[derive(Debug, Clone, PartialEq)]
pub struct VoteOutcome {
    /// `true` when the reporting group won (the event is declared).
    pub event_declared: bool,
    /// Cumulative weight of the reporting group.
    pub reporting_weight: f64,
    /// Cumulative weight of the non-reporting group.
    pub non_reporting_weight: f64,
    /// The reporting group `R`.
    pub reporters: Vec<NodeId>,
    /// The non-reporting group `NR`.
    pub non_reporters: Vec<NodeId>,
}

impl VoteOutcome {
    /// The winning margin (positive when the event was declared).
    #[must_use]
    pub fn margin(&self) -> f64 {
        self.reporting_weight - self.non_reporting_weight
    }
}

/// Partitions `neighbors` into reporters and non-reporters and runs the
/// weighted vote. A strict majority of weight is required to declare the
/// event; ties go to "no event" (the conservative choice — a false alarm
/// costs response resources).
///
/// `reporters` entries that are not event neighbors are ignored: a report
/// about an event outside the node's sensing range is by definition a false
/// alarm (paper §2.1) and cannot support the event.
///
/// ```rust
/// use tibfit_core::vote::{run_vote, Weighting};
/// use tibfit_net::topology::NodeId;
///
/// let neighbors: Vec<NodeId> = (0..5).map(NodeId).collect();
/// let reporters = vec![NodeId(0), NodeId(1), NodeId(2)];
/// let out = run_vote(&neighbors, &reporters, &Weighting::Uniform);
/// assert!(out.event_declared); // 3 > 2
/// ```
#[must_use]
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trust::TrustParams;

    /// The per-node reference fold: one member's voting weight.
    fn weight_of(w: &Weighting<'_>, node: NodeId) -> f64 {
        match w {
            Weighting::Trust(table) => {
                if table.is_isolated(node) {
                    0.0
                } else {
                    table.trust_of(node)
                }
            }
            Weighting::Uniform => 1.0,
        }
    }

    fn ids(v: &[usize]) -> Vec<NodeId> {
        v.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn uniform_vote_is_majority() {
        let neighbors = ids(&[0, 1, 2, 3, 4]);
        let out = run_vote(&neighbors, &ids(&[0, 1, 2]), &Weighting::Uniform);
        assert!(out.event_declared);
        assert_eq!(out.reporting_weight, 3.0);
        assert_eq!(out.non_reporting_weight, 2.0);
        assert_eq!(out.margin(), 1.0);
    }

    #[test]
    fn uniform_tie_goes_to_no_event() {
        let neighbors = ids(&[0, 1, 2, 3]);
        let out = run_vote(&neighbors, &ids(&[0, 1]), &Weighting::Uniform);
        assert!(!out.event_declared);
    }

    #[test]
    fn trusted_minority_beats_distrusted_majority() {
        // The paper's core claim: 2 honest nodes with TI = 1 outvote 3
        // liars whose TIs have decayed.
        let params = TrustParams::new(0.5, 0.1);
        let mut table = TrustTable::new(params, 5);
        for liar in [2, 3, 4] {
            for _ in 0..5 {
                table.record_faulty(NodeId(liar));
            }
        }
        let neighbors = ids(&[0, 1, 2, 3, 4]);
        // Liars report a fake event; honest nodes stay silent.
        let out = run_vote(&neighbors, &ids(&[2, 3, 4]), &Weighting::Trust(&table));
        assert!(!out.event_declared, "fake event must be rejected");
        // Honest nodes report a real event; liars stay silent.
        let out = run_vote(&neighbors, &ids(&[0, 1]), &Weighting::Trust(&table));
        assert!(out.event_declared, "real event must be accepted");
    }

    #[test]
    fn non_neighbor_reports_are_ignored() {
        let neighbors = ids(&[0, 1]);
        // Node 5 reports but is not an event neighbor — false alarm, ignored.
        let out = run_vote(&neighbors, &ids(&[5]), &Weighting::Uniform);
        assert!(!out.event_declared);
        assert!(out.reporters.is_empty());
        assert_eq!(out.non_reporters.len(), 2);
    }

    #[test]
    fn groups_partition_neighbors() {
        let neighbors = ids(&[0, 1, 2, 3]);
        let out = run_vote(&neighbors, &ids(&[1, 3]), &Weighting::Uniform);
        let mut all = out.reporters.clone();
        all.extend(&out.non_reporters);
        all.sort();
        assert_eq!(all, neighbors);
    }

    #[test]
    fn isolated_nodes_weigh_zero() {
        let params = TrustParams::new(0.5, 0.1);
        let mut table = TrustTable::new(params, 3).with_isolation_threshold(0.9);
        table.record_faulty(NodeId(2));
        assert!(table.is_isolated(NodeId(2)));
        let w = Weighting::Trust(&table);
        assert_eq!(weight_of(&w, NodeId(2)), 0.0);
        assert_eq!(weight_of(&w, NodeId(0)), 1.0);
    }

    #[test]
    fn group_weight_matches_per_node_fold_bitwise() {
        // The dense-CTI dispatch must reproduce the historical per-node
        // fold exactly, including its ±0.0 edge cases: an empty group
        // keeps Sum's -0.0 seed, a nonempty all-isolated group folds
        // literal +0.0s.
        let params = TrustParams::new(0.5, 0.1);
        let mut table = TrustTable::new(params, 4).with_isolation_threshold(0.9);
        table.record_faulty(NodeId(0));
        table.record_faulty(NodeId(1));
        assert!(table.is_isolated(NodeId(0)) && table.is_isolated(NodeId(1)));
        let w = Weighting::Trust(&table);
        let reference = |group: &[NodeId]| -> f64 { group.iter().map(|&n| weight_of(&w, n)).sum() };
        for group in [
            &[][..],
            &[NodeId(0)][..],
            &[NodeId(0), NodeId(1)][..],
            &[NodeId(0), NodeId(2)][..],
            &[NodeId(2), NodeId(3), NodeId(0)][..],
        ] {
            assert_eq!(
                w.group_weight(group).to_bits(),
                reference(group).to_bits(),
                "group {group:?}"
            );
        }
        let u = Weighting::Uniform;
        assert_eq!(u.group_weight(&[]).to_bits(), (-0.0f64).to_bits());
        assert_eq!(u.group_weight(&[NodeId(0), NodeId(1)]), 2.0);
    }

    #[test]
    fn empty_neighborhood_declares_nothing() {
        let out = run_vote(&[], &ids(&[0]), &Weighting::Uniform);
        assert!(!out.event_declared);
        assert_eq!(out.reporting_weight, 0.0);
    }
}

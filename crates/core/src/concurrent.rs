//! Concurrent-event collection (paper §3.3).
//!
//! When multiple events may occur within one `T_out` window, the cluster
//! head groups incoming reports into symbolic *circles* of radius
//! `r_error`: the first report opens a circle (and starts that circle's
//! own `T_out` timer); later reports join the circle whose center is
//! within `r_error`, or open a new one. When a circle's timer expires the
//! CH waits for any *overlapping* circles to expire too, then runs the
//! §3.2 clustering over the union of their reports.
//!
//! [`ConcurrentCollector`] is a pure state machine: feed it reports with
//! [`ConcurrentCollector::submit`] and drain completed groups with
//! [`ConcurrentCollector::poll`]; it never blocks and owns no timers, so
//! it drops straight into the DES loop.

use crate::location::LocatedReport;
use tibfit_net::geometry::Point;
use tibfit_sim::{Duration, SimTime};

/// One symbolic circle: a center, its pending reports, and its deadline.
#[derive(Debug, Clone)]
struct Circle {
    center: Point,
    reports: Vec<LocatedReport>,
    expires: SimTime,
}

/// Collects location reports into overlapping circle groups for concurrent
/// event processing.
///
/// ```rust
/// use tibfit_core::concurrent::ConcurrentCollector;
/// use tibfit_core::location::LocatedReport;
/// use tibfit_net::geometry::Point;
/// use tibfit_net::topology::NodeId;
/// use tibfit_sim::{Duration, SimTime};
///
/// let mut col = ConcurrentCollector::new(5.0, Duration::from_ticks(100));
/// col.submit(SimTime::from_ticks(0), LocatedReport::new(NodeId(0), Point::new(10.0, 10.0)));
/// col.submit(SimTime::from_ticks(5), LocatedReport::new(NodeId(1), Point::new(11.0, 10.0)));
/// // Far away, concurrently:
/// col.submit(SimTime::from_ticks(8), LocatedReport::new(NodeId(2), Point::new(80.0, 80.0)));
/// // Nothing is ready before the timers expire.
/// assert!(col.poll(SimTime::from_ticks(50)).is_empty());
/// let groups = col.poll(SimTime::from_ticks(200));
/// assert_eq!(groups.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct ConcurrentCollector {
    r_error: f64,
    t_out: Duration,
    circles: Vec<Circle>,
    /// Union-find scratch for [`ConcurrentCollector::poll`].
    scratch_parent: Vec<usize>,
    /// `(root, circle index)` pairs, sorted to enumerate components.
    scratch_order: Vec<(usize, usize)>,
    /// Indices of circles released this poll.
    scratch_release: Vec<usize>,
}

impl ConcurrentCollector {
    /// Creates a collector.
    ///
    /// # Panics
    ///
    /// Panics if `r_error` is not strictly positive or `t_out` is zero.
    #[must_use]
    pub fn new(r_error: f64, t_out: Duration) -> Self {
        assert!(
            r_error.is_finite() && r_error > 0.0,
            "r_error must be positive"
        );
        assert!(t_out > Duration::ZERO, "t_out must be positive");
        ConcurrentCollector {
            r_error,
            t_out,
            circles: Vec::new(),
            scratch_parent: Vec::new(),
            scratch_order: Vec::new(),
            scratch_release: Vec::new(),
        }
    }

    /// Number of open circles.
    #[must_use]
    pub fn open_circles(&self) -> usize {
        self.circles.len()
    }

    /// Total buffered reports.
    #[must_use]
    pub fn pending_reports(&self) -> usize {
        self.circles.iter().map(|c| c.reports.len()).sum()
    }

    /// Accepts a report at time `now`.
    ///
    /// The report joins the first circle whose center lies within
    /// `r_error`; otherwise it opens a new circle expiring at
    /// `now + t_out`.
    pub fn submit(&mut self, now: SimTime, report: LocatedReport) {
        for circle in &mut self.circles {
            if circle.center.distance_to(report.location) <= self.r_error {
                circle.reports.push(report);
                return;
            }
        }
        self.circles.push(Circle {
            center: report.location,
            reports: vec![report],
            expires: now + self.t_out,
        });
    }

    /// The earliest circle deadline, if any circle is open — schedule the
    /// next poll timer here.
    #[must_use]
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.circles.iter().map(|c| c.expires).min()
    }

    /// The earliest circle deadline strictly after `now`.
    ///
    /// Use this to re-arm a poll timer after a [`ConcurrentCollector::poll`]
    /// at `now`: circles already expired but held back by an overlapping
    /// unexpired partner release when that partner's deadline passes, so
    /// re-arming at an already-elapsed deadline would spin forever.
    #[must_use]
    pub fn next_deadline_after(&self, now: SimTime) -> Option<SimTime> {
        self.circles
            .iter()
            .map(|c| c.expires)
            .filter(|&e| e > now)
            .min()
    }

    /// Emits every report group whose circles have all expired by `now`.
    ///
    /// A group is the transitive closure of overlapping circles (centers
    /// within `2·r_error`, i.e. the radius-`r_error` disks intersect). A
    /// group is released only when *every* circle in it has expired —
    /// paper §3.3 step 4.
    pub fn poll(&mut self, now: SimTime) -> Vec<Vec<LocatedReport>> {
        let mut groups = Vec::new();
        let n = self.circles.len();
        if n == 0 {
            return groups;
        }
        if n == 1 {
            // Fast path: the overwhelmingly common single-circle case
            // needs no component analysis.
            if self.circles[0].expires <= now {
                let circle = self.circles.pop().expect("length checked");
                groups.push(circle.reports);
            }
            return groups;
        }
        self.find_components();
        // scratch_order is (root, index) sorted, so components appear as
        // contiguous runs ordered by root id, indices ascending — the
        // same deterministic order the original BTreeMap grouping gave.
        self.scratch_release.clear();
        let order = std::mem::take(&mut self.scratch_order);
        let mut start = 0;
        while start < order.len() {
            let root = order[start].0;
            let mut end = start;
            while end < order.len() && order[end].0 == root {
                end += 1;
            }
            let comp = &order[start..end];
            if comp.iter().all(|&(_, i)| self.circles[i].expires <= now) {
                let mut group = Vec::new();
                for &(_, i) in comp {
                    group.extend(self.circles[i].reports.iter().copied());
                    self.scratch_release.push(i);
                }
                groups.push(group);
            }
            start = end;
        }
        self.scratch_order = order;
        self.scratch_release.sort_unstable();
        for &i in self.scratch_release.iter().rev() {
            self.circles.remove(i);
        }
        groups
    }

    /// Forces out every buffered group regardless of deadlines (end of
    /// simulation).
    pub fn flush(&mut self) -> Vec<Vec<LocatedReport>> {
        self.poll(SimTime::MAX)
    }

    /// Union-find over the "circles overlap" graph, into scratch
    /// buffers: fills `scratch_order` with `(root, index)` sorted by
    /// root then index.
    fn find_components(&mut self) {
        let n = self.circles.len();
        let parent = &mut self.scratch_parent;
        parent.clear();
        parent.extend(0..n);
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            // Path halving keeps this iterative and allocation-free.
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for i in 0..n {
            for j in (i + 1)..n {
                let d = self.circles[i].center.distance_to(self.circles[j].center);
                if d <= 2.0 * self.r_error {
                    let (ri, rj) = (find(parent, i), find(parent, j));
                    if ri != rj {
                        parent[ri] = rj;
                    }
                }
            }
        }
        self.scratch_order.clear();
        for i in 0..n {
            let root = find(parent, i);
            self.scratch_order.push((root, i));
        }
        self.scratch_order.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tibfit_net::topology::NodeId;

    fn rep(id: usize, x: f64, y: f64) -> LocatedReport {
        LocatedReport::new(NodeId(id), Point::new(x, y))
    }

    fn t(ticks: u64) -> SimTime {
        SimTime::from_ticks(ticks)
    }

    fn collector() -> ConcurrentCollector {
        ConcurrentCollector::new(5.0, Duration::from_ticks(100))
    }

    #[test]
    fn close_reports_share_a_circle() {
        let mut c = collector();
        c.submit(t(0), rep(0, 10.0, 10.0));
        c.submit(t(1), rep(1, 12.0, 11.0));
        assert_eq!(c.open_circles(), 1);
        assert_eq!(c.pending_reports(), 2);
    }

    #[test]
    fn far_reports_open_new_circles() {
        let mut c = collector();
        c.submit(t(0), rep(0, 10.0, 10.0));
        c.submit(t(1), rep(1, 40.0, 40.0));
        assert_eq!(c.open_circles(), 2);
    }

    #[test]
    fn group_released_only_after_expiry() {
        let mut c = collector();
        c.submit(t(0), rep(0, 10.0, 10.0));
        assert!(c.poll(t(99)).is_empty());
        let groups = c.poll(t(100));
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].len(), 1);
        assert_eq!(c.open_circles(), 0);
    }

    #[test]
    fn joining_does_not_extend_deadline() {
        let mut c = collector();
        c.submit(t(0), rep(0, 10.0, 10.0));
        c.submit(t(90), rep(1, 11.0, 10.0));
        // Circle still expires at t=100 (T_out from the *first* report).
        let groups = c.poll(t(100));
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].len(), 2);
    }

    #[test]
    fn overlapping_circles_wait_for_each_other() {
        let mut c = collector();
        // Two circles whose centers are 8 apart: disks of radius 5 overlap.
        c.submit(t(0), rep(0, 10.0, 10.0));
        c.submit(t(50), rep(1, 18.0, 10.0));
        // First circle expires at 100, but the overlapping one at 150.
        assert!(c.poll(t(100)).is_empty(), "must wait for overlap partner");
        let groups = c.poll(t(150));
        assert_eq!(groups.len(), 1, "overlapping circles release together");
        assert_eq!(groups[0].len(), 2);
    }

    #[test]
    fn disjoint_circles_release_independently() {
        let mut c = collector();
        c.submit(t(0), rep(0, 10.0, 10.0));
        c.submit(t(50), rep(1, 80.0, 80.0));
        let first = c.poll(t(100));
        assert_eq!(first.len(), 1);
        assert_eq!(first[0][0].reporter, NodeId(0));
        assert_eq!(c.open_circles(), 1);
        let second = c.poll(t(150));
        assert_eq!(second.len(), 1);
        assert_eq!(second[0][0].reporter, NodeId(1));
    }

    #[test]
    fn transitive_overlap_chains() {
        let mut c = collector();
        // Chain: A(0,0) – B(8,0) – C(16,0). A and C do not overlap directly
        // but both overlap B, so all three release together.
        c.submit(t(0), rep(0, 0.0, 0.0));
        c.submit(t(10), rep(1, 8.0, 0.0));
        c.submit(t(20), rep(2, 16.0, 0.0));
        assert_eq!(c.open_circles(), 3);
        assert!(c.poll(t(105)).is_empty());
        let groups = c.poll(t(120));
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].len(), 3);
    }

    #[test]
    fn next_deadline_tracks_earliest_circle() {
        let mut c = collector();
        assert_eq!(c.next_deadline(), None);
        c.submit(t(30), rep(0, 10.0, 10.0));
        c.submit(t(10), rep(1, 80.0, 80.0));
        assert_eq!(c.next_deadline(), Some(t(110)));
    }

    #[test]
    fn next_deadline_after_skips_elapsed_deadlines() {
        let mut c = collector();
        // Overlapping circles: first expires at 100, second at 150.
        c.submit(t(0), rep(0, 10.0, 10.0));
        c.submit(t(50), rep(1, 18.0, 10.0));
        // At t=100 the first circle is expired but blocked by the second;
        // the next actionable deadline is strictly after now.
        assert!(c.poll(t(100)).is_empty());
        assert_eq!(c.next_deadline(), Some(t(100)), "raw minimum is stale");
        assert_eq!(c.next_deadline_after(t(100)), Some(t(150)));
        let groups = c.poll(t(150));
        assert_eq!(groups.len(), 1);
        assert_eq!(c.next_deadline_after(t(150)), None);
    }

    #[test]
    fn flush_releases_everything() {
        let mut c = collector();
        c.submit(t(0), rep(0, 10.0, 10.0));
        c.submit(t(0), rep(1, 80.0, 80.0));
        let groups = c.flush();
        assert_eq!(groups.len(), 2);
        assert_eq!(c.open_circles(), 0);
        assert_eq!(c.pending_reports(), 0);
    }

    #[test]
    #[should_panic(expected = "t_out must be positive")]
    fn rejects_zero_timeout() {
        let _ = ConcurrentCollector::new(5.0, Duration::ZERO);
    }

    #[test]
    fn poll_on_empty_is_empty() {
        let mut c = collector();
        assert!(c.poll(t(1000)).is_empty());
    }
}

//! Node deployments and spatial queries.
//!
//! The paper deploys nodes either as a small fully-connected cluster
//! (Experiment 1: 10 nodes, all event neighbors of every event) or uniformly
//! on a 100×100 grid (Experiments 2–3). [`Topology`] covers both, plus
//! random deployments, and answers the *event neighbor* query: which nodes
//! lie within sensing radius `r_s` of an event.

use crate::geometry::Point;
use tibfit_sim::rng::SimRng;

/// Identifies a sensor node within one topology.
///
/// Node ids are dense indices (`0..n`), which lets protocol state live in
/// flat vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The dense index of this node.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// An immutable deployment of sensor nodes in a rectangular field.
///
/// ```rust
/// use tibfit_net::topology::Topology;
/// use tibfit_net::geometry::Point;
///
/// let topo = Topology::uniform_grid(100, 100.0, 100.0);
/// assert_eq!(topo.len(), 100);
/// // Every node within 20 units of the field center senses this event:
/// let neighbors = topo.event_neighbors(Point::new(50.0, 50.0), 20.0);
/// assert!(neighbors.len() > 4);
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    positions: Vec<Point>,
    width: f64,
    height: f64,
}

impl Topology {
    /// Builds a topology from explicit node positions and field dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is not strictly positive, or if any
    /// position lies outside the field.
    #[must_use]
    pub fn from_positions(positions: Vec<Point>, width: f64, height: f64) -> Self {
        assert!(width > 0.0 && height > 0.0, "field must have positive area");
        for (i, p) in positions.iter().enumerate() {
            assert!(
                (0.0..=width).contains(&p.x) && (0.0..=height).contains(&p.y),
                "node {i} at {p} lies outside the {width}x{height} field"
            );
        }
        Topology {
            positions,
            width,
            height,
        }
    }

    /// Deploys `n` nodes on a uniform grid filling a `width`×`height` field
    /// (the paper's Experiment-2 layout: 100 nodes on 100×100).
    ///
    /// `n` need not be a perfect square; the grid is the smallest `c×c`
    /// arrangement with `c = ceil(sqrt(n))`, filled row-major and truncated.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or the field is degenerate.
    #[must_use]
    pub fn uniform_grid(n: usize, width: f64, height: f64) -> Self {
        assert!(n > 0, "cannot deploy zero nodes");
        let cols = (n as f64).sqrt().ceil() as usize;
        let rows = n.div_ceil(cols);
        let dx = width / cols as f64;
        let dy = height / rows as f64;
        let mut positions = Vec::with_capacity(n);
        'outer: for r in 0..rows {
            for c in 0..cols {
                if positions.len() == n {
                    break 'outer;
                }
                // Cell centers, so nodes sit strictly inside the field.
                positions.push(Point::new(
                    (c as f64 + 0.5) * dx,
                    (r as f64 + 0.5) * dy,
                ));
            }
        }
        Topology::from_positions(positions, width, height)
    }

    /// Deploys `n` nodes uniformly at random in the field.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or the field is degenerate.
    #[must_use]
    pub fn uniform_random(n: usize, width: f64, height: f64, rng: &mut SimRng) -> Self {
        assert!(n > 0, "cannot deploy zero nodes");
        assert!(width > 0.0 && height > 0.0, "field must have positive area");
        let positions = (0..n)
            .map(|_| Point::new(rng.uniform_range(0.0, width), rng.uniform_range(0.0, height)))
            .collect();
        Topology::from_positions(positions, width, height)
    }

    /// A tiny fully-connected cluster where every node is an event neighbor
    /// of every event (the paper's Experiment-1 layout): `n` nodes evenly
    /// spaced on a circle of the given radius.
    #[must_use]
    pub fn single_cluster(n: usize, radius: f64) -> Self {
        assert!(n > 0, "cannot deploy zero nodes");
        assert!(radius > 0.0, "cluster radius must be positive");
        let side = 2.0 * radius + 2.0;
        let center = Point::new(side / 2.0, side / 2.0);
        let positions = (0..n)
            .map(|i| {
                let angle = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
                center.offset(radius * angle.cos(), radius * angle.sin())
            })
            .collect();
        Topology::from_positions(positions, side, side)
    }

    /// Number of deployed nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// `true` if the topology has no nodes (never constructible via the
    /// public constructors, but kept for API completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Field width.
    #[must_use]
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Field height.
    #[must_use]
    pub fn height(&self) -> f64 {
        self.height
    }

    /// Position of a node.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn position(&self, id: NodeId) -> Point {
        self.positions[id.0]
    }

    /// Iterates over `(id, position)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Point)> + '_ {
        self.positions
            .iter()
            .enumerate()
            .map(|(i, &p)| (NodeId(i), p))
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.positions.len()).map(NodeId)
    }

    /// The *event neighbors* of `event`: nodes within sensing radius `r_s`
    /// (inclusive), in ascending id order.
    ///
    /// # Panics
    ///
    /// Panics if `r_s` is negative.
    #[must_use]
    pub fn event_neighbors(&self, event: Point, r_s: f64) -> Vec<NodeId> {
        assert!(r_s >= 0.0, "sensing radius must be non-negative");
        let r_sq = r_s * r_s;
        self.positions
            .iter()
            .enumerate()
            .filter(|(_, p)| p.distance_sq(event) <= r_sq)
            .map(|(i, _)| NodeId(i))
            .collect()
    }

    /// A uniformly random event location in the field (the paper's event
    /// generator draws X and Y uniformly over the network).
    #[must_use]
    pub fn random_event_location(&self, rng: &mut SimRng) -> Point {
        Point::new(
            rng.uniform_range(0.0, self.width),
            rng.uniform_range(0.0, self.height),
        )
    }

    /// Moves a node (mobile networks, §2: the CH tracks current
    /// positions).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range or the position lies outside the
    /// field.
    pub fn set_position(&mut self, id: NodeId, position: Point) {
        self.check_inside(position);
        self.positions[id.0] = position;
    }

    fn check_inside(&self, position: Point) {
        assert!(
            (0.0..=self.width).contains(&position.x)
                && (0.0..=self.height).contains(&position.y),
            "position {position} outside the {}x{} field",
            self.width,
            self.height
        );
    }

    /// Every node's position, in id order.
    #[must_use]
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// Removes the nodes `keep` rejects, renumbering the survivors
    /// densely in their old order. `keep` sees every id once, in
    /// ascending order. Capacity is kept for later [`Topology::insert`]s.
    pub fn retain(&mut self, mut keep: impl FnMut(NodeId) -> bool) {
        let mut id = 0;
        self.positions.retain(|_| {
            let k = keep(NodeId(id));
            id += 1;
            k
        });
    }

    /// Inserts a node as id `id`, shifting every later id up by one.
    /// Capacity grows by exactly one slot when full, never by doubling.
    ///
    /// # Panics
    ///
    /// Panics if `id > len()` or the position lies outside the field.
    pub fn insert(&mut self, id: NodeId, position: Point) {
        self.check_inside(position);
        self.positions.reserve_exact(1);
        self.positions.insert(id.0, position);
    }

    /// The node nearest to a point (ties broken by lower id). `None` only
    /// for an empty topology.
    #[must_use]
    pub fn nearest_node(&self, p: Point) -> Option<NodeId> {
        self.positions
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                a.distance_sq(p)
                    .partial_cmp(&b.distance_sq(p))
                    .expect("positions are finite")
            })
            .map(|(i, _)| NodeId(i))
    }

    /// Assigns every node to its nearest site (Voronoi affiliation):
    /// entry `i` is the site index node `i` affiliates with. Ties break
    /// toward the lower site index, so the assignment is deterministic.
    ///
    /// This is the cluster-membership rule the multi-cluster experiments
    /// use: cluster heads are the sites, members are the Voronoi cells.
    ///
    /// # Panics
    ///
    /// Panics if `sites` is empty.
    #[must_use]
    pub fn affiliation(&self, sites: &[Point]) -> Vec<usize> {
        let index = SiteIndex::new(sites);
        self.positions
            .iter()
            .map(|&p| index.nearest(p).expect("need at least one site"))
            .collect()
    }
}

/// Index of the site nearest to `p` (ties broken by lower index), or
/// `None` if `sites` is empty.
///
/// The tie-break makes Voronoi affiliation a deterministic function of
/// geometry: the same node position yields the same owning cluster on
/// every run.
#[must_use]
pub fn nearest_site(sites: &[Point], p: Point) -> Option<usize> {
    sites
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| {
            a.distance_sq(p)
                .partial_cmp(&b.distance_sq(p))
                .expect("site positions are finite")
        })
        .map(|(i, _)| i)
}

/// Geometry of a complete rectangular site lattice, recognised once so
/// nearest-site queries can scan a 3×3 cell window instead of every site.
///
/// The multi-cluster experiments place their cluster heads with
/// `grid_sites`: row-major cell centers of a `cols × rows` grid. When the
/// site list is such a lattice (and only then — [`SiteLattice::detect`]
/// verifies every site), the site nearest to any point is provably inside
/// the 3×3 block of cells around the point's own cell, because distances
/// on a lattice separate per axis: the column minimising `|Δx|` and the
/// row minimising `|Δy|` are each within one step of the point's cell,
/// and any site two or more steps away is strictly farther on that axis
/// than the in-window alternative. Ties (a point equidistant between
/// adjacent cells) only involve the two adjacent columns/rows, which are
/// also in the window — so a lowest-index-first scan of the window
/// returns *exactly* what the full linear scan returns, bit for bit.
///
/// Detection is exact-shape, tolerance-position: the list must have
/// `cols * rows == len` with the `grid_sites` column count, and every
/// site must sit on the inferred lattice to within `1e-9` of the cell
/// spacing (absorbing f64 rounding in the generator, five orders of
/// magnitude below where the window argument could break). Anything else
/// — incomplete grids, jittered or arbitrary site sets — falls back to
/// the linear scan.
///
/// On top of the window, most queries never compare a distance at all:
/// a point strictly inside a cell, by a millionth of the cell on each
/// axis, is nearest to that cell's own site (see
/// [`SiteLattice::interior_cell`] for why the margin is conservative).
/// Points near a cell edge or corner, outside the lattice's extent, or
/// on a lattice too elongated or too far from the origin for the margin
/// argument take the exact 3×3 scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteLattice {
    cols: usize,
    rows: usize,
    dx: f64,
    dy: f64,
    /// Left edge of column 0's cell (= first site x minus half a cell).
    x0: f64,
    /// Bottom edge of row 0's cell.
    y0: f64,
    /// Whether the O(1) interior fast path is sound on this lattice
    /// (see [`SiteLattice::interior_cell`]).
    interior: bool,
}

/// Fraction of a cell, on each axis, that a point must keep from every
/// cell edge for [`SiteLattice`]'s O(1) interior answer.
const INTERIOR_MARGIN: f64 = 1e-6;

/// Fraction of a cell, on each axis, that [`SiteLattice::own_cell_box`]
/// keeps from every cell edge: twice [`INTERIOR_MARGIN`], so the
/// rounding in the box bounds (below `1e-9` of a cell) can never admit
/// a point that [`SiteLattice::interior_cell`] would send to the scan.
const OWN_BOX_MARGIN: f64 = 2.0 * INTERIOR_MARGIN;

/// Largest cell aspect ratio (`max(dx, dy) / min(dx, dy)`) the interior
/// fast path accepts.
const INTERIOR_MAX_ASPECT: f64 = 8.0;

/// Largest distance of the lattice's far edge from the origin, in cells,
/// the interior fast path accepts.
const INTERIOR_MAX_CELLS: f64 = (1u64 << 20) as f64;

impl SiteLattice {
    /// Recognises a complete `grid_sites`-style lattice, or `None` if the
    /// sites are anything else. O(len); run once and cache the result —
    /// it is `Copy` and stays valid as long as the site list is unchanged.
    #[must_use]
    pub fn detect(sites: &[Point]) -> Option<SiteLattice> {
        let k = sites.len();
        // Tiny site sets gain nothing over the linear scan.
        if k < 4 {
            return None;
        }
        let cols = (k as f64).sqrt().ceil() as usize;
        let rows = k.div_ceil(cols);
        if cols < 2 || rows < 2 || cols * rows != k {
            return None;
        }
        let dx = sites[1].x - sites[0].x;
        let dy = sites[cols].y - sites[0].y;
        if !(dx.is_finite() && dy.is_finite() && dx > 0.0 && dy > 0.0) {
            return None;
        }
        let tol = 1e-9 * (dx + dy);
        for r in 0..rows {
            let ey = sites[0].y + r as f64 * dy;
            for c in 0..cols {
                let s = sites[r * cols + c];
                let ex = sites[0].x + c as f64 * dx;
                if (s.x - ex).abs() > tol || (s.y - ey).abs() > tol {
                    return None;
                }
            }
        }
        let x0 = sites[0].x - 0.5 * dx;
        let y0 = sites[0].y - 0.5 * dy;
        let interior = dx.max(dy) <= INTERIOR_MAX_ASPECT * dx.min(dy)
            && (x0.abs() / dx + cols as f64) <= INTERIOR_MAX_CELLS
            && (y0.abs() / dy + rows as f64) <= INTERIOR_MAX_CELLS;
        Some(SiteLattice {
            cols,
            rows,
            dx,
            dy,
            x0,
            y0,
            interior,
        })
    }

    /// Sites on this lattice.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cols * self.rows
    }

    /// A lattice always has at least four sites.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The cell index containing `v` along one axis, clamped to the
    /// grid. Off-by-one from f64 rounding at a cell boundary is harmless:
    /// the scan window is ±1 cell, and the only nearest-site candidates
    /// for a boundary point are the two cells straddling it — inside the
    /// window from either side.
    fn cell(v: f64, v0: f64, d: f64, n: usize) -> usize {
        let c = ((v - v0) / d).floor();
        if c <= 0.0 {
            0
        } else if c >= (n - 1) as f64 {
            n - 1
        } else {
            c as usize
        }
    }

    /// The cell index of `v` along one axis if `v` lies inside the
    /// lattice's extent and at least [`INTERIOR_MARGIN`] of a cell from
    /// both of that cell's edges, else `None`.
    fn interior_axis(v: f64, v0: f64, d: f64, n: usize) -> Option<usize> {
        let f = (v - v0) / d;
        let c = f.floor();
        // `f - c` is exact (Sterbenz), so the margin test sees the true
        // computed fraction.
        let frac = f - c;
        (c >= 0.0 && c < n as f64 && frac > INTERIOR_MARGIN && frac < 1.0 - INTERIOR_MARGIN)
            .then_some(c as usize)
    }

    /// The O(1) answer for a point deep inside a lattice cell: that
    /// cell's own site, or `None` when the point is near an edge or
    /// corner (or the lattice fails the fast path's preconditions) and
    /// needs the exact scan.
    ///
    /// Why this equals the scan. On an exact lattice the Voronoi cell of
    /// a site is its rectangular lattice cell, so a point `δ = m·dx`
    /// inside both x-edges (and likewise in y) is nearer its own site by
    /// at least `2·dx·δ` in squared distance than any x-neighbour (the
    /// scan's candidates differ from the own site by at least one whole
    /// step on some axis). Three errors eat into that gap, each bounded
    /// far below it at `m = INTERIOR_MARGIN = 1e-6`:
    ///
    /// * Detection lets each site sit up to `1e-9·(dx + dy)` off the
    ///   ideal lattice. That moves or tilts a bisector by at most
    ///   `1e-9·(1 + aspect)²` of a cell — `8.1e-8` at the accepted
    ///   aspect bound of 8.
    /// * The cell fraction is computed as `(v − v0) / d`; its absolute
    ///   error is a few ulps of the lattice's extent in cells, which the
    ///   `2^20`-cell bound keeps below `1e-9` of a cell.
    /// * The scan compares squared distances with a few ulps of relative
    ///   error (each coordinate difference is correctly rounded), while
    ///   the relative gap left after the two errors above is `≥ 1e-8`.
    fn interior_cell(&self, p: Point) -> Option<usize> {
        if !self.interior {
            return None;
        }
        let c = Self::interior_axis(p.x, self.x0, self.dx, self.cols)?;
        let r = Self::interior_axis(p.y, self.y0, self.dy, self.rows)?;
        Some(r * self.cols + c)
    }

    /// A box strictly inside site `site`'s own lattice cell, by
    /// `OWN_BOX_MARGIN` (two millionths) of a cell on each axis, or `None` when the
    /// lattice fails the interior fast path's preconditions or `site`
    /// is out of range. Every point [`CellBox::contains`] is nearest to
    /// `site` ([`SiteIndex::nearest`] returns `site` for it), so a
    /// caller that knows a point's current site skips the lookup for
    /// points still inside that site's box.
    ///
    /// Why the box is safe. Each bound is `v0 + (k + M)·d` in f64, off
    /// its exact value by a few ulps of the lattice's far edge: under
    /// the `2^20`-cell bound, below `1e-9` of a cell. A point strictly
    /// inside the computed box is therefore at least `M − 1e-9` of a
    /// cell inside its cell, and the interior fast path's own
    /// fraction (again within `1e-9` of a cell) clears the margin
    /// `M / 2` with room to spare: it answers `site`.
    #[must_use]
    pub fn own_cell_box(&self, site: usize) -> Option<CellBox> {
        if !self.interior || site >= self.len() {
            return None;
        }
        let (c, r) = ((site % self.cols) as f64, (site / self.cols) as f64);
        Some(CellBox {
            min_x: self.x0 + (c + OWN_BOX_MARGIN) * self.dx,
            max_x: self.x0 + (c + 1.0 - OWN_BOX_MARGIN) * self.dx,
            min_y: self.y0 + (r + OWN_BOX_MARGIN) * self.dy,
            max_y: self.y0 + (r + 1.0 - OWN_BOX_MARGIN) * self.dy,
        })
    }

    /// The nearest site to `p`: the O(1) interior answer when it
    /// applies, else the 3×3 window — identical result to the linear
    /// scan either way, including the lower-index tie-break (the window
    /// is visited in ascending site index, and a site only replaces the
    /// incumbent when strictly nearer).
    fn nearest(&self, sites: &[Point], p: Point) -> usize {
        if let Some(i) = self.interior_cell(p) {
            return i;
        }
        let cx = Self::cell(p.x, self.x0, self.dx, self.cols);
        let cy = Self::cell(p.y, self.y0, self.dy, self.rows);
        let c_lo = cx.saturating_sub(1);
        let c_hi = (cx + 1).min(self.cols - 1);
        let r_lo = cy.saturating_sub(1);
        let r_hi = (cy + 1).min(self.rows - 1);
        let mut best = usize::MAX;
        let mut best_d = f64::INFINITY;
        for r in r_lo..=r_hi {
            for c in c_lo..=c_hi {
                let i = r * self.cols + c;
                let d = sites[i].distance_sq(p);
                if d < best_d {
                    best_d = d;
                    best = i;
                }
            }
        }
        best
    }
}

/// The inside of one site's lattice cell, less a margin on every side
/// (see [`SiteLattice::own_cell_box`]): a point strictly inside it is
/// nearest to that site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellBox {
    /// Lower x bound (exclusive).
    pub min_x: f64,
    /// Upper x bound (exclusive).
    pub max_x: f64,
    /// Lower y bound (exclusive).
    pub min_y: f64,
    /// Upper y bound (exclusive).
    pub max_y: f64,
}

impl CellBox {
    /// Whether `p` lies strictly inside the box.
    #[must_use]
    pub fn contains(&self, p: Point) -> bool {
        p.x > self.min_x && p.x < self.max_x && p.y > self.min_y && p.y < self.max_y
    }
}

/// Nearest-site lookup over a fixed site list, accelerated when the
/// sites form a [`SiteLattice`]. [`SiteIndex::nearest`] always returns
/// exactly what [`nearest_site`] returns; the lattice fast path only
/// changes the cost (O(1) instead of O(len)).
///
/// ```rust
/// use tibfit_net::geometry::Point;
/// use tibfit_net::topology::{nearest_site, SiteIndex};
///
/// let sites: Vec<Point> = (0..4)
///     .flat_map(|r| (0..4).map(move |c| {
///         Point::new(c as f64 * 10.0 + 5.0, r as f64 * 10.0 + 5.0)
///     }))
///     .collect();
/// let index = SiteIndex::new(&sites);
/// assert!(index.is_accelerated());
/// let p = Point::new(13.0, 27.0);
/// assert_eq!(index.nearest(p), nearest_site(&sites, p));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SiteIndex<'a> {
    sites: &'a [Point],
    lattice: Option<SiteLattice>,
}

impl<'a> SiteIndex<'a> {
    /// Builds the index, detecting the lattice (O(len)). For repeated
    /// construction over an unchanging site list, detect once and use
    /// [`SiteIndex::with_lattice`].
    #[must_use]
    pub fn new(sites: &'a [Point]) -> Self {
        SiteIndex {
            sites,
            lattice: SiteLattice::detect(sites),
        }
    }

    /// Builds the index from a cached [`SiteLattice::detect`] result for
    /// the *same* site list — O(1).
    ///
    /// # Panics
    ///
    /// Debug-panics if the lattice size disagrees with the site count
    /// (the canary for passing a lattice detected on different sites).
    #[must_use]
    pub fn with_lattice(sites: &'a [Point], lattice: Option<SiteLattice>) -> Self {
        if let Some(l) = &lattice {
            debug_assert_eq!(l.len(), sites.len(), "lattice detected on different sites");
        }
        SiteIndex { sites, lattice }
    }

    /// Index of the site nearest to `p` (ties broken by lower index), or
    /// `None` if the site list is empty. Identical to
    /// [`nearest_site`] on the same list, at O(1) when accelerated.
    #[must_use]
    pub fn nearest(&self, p: Point) -> Option<usize> {
        match &self.lattice {
            Some(lattice) => Some(lattice.nearest(self.sites, p)),
            None => nearest_site(self.sites, p),
        }
    }

    /// Whether the lattice fast path is active.
    #[must_use]
    pub fn is_accelerated(&self) -> bool {
        self.lattice.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_has_requested_count() {
        for n in [1, 2, 9, 10, 100, 101] {
            let t = Topology::uniform_grid(n, 100.0, 100.0);
            assert_eq!(t.len(), n, "n={n}");
        }
    }

    #[test]
    fn grid_nodes_inside_field() {
        let t = Topology::uniform_grid(100, 100.0, 50.0);
        for (_, p) in t.iter() {
            assert!((0.0..=100.0).contains(&p.x));
            assert!((0.0..=50.0).contains(&p.y));
        }
    }

    #[test]
    fn grid_positions_distinct() {
        let t = Topology::uniform_grid(100, 100.0, 100.0);
        for (a, pa) in t.iter() {
            for (b, pb) in t.iter() {
                if a != b {
                    assert!(pa.distance_to(pb) > 1e-9);
                }
            }
        }
    }

    #[test]
    fn random_deployment_is_deterministic_per_seed() {
        let mut r1 = SimRng::seed_from(5);
        let mut r2 = SimRng::seed_from(5);
        let t1 = Topology::uniform_random(20, 50.0, 50.0, &mut r1);
        let t2 = Topology::uniform_random(20, 50.0, 50.0, &mut r2);
        for (a, b) in t1.iter().zip(t2.iter()) {
            assert_eq!(a.1, b.1);
        }
    }

    #[test]
    fn event_neighbors_filters_by_radius() {
        let t = Topology::from_positions(
            vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0), Point::new(30.0, 0.0)],
            40.0,
            40.0,
        );
        let n = t.event_neighbors(Point::new(0.0, 0.0), 15.0);
        assert_eq!(n, vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn event_neighbors_radius_is_inclusive() {
        let t = Topology::from_positions(vec![Point::new(20.0, 0.0)], 40.0, 40.0);
        assert_eq!(t.event_neighbors(Point::new(0.0, 0.0), 20.0).len(), 1);
    }

    #[test]
    fn single_cluster_all_within_detection() {
        // 10 nodes within a circle of radius 5: any event at the center has
        // all nodes as neighbors with r_s = 20 (the Experiment-1 setup).
        let t = Topology::single_cluster(10, 5.0);
        let center = Point::new(t.width() / 2.0, t.height() / 2.0);
        assert_eq!(t.event_neighbors(center, 20.0).len(), 10);
    }

    #[test]
    fn nearest_node_finds_closest() {
        let t = Topology::uniform_grid(100, 100.0, 100.0);
        let target = t.position(NodeId(42));
        assert_eq!(t.nearest_node(target), Some(NodeId(42)));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn from_positions_validates_bounds() {
        let _ = Topology::from_positions(vec![Point::new(200.0, 0.0)], 100.0, 100.0);
    }

    #[test]
    #[should_panic(expected = "zero nodes")]
    fn grid_rejects_zero_nodes() {
        let _ = Topology::uniform_grid(0, 10.0, 10.0);
    }

    #[test]
    fn random_event_in_bounds() {
        let t = Topology::uniform_grid(9, 30.0, 60.0);
        let mut rng = SimRng::seed_from(1);
        for _ in 0..100 {
            let e = t.random_event_location(&mut rng);
            assert!((0.0..30.0).contains(&e.x));
            assert!((0.0..60.0).contains(&e.y));
        }
    }

    #[test]
    fn nearest_site_prefers_lower_index_on_tie() {
        let sites = vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)];
        // Equidistant from both sites.
        assert_eq!(nearest_site(&sites, Point::new(5.0, 0.0)), Some(0));
        assert_eq!(nearest_site(&sites, Point::new(9.0, 0.0)), Some(1));
        assert_eq!(nearest_site(&[], Point::new(0.0, 0.0)), None);
    }

    #[test]
    fn affiliation_matches_nearest_site() {
        let t = Topology::uniform_grid(64, 100.0, 100.0);
        let sites = vec![Point::new(25.0, 50.0), Point::new(75.0, 50.0)];
        let aff = t.affiliation(&sites);
        assert_eq!(aff.len(), 64);
        for (id, p) in t.iter() {
            assert_eq!(aff[id.index()], nearest_site(&sites, p).unwrap());
        }
        // Both clusters are non-empty for a centered pair of sites.
        assert!(aff.contains(&0) && aff.contains(&1));
    }

    #[test]
    #[should_panic(expected = "at least one site")]
    fn affiliation_rejects_empty_sites() {
        let t = Topology::uniform_grid(4, 10.0, 10.0);
        let _ = t.affiliation(&[]);
    }

    #[test]
    fn node_ids_are_dense() {
        let t = Topology::uniform_grid(7, 10.0, 10.0);
        let ids: Vec<usize> = t.node_ids().map(NodeId::index).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5, 6]);
    }

    /// `grid_sites`-style lattice: row-major cell centers of the
    /// `ceil(sqrt(k))`-column grid, like the exp6 cluster-head layout.
    fn lattice_sites(k: usize, field_w: f64, field_h: f64) -> Vec<Point> {
        let cols = (k as f64).sqrt().ceil() as usize;
        let rows = k.div_ceil(cols);
        let dx = field_w / cols as f64;
        let dy = field_h / rows as f64;
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

    #[test]
    fn site_index_detects_complete_lattices_only() {
        // Complete grids accelerate.
        for k in [4, 9, 16, 100, 256] {
            let sites = lattice_sites(k, 100.0, 100.0);
            assert!(SiteIndex::new(&sites).is_accelerated(), "k={k}");
        }
        // Incomplete grids, tiny sets, and perturbed lattices fall back.
        for k in [1, 2, 3, 5, 32, 101] {
            let sites = lattice_sites(k, 100.0, 100.0);
            assert!(!SiteIndex::new(&sites).is_accelerated(), "k={k}");
        }
        let mut bent = lattice_sites(16, 100.0, 100.0);
        bent[7] = bent[7].offset(0.5, 0.0);
        assert!(!SiteIndex::new(&bent).is_accelerated());
        // Either way, results match the linear scan.
        let idx = SiteIndex::new(&bent);
        let mut rng = SimRng::seed_from(77);
        for _ in 0..200 {
            let p = Point::new(rng.uniform_range(0.0, 100.0), rng.uniform_range(0.0, 100.0));
            assert_eq!(idx.nearest(p), nearest_site(&bent, p));
        }
    }

    #[test]
    fn site_index_matches_linear_scan_everywhere() {
        // Random points on accelerated lattices of many shapes and
        // aspect ratios, including points outside the lattice extent.
        let mut rng = SimRng::seed_from(0x51);
        for k in [4usize, 9, 16, 64, 100, 144, 256] {
            for &(w, h) in &[(100.0, 100.0), (320.0, 40.0), (16.0, 400.0)] {
                let sites = lattice_sites(k, w, h);
                let idx = SiteIndex::new(&sites);
                assert!(idx.is_accelerated(), "k={k} {w}x{h}");
                for _ in 0..300 {
                    let p = Point::new(
                        rng.uniform_range(-0.2 * w, 1.2 * w),
                        rng.uniform_range(-0.2 * h, 1.2 * h),
                    );
                    assert_eq!(
                        idx.nearest(p),
                        nearest_site(&sites, p),
                        "k={k} field {w}x{h} p={p}"
                    );
                }
            }
        }
    }

    #[test]
    fn site_index_ties_break_identically_on_cell_boundaries() {
        // Points exactly on cell edges and corners are equidistant
        // between adjacent sites; the window scan must pick the same
        // (lowest) index the linear scan does.
        let sites = lattice_sites(16, 80.0, 80.0);
        let idx = SiteIndex::new(&sites);
        for gx in 0..=4 {
            for gy in 0..=4 {
                let p = Point::new(gx as f64 * 20.0, gy as f64 * 20.0);
                assert_eq!(idx.nearest(p), nearest_site(&sites, p), "corner {p}");
                let e = Point::new(gx as f64 * 20.0, gy as f64 * 20.0 + 10.0);
                assert_eq!(idx.nearest(e), nearest_site(&sites, e), "edge {e}");
            }
        }
        // And exactly on the sites themselves (distance zero).
        for (i, &s) in sites.iter().enumerate() {
            assert_eq!(idx.nearest(s), Some(i));
        }
    }

    /// `v` moved `k` ulps up (`k > 0`) or down (`k < 0`).
    fn ulps(v: f64, k: i32) -> f64 {
        (0..k.unsigned_abs()).fold(v, |v, _| if k > 0 { v.next_up() } else { v.next_down() })
    }

    #[test]
    fn site_index_interior_fast_path_matches_linear_scan() {
        let mut rng = SimRng::seed_from(0x1A7);
        for k in [4usize, 9, 16, 64, 256] {
            for &(w, h) in &[
                (100.0, 100.0),
                (640.0, 640.0),
                (320.0, 40.0),
                (16.0, 400.0),
                (0.3, 0.7),
            ] {
                let sites = lattice_sites(k, w, h);
                let lattice = SiteLattice::detect(&sites).expect("complete lattice");
                let idx = SiteIndex::with_lattice(&sites, Some(lattice));
                let check = |p: Point, what: &str| {
                    assert_eq!(
                        idx.nearest(p),
                        nearest_site(&sites, p),
                        "k={k} {w}x{h} {what} {p:?}"
                    );
                };
                // Seeded points, and how many the O(1) path answers.
                let mut interior = 0;
                for _ in 0..500 {
                    let p = Point::new(rng.uniform_range(0.0, w), rng.uniform_range(0.0, h));
                    check(p, "random");
                    interior += usize::from(lattice.interior_cell(p).is_some());
                }
                let aspect = (lattice.dx / lattice.dy).max(lattice.dy / lattice.dx);
                if aspect <= INTERIOR_MAX_ASPECT {
                    assert!(
                        interior >= 490,
                        "k={k} {w}x{h}: only {interior}/500 interior"
                    );
                } else {
                    assert_eq!(
                        interior, 0,
                        "k={k} {w}x{h}: too elongated for the fast path"
                    );
                }
                // Every cell edge line (field edges included), exactly and
                // within a few ulps, crossed with every other axis's edges
                // (corners) and with cell middles (edges).
                let xs: Vec<f64> = (0..=lattice.cols)
                    .map(|c| lattice.x0 + c as f64 * lattice.dx)
                    .collect();
                let ys: Vec<f64> = (0..=lattice.rows)
                    .map(|r| lattice.y0 + r as f64 * lattice.dy)
                    .collect();
                let mids_x: Vec<f64> = xs.windows(2).map(|e| 0.5 * (e[0] + e[1])).collect();
                let mids_y: Vec<f64> = ys.windows(2).map(|e| 0.5 * (e[0] + e[1])).collect();
                for d in -4..=4 {
                    for &x in &xs {
                        for &y in ys.iter().chain(&mids_y) {
                            check(Point::new(ulps(x, d), y), "x-edge");
                            check(Point::new(ulps(x, d), ulps(y, -d)), "corner");
                        }
                    }
                    for &y in &ys {
                        for &x in &mids_x {
                            check(Point::new(x, ulps(y, d)), "y-edge");
                        }
                    }
                }
                // Just inside and outside the fast path's margin.
                for &x in &xs {
                    for f in [0.5, 0.999, 1.001, 2.0] {
                        let off = f * INTERIOR_MARGIN * lattice.dx;
                        for &y in &mids_y {
                            check(Point::new(x + off, y), "margin");
                            check(Point::new(x - off, y), "margin");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn site_index_cached_lattice_matches_fresh_detection() {
        let sites = lattice_sites(64, 100.0, 100.0);
        let lattice = SiteLattice::detect(&sites);
        assert!(lattice.is_some());
        assert_eq!(lattice.map(|l| l.len()), Some(64));
        let cached = SiteIndex::with_lattice(&sites, lattice);
        let fresh = SiteIndex::new(&sites);
        let mut rng = SimRng::seed_from(0xCA);
        for _ in 0..200 {
            let p = Point::new(rng.uniform_range(0.0, 100.0), rng.uniform_range(0.0, 100.0));
            assert_eq!(cached.nearest(p), fresh.nearest(p));
        }
        assert_eq!(SiteIndex::with_lattice(&sites, None).nearest(sites[5]), Some(5));
    }

    #[test]
    fn affiliation_accelerated_matches_linear_scan() {
        // `affiliation` now routes through `SiteIndex`; pin it against
        // the raw scan on an accelerated site set with drifting nodes.
        let mut rng = SimRng::seed_from(0xAF);
        let positions: Vec<Point> = (0..500)
            .map(|_| Point::new(rng.uniform_range(0.0, 120.0), rng.uniform_range(0.0, 90.0)))
            .collect();
        let t = Topology::from_positions(positions, 120.0, 90.0);
        let sites = lattice_sites(36, 120.0, 90.0);
        assert!(SiteIndex::new(&sites).is_accelerated());
        let aff = t.affiliation(&sites);
        for (id, p) in t.iter() {
            assert_eq!(aff[id.index()], nearest_site(&sites, p).unwrap());
        }
    }
}

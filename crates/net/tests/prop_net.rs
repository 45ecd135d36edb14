//! Property-style tests for the network substrate.
//!
//! Random cases are generated with the crate's own seeded [`SimRng`],
//! so every run checks the identical case set.

use tibfit_net::channel::{BernoulliLoss, ChannelModel, DistanceLoss, Perfect};
use tibfit_net::geometry::{Point, Polar};
use tibfit_net::topology::{nearest_site, SiteIndex, SiteLattice, Topology};
use tibfit_sim::rng::SimRng;

fn case_seeds(n: u64) -> impl Iterator<Item = u64> {
    (0..n).map(|i| 0x0E70_0000u64.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

fn random_point(rng: &mut SimRng) -> Point {
    Point::new(rng.uniform_range(-1e3, 1e3), rng.uniform_range(-1e3, 1e3))
}

/// (r, θ) encoding round-trips to within float tolerance.
#[test]
fn polar_round_trip() {
    for seed in case_seeds(100) {
        let mut rng = SimRng::seed_from(seed);
        let origin = random_point(&mut rng);
        let target = random_point(&mut rng);
        let polar = origin.polar_to(target);
        let back = polar.resolve_from(origin);
        assert!(back.distance_to(target) < 1e-6);
    }
}

/// Distance is a metric: symmetric, zero on self, triangle inequality.
#[test]
fn distance_is_metric() {
    for seed in case_seeds(100) {
        let mut rng = SimRng::seed_from(seed);
        let a = random_point(&mut rng);
        let b = random_point(&mut rng);
        let c = random_point(&mut rng);
        assert!((a.distance_to(b) - b.distance_to(a)).abs() < 1e-9);
        assert!(a.distance_to(a) < 1e-12);
        assert!(a.distance_to(c) <= a.distance_to(b) + b.distance_to(c) + 1e-9);
    }
}

/// Polar range equals the Euclidean distance.
#[test]
fn polar_range_is_distance() {
    for seed in case_seeds(100) {
        let mut rng = SimRng::seed_from(seed);
        let origin = random_point(&mut rng);
        let target = random_point(&mut rng);
        let polar = origin.polar_to(target);
        assert!((polar.r - origin.distance_to(target)).abs() < 1e-9);
    }
}

/// The centroid lies within the bounding box of its points.
#[test]
fn centroid_in_bounding_box() {
    for seed in case_seeds(50) {
        let mut rng = SimRng::seed_from(seed);
        let pts: Vec<Point> = (0..1 + rng.uniform_usize(49))
            .map(|_| random_point(&mut rng))
            .collect();
        let c = Point::centroid(&pts).unwrap();
        let min_x = pts.iter().map(|p| p.x).fold(f64::INFINITY, f64::min);
        let max_x = pts.iter().map(|p| p.x).fold(f64::NEG_INFINITY, f64::max);
        let min_y = pts.iter().map(|p| p.y).fold(f64::INFINITY, f64::min);
        let max_y = pts.iter().map(|p| p.y).fold(f64::NEG_INFINITY, f64::max);
        assert!(c.x >= min_x - 1e-9 && c.x <= max_x + 1e-9);
        assert!(c.y >= min_y - 1e-9 && c.y <= max_y + 1e-9);
    }
}

/// Event-neighbor membership is exactly the distance predicate.
#[test]
fn event_neighbors_iff_within_radius() {
    for seed in case_seeds(30) {
        let mut rng = SimRng::seed_from(seed);
        let n = 1 + rng.uniform_usize(79);
        let event = Point::new(rng.uniform_range(0.0, 100.0), rng.uniform_range(0.0, 100.0));
        let r_s = rng.uniform_range(1.0, 40.0);
        let topo = Topology::uniform_random(n, 100.0, 100.0, &mut rng);
        let neighbors = topo.event_neighbors(event, r_s);
        for (id, pos) in topo.iter() {
            let inside = pos.distance_to(event) <= r_s;
            assert_eq!(
                neighbors.contains(&id),
                inside,
                "node {id:?} at {pos:?} (seed {seed})"
            );
        }
    }
}

/// Grid deployments always place the requested number of nodes strictly
/// inside the field.
#[test]
fn grid_properties() {
    for seed in case_seeds(30) {
        let mut rng = SimRng::seed_from(seed);
        let n = 1 + rng.uniform_usize(299);
        let w = rng.uniform_range(1.0, 500.0);
        let h = rng.uniform_range(1.0, 500.0);
        let topo = Topology::uniform_grid(n, w, h);
        assert_eq!(topo.len(), n);
        for (_, p) in topo.iter() {
            assert!(p.x > 0.0 && p.x < w);
            assert!(p.y > 0.0 && p.y < h);
        }
    }
}

/// nearest_node returns a true arg-min.
#[test]
fn nearest_node_is_argmin() {
    for seed in case_seeds(30) {
        let mut rng = SimRng::seed_from(seed);
        let n = 1 + rng.uniform_usize(49);
        let q = Point::new(rng.uniform_range(0.0, 100.0), rng.uniform_range(0.0, 100.0));
        let topo = Topology::uniform_random(n, 100.0, 100.0, &mut rng);
        let best = topo.nearest_node(q).unwrap();
        let best_d = topo.position(best).distance_to(q);
        for (_, p) in topo.iter() {
            assert!(best_d <= p.distance_to(q) + 1e-9);
        }
    }
}

/// DistanceLoss is a valid probability and non-decreasing in distance.
#[test]
fn distance_loss_valid() {
    for seed in case_seeds(50) {
        let mut rng = SimRng::seed_from(seed);
        let reliable = rng.uniform_range(0.1, 50.0);
        let extra = rng.uniform_range(0.1, 50.0);
        let d = rng.uniform_range(0.0, 200.0);
        let ch = DistanceLoss::new(reliable, reliable + extra);
        let loss = ch.loss_at(d);
        assert!((0.0..=1.0).contains(&loss));
        assert!(ch.loss_at(d + 1.0) >= loss - 1e-12);
    }
}

/// Bernoulli loss frequency tracks the configured probability.
#[test]
fn bernoulli_rate() {
    for seed in case_seeds(10) {
        let mut rng = SimRng::seed_from(seed);
        let p = rng.uniform_range(0.05, 0.95);
        let ch = BernoulliLoss::new(p);
        let n = 10_000;
        let drops = (0..n)
            .filter(|_| !ch.delivers(Point::ORIGIN, Point::ORIGIN, &mut rng))
            .count() as f64;
        assert!((drops / n as f64 - p).abs() < 0.05, "seed {seed} p {p}");
    }
}

/// The perfect channel never drops, regardless of endpoints.
#[test]
fn perfect_never_drops() {
    for seed in case_seeds(50) {
        let mut rng = SimRng::seed_from(seed);
        let a = random_point(&mut rng);
        let b = random_point(&mut rng);
        assert!(Perfect.delivers(a, b, &mut rng));
    }
}

/// Polar construction accepts any non-negative range.
#[test]
fn polar_constructor_total() {
    for seed in case_seeds(50) {
        let mut rng = SimRng::seed_from(seed);
        let r = rng.uniform_range(0.0, 1e6);
        let theta = rng.uniform_range(-10.0, 10.0);
        let p = Polar::new(r, theta);
        assert_eq!(p.r, r);
    }
}

/// Row-major cell centres of a `cols × rows` lattice of `dx × dy` cells
/// whose lower-left corner is `origin` — `grid_sites` when the origin is
/// zero and the field is square.
fn lattice(cols: usize, rows: usize, origin: Point, dx: f64, dy: f64) -> Vec<Point> {
    (0..rows)
        .flat_map(|r| {
            (0..cols).map(move |c| {
                Point::new(
                    origin.x + (c as f64 + 0.5) * dx,
                    origin.y + (r as f64 + 0.5) * dy,
                )
            })
        })
        .collect()
}

/// `v` moved `k` ulps up (`k > 0`) or down (`k < 0`).
fn ulps(v: f64, k: i32) -> f64 {
    (0..k.unsigned_abs()).fold(v, |v, _| if k > 0 { v.next_up() } else { v.next_down() })
}

/// The lattices the own-cell box is checked on: `grid_sites(k, field)`
/// for k ∈ {4, 16, 64, 256}, then offset and elongated ones up to the
/// interior fast path's aspect bound of 8, and two past it. Lattice
/// detection wants `grid_sites`' column count, `ceil(sqrt(k))`, so the
/// elongation is in the cell, not in the column/row split.
fn own_box_lattices() -> Vec<(String, usize, usize, Point, f64, f64)> {
    let mut out = Vec::new();
    for (k, field) in [(4usize, 100.0), (16, 100.0), (64, 320.0), (256, 640.0), (256, 0.7)] {
        let cols = (k as f64).sqrt().ceil() as usize;
        let rows = k.div_ceil(cols);
        let (dx, dy) = (field / cols as f64, field / rows as f64);
        out.push((format!("grid_sites({k}, {field})"), cols, rows, Point::new(0.0, 0.0), dx, dy));
    }
    for (cols, rows, origin, dx, dy) in [
        (8usize, 8usize, Point::new(-517.25, 1e4 + 0.1), 12.5, 12.5),
        (4, 3, Point::new(3.0, -7.5), 40.0, 5.0),
        (5, 4, Point::new(1e5, 2e5), 0.75, 6.0),
        (6, 6, Point::new(-0.001, 0.002), 1.0 / 3.0, 1.0 / 3.0),
        (8, 7, Point::new(-64.0, 12.0), 3.0, 1.5),
        (4, 3, Point::new(0.0, 0.0), 2.0, 18.0),
        (6, 5, Point::new(11.0, 0.0), 90.0, 10.0),
    ] {
        out.push((format!("{cols}x{rows} at {origin} cell {dx}x{dy}"), cols, rows, origin, dx, dy));
    }
    out
}

/// Inside its own box, a point is nearest to the box's site; outside
/// the lattice no box applies; and a lattice too elongated for the
/// interior fast path gets no box at all.
#[test]
fn own_cell_box_implies_own_site() {
    let mut rng = SimRng::seed_from(0x0B0C);
    for (what, cols, rows, origin, dx, dy) in own_box_lattices() {
        let sites = lattice(cols, rows, origin, dx, dy);
        let lattice = SiteLattice::detect(&sites).expect("a complete lattice");
        let index = SiteIndex::new(&sites);
        let elongated = dx.max(dy) > 8.0 * dx.min(dy);
        let check = |site: usize, p: Point, how: &str| {
            let b = lattice.own_cell_box(site).expect("a box");
            if b.contains(p) {
                assert_eq!(index.nearest(p), Some(site), "{what}: site {site} {how} {p:?}");
                if sites.len() <= 64 {
                    assert_eq!(nearest_site(&sites, p), Some(site), "{what}: {how} {p:?}");
                }
            }
        };
        for site in 0..sites.len() {
            let Some(b) = lattice.own_cell_box(site) else {
                assert!(elongated, "{what}: site {site} has no box");
                continue;
            };
            assert!(!elongated, "{what}: an elongated lattice got a box");
            let (c, r) = ((site % cols) as f64, (site / cols) as f64);
            let cell = (
                origin.x + c * dx,
                origin.x + (c + 1.0) * dx,
                origin.y + r * dy,
                origin.y + (r + 1.0) * dy,
            );
            let mid = Point::new(0.5 * (cell.0 + cell.1), 0.5 * (cell.2 + cell.3));
            assert!(b.contains(mid), "{what}: site {site}'s box misses its centre");
            // Seeded points across the box.
            for _ in 0..8 {
                let p = Point::new(
                    rng.uniform_range(b.min_x, b.max_x),
                    rng.uniform_range(b.min_y, b.max_y),
                );
                check(site, p, "random");
            }
            for k in 1..=4 {
                for d in [-k, k] {
                    // The box's own edges and corners, a few ulps either way.
                    for x in [b.min_x, b.max_x] {
                        check(site, Point::new(ulps(x, d), mid.y), "box x-edge");
                        for y in [b.min_y, b.max_y] {
                            check(site, Point::new(ulps(x, d), ulps(y, -d)), "box corner");
                        }
                    }
                    for y in [b.min_y, b.max_y] {
                        check(site, Point::new(mid.x, ulps(y, d)), "box y-edge");
                    }
                    // The cell's edges a few ulps in: never inside the box.
                    for p in [
                        Point::new(ulps(cell.0, k), mid.y),
                        Point::new(ulps(cell.1, -k), mid.y),
                        Point::new(mid.x, ulps(cell.2, k)),
                        Point::new(mid.x, ulps(cell.3, -k)),
                    ] {
                        assert!(!b.contains(p), "{what}: site {site} box holds cell edge {p:?}");
                    }
                }
            }
            // At the margin: half the box margin in is outside the box,
            // twice it is inside, and either way the box never lies.
            let m = 2e-6;
            for f in [0.5, 0.999, 1.001, 2.0] {
                for (p, inside) in [
                    (Point::new(cell.0 + f * m * dx, mid.y), f > 1.0),
                    (Point::new(cell.1 - f * m * dx, mid.y), f > 1.0),
                    (Point::new(mid.x, cell.2 + f * m * dy), f > 1.0),
                    (Point::new(mid.x, cell.3 - f * m * dy), f > 1.0),
                ] {
                    if f == 0.5 || f == 2.0 {
                        assert_eq!(b.contains(p), inside, "{what}: site {site} margin {f} {p:?}");
                    }
                    check(site, p, "margin");
                }
            }
        }
        // Outside the lattice's extent no site's box applies.
        if elongated {
            continue;
        }
        let (w, h) = (cols as f64 * dx, rows as f64 * dy);
        for _ in 0..200 {
            let x = rng.uniform_range(origin.x - w, origin.x + 2.0 * w);
            let y = rng.uniform_range(origin.y - h, origin.y + 2.0 * h);
            let outside = x <= origin.x || x >= origin.x + w || y <= origin.y || y >= origin.y + h;
            if !outside {
                continue;
            }
            let p = Point::new(x, y);
            for site in 0..sites.len() {
                let b = lattice.own_cell_box(site).expect("a box");
                assert!(!b.contains(p), "{what}: site {site}'s box holds outside point {p:?}");
            }
        }
        assert_eq!(lattice.own_cell_box(sites.len()), None, "{what}: out-of-range site");
    }
}

/// Sites that are not a complete lattice have no lattice, so no box:
/// callers keep the plain nearest-site lookup for them.
#[test]
fn non_lattice_sites_get_no_own_cell_box() {
    let mut bent = lattice(4, 4, Point::new(0.0, 0.0), 10.0, 10.0);
    bent[5] = bent[5].offset(0.5, 0.0);
    assert!(SiteLattice::detect(&bent).is_none());
    assert!(SiteLattice::detect(&lattice(4, 4, Point::new(0.0, 0.0), 10.0, 10.0)[..15]).is_none());
    assert!(SiteLattice::detect(&[Point::new(1.0, 1.0), Point::new(2.0, 2.0)]).is_none());
}

//! Property-style tests for the simulation kernel.
//!
//! Each test sweeps many seeded random cases (the generator is the
//! crate's own [`SimRng`], so runs are deterministic) and asserts the
//! same invariants a property-testing framework would shrink against.

use tibfit_sim::rng::SimRng;
use tibfit_sim::stats::{Running, Series};
use tibfit_sim::{Engine, SimTime};

/// Deterministic per-case seeds for the sweep loops.
fn case_seeds(n: u64) -> impl Iterator<Item = u64> {
    (0..n).map(|i| 0x5EED_0000u64.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// The engine always yields events in non-decreasing time order,
/// regardless of scheduling order.
#[test]
fn queue_pops_sorted() {
    for seed in case_seeds(50) {
        let mut rng = SimRng::seed_from(seed);
        let n = 1 + rng.uniform_usize(199);
        let times: Vec<u64> = (0..n).map(|_| rng.next_u64() % 1_000_000).collect();
        let mut q = Engine::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_ticks(t), i);
        }
        let mut prev = SimTime::ZERO;
        let mut count = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= prev);
            prev = t;
            count += 1;
        }
        assert_eq!(count, times.len());
    }
}

/// Same-time events preserve insertion (FIFO) order.
#[test]
fn queue_ties_are_fifo() {
    for seed in case_seeds(20) {
        let mut rng = SimRng::seed_from(seed);
        let n = 1 + rng.uniform_usize(99);
        let t = rng.next_u64() % 1000;
        let mut q = Engine::new();
        for i in 0..n {
            q.schedule_at(SimTime::from_ticks(t), i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..n).collect::<Vec<_>>());
    }
}

/// The engine clock never goes backwards and pops every scheduled
/// event exactly once.
#[test]
fn engine_dispatches_all_live_events() {
    for seed in case_seeds(50) {
        let mut rng = SimRng::seed_from(seed);
        let n = 1 + rng.uniform_usize(99);
        let times: Vec<u64> = (0..n).map(|_| rng.next_u64() % 100_000).collect();
        let mut engine = Engine::new();
        for (i, &t) in times.iter().enumerate() {
            engine.schedule_at(SimTime::from_ticks(t), i);
        }
        let mut seen = vec![false; n];
        let mut prev = SimTime::ZERO;
        while let Some((t, i)) = engine.pop() {
            assert!(t >= prev);
            assert_eq!(engine.now(), t);
            assert_eq!(t.ticks(), times[i]);
            assert!(!seen[i], "event {i} popped twice");
            seen[i] = true;
            prev = t;
        }
        assert!(seen.iter().all(|&s| s), "an event was never popped");
    }
}

/// Merging two Running accumulators equals accumulating sequentially.
#[test]
fn running_merge_equivalence() {
    for seed in case_seeds(50) {
        let mut rng = SimRng::seed_from(seed);
        let a: Vec<f64> = (0..rng.uniform_usize(100))
            .map(|_| rng.uniform_range(-1e6, 1e6))
            .collect();
        let b: Vec<f64> = (0..rng.uniform_usize(100))
            .map(|_| rng.uniform_range(-1e6, 1e6))
            .collect();
        let mut whole = Running::new();
        for &x in a.iter().chain(&b) {
            whole.push(x);
        }
        let mut left = Running::new();
        for &x in &a {
            left.push(x);
        }
        let mut right = Running::new();
        for &x in &b {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        if whole.count() > 0 {
            assert!((left.mean() - whole.mean()).abs() < 1e-6_f64.max(whole.mean().abs() * 1e-9));
            assert!(
                (left.variance() - whole.variance()).abs()
                    < 1e-3_f64.max(whole.variance() * 1e-6)
            );
        }
    }
}

/// Running's min/max bound its mean.
#[test]
fn running_mean_bounded() {
    for seed in case_seeds(50) {
        let mut rng = SimRng::seed_from(seed);
        let n = 1 + rng.uniform_usize(199);
        let mut r = Running::new();
        for _ in 0..n {
            r.push(rng.uniform_range(-1e9, 1e9));
        }
        assert!(r.mean() >= r.min().unwrap() - 1e-6);
        assert!(r.mean() <= r.max().unwrap() + 1e-6);
    }
}

/// Series aggregation: the mean at each x equals the mean of the
/// recorded ys there.
#[test]
fn series_mean_per_bucket() {
    for seed in case_seeds(20) {
        let mut rng = SimRng::seed_from(seed);
        let ys: Vec<f64> = (0..1 + rng.uniform_usize(49))
            .map(|_| rng.uniform_f64())
            .collect();
        let mut s = Series::new("t");
        for &y in &ys {
            s.record(10.0, y);
        }
        let expected = ys.iter().sum::<f64>() / ys.len() as f64;
        assert!((s.y_at(10.0).unwrap() - expected).abs() < 1e-9);
    }
}

/// SimRng::chance(p) over many trials lands near p.
#[test]
fn rng_chance_frequency() {
    for seed in case_seeds(10) {
        let mut rng = SimRng::seed_from(seed);
        let p = 0.05 + 0.9 * SimRng::seed_from(seed ^ 1).uniform_f64();
        let n = 20_000;
        let hits = (0..n).filter(|_| rng.chance(p)).count() as f64;
        assert!((hits / n as f64 - p).abs() < 0.03, "seed {seed} p {p}");
    }
}

/// Forked RNG streams are reproducible from the parent seed.
#[test]
fn rng_fork_deterministic() {
    for seed in case_seeds(20) {
        let salt = seed.rotate_left(17) ^ 0xABCD;
        let mut a = SimRng::seed_from(seed);
        let mut b = SimRng::seed_from(seed);
        let mut fa = a.fork(salt);
        let mut fb = b.fork(salt);
        for _ in 0..16 {
            assert_eq!(fa.uniform_f64().to_bits(), fb.uniform_f64().to_bits());
        }
    }
}

/// shuffle produces a permutation.
#[test]
fn rng_shuffle_permutes() {
    for seed in case_seeds(20) {
        let mut rng = SimRng::seed_from(seed);
        let n = rng.uniform_usize(200);
        let mut v: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }
}

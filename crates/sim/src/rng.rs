//! Deterministic randomness for simulations.
//!
//! All stochastic behaviour in the reproduction flows through [`SimRng`] so
//! that a single `u64` seed pins down an entire run. The generator is a
//! self-contained xoshiro256++ (Blackman & Vigna) seeded through SplitMix64,
//! so the crate carries no external dependency; on top of the raw stream it
//! adds the distributions the paper's workloads need: Bernoulli trials,
//! uniform points in a rectangle, and Gaussian samples (Box–Muller, so no
//! extra dependency on a distributions crate).

/// One SplitMix64 step: used for seed expansion and stream splitting.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the RNG stream seed for one numbered stream (a cluster, a
/// tenant, ...) from a master seed.
///
/// The derivation is a pure function of `(master, stream)` — two
/// SplitMix64-style avalanche rounds over the pair — so it is independent
/// of the order in which streams are created. Distinct `(master, stream)`
/// pairs produce decorrelated seeds even for adjacent indices.
///
/// ```rust
/// use tibfit_sim::rng::stream_seed;
/// assert_eq!(stream_seed(42, 3), stream_seed(42, 3));
/// assert_ne!(stream_seed(42, 3), stream_seed(42, 4));
/// assert_ne!(stream_seed(42, 3), stream_seed(43, 3));
/// ```
#[must_use]
pub fn stream_seed(master: u64, stream: u64) -> u64 {
    let mut z = master ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    // Second round decorrelates (master, stream) from (master^1, stream^1)
    // style near-collisions.
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seedable random number generator with simulation-oriented helpers.
///
/// ```rust
/// use tibfit_sim::rng::SimRng;
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.uniform_f64(), b.uniform_f64()); // deterministic
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
    /// Cached second output of the last Box–Muller transform.
    gauss_spare: Option<f64>,
}

/// The complete internal state of a [`SimRng`], exposed for
/// checkpoint/restore.
///
/// The Box–Muller spare is part of the state: dropping it would shift
/// every Gaussian draw after a restore by one transform, silently
/// desynchronising a resumed run from the original.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RngState {
    /// xoshiro256++ state words. Must not be all zero (the all-zero
    /// state is a fixed point of the generator).
    pub s: [u64; 4],
    /// Cached second output of the last Box–Muller transform, if any.
    pub gauss_spare: Option<f64>,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        // SplitMix64 expansion guarantees a non-zero xoshiro state even
        // for seed 0 and decorrelates similar seeds.
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng {
            s,
            gauss_spare: None,
        }
    }

    /// Creates the generator for numbered stream `stream` of a master
    /// seed.
    ///
    /// Unlike [`SimRng::fork`], which consumes parent output, this is a
    /// pure function of `(master, stream)` — the stream a cluster
    /// receives does not depend on how many siblings were created before
    /// it or in what order (see [`stream_seed`]).
    #[must_use]
    pub fn stream(master: u64, stream: u64) -> SimRng {
        SimRng::seed_from(stream_seed(master, stream))
    }

    /// Captures the generator's complete internal state.
    #[must_use]
    pub fn state(&self) -> RngState {
        RngState {
            s: self.s,
            gauss_spare: self.gauss_spare,
        }
    }

    /// Reconstructs a generator from a captured [`RngState`].
    ///
    /// Returns `None` for states no healthy generator can be in: an
    /// all-zero xoshiro state (the generator would emit zeros forever)
    /// or a non-finite Box–Muller spare. The restored generator
    /// continues the original's output stream exactly.
    #[must_use]
    pub fn from_state(state: RngState) -> Option<SimRng> {
        if state.s == [0; 4] {
            return None;
        }
        if state.gauss_spare.is_some_and(|z| !z.is_finite()) {
            return None;
        }
        Some(SimRng {
            s: state.s,
            gauss_spare: state.gauss_spare,
        })
    }

    /// Derives an independent child generator; used to give each node its
    /// own stream so adding a node does not perturb the others' draws.
    #[must_use]
    pub fn fork(&mut self, salt: u64) -> SimRng {
        // Mix the salt into fresh output of the parent stream.
        let base = self.next_u64();
        SimRng::seed_from(base ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next raw 64-bit output (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// The next raw 32-bit output (upper half of the 64-bit stream).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniform sample in `[0, 1)`.
    pub fn uniform_f64(&mut self) -> f64 {
        // 53 high bits -> [0, 1) with full double precision.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is non-finite.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite(), "bounds must be finite");
        assert!(lo < hi, "uniform_range requires lo < hi, got [{lo}, {hi})");
        let x = lo + self.uniform_f64() * (hi - lo);
        // Floating rounding can land exactly on `hi`; keep the half-open
        // contract.
        if x >= hi {
            hi.next_down()
        } else {
            x
        }
    }

    /// A uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn uniform_usize(&mut self, n: usize) -> usize {
        assert!(n > 0, "uniform_usize requires n > 0");
        // Lemire's multiply-shift range reduction (bias < 2^-64 per draw,
        // far below anything a simulation statistic can resolve).
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// A Bernoulli trial: `true` with probability `p`.
    ///
    /// `p <= 0` always yields `false`; `p >= 1` always yields `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform_f64() < p
        }
    }

    /// A standard-normal sample via the Box–Muller transform.
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        let (u1, u2) = self.box_muller_uniforms();
        let r = box_muller_radius(u1);
        let theta = box_muller_angle(u2);
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// The two uniforms of one Box–Muller transform, in stream order:
    /// `u1` in `(0, 1]` (clamped up to `f64::MIN_POSITIVE`, which keeps
    /// `ln(u1)` finite) and `u2` in `[0, 1)`.
    fn box_muller_uniforms(&mut self) -> (f64, f64) {
        let mut u1 = self.uniform_f64();
        if u1 <= f64::MIN_POSITIVE {
            u1 = f64::MIN_POSITIVE;
        }
        (u1, self.uniform_f64())
    }

    /// A normal sample with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or non-finite.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(
            std_dev.is_finite() && std_dev >= 0.0,
            "std_dev must be finite and non-negative, got {std_dev}"
        );
        mean + std_dev * self.standard_normal()
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.uniform_usize(i + 1);
            items.swap(i, j);
        }
    }

    /// Chooses `k` distinct indices from `0..n` uniformly at random.
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn choose_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot choose {k} from {n}");
        let mut idx: Vec<usize> = (0..n).collect();
        self.shuffle(&mut idx);
        idx.truncate(k);
        idx
    }
}

/// The Box–Muller radius of the uniform `u1`.
fn box_muller_radius(u1: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt()
}

/// The Box–Muller angle of the uniform `u2`.
fn box_muller_angle(u2: f64) -> f64 {
    2.0 * std::f64::consts::PI * u2
}

/// Standard normals of several [`SimRng`] streams, drawn together: each
/// stream's normals are bit for bit what the same number of
/// [`SimRng::standard_normal`] calls would return, and each stream is
/// left in the same state, spare included.
///
/// [`NormalChunk::queue`] takes a stream's pending spare and draws, in
/// stream order, the uniforms of every transform its remaining normals
/// need. [`NormalChunk::evaluate`] then takes every radius, and every
/// angle's `sin`/`cos` in angle order: a counting sort on `u2` into up
/// to 256 buckets. Both are pure functions, so the order changes no
/// result, but glibc's `sincos` branches on its argument's range and
/// quadrant, and angles in order keep those branches predictable.
/// [`NormalChunk::finish`] hands each stream its normals and parks its
/// new spare. The scratch grows to the largest chunk queued and is
/// reused after [`NormalChunk::clear`].
///
/// ```rust
/// use tibfit_sim::rng::{NormalChunk, SimRng};
/// let (mut a, mut b) = (SimRng::seed_from(1), SimRng::seed_from(2));
/// let (mut a2, mut b2) = (a.clone(), b.clone());
/// let mut chunk = NormalChunk::default();
/// let (lane_a, lane_b) = (chunk.queue(&mut a, 3), chunk.queue(&mut b, 4));
/// chunk.evaluate();
/// let za: Vec<f64> = (0..3).map(|_| a2.standard_normal()).collect();
/// let zb: Vec<f64> = (0..4).map(|_| b2.standard_normal()).collect();
/// assert_eq!(chunk.finish(lane_a, &mut a), za);
/// assert_eq!(chunk.finish(lane_b, &mut b), zb);
/// assert_eq!(a.state(), a2.state());
/// ```
#[derive(Debug, Default)]
pub struct NormalChunk {
    /// Per transform: its `u1`, then, once evaluated, its radius.
    radius: Vec<f64>,
    /// Per transform: its `u2`.
    u2: Vec<f64>,
    /// Per transform: where its `r·cos` goes in `out`; its `r·sin` goes
    /// in the next slot.
    slot: Vec<u32>,
    /// Transform indices in angle-bucket order.
    order: Vec<u32>,
    /// Counting-sort bucket offsets.
    buckets: Vec<u32>,
    /// Every lane's normals, lane after lane. A lane whose last
    /// transform leaves a spare has one more slot, which holds it.
    out: Vec<f64>,
    lanes: Vec<Lane>,
}

/// One [`NormalChunk::queue`] call's share of the chunk's output.
#[derive(Debug, Clone, Copy)]
struct Lane {
    start: usize,
    len: usize,
    /// The slot after the lane's normals holds its stream's new spare.
    parks_spare: bool,
}

impl NormalChunk {
    /// Empties the chunk, keeping its buffers.
    pub fn clear(&mut self) {
        self.radius.clear();
        self.u2.clear();
        self.slot.clear();
        self.out.clear();
        self.lanes.clear();
    }

    /// Box–Muller transforms queued since the last clear.
    #[must_use]
    pub fn transforms(&self) -> usize {
        self.u2.len()
    }

    /// Queues the next `n` standard normals of `rng` as a new lane and
    /// returns its index. Takes `rng`'s pending spare (the first of the
    /// `n`) and draws the uniforms of the `⌈(n − spare)/2⌉` transforms
    /// the rest need, so `rng` must not be used again before
    /// [`NormalChunk::finish`] parks its new spare.
    ///
    /// # Panics
    ///
    /// Panics if the chunk's output outgrows `u32` indices.
    pub fn queue(&mut self, rng: &mut SimRng, n: usize) -> usize {
        let start = self.out.len();
        let mut next = start;
        if n > 0 {
            if let Some(z) = rng.gauss_spare.take() {
                self.out.push(z);
                next += 1;
            }
        }
        let transforms = (start + n - next).div_ceil(2);
        let end = next + 2 * transforms;
        assert!(u32::try_from(end).is_ok(), "a normal chunk is indexed by u32");
        self.out.resize(end, 0.0);
        for slot in (next..end).step_by(2) {
            let (u1, u2) = rng.box_muller_uniforms();
            self.radius.push(u1);
            self.u2.push(u2);
            self.slot.push(slot as u32);
        }
        self.lanes.push(Lane {
            start,
            len: n,
            parks_spare: end > start + n,
        });
        self.lanes.len() - 1
    }

    /// Evaluates every queued transform, writing its `r·cos` and `r·sin`
    /// into its lane. Called once, after the chunk's last
    /// [`NormalChunk::queue`].
    pub fn evaluate(&mut self) {
        for u in &mut self.radius {
            *u = box_muller_radius(*u);
        }
        let n = self.u2.len();
        let buckets = (n / 16).next_power_of_two().clamp(1, 256);
        // `u2 < 1` and the scale is a power of two, so the product is
        // exact and below `buckets`.
        let scale = buckets as f64;
        let bucket = |u: f64| (u * scale) as usize;
        self.buckets.clear();
        self.buckets.resize(buckets + 1, 0);
        for &u in &self.u2 {
            self.buckets[bucket(u) + 1] += 1;
        }
        for b in 1..=buckets {
            self.buckets[b] += self.buckets[b - 1];
        }
        self.order.resize(n, 0);
        for (t, &u) in self.u2.iter().enumerate() {
            let at = &mut self.buckets[bucket(u)];
            self.order[*at as usize] = t as u32;
            *at += 1;
        }
        for &t in &self.order {
            let t = t as usize;
            let (sin, cos) = box_muller_angle(self.u2[t]).sin_cos();
            let r = self.radius[t];
            let at = self.slot[t] as usize;
            self.out[at] = r * cos;
            self.out[at + 1] = r * sin;
        }
    }

    /// Lane `lane`'s normals, after [`NormalChunk::evaluate`]; parks the
    /// spare its last transform left on `rng`, the stream it was queued
    /// from.
    ///
    /// # Panics
    ///
    /// Panics if no lane `lane` was queued.
    pub fn finish(&self, lane: usize, rng: &mut SimRng) -> &[f64] {
        let Lane { start, len, parks_spare } = self.lanes[lane];
        let end = start + len;
        if parks_spare {
            rng.gauss_spare = Some(self.out[end]);
        }
        &self.out[start..end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_seed_is_order_free_and_distinct() {
        let a: Vec<u64> = (0..64).map(|i| stream_seed(7, i)).collect();
        let b: Vec<u64> = (0..64).rev().map(|i| stream_seed(7, i)).collect();
        let b_rev: Vec<u64> = b.into_iter().rev().collect();
        assert_eq!(a, b_rev);
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 64, "derived seeds must not collide");
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams should diverge");
    }

    #[test]
    fn zero_seed_is_not_degenerate() {
        let mut r = SimRng::seed_from(0);
        let outputs: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        assert!(outputs.iter().any(|&x| x != 0), "stream stuck at zero");
        let mut dedup = outputs.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert!(dedup.len() > 4, "stream repeats immediately");
    }

    #[test]
    fn uniform_f64_in_unit_interval() {
        let mut r = SimRng::seed_from(21);
        for _ in 0..10_000 {
            let x = r.uniform_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed_from(0);
        assert!(!r.chance(0.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn chance_frequency_close_to_p() {
        let mut r = SimRng::seed_from(11);
        let n = 100_000;
        let hits = (0..n).filter(|_| r.chance(0.3)).count() as f64;
        let freq = hits / n as f64;
        assert!((freq - 0.3).abs() < 0.01, "freq {freq} far from 0.3");
    }

    #[test]
    fn normal_moments() {
        let mut r = SimRng::seed_from(3);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal(2.0, 1.5)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.02, "mean {mean}");
        assert!((var - 2.25).abs() < 0.05, "var {var}");
    }

    #[test]
    fn uniform_range_bounds() {
        let mut r = SimRng::seed_from(5);
        for _ in 0..1000 {
            let x = r.uniform_range(-3.0, 4.0);
            assert!((-3.0..4.0).contains(&x));
        }
    }

    #[test]
    fn uniform_usize_covers_range() {
        let mut r = SimRng::seed_from(17);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[r.uniform_usize(10)] = true;
        }
        assert!(seen.iter().all(|&s| s), "some residue never drawn");
    }

    #[test]
    #[should_panic(expected = "lo < hi")]
    fn uniform_range_rejects_empty() {
        SimRng::seed_from(0).uniform_range(1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "std_dev must be finite")]
    fn normal_rejects_negative_std() {
        SimRng::seed_from(0).normal(0.0, -1.0);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::seed_from(9);
        let mut v: Vec<usize> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn choose_indices_distinct_and_in_range() {
        let mut r = SimRng::seed_from(13);
        let picked = r.choose_indices(20, 8);
        assert_eq!(picked.len(), 8);
        let mut dedup = picked.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 8);
        assert!(picked.iter().all(|&i| i < 20));
    }

    #[test]
    fn state_roundtrip_continues_the_stream() {
        let mut original = SimRng::seed_from(77);
        for _ in 0..13 {
            let _ = original.next_u64();
        }
        // Park a Box–Muller spare so the restore has to carry it.
        let _ = original.standard_normal();
        let mut restored = SimRng::from_state(original.state()).unwrap();
        for _ in 0..8 {
            assert_eq!(original.standard_normal(), restored.standard_normal());
            assert_eq!(original.next_u64(), restored.next_u64());
        }
    }

    #[test]
    fn from_state_rejects_degenerate_states() {
        assert!(SimRng::from_state(RngState { s: [0; 4], gauss_spare: None }).is_none());
        assert!(SimRng::from_state(RngState {
            s: [1, 2, 3, 4],
            gauss_spare: Some(f64::NAN),
        })
        .is_none());
        assert!(SimRng::from_state(RngState { s: [1, 0, 0, 0], gauss_spare: Some(0.5) }).is_some());
    }

    /// Queues `n` normals of every stream in `streams` into one chunk
    /// and checks each lane and each stream's final state, spare
    /// included, against `n` scalar `standard_normal` calls.
    fn assert_chunk_matches_scalar(streams: &[(RngState, usize)], what: &str) {
        let mut rngs: Vec<SimRng> = streams
            .iter()
            .map(|&(s, _)| SimRng::from_state(s).unwrap())
            .collect();
        let mut chunk = NormalChunk::default();
        // A leftover chunk must not leak into the next one.
        chunk.queue(&mut SimRng::seed_from(0), 9);
        chunk.evaluate();
        chunk.clear();
        let lanes: Vec<usize> = rngs
            .iter_mut()
            .zip(streams)
            .map(|(rng, &(_, n))| chunk.queue(rng, n))
            .collect();
        chunk.evaluate();
        for (i, (&(state, n), rng)) in streams.iter().zip(&mut rngs).enumerate() {
            let mut scalar = SimRng::from_state(state).unwrap();
            let want: Vec<u64> = (0..n).map(|_| scalar.standard_normal().to_bits()).collect();
            let got: Vec<u64> = chunk.finish(lanes[i], rng).iter().map(|z| z.to_bits()).collect();
            assert_eq!(got, want, "{what}: stream {i}, {n} normals");
            assert_eq!(rng.state(), scalar.state(), "{what}: stream {i} state");
            assert_eq!(rng.next_u64(), scalar.next_u64(), "{what}: stream {i} continues");
        }
    }

    #[test]
    fn normal_chunk_matches_scalar_draws_bit_for_bit() {
        let spared = |seed: u64| {
            let mut r = SimRng::seed_from(seed);
            let _ = r.standard_normal();
            r.state()
        };
        let plain = |seed: u64| SimRng::seed_from(seed).state();
        for n in [0usize, 1, 2, 3, 7, 64, 1001] {
            assert_chunk_matches_scalar(&[(plain(n as u64), n)], "no spare");
            assert_chunk_matches_scalar(&[(spared(n as u64), n)], "spare");
        }
        // Many lanes of mixed sizes and spares in one chunk, past 256
        // angle buckets.
        let mut rng = SimRng::seed_from(0xC4);
        let mixed: Vec<(RngState, usize)> = (0..120)
            .map(|i| {
                let n = rng.uniform_usize(90);
                (if i % 3 == 0 { spared(i) } else { plain(i) }, n)
            })
            .collect();
        assert_chunk_matches_scalar(&mixed, "mixed lanes");
        assert_chunk_matches_scalar(&[(plain(5), 9000)], "one long lane");
        // The clamped-u1 edge: s0 = s3 = 0 makes the next output 0, so
        // u1 = 0 is clamped to MIN_POSITIVE before its log.
        let zero_first = RngState { s: [0, 1, 2, 0], gauss_spare: None };
        assert_eq!(SimRng::from_state(zero_first).unwrap().uniform_f64(), 0.0);
        assert_chunk_matches_scalar(&[(zero_first, 1), (zero_first, 6)], "clamped u1");
        let spared_zero = RngState { gauss_spare: Some(-0.25), ..zero_first };
        assert_chunk_matches_scalar(
            &[(spared_zero, 0), (spared_zero, 2), (spared_zero, 3)],
            "clamped u1 after a spare",
        );
    }

    #[test]
    fn fork_streams_are_independent_of_later_parent_use() {
        let mut parent_a = SimRng::seed_from(100);
        let mut parent_b = SimRng::seed_from(100);
        let mut child_a = parent_a.fork(1);
        let mut child_b = parent_b.fork(1);
        // Different downstream use of the parents must not affect children.
        let _ = parent_a.next_u64();
        for _ in 0..10 {
            assert_eq!(child_a.next_u64(), child_b.next_u64());
        }
    }
}

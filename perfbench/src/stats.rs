//! Order statistics and the FNV-1a digest the benchmark checks outputs
//! with.

/// Streaming FNV-1a (64-bit), the digest the decision logs, the query
/// answers and the sweep CSVs are compared by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.update(bytes);
    h.finish()
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples:
/// the smallest rank with at least `p`% of the samples at or below it.
fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of no samples");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    let r = (p / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n)
}

/// Nearest-rank percentile of samples sorted ascending.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// How many samples lie strictly above the nearest-rank `p`-th
/// percentile's position — a percentile is reported only when at
/// least ten do.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// Nearest-rank quartiles `(q1, median, q3)` of samples sorted
/// ascending.
pub fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    (
        percentile(sorted, 25.0),
        percentile(sorted, 50.0),
        percentile(sorted, 75.0),
    )
}

/// Median (nearest rank) of unsorted samples.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Five samples: p50 is the 3rd, p99 the 5th.
        let five = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&five, 50.0), 30.0);
        assert_eq!(percentile(&five, 99.0), 50.0);
        assert_eq!(percentile(&five, 20.0), 10.0);
        assert_eq!(percentile(&five, 21.0), 20.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn nearest_rank_quartiles_and_median() {
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.0, 4.0, 6.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn samples_beyond_the_percentile_guard() {
        // 1000 samples leave exactly 10 above p99; 999 leave 9.
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(beyond(100, 99.0), 1);
        assert_eq!(beyond(2000, 50.0), 1000);
        assert_eq!(beyond(1, 99.0), 0);
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        let mut split = Fnv::default();
        split.update(b"foo");
        split.update(b"bar");
        assert_eq!(split.finish(), fnv1a(b"foobar"));
    }
}

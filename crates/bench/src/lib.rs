//! Helpers for the `tibfit-bench` binary: the flat-JSON report reader,
//! an adaptive-unit time formatter, and the thread CPU clock the kernel
//! micros are timed with.

use std::time::Duration;

#[cfg(target_os = "linux")]
mod clock {
    use std::ffi::{c_int, c_long};
    use std::time::Duration;

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }

    /// Linux's `CLOCK_THREAD_CPUTIME_ID`.
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

    pub fn thread_cpu() -> Duration {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable `struct timespec`, and the
        // kernel always accepts the thread CPU clock id.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
        Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
    }
}

#[cfg(not(target_os = "linux"))]
mod clock {
    use std::sync::OnceLock;
    use std::time::{Duration, Instant};

    /// Elsewhere, wall time since the first call stands in.
    pub fn thread_cpu() -> Duration {
        static START: OnceLock<Instant> = OnceLock::new();
        START.get_or_init(Instant::now).elapsed()
    }
}

/// CPU time the calling thread has used. Unlike wall time it leaves out
/// what the scheduler or a hypervisor gives to anyone else, so a
/// microbenchmark sample does not absorb a neighbour's burst.
#[must_use]
pub fn thread_cpu() -> Duration {
    clock::thread_cpu()
}

/// Runs `work` back to back until the calling thread has used at least
/// `min` of CPU time; each call returns how many units it did. Returns
/// the thread CPU time used and the units done.
pub fn cpu_sample(min: Duration, mut work: impl FnMut() -> u64) -> (Duration, u64) {
    let start = thread_cpu();
    let mut units = 0;
    loop {
        units += work();
        let used = thread_cpu() - start;
        if used >= min {
            return (used, units);
        }
    }
}

/// Extracts the numeric value of `key` from a *flat* JSON object with
/// unique keys (the `BENCH_kernel.json` format emitted by
/// `tibfit-bench`). Not a general JSON parser: keys must not appear in
/// string values, and values must be plain numbers.
#[must_use]
pub fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Renders nanoseconds with an adaptive unit (ns/µs/ms/s).
#[must_use]
pub fn format_ns(ns: u128) -> String {
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_ns_picks_units() {
        assert_eq!(format_ns(999), "999 ns");
        assert_eq!(format_ns(1_500), "1.50 µs");
        assert_eq!(format_ns(2_000_000), "2.00 ms");
        assert_eq!(format_ns(3_500_000_000), "3.50 s");
    }

    #[test]
    fn json_number_reads_flat_objects() {
        let text = r#"{
  "schema_version": 1,
  "des_events_per_sec": 1234567.8,
  "des_cpu_ms": 42.5,
  "cti_cache_speedup": 3.1e0
}"#;
        assert_eq!(json_number(text, "schema_version"), Some(1.0));
        assert_eq!(json_number(text, "des_events_per_sec"), Some(1_234_567.8));
        assert_eq!(json_number(text, "des_cpu_ms"), Some(42.5));
        assert_eq!(json_number(text, "cti_cache_speedup"), Some(3.1));
        assert_eq!(json_number(text, "missing"), None);
    }

    #[test]
    fn cpu_samples_last_at_least_their_minimum() {
        let mut calls = 0u64;
        let (used, units) = cpu_sample(Duration::from_millis(2), || {
            calls += 1;
            std::hint::black_box((0..1000u64).sum::<u64>());
            3
        });
        assert!(used >= Duration::from_millis(2));
        assert_eq!(units, 3 * calls);
        assert!(thread_cpu() >= used);
    }

    #[test]
    fn json_number_ignores_malformed_values() {
        assert_eq!(json_number(r#"{"k": "text"}"#, "k"), None);
        assert_eq!(json_number("", "k"), None);
    }
}

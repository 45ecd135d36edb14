//! Helpers for the `tibfit-bench` binary: the flat-JSON report reader
//! and an adaptive-unit time formatter.

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
  "des_wall_ms": 42.5,
  "cti_cache_speedup": 3.1e0
}"#;
        assert_eq!(json_number(text, "schema_version"), Some(1.0));
        assert_eq!(json_number(text, "des_events_per_sec"), Some(1_234_567.8));
        assert_eq!(json_number(text, "des_wall_ms"), Some(42.5));
        assert_eq!(json_number(text, "cti_cache_speedup"), Some(3.1));
        assert_eq!(json_number(text, "missing"), None);
    }

    #[test]
    fn json_number_ignores_malformed_values() {
        assert_eq!(json_number(r#"{"k": "text"}"#, "k"), None);
        assert_eq!(json_number("", "k"), None);
    }
}

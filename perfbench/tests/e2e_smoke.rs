//! Every workload at `--smoke` size, measured and traced, through the
//! built binary: each run must pass every check — answers, decision-log
//! digests across both phases and the replay, the default-seed goldens —
//! and print exactly the metrics `BENCHMARK.json` names. No timing is
//! asserted.

use std::process::Command;

fn spec() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// The `"name"` values of one array of `BENCHMARK.json`.
fn names(spec: &str, key: &str) -> Vec<String> {
    let start = spec.find(&format!("\"{key}\"")).expect("key present");
    let body = &spec[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

/// The metric names of a result line, in order.
fn printed_metrics(result: &str) -> Vec<String> {
    result
        .split(": {\"value\": ")
        .map(|s| s.rsplit('"').nth(1).unwrap_or_default().to_string())
        .take(result.matches(": {\"value\": ").count())
        .collect()
}

#[test]
fn every_workload_passes_its_checks_and_prints_every_metric() {
    let spec = spec();
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("e2e-smoke");
    std::fs::create_dir_all(&dir).unwrap();
    for workload in names(&spec, "workloads") {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_tibfit-e2e"))
                .args(["--workload", &workload, "--smoke", "--trace", trace])
                .current_dir(&dir)
                .output()
                .unwrap();
            let stdout = String::from_utf8_lossy(&out.stdout);
            let stderr = String::from_utf8_lossy(&out.stderr);
            let what = format!("{workload} --trace {trace}");
            assert!(out.status.success(), "{what} failed:\n{stderr}");
            let result = stdout.lines().last().expect("a result line");
            assert!(
                result.starts_with("{\"correct\": true, ") && result.contains("\"failed\": 0, "),
                "{what}: {result}\n{stderr}"
            );
            assert_eq!(printed_metrics(result), names(&spec, section), "{what}");
            assert!(
                stdout.contains("machine.simd_tier "),
                "{what} prints the machine block"
            );
        }
    }
}

#[test]
fn a_bad_flag_fails_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_tibfit-e2e"))
        .args(["--workload", "nope"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}

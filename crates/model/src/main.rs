//! `tibfit-model` — exhaustive bounded-enumeration checker for the
//! TIBFIT protocol core.
//!
//! Enumerates every interleaving of judgement assignments, the
//! quarantine/probation/reintegration schedule, and CH
//! handoff/loss/resync actions over small configurations, asserting the
//! three protocol invariants (see the library docs and DESIGN.md §15)
//! on the production f64 trust table. Exits nonzero and prints a
//! counterexample trace on any violation.
//!
//! ```text
//! tibfit-model [--nodes N] [--rounds R] [--quick] [--widened]
//! ```

use std::process::ExitCode;
use std::time::Instant;

use tibfit_model::{check, sweep};

fn main() -> ExitCode {
    let mut nodes = 4usize;
    let mut rounds = 3usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--nodes" => {
                nodes = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--nodes needs an integer"));
            }
            "--rounds" => {
                rounds = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--rounds needs an integer"));
            }
            "--quick" => {
                nodes = 3;
                rounds = 2;
            }
            "--widened" => {
                nodes = 5;
                rounds = 3;
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    if !(1..=8).contains(&nodes) || !(1..=4).contains(&rounds) {
        usage("bounds: 1..=8 nodes, 1..=4 rounds (exhaustive enumeration)");
    }

    let started = Instant::now();
    let mut all_ok = true;
    let mut total_states = 0u64;
    for cfg in sweep(nodes, rounds) {
        let t0 = Instant::now();
        let report = check(cfg);
        total_states += report.distinct;
        println!(
            "{} {:<55} {:>9} distinct states  {:>6.1}s",
            if report.ok() { "ok  " } else { "FAIL" },
            report.label,
            report.distinct,
            t0.elapsed().as_secs_f64(),
        );
        for v in &report.violations {
            all_ok = false;
            println!("\n  VIOLATION [{}]: {}", v.invariant, v.detail);
            println!("  counterexample trace:");
            if v.trace.is_empty() {
                println!("    (initial state)");
            }
            for step in &v.trace {
                println!("    {step}");
            }
        }
    }
    println!(
        "\nchecked {} distinct states across {} configs in {:.1}s — {}",
        total_states,
        sweep(nodes, rounds).len(),
        started.elapsed().as_secs_f64(),
        if all_ok {
            "all invariants hold"
        } else {
            "INVARIANT VIOLATIONS FOUND"
        }
    );
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(problem: &str) -> ! {
    if !problem.is_empty() {
        eprintln!("error: {problem}");
    }
    eprintln!("usage: tibfit-model [--nodes N] [--rounds R] [--quick] [--widened]");
    std::process::exit(2);
}

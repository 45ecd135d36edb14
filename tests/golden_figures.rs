//! Golden-snapshot regression tests: the figure-generation pipeline is
//! fully deterministic (seeded RNG, order-preserving parallel sweeps), so
//! regenerating a figure with a fixed seed must reproduce the checked-in
//! CSV byte-for-byte. Any intentional change to protocol defaults or
//! experiment parameters shows up here first; regenerate the snapshots
//! with the instructions below when the change is deliberate.
//!
//! Regenerate: run each `figure*` with `(trials = 2, seed = 42)` and
//! `write_csv(Path::new("results/golden"))` (see the commented recipe at
//! the bottom of this file).

use std::path::Path;

use tibfit_experiments::report::FigureData;
use tibfit_experiments::{exp1, exp2, exp3, exp4_shadow, exp5_chaos};
use tibfit_sim::stats::Series;

const TRIALS: usize = 2;
const SEED: u64 = 42;

fn golden_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/golden"))
}

fn assert_matches_golden(fig: &FigureData) {
    let path = golden_dir().join(format!("{}.csv", fig.id));
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    let fresh = fig.to_csv();
    assert_eq!(
        fresh,
        golden,
        "figure {} no longer matches its golden snapshot; if the change \
         is intentional, regenerate results/golden/{}.csv",
        fig.id,
        fig.id
    );
}

#[test]
fn fig2_matches_golden() {
    assert_matches_golden(&exp1::figure2(TRIALS, SEED));
}

#[test]
fn fig3_matches_golden() {
    assert_matches_golden(&exp1::figure3(TRIALS, SEED));
}

#[test]
fn fig4_matches_golden() {
    assert_matches_golden(&exp2::figure4(TRIALS, SEED));
}

#[test]
fn fig5_matches_golden() {
    assert_matches_golden(&exp2::figure5(TRIALS, SEED));
}

#[test]
fn fig6_matches_golden() {
    assert_matches_golden(&exp2::figure6(TRIALS, SEED));
}

#[test]
fn fig7_matches_golden() {
    assert_matches_golden(&exp2::figure7(TRIALS, SEED));
}

#[test]
fn fig8_matches_golden() {
    assert_matches_golden(&exp3::figure8(TRIALS, SEED));
}

#[test]
fn fig9_matches_golden() {
    assert_matches_golden(&exp3::figure9(TRIALS, SEED));
}

#[test]
fn exp4_shadow_matches_golden() {
    assert_matches_golden(&exp4_shadow::figure_shadow(TRIALS, SEED));
}

#[test]
fn exp5_chaos_matches_golden() {
    // Drives the fault injector through the round-based lifecycle with
    // interned trace counters (not the DES engine, whose exact output
    // `des::tests::des_output_is_pinned` holds).
    assert_matches_golden(&exp5_chaos::figure_chaos(TRIALS, SEED));
}

#[test]
fn exp5_recovery_matches_golden() {
    assert_matches_golden(&exp5_chaos::figure_recovery_time(TRIALS, SEED));
}

#[test]
fn fig10_matches_golden() {
    let mut fig = FigureData::new("fig10", "t", "% faulty nodes", "P(success)");
    for line in tibfit_analysis::fig10::generate() {
        let mut s = Series::new(format!("p={}", line.p));
        for (x, y) in line.points {
            s.record(x, y);
        }
        fig.series.push(s);
    }
    assert_matches_golden(&fig);
}

#[test]
fn fig11_matches_golden() {
    let mut fig = FigureData::new("fig11", "t", "k", "f(k)");
    for line in tibfit_analysis::fig11::generate(60.0, 61) {
        let mut s = Series::new(format!("lambda={}", line.lambda));
        for (x, y) in line.points {
            s.record(x, y);
        }
        fig.series.push(s);
    }
    assert_matches_golden(&fig);
}

// Regeneration recipe (run from the workspace root):
//
// ```rust,ignore
// let dir = std::path::Path::new("results/golden");
// exp1::figure2(2, 42).write_csv(dir)?;
// exp1::figure3(2, 42).write_csv(dir)?;
// exp2::figure4(2, 42).write_csv(dir)?;   // likewise figure5..figure7
// exp3::figure8(2, 42).write_csv(dir)?;   // likewise figure9
// exp4_shadow::figure_shadow(2, 42).write_csv(dir)?;
// /* fig10/fig11 as constructed above */
// ```

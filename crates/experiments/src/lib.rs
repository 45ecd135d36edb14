//! # tibfit-experiments
//!
//! The experiment harness that reproduces every table and figure of the
//! TIBFIT paper's evaluation (§4) and analysis (§5):
//!
//! | Paper artifact | Module / function |
//! |---|---|
//! | Table 1 (Exp-1 parameters) | [`exp1::Exp1Config::paper_fig2`] / [`exp1::Exp1Config::paper_fig3`] |
//! | Figure 2 (binary, missed alarms) | [`exp1::figure2`] |
//! | Figure 3 (binary, missed + false alarms) | [`exp1::figure3`] |
//! | Table 2 (Exp-2 parameters) | [`exp2::Exp2Config::paper`] |
//! | Figure 4 (location, level 0) | [`exp2::figure4`] |
//! | Figure 5 (location, level 1) | [`exp2::figure5`] |
//! | Figure 6 (location, level 2) | [`exp2::figure6`] |
//! | Figure 7 (single vs concurrent) | [`exp2::figure7`] |
//! | Figures 8–9 (network decay) | [`exp3::figure8`] / [`exp3::figure9`] |
//! | Figure 10 (baseline analysis) | re-exported from [`tibfit_analysis::fig10`] |
//! | Figure 11 (tolerable corruption rate) | re-exported from [`tibfit_analysis::fig11`] |
//!
//! [`network`] holds the simulated cluster that drives the protocol stack
//! end-to-end (topology → behaviors → channel → cluster-head engine →
//! trust feedback); [`harness`] runs multi-trial sweeps; [`report`]
//! renders series as aligned tables and CSV.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod checkpoint;
pub mod des;
pub mod exp1;
pub mod exp2;
pub mod exp3;
pub mod exp4_shadow;
pub mod exp5_chaos;
pub mod exp6_scale;
pub mod harness;
pub mod multicluster;
pub mod network;
pub mod replay;
pub mod report;

pub use network::{BinaryRoundResult, ClusterSim, ClusterSimConfig, LocatedRoundResult, Role};

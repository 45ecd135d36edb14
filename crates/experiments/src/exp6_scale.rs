//! Experiment 6: scale sweep of the multi-cluster engine.
//!
//! Sweeps cluster counts over a constant-density field (one node per
//! 10×10 cell), runs the same mobile workload at every size, and reports
//! the wall-clock of the event rounds, the detection rate, and a
//! checksum of the final trust state. The checksum and detection rate
//! are pure functions of the seed and the deployment, so two runs of the
//! same sweep — or a run killed and resumed from its checkpoint — agree
//! on them exactly; only `elapsed_ns` is wall-clock noise.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use tibfit_adversary::behavior::NodeBehavior;
use tibfit_adversary::{CorrectNode, Level0Config, Level0Node};
use tibfit_net::channel::BernoulliLoss;
use tibfit_net::geometry::Point;
use tibfit_net::topology::Topology;
use tibfit_sim::rng::SimRng;
use tibfit_sim::shutdown;
use tibfit_sim::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};

use crate::checkpoint::{read_checkpoint, restore_sequential, save_sequential, write_checkpoint};
use crate::multicluster::{grid_sites, MultiClusterConfig, MultiClusterError, MultiClusterSim};

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct Exp6Config {
    /// Cluster counts to sweep.
    pub clusters: Vec<usize>,
    /// Nodes deployed per cluster (field area scales to keep density).
    pub nodes_per_cluster: usize,
    /// Event rounds per run.
    pub events: usize,
    /// Fraction of nodes that are level-0 faulty.
    pub faulty_fraction: f64,
    /// Master seed.
    pub seed: u64,
}

impl Exp6Config {
    /// The default sweep: clusters ∈ {5, 32, 128, 256} at 20 nodes each.
    #[must_use]
    pub fn paper_scale(seed: u64) -> Self {
        Exp6Config {
            clusters: vec![5, 32, 128, 256],
            nodes_per_cluster: 20,
            events: 40,
            faulty_fraction: 0.25,
            seed,
        }
    }

    /// A reduced sweep for tests and smoke runs.
    #[must_use]
    pub fn smoke(seed: u64) -> Self {
        Exp6Config {
            clusters: vec![2, 4],
            nodes_per_cluster: 10,
            events: 8,
            faulty_fraction: 0.25,
            seed,
        }
    }

    /// Production-scale sweep: 4 096 and 10 000 clusters at 100 nodes
    /// each — up to a million nodes on a ~3.2 km constant-density field.
    /// Cluster counts are perfect grid products so the cluster-head
    /// sites form a complete lattice and nearest-site queries (initial
    /// affiliation, every re-election sweep) run through the O(1)
    /// `SiteLattice` window instead of a linear scan over all heads —
    /// without it, building the 10k-cluster deployment alone would cost
    /// 10¹⁰ distance evaluations.
    #[must_use]
    pub fn big(seed: u64) -> Self {
        Exp6Config {
            clusters: vec![4096, 10_000],
            nodes_per_cluster: 100,
            events: 12,
            faulty_fraction: 0.25,
            seed,
        }
    }

    /// Validates the sweep parameters.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), Exp6Error> {
        if self.clusters.is_empty() {
            return Err(Exp6Error::EmptySweep);
        }
        if self.nodes_per_cluster == 0 {
            return Err(Exp6Error::NoNodes);
        }
        if self.events == 0 {
            return Err(Exp6Error::NoEvents);
        }
        if !(0.0..=1.0).contains(&self.faulty_fraction) {
            return Err(Exp6Error::BadFaultyFraction(self.faulty_fraction));
        }
        Ok(())
    }
}

/// Why the sweep was rejected or aborted.
#[derive(Debug, Clone, PartialEq)]
pub enum Exp6Error {
    /// No cluster counts to sweep.
    EmptySweep,
    /// Zero nodes per cluster.
    NoNodes,
    /// Zero event rounds.
    NoEvents,
    /// The faulty fraction is outside `[0, 1]`.
    BadFaultyFraction(f64),
    /// Engine construction failed.
    Engine(MultiClusterError),
    /// A sweep checkpoint could not be written, read, or decoded, or
    /// does not belong to this sweep configuration.
    Checkpoint(String),
}

impl std::fmt::Display for Exp6Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Exp6Error::EmptySweep => write!(f, "the sweep has no cluster counts"),
            Exp6Error::NoNodes => write!(f, "need at least one node per cluster"),
            Exp6Error::NoEvents => write!(f, "need at least one event round"),
            Exp6Error::BadFaultyFraction(x) => {
                write!(f, "faulty fraction {x} outside [0, 1]")
            }
            Exp6Error::Engine(e) => write!(f, "engine construction failed: {e}"),
            Exp6Error::Checkpoint(what) => write!(f, "sweep checkpoint: {what}"),
        }
    }
}

impl std::error::Error for Exp6Error {}

/// One cell of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Exp6Point {
    /// Cluster count.
    pub clusters: usize,
    /// Total deployed nodes.
    pub nodes: usize,
    /// Event rounds run.
    pub events: usize,
    /// Wall-clock of the event rounds, nanoseconds.
    pub elapsed_ns: u128,
    /// Fraction of events localized within `r_error`.
    pub detection_rate: f64,
    /// Order-independent fold of the final trust snapshot; equal cells
    /// prove equal end states.
    pub trust_checksum: u64,
}

fn checksum(bits: &[u64]) -> u64 {
    bits.iter().fold(0xcbf2_9ce4_8422_2325u64, |acc, &b| {
        (acc ^ b).wrapping_mul(0x1000_0000_01b3)
    })
}

/// Side of the square field holding `n_clusters` clusters at constant
/// density: one node per 10×10 cell, like the paper's 100 nodes on a
/// 100×100 field.
fn field_side(cfg: &Exp6Config, n_clusters: usize) -> f64 {
    ((n_clusters * cfg.nodes_per_cluster) as f64).sqrt() * 10.0
}

/// Builds the deployment of one sweep cell.
fn deployment(cfg: &Exp6Config, n_clusters: usize) -> Result<MultiClusterSim, Exp6Error> {
    let nodes = n_clusters * cfg.nodes_per_cluster;
    let field = field_side(cfg, n_clusters);
    let topo = Topology::uniform_grid(nodes, field, field);
    let n_faulty = (nodes as f64 * cfg.faulty_fraction).round() as usize;
    let faulty = SimRng::seed_from(cfg.seed ^ 0xFA17).choose_indices(nodes, n_faulty);
    // Membership mask instead of per-node `contains`: same assignment,
    // O(n) instead of O(n²) — at a million nodes the difference is the
    // whole setup budget.
    let mut is_faulty = vec![false; nodes];
    for &i in &faulty {
        is_faulty[i] = true;
    }
    let behaviors: Vec<Box<dyn NodeBehavior + Send>> = (0..nodes)
        .map(|i| -> Box<dyn NodeBehavior + Send> {
            if is_faulty[i] {
                Box::new(Level0Node::new(Level0Config::experiment2(4.25)))
            } else {
                Box::new(CorrectNode::new(0.0, 1.6))
            }
        })
        .collect();
    MultiClusterSim::try_new(
        MultiClusterConfig::paper().mobile(0.5, 4),
        topo,
        grid_sites(n_clusters, field),
        behaviors,
        |_| Box::new(BernoulliLoss::new(0.005)),
        cfg.seed,
    )
    .map_err(Exp6Error::Engine)
}

fn event_schedule(cfg: &Exp6Config, n_clusters: usize) -> Vec<Point> {
    let field = field_side(cfg, n_clusters);
    let mut rng = SimRng::seed_from(cfg.seed ^ 0xE7E7);
    (0..cfg.events)
        .map(|_| Point::new(rng.uniform_range(0.0, field), rng.uniform_range(0.0, field)))
        .collect()
}

/// Runs `events` on `sim` and counts the rounds that localized their
/// event within `r_error`.
fn run_rounds(sim: &mut MultiClusterSim, events: &[Point]) -> usize {
    let r_error = sim.config().r_error;
    events
        .iter()
        .filter(|&&e| sim.run_event(e).detected_within(r_error))
        .count()
}

fn finish_point(sim: &MultiClusterSim, hits: usize, events: usize, elapsed_ns: u128) -> Exp6Point {
    Exp6Point {
        clusters: sim.cluster_count(),
        nodes: sim.node_count(),
        events,
        elapsed_ns: elapsed_ns.max(1),
        detection_rate: hits as f64 / events as f64,
        trust_checksum: checksum(&sim.trust_snapshot()),
    }
}

/// Runs the sweep: one row per cluster count, in configuration order.
///
/// # Errors
///
/// Returns [`Exp6Error`] for invalid sweep parameters or engine
/// construction failures.
pub fn run_exp6(cfg: &Exp6Config) -> Result<Vec<Exp6Point>, Exp6Error> {
    cfg.validate()?;
    cfg.clusters
        .iter()
        .map(|&n_clusters| {
            let mut sim = deployment(cfg, n_clusters)?;
            let events = event_schedule(cfg, n_clusters);
            let start = Instant::now();
            let hits = run_rounds(&mut sim, &events);
            Ok(finish_point(&sim, hits, events.len(), start.elapsed().as_nanos()))
        })
        .collect()
}

/// Section tag: sweep-progress header of a resumable run. Tags 10 and
/// 11 framed the layout of the removed thread axis; a checkpoint in that
/// layout is refused at its first section.
const TAG_SWEEP: u8 = 13;
/// Section tag: one completed sweep row.
const TAG_POINT: u8 = 14;
/// Section tag: the in-flight run's embedded engine snapshot.
const TAG_ENGINE: u8 = 12;

/// Progress of a resumable sweep: the completed rows (a prefix of the
/// cluster counts) plus, if a cell was mid-flight at the last
/// checkpoint, its partial state and engine snapshot.
#[derive(Debug, Default)]
struct SweepProgress {
    completed: Vec<Exp6Point>,
    in_flight: Option<InFlight>,
}

#[derive(Debug)]
struct InFlight {
    rounds_done: usize,
    hits: usize,
    elapsed_ns: u64,
    blob: Vec<u8>,
}

fn encode_point(s: &mut tibfit_sim::snapshot::SectionBuf, p: &Exp6Point) {
    s.put_usize(p.clusters);
    s.put_usize(p.nodes);
    s.put_usize(p.events);
    s.put_u64(u64::try_from(p.elapsed_ns).unwrap_or(u64::MAX));
    s.put_f64(p.detection_rate);
    s.put_u64(p.trust_checksum);
}

fn decode_point(s: &mut tibfit_sim::snapshot::SectionReader<'_>) -> Result<Exp6Point, SnapshotError> {
    Ok(Exp6Point {
        clusters: s.take_usize()?,
        nodes: s.take_usize()?,
        events: s.take_usize()?,
        elapsed_ns: u128::from(s.take_u64()?),
        detection_rate: s.take_f64()?,
        trust_checksum: s.take_u64()?,
    })
}

fn save_progress(
    path: &Path,
    cfg: &Exp6Config,
    completed: &[Exp6Point],
    in_flight: Option<&InFlight>,
) -> Result<(), Exp6Error> {
    let mut w = SnapshotWriter::new();
    w.section(TAG_SWEEP, |s| {
        s.put_u64(cfg.seed);
        s.put_usize(completed.len());
        match in_flight {
            Some(f) => {
                s.put_bool(true);
                s.put_usize(f.rounds_done);
                s.put_usize(f.hits);
                s.put_u64(f.elapsed_ns);
            }
            None => s.put_bool(false),
        }
    });
    for p in completed {
        w.section(TAG_POINT, |s| encode_point(s, p));
    }
    if let Some(f) = in_flight {
        w.section(TAG_ENGINE, |s| s.put_bytes(&f.blob));
    }
    write_checkpoint(path, &w.finish()).map_err(|e| Exp6Error::Checkpoint(e.to_string()))
}

fn load_progress(cfg: &Exp6Config, path: &Path) -> Result<SweepProgress, Exp6Error> {
    let decode = |bytes: &[u8]| -> Result<SweepProgress, SnapshotError> {
        let mut r = SnapshotReader::new(bytes)?;
        let mut s = r.section(TAG_SWEEP)?;
        let seed = s.take_u64()?;
        let n_completed = s.take_usize()?;
        let partial = if s.take_bool()? {
            Some((s.take_usize()?, s.take_usize()?, s.take_u64()?))
        } else {
            None
        };
        s.end()?;
        if seed != cfg.seed {
            return Err(SnapshotError::Invalid("checkpoint belongs to a different sweep"));
        }
        let mut completed = Vec::with_capacity(n_completed.min(4096));
        for _ in 0..n_completed {
            let mut s = r.section(TAG_POINT)?;
            completed.push(decode_point(&mut s)?);
            s.end()?;
        }
        let in_flight = match partial {
            Some((rounds_done, hits, elapsed_ns)) => {
                let mut s = r.section(TAG_ENGINE)?;
                let blob = s.take_bytes()?;
                s.end()?;
                Some(InFlight { rounds_done, hits, elapsed_ns, blob })
            }
            None => None,
        };
        r.finish()?;
        Ok(SweepProgress { completed, in_flight })
    };
    let bytes = read_checkpoint(path).map_err(|e| Exp6Error::Checkpoint(e.to_string()))?;
    decode(&bytes).map_err(|e| Exp6Error::Checkpoint(e.to_string()))
}

/// As [`run_exp6`], but crash-resumable: every `checkpoint_every` event
/// rounds, the full engine state and all completed rows are written
/// atomically to `path`. If `path` already holds a checkpoint of the
/// *same* sweep (same seed and cluster counts), the run picks up where
/// it left off — completed rows are not recomputed and the in-flight
/// engine resumes from its snapshot, bit-identically. The file is
/// removed once the sweep completes.
///
/// The detection rates and trust checksums are unaffected by where (or
/// whether) a run was interrupted; only `elapsed_ns`, which times the
/// event rounds and not the checkpoint writes, differs.
///
/// # Errors
///
/// Everything [`run_exp6`] returns, plus [`Exp6Error::Checkpoint`] for
/// an unreadable, corrupt, or mismatched checkpoint file.
pub fn run_exp6_resumable(
    cfg: &Exp6Config,
    checkpoint_every: u64,
    path: &Path,
) -> Result<Vec<Exp6Point>, Exp6Error> {
    match run_resumable_inner(cfg, checkpoint_every, path, None, || false)? {
        SweepOutcome::Complete(points) | SweepOutcome::Interrupted(points) => Ok(points),
    }
}

/// How an interruptible sweep ended.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepOutcome {
    /// Every cell ran; the checkpoint file has been removed.
    Complete(Vec<Exp6Point>),
    /// A shutdown was requested mid-sweep. The rows completed so far
    /// are returned, and the checkpoint file is retained — rerunning
    /// with the same flags resumes where this run stopped.
    Interrupted(Vec<Exp6Point>),
}

/// As [`run_exp6_resumable`], but honours SIGINT/SIGTERM (via
/// [`shutdown::requested`]): at every checkpoint boundary — between
/// cells and between mid-cell checkpoint writes — a pending shutdown
/// stops the sweep with [`SweepOutcome::Interrupted`] instead of
/// running to completion. All progress is already on disk when it
/// returns, so nothing is lost and nothing is recomputed on resume.
///
/// The caller must have installed the handlers
/// ([`shutdown::install_signal_handlers`]); this function only polls
/// the flag.
///
/// # Errors
///
/// Everything [`run_exp6_resumable`] returns.
pub fn run_exp6_resumable_interruptible(
    cfg: &Exp6Config,
    checkpoint_every: u64,
    path: &Path,
) -> Result<SweepOutcome, Exp6Error> {
    run_resumable_inner(cfg, checkpoint_every, path, None, shutdown::requested)
}

/// The body of [`run_exp6_resumable`], with a crash-injection hook:
/// `kill_after_saves = Some(n)` aborts the sweep right after the `n`-th
/// checkpoint write, simulating the process dying with a valid
/// checkpoint on disk. The tests use it to prove a killed sweep resumes
/// to the same rows.
fn run_resumable_inner(
    cfg: &Exp6Config,
    checkpoint_every: u64,
    path: &Path,
    kill_after_saves: Option<u64>,
    mut should_stop: impl FnMut() -> bool,
) -> Result<SweepOutcome, Exp6Error> {
    cfg.validate()?;
    let mut saves = 0u64;
    let mut after_save = move || -> Result<(), Exp6Error> {
        saves += 1;
        if kill_after_saves == Some(saves) {
            return Err(Exp6Error::Checkpoint("injected crash".into()));
        }
        Ok(())
    };
    if checkpoint_every == 0 {
        return Err(Exp6Error::Checkpoint(
            "checkpoint interval must be at least one round".into(),
        ));
    }
    let progress = if path.exists() {
        load_progress(cfg, path)?
    } else {
        SweepProgress::default()
    };
    if progress.completed.len() > cfg.clusters.len() {
        return Err(Exp6Error::Checkpoint("checkpoint has more rows than the sweep".into()));
    }
    for (row, &n_clusters) in progress.completed.iter().zip(&cfg.clusters) {
        if row.clusters != n_clusters {
            return Err(Exp6Error::Checkpoint("checkpoint rows disagree with the sweep".into()));
        }
    }
    if progress.in_flight.is_some() && progress.completed.len() == cfg.clusters.len() {
        return Err(Exp6Error::Checkpoint("in-flight state after the last cell".into()));
    }

    let mut out = progress.completed;
    let mut in_flight = progress.in_flight;
    for &n_clusters in cfg.clusters.iter().skip(out.len()) {
        // Cell boundaries are natural stop points: every completed row
        // is already checkpointed, so an interrupt here loses nothing.
        if in_flight.is_none() && should_stop() {
            return Ok(SweepOutcome::Interrupted(out));
        }
        let events = event_schedule(cfg, n_clusters);
        let (mut sim, mut rounds_done, mut hits, mut elapsed_ns) = match in_flight.take() {
            Some(f) => {
                let sim = restore_sequential(&f.blob)
                    .map_err(|e| Exp6Error::Checkpoint(e.to_string()))?;
                (sim, f.rounds_done, f.hits, f.elapsed_ns)
            }
            None => (deployment(cfg, n_clusters)?, 0, 0, 0),
        };
        if rounds_done > events.len() || sim.cluster_count() != n_clusters {
            return Err(Exp6Error::Checkpoint("in-flight state disagrees with the sweep".into()));
        }
        while rounds_done < events.len() {
            let chunk = (checkpoint_every as usize).min(events.len() - rounds_done);
            // Only the rounds are timed, not the checkpoint writes.
            let start = Instant::now();
            hits += run_rounds(&mut sim, &events[rounds_done..rounds_done + chunk]);
            elapsed_ns = elapsed_ns
                .saturating_add(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
            rounds_done += chunk;
            if rounds_done < events.len() {
                let blob =
                    save_sequential(&sim).map_err(|e| Exp6Error::Checkpoint(e.to_string()))?;
                save_progress(
                    path,
                    cfg,
                    &out,
                    Some(&InFlight { rounds_done, hits, elapsed_ns, blob }),
                )?;
                after_save()?;
                // The in-flight engine state just hit disk — stopping
                // here resumes mid-cell, bit-identically.
                if should_stop() {
                    return Ok(SweepOutcome::Interrupted(out));
                }
            }
        }
        out.push(finish_point(&sim, hits, events.len(), u128::from(elapsed_ns)));
        save_progress(path, cfg, &out, None)?;
        after_save()?;
    }
    let _ = std::fs::remove_file(path);
    Ok(SweepOutcome::Complete(out))
}

/// Renders the sweep as CSV (one row per cluster count).
#[must_use]
pub fn to_csv(points: &[Exp6Point]) -> String {
    let mut out = String::from("clusters,nodes,events,elapsed_ns,detection_rate,trust_checksum\n");
    for p in points {
        out.push_str(&format!(
            "{},{},{},{},{:.4},{:016x}\n",
            p.clusters, p.nodes, p.events, p.elapsed_ns, p.detection_rate, p.trust_checksum,
        ));
    }
    out
}

/// Writes the sweep to `<dir>/exp6_scale.csv`, creating `dir` if needed.
///
/// # Errors
///
/// Returns any I/O error from creating the directory or writing the file.
pub fn write_csv(points: &[Exp6Point], dir: &Path) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join("exp6_scale.csv");
    std::fs::write(&path, to_csv(points))?;
    Ok(path)
}

/// Renders the sweep as an aligned markdown table.
#[must_use]
pub fn to_markdown(points: &[Exp6Point]) -> String {
    let mut out = String::from(
        "### exp6 — multi-cluster engine scale sweep\n\n\
         | clusters | nodes | elapsed | per event | detect |\n\
         |---|---|---|---|---|\n",
    );
    for p in points {
        let ms = p.elapsed_ns as f64 / 1e6;
        out.push_str(&format!(
            "| {} | {} | {:.2} ms | {:.3} ms | {:.3} |\n",
            p.clusters,
            p.nodes,
            ms,
            ms / p.events as f64,
            p.detection_rate,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "manual scale probe: cargo test --release -p tibfit-experiments --lib -- --ignored big_probe --nocapture"]
    fn big_probe() {
        for (clusters, npc, events) in
            [(1024usize, 64usize, 10usize), (4096, 100, 4), (10_000, 100, 12)]
        {
            let cfg = Exp6Config {
                clusters: vec![clusters],
                nodes_per_cluster: npc,
                events,
                faulty_fraction: 0.25,
                seed: 42,
            };
            let t = Instant::now();
            let points = run_exp6(&cfg).unwrap();
            println!(
                "big_probe {clusters}x{npc} ({} nodes, {events} events): total {:.2}s, rounds {:.2}s",
                clusters * npc,
                t.elapsed().as_secs_f64(),
                points[0].elapsed_ns as f64 / 1e9,
            );
        }
    }

    /// The timing-free columns that must survive any interruption.
    fn deterministic_fields(p: &Exp6Point) -> (usize, usize, usize, f64, u64) {
        (p.clusters, p.nodes, p.events, p.detection_rate, p.trust_checksum)
    }

    #[test]
    fn smoke_sweep_runs_and_agrees() {
        let cfg = Exp6Config::smoke(11);
        let points = run_exp6(&cfg).unwrap();
        assert_eq!(points.len(), cfg.clusters.len());
        for (p, &clusters) in points.iter().zip(&cfg.clusters) {
            assert_eq!((p.clusters, p.nodes), (clusters, clusters * cfg.nodes_per_cluster));
            assert_eq!(p.events, cfg.events);
            assert!(p.elapsed_ns > 0);
        }
        // A second run agrees on everything but the wall-clock.
        let again = run_exp6(&cfg).unwrap();
        for (a, b) in points.iter().zip(&again) {
            assert_eq!(deterministic_fields(a), deterministic_fields(b));
        }
    }

    #[test]
    fn paper_sweep_at_seed_42_keeps_its_checksums() {
        // The committed results/exp6_scale.csv rows: the sweep's trust
        // state and detections, pinned across engine refactors.
        let points = run_exp6(&Exp6Config::paper_scale(42)).unwrap();
        let got: Vec<(usize, f64, u64)> = points
            .iter()
            .map(|p| (p.clusters, p.detection_rate, p.trust_checksum))
            .collect();
        assert_eq!(
            got,
            [
                (5, 1.0, 0xaf8d_fc6e_4ea4_9fa8),
                (32, 1.0, 0x9bbf_9461_94f8_f0ac),
                (128, 1.0, 0x3350_7572_604e_1181),
                (256, 0.95, 0xd846_6d77_1ffc_48d2),
            ]
        );
    }

    #[test]
    fn csv_has_header_and_rows() {
        let points = run_exp6(&Exp6Config::smoke(5)).unwrap();
        let csv = to_csv(&points);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "clusters,nodes,events,elapsed_ns,detection_rate,trust_checksum");
        assert_eq!(lines.len(), points.len() + 1);
        assert!(lines[1..].iter().all(|l| l.split(',').count() == 6));
    }

    #[test]
    fn markdown_has_a_row_per_cluster_count() {
        let points = run_exp6(&Exp6Config::smoke(5)).unwrap();
        let md = to_markdown(&points);
        assert!(md.contains("| 2 | 20 |"));
        assert!(md.contains("| 4 | 40 |"));
    }

    #[test]
    fn validate_rejects_each_bad_config() {
        let ok = Exp6Config::smoke(1);
        let cases: Vec<(Exp6Config, Exp6Error)> = vec![
            (Exp6Config { clusters: vec![], ..ok.clone() }, Exp6Error::EmptySweep),
            (
                Exp6Config { nodes_per_cluster: 0, ..ok.clone() },
                Exp6Error::NoNodes,
            ),
            (Exp6Config { events: 0, ..ok.clone() }, Exp6Error::NoEvents),
            (
                Exp6Config { faulty_fraction: 1.5, ..ok.clone() },
                Exp6Error::BadFaultyFraction(1.5),
            ),
        ];
        for (cfg, want) in cases {
            assert_eq!(run_exp6(&cfg).unwrap_err(), want);
            assert!(!want.to_string().is_empty());
        }
    }

    fn ckpt_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("tibfit-exp6-resume-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn resumable_sweep_matches_plain_and_cleans_up() {
        let cfg = Exp6Config::smoke(17);
        let path = ckpt_path("uninterrupted.tbsn");
        let plain = run_exp6(&cfg).unwrap();
        let resumable = run_exp6_resumable(&cfg, 3, &path).unwrap();
        assert_eq!(plain.len(), resumable.len());
        for (a, b) in plain.iter().zip(&resumable) {
            assert_eq!(deterministic_fields(a), deterministic_fields(b));
        }
        assert!(!path.exists(), "checkpoint must be removed after a clean finish");
    }

    #[test]
    fn killed_sweep_resumes_to_identical_rows() {
        let cfg = Exp6Config::smoke(33);
        let baseline = run_exp6(&cfg).unwrap();
        // Kill after every possible checkpoint write in turn — three
        // mid-cell and one at the end of each of the two cells — and
        // resume each time.
        for kill_at in 1..=8 {
            let path = ckpt_path(&format!("killed-{kill_at}.tbsn"));
            let err = run_resumable_inner(&cfg, 2, &path, Some(kill_at), || false).unwrap_err();
            assert_eq!(err, Exp6Error::Checkpoint("injected crash".into()));
            assert!(path.exists(), "kill #{kill_at} left no checkpoint behind");
            let resumed = run_exp6_resumable(&cfg, 2, &path).unwrap();
            assert_eq!(baseline.len(), resumed.len(), "kill #{kill_at}");
            for (a, b) in baseline.iter().zip(&resumed) {
                assert_eq!(deterministic_fields(a), deterministic_fields(b), "kill #{kill_at}");
            }
            assert!(!path.exists());
        }
    }

    #[test]
    fn graceful_stop_keeps_checkpoint_and_resumes_to_identical_rows() {
        let cfg = Exp6Config::smoke(67);
        let baseline = run_exp6(&cfg).unwrap();
        // Request a stop after the n-th poll, for every poll point the
        // sweep has — cell boundaries and mid-cell checkpoints alike.
        for stop_at in 1..=8u32 {
            let path = ckpt_path(&format!("graceful-{stop_at}.tbsn"));
            let mut polls = 0u32;
            let outcome =
                run_resumable_inner(&cfg, 2, &path, None, || {
                    polls += 1;
                    polls >= stop_at
                })
                .unwrap();
            let SweepOutcome::Interrupted(partial) = outcome else {
                panic!("stop #{stop_at}: sweep must report the interruption");
            };
            assert!(
                partial.len() < baseline.len(),
                "stop #{stop_at}: an interrupted sweep is incomplete"
            );
            for (a, b) in baseline.iter().zip(&partial) {
                assert_eq!(deterministic_fields(a), deterministic_fields(b), "stop #{stop_at}");
            }
            // Everything already computed must be on disk (unless the
            // stop fired before any work happened).
            assert_eq!(path.exists(), stop_at > 1, "stop #{stop_at}");
            let resumed = run_exp6_resumable(&cfg, 2, &path).unwrap();
            assert_eq!(baseline.len(), resumed.len(), "stop #{stop_at}");
            for (a, b) in baseline.iter().zip(&resumed) {
                assert_eq!(deterministic_fields(a), deterministic_fields(b), "stop #{stop_at}");
            }
            assert!(!path.exists(), "stop #{stop_at}: clean finish removes the checkpoint");
        }
    }

    #[test]
    fn interruptible_runner_completes_when_no_signal_arrives() {
        // No SIGINT/SIGTERM pending ⇒ identical to the plain resumable
        // path, including checkpoint cleanup.
        let cfg = Exp6Config::smoke(68);
        let path = ckpt_path("uninterrupted-signal.tbsn");
        let outcome = run_exp6_resumable_interruptible(&cfg, 3, &path).unwrap();
        let SweepOutcome::Complete(points) = outcome else {
            panic!("no signal was sent; the sweep must complete");
        };
        assert_eq!(points.len(), cfg.clusters.len());
        assert!(!path.exists());
    }

    #[test]
    fn foreign_or_corrupt_checkpoints_are_rejected() {
        let cfg = Exp6Config::smoke(55);
        assert!(matches!(
            run_exp6_resumable(&cfg, 0, &ckpt_path("zero.tbsn")),
            Err(Exp6Error::Checkpoint(_))
        ));

        // A checkpoint from a different seed must be refused, not merged.
        let theirs = ckpt_path("foreign.tbsn");
        let other = Exp6Config::smoke(56);
        let _ = run_resumable_inner(&other, 2, &theirs, Some(1), || false).unwrap_err();
        assert!(matches!(
            run_exp6_resumable(&cfg, 2, &theirs),
            Err(Exp6Error::Checkpoint(_))
        ));

        // A checkpoint of other cluster counts, too.
        let sizes = ckpt_path("other-sizes.tbsn");
        let resized = Exp6Config { clusters: vec![3, 4], ..cfg.clone() };
        let _ = run_resumable_inner(&resized, 2, &sizes, Some(1), || false).unwrap_err();
        assert!(matches!(
            run_exp6_resumable(&cfg, 2, &sizes),
            Err(Exp6Error::Checkpoint(_))
        ));

        // Corrupt bytes surface as a typed error, never a panic.
        let garbage = ckpt_path("garbage.tbsn");
        std::fs::write(&garbage, b"TBSN but not really").unwrap();
        assert!(matches!(
            run_exp6_resumable(&cfg, 2, &garbage),
            Err(Exp6Error::Checkpoint(_))
        ));
        for path in [theirs, sizes, garbage] {
            let _ = std::fs::remove_file(path);
        }
    }
}

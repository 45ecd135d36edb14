//! `tibfit-exp` — regenerate the TIBFIT paper's tables and figures.
//!
//! ```text
//! tibfit-exp <exp1|exp2|exp3|fig10|fig11|tables|all> [--trials N] [--seed S] [--out DIR]
//! ```
//!
//! Each figure is printed as an aligned markdown table and written as a
//! CSV under `--out` (default `results/`).

use std::path::PathBuf;
use std::process::ExitCode;

use tibfit_experiments::report::FigureData;
use tibfit_experiments::{ablation, exp1, exp2, exp3, exp4_shadow, exp5_chaos, exp6_scale};
use tibfit_sim::shutdown;
use tibfit_sim::stats::Series;

struct Options {
    command: String,
    trials: usize,
    seed: u64,
    out_dir: PathBuf,
    chart: bool,
    checkpoint_every: Option<u64>,
    resume: Option<PathBuf>,
    big: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or_else(usage)?;
    let mut options = Options {
        command,
        trials: 3,
        seed: 42,
        out_dir: PathBuf::from("results"),
        chart: false,
        checkpoint_every: None,
        resume: None,
        big: false,
    };
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--trials" => {
                options.trials = value()?
                    .parse()
                    .map_err(|e| format!("--trials: {e}"))?;
            }
            "--seed" => {
                options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--out" => {
                options.out_dir = PathBuf::from(value()?);
            }
            "--chart" => {
                options.chart = true;
            }
            "--checkpoint-every" => {
                let n: u64 = value()?
                    .parse()
                    .map_err(|e| format!("--checkpoint-every: {e}"))?;
                if n == 0 {
                    return Err("--checkpoint-every must be at least 1".into());
                }
                options.checkpoint_every = Some(n);
            }
            "--resume" => {
                options.resume = Some(PathBuf::from(value()?));
            }
            "--big" => {
                options.big = true;
            }
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    if options.trials == 0 {
        return Err("--trials must be at least 1".into());
    }
    Ok(options)
}

fn usage() -> String {
    "usage: tibfit-exp <exp1|exp2|exp3|exp4|exp5|exp6|fig10|fig11|tables|ablation|all> \
     [--trials N] [--seed S] [--out DIR] [--chart] \
     [--checkpoint-every N] [--resume PATH] [--big]\n\
     exp6 only: --checkpoint-every N writes a crash-resumable checkpoint every N event \
     rounds (to --resume PATH, default <out>/exp6_scale.tbsn); rerunning with the same \
     flags resumes from it. --big runs the production-scale sweep (409,600 and \
     1,000,000 nodes) instead of the default one."
        .to_string()
}

fn emit(fig: &FigureData, options: &Options) {
    println!("{}", fig.to_markdown());
    if options.chart {
        println!("{}", fig.to_ascii_chart(60, 16));
    }
    match fig.write_csv(&options.out_dir) {
        Ok(path) => println!("wrote {}\n", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", fig.id),
    }
}

fn fig10_data() -> FigureData {
    let mut fig = FigureData::new(
        "fig10",
        "Expected baseline accuracy vs percentage faulty (analysis)",
        "% faulty nodes",
        "P(success)",
    );
    for line in tibfit_analysis::fig10::generate() {
        let mut s = Series::new(format!("p={}", line.p));
        for (x, y) in line.points {
            s.record(x, y);
        }
        fig.series.push(s);
    }
    fig
}

fn fig11_data() -> FigureData {
    let mut fig = FigureData::new(
        "fig11",
        "f(k) vs k for several lambda (root = tolerable corruption interval)",
        "k (events between corruptions)",
        "f(k)",
    );
    for line in tibfit_analysis::fig11::generate(60.0, 61) {
        let mut s = Series::new(format!("lambda={}", line.lambda));
        for (x, y) in line.points {
            s.record(x, y);
        }
        fig.series.push(s);
        println!(
            "lambda={}: root k = {:.3}, end-game k_max = ln(3)/lambda = {:.3}",
            line.lambda,
            line.root,
            tibfit_analysis::k_max_final(line.lambda)
        );
    }
    println!();
    fig
}

fn run(options: &Options) -> Result<(), String> {
    let t = options.trials;
    let s = options.seed;
    let run_exp1 = || {
        println!("{}", exp1::table1());
        emit(&exp1::figure2(t, s), options);
        emit(&exp1::figure3(t, s), options);
    };
    let run_exp2 = || {
        println!("{}", exp2::table2());
        emit(&exp2::figure4(t, s), options);
        emit(&exp2::figure5(t, s), options);
        emit(&exp2::figure6(t, s), options);
        emit(&exp2::figure7(t, s), options);
    };
    let run_exp3 = || {
        emit(&exp3::figure8(t, s), options);
        emit(&exp3::figure9(t, s), options);
    };
    let run_exp4 = || {
        for lambda in [0.1, 0.25, 0.5] {
            let dc = tibfit_analysis::hysteresis_duty_cycle(lambda, 0.1, 0.5, 0.8, 1.0);
            println!(
                "level-1 duty cycle (lambda={lambda}): lying {:.1} rounds, honest {:.1} rounds, duty {:.3}",
                dc.lying_rounds, dc.honest_rounds, dc.duty
            );
        }
        println!();
        emit(&exp4_shadow::figure_shadow(t, s), options);
    };
    let run_exp5 = || {
        emit(&exp5_chaos::figure_chaos(t, s), options);
        emit(&exp5_chaos::figure_recovery_time(t, s), options);
    };
    let run_exp6 = || -> Result<(), String> {
        let cfg = if options.big {
            exp6_scale::Exp6Config::big(s)
        } else {
            exp6_scale::Exp6Config::paper_scale(s)
        };
        let points = if let Some(every) = options.checkpoint_every {
            let path = options
                .resume
                .clone()
                .unwrap_or_else(|| options.out_dir.join("exp6_scale.tbsn"));
            if path.exists() {
                println!("resuming exp6 sweep from {}", path.display());
            }
            match exp6_scale::run_exp6_resumable_interruptible(&cfg, every, &path)
                .map_err(|e| format!("exp6: {e}"))?
            {
                exp6_scale::SweepOutcome::Complete(points) => points,
                exp6_scale::SweepOutcome::Interrupted(points) => {
                    // Flush what finished and keep the checkpoint: the
                    // same command resumes where this run stopped.
                    if !points.is_empty() {
                        println!("{}", exp6_scale::to_markdown(&points));
                        match exp6_scale::write_csv(&points, &options.out_dir) {
                            Ok(csv) => println!("wrote partial {}", csv.display()),
                            Err(e) => eprintln!("failed to write exp6_scale: {e}"),
                        }
                    }
                    println!(
                        "exp6 interrupted: {} rows complete, checkpoint kept at {} \
                         — rerun with the same flags to resume",
                        points.len(),
                        path.display()
                    );
                    return Ok(());
                }
            }
        } else {
            exp6_scale::run_exp6(&cfg).map_err(|e| format!("exp6: {e}"))?
        };
        println!("{}", exp6_scale::to_markdown(&points));
        match exp6_scale::write_csv(&points, &options.out_dir) {
            Ok(path) => println!("wrote {}\n", path.display()),
            Err(e) => eprintln!("failed to write exp6_scale: {e}"),
        }
        Ok(())
    };
    let run_analysis = || {
        emit(&fig10_data(), options);
        emit(&fig11_data(), options);
    };
    let run_ablation = || {
        emit(&ablation::lambda_sweep(t, s), options);
        emit(&ablation::fault_rate_sweep(t, s), options);
        emit(&ablation::isolation_sweep(t, s), options);
        emit(&ablation::hysteresis_sweep(t, s), options);
        emit(&ablation::events_sweep(t, s), options);
        emit(&ablation::mobility_sweep(t, s), options);
    };
    match options.command.as_str() {
        "exp1" => run_exp1(),
        "exp2" => run_exp2(),
        "exp3" => run_exp3(),
        "fig10" => emit(&fig10_data(), options),
        "fig11" => emit(&fig11_data(), options),
        "exp4" => run_exp4(),
        "exp5" => run_exp5(),
        "exp6" => run_exp6()?,
        "ablation" => run_ablation(),
        "tables" => {
            println!("{}", exp1::table1());
            println!("{}", exp2::table2());
        }
        "all" => {
            // Stage boundaries honour SIGINT/SIGTERM: every CSV emitted
            // so far is complete, so stopping between stages loses
            // nothing.
            let interrupted_before = |name: &str| -> bool {
                let stop = shutdown::requested();
                if stop {
                    println!("interrupted before {name}: CSVs written so far are complete");
                }
                stop
            };
            macro_rules! stage {
                ($name:literal, $body:expr) => {
                    if interrupted_before($name) {
                        return Ok(());
                    }
                    $body;
                };
            }
            stage!("exp1", run_exp1());
            stage!("exp2", run_exp2());
            stage!("exp3", run_exp3());
            stage!("exp4", run_exp4());
            stage!("exp5", run_exp5());
            stage!("exp6", run_exp6()?);
            stage!("analysis", run_analysis());
            stage!("ablation", run_ablation());
        }
        other => return Err(format!("unknown command {other}\n{}", usage())),
    }
    Ok(())
}

fn main() -> ExitCode {
    shutdown::install_signal_handlers();
    match parse_args() {
        Ok(options) => match run(&options) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

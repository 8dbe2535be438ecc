//! Regenerates every table and figure of the paper.
//!
//! ```sh
//! # everything, at the default 10% workload scale:
//! cargo run --release -p ytcdn-bench --bin repro
//! # one experiment, or a comma-separated list:
//! cargo run --release -p ytcdn-bench --bin repro -- --exp fig11
//! cargo run --release -p ytcdn-bench --bin repro -- --exp fig3,table3
//! # simulate and run the experiments on 8 threads (stdout is identical for
//! # any --jobs):
//! cargo run --release -p ytcdn-bench --bin repro -- --jobs 8
//! # full paper scale with the full 215-landmark CBG (slow):
//! cargo run --release -p ytcdn-bench --bin repro -- --scale 1.0 --full-landmarks
//! # analyse a generated .ytc file, skipping simulation (the file's
//! # recorded scale/seed/mutations supersede --scale/--seed):
//! cargo run --release -p ytcdn-bench --bin repro -- --from dataset.ytc
//! ```

#![forbid(unsafe_code)]
// Regenerated tables and figures go to stdout: that is this binary's product.
#![allow(clippy::print_stdout)]

use std::process::ExitCode;

use ytcdn_cdnsim::ScenarioConfig;
use ytcdn_core::degenerate::DegenerateShape;
use ytcdn_core::experiments::{
    ExperimentSuite, SuiteConfig, ALL_EXPERIMENTS, EXTENSION_EXPERIMENTS,
};
use ytcdn_core::{WatchConfig, WatchReport, YtcFile};
use ytcdn_telemetry::{Progress, Telemetry};
use ytcdn_tstat::DatasetName;

struct Args {
    exp: Option<String>,
    scale: f64,
    seed: u64,
    jobs: usize,
    full_landmarks: bool,
    csv_dir: Option<std::path::PathBuf>,
    markdown: Option<std::path::PathBuf>,
    plot: bool,
    scorecard: bool,
    windows: bool,
    degenerate: Option<DegenerateShape>,
    from: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        exp: None,
        scale: 0.1,
        seed: 42,
        jobs: 0,
        full_landmarks: false,
        csv_dir: None,
        markdown: None,
        plot: false,
        scorecard: false,
        windows: false,
        degenerate: None,
        from: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--exp" => {
                args.exp = Some(
                    it.next()
                        .ok_or("--exp needs a value (one id or a comma-separated list)")?,
                )
            }
            "--csv" => {
                args.csv_dir = Some(std::path::PathBuf::from(
                    it.next().ok_or("--csv needs a directory")?,
                ))
            }
            "--scale" => {
                args.scale = it
                    .next()
                    .ok_or("--scale needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --scale: {e}"))?;
            }
            "--seed" => {
                args.seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--jobs" => {
                args.jobs = it
                    .next()
                    .ok_or("--jobs needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --jobs: {e}"))?;
            }
            "--full-landmarks" => args.full_landmarks = true,
            "--plot" => args.plot = true,
            "--scorecard" => args.scorecard = true,
            "--windows" => args.windows = true,
            "--degenerate" => {
                args.degenerate = Some(
                    it.next()
                        .ok_or("--degenerate needs a shape")?
                        .parse()
                        .map_err(|e| format!("{e}"))?,
                );
            }
            "--from" => {
                args.from = Some(std::path::PathBuf::from(
                    it.next().ok_or("--from needs a .ytc file path")?,
                ))
            }
            "--markdown" => {
                args.markdown = Some(std::path::PathBuf::from(
                    it.next().ok_or("--markdown needs a file path")?,
                ))
            }
            "--help" | "-h" => {
                return Err(format!(
                    "usage: repro [--exp ID[,ID…] of {}] [--scale S] [--seed N] [--jobs N] [--from FILE.ytc] [--full-landmarks] [--csv DIR] [--markdown FILE] [--plot] [--scorecard] [--windows] [--degenerate {}]",
                    ALL_EXPERIMENTS.join("|"),
                    DegenerateShape::ALL.map(DegenerateShape::as_str).join("|")
                ));
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    if !(0.0..=1.0).contains(&args.scale) || args.scale <= 0.0 {
        return Err(format!("--scale must be in (0, 1], got {}", args.scale));
    }
    if args.from.is_some() && args.degenerate.is_some() {
        return Err(
            "--from and --degenerate are mutually exclusive: the .ytc file already fixes the \
             dataset shapes"
                .to_owned(),
        );
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(exp) = &args.exp {
        for id in exp.split(',') {
            if !ALL_EXPERIMENTS.contains(&id) && !EXTENSION_EXPERIMENTS.contains(&id) {
                eprintln!(
                    "unknown experiment {id:?}; known: {} and extensions {}",
                    ALL_EXPERIMENTS.join(", "),
                    EXTENSION_EXPERIMENTS.join(", ")
                );
                return ExitCode::FAILURE;
            }
        }
    }

    let progress = Progress::stderr();
    // Metrics-only telemetry: phase timings cost nothing measurable and the
    // summary below shows where the wall time went. Reports on stdout are
    // unaffected.
    let telemetry = Telemetry::metrics_only();
    let suite = if let Some(path) = &args.from {
        // Load the datasets off the columnar file instead of simulating.
        // The file's recorded provenance supersedes --scale/--seed: the
        // analysis world must match the world the flows were simulated in.
        let source = match std::fs::File::open(path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("cannot open {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        let file = match YtcFile::read_from(std::io::BufReader::new(source), &telemetry) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("cannot read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        let header = file.header.clone();
        progress.note(&format!(
            "loaded {} flows from {} (scale {}, seed {}, {} mutation(s)); skipping simulation",
            file.total_flows(),
            path.display(),
            header.scale,
            header.seed,
            header.mutations.len()
        ));
        let config = SuiteConfig {
            scenario: ScenarioConfig::with_scale(header.scale, header.seed),
            full_landmarks: args.full_landmarks,
            jobs: args.jobs,
        };
        match ExperimentSuite::from_columnar(config, telemetry, file.into_columnar_datasets()) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot analyse {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    } else {
        progress.note(&format!(
            "building world and simulating 5 datasets (scale {}, seed {})…",
            args.scale, args.seed
        ));
        let config = SuiteConfig {
            scenario: ScenarioConfig::with_scale(args.scale, args.seed),
            full_landmarks: args.full_landmarks,
            jobs: args.jobs,
        };
        match args.degenerate {
            Some(shape) => {
                progress.note(&format!("degrading every dataset to shape {shape}"));
                ExperimentSuite::with_degenerate(config, telemetry, shape)
            }
            None => ExperimentSuite::with_telemetry(config, telemetry),
        }
    };

    if args.scorecard {
        let card = ytcdn_core::scorecard::scorecard(&suite);
        println!("{}", ytcdn_core::scorecard::render_scorecard(&card));
        phase_summary(&suite, &progress);
        // Skipped (unanswerable) claims do not fail the run; wrong ones do.
        return if card.pass() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let ids: Vec<&str> = match &args.exp {
        Some(e) => e.split(',').collect(),
        None => ALL_EXPERIMENTS.to_vec(),
    };
    // Experiments run concurrently; reports come back in input order, so
    // stdout is byte-identical to the sequential path regardless of --jobs.
    let reports = suite.run_many(&ids, suite.jobs());
    for (id, report) in ids.iter().zip(reports) {
        println!(
            "──── {id} {}",
            "─".repeat(60_usize.saturating_sub(id.len()))
        );
        match report {
            Ok(report) => {
                println!("{report}");
                if args.plot {
                    if let Ok(series) = ytcdn_core::export::figure_series(&suite, id) {
                        println!("{}", ytcdn_core::export::ascii_chart(&series, 72, 16));
                    }
                }
            }
            Err(e) => println!("SKIPPED: {e}\n"),
        }
    }

    if args.windows {
        for name in DatasetName::ALL {
            println!(
                "──── windows {name} {}",
                "─".repeat(52_usize.saturating_sub(name.as_str().len()))
            );
            let report = WatchReport::build(
                suite.context(name),
                suite.dataset(name),
                suite.dataset_index(name),
                WatchConfig::default(),
            );
            match report {
                Ok(report) => println!("{}", report.render_table()),
                Err(e) => println!("SKIPPED: {e}\n"),
            }
        }
    }

    if let Some(path) = &args.markdown {
        let md = ytcdn_core::report::markdown_report(&suite);
        if let Err(e) = std::fs::write(path, md) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        progress.note(&format!("wrote markdown report to {}", path.display()));
    }

    if let Some(dir) = &args.csv_dir {
        match ytcdn_core::export::export_all(&suite, dir) {
            Ok(paths) => progress.note(&format!(
                "wrote {} CSV files to {}",
                paths.len(),
                dir.display()
            )),
            Err(e) => {
                eprintln!("CSV export failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    phase_summary(&suite, &progress);
    ExitCode::SUCCESS
}

/// Prints where the wall time went (build, per-dataset simulation, each
/// experiment) on stderr, leaving stdout to the reports.
fn phase_summary(suite: &ExperimentSuite, progress: &Progress) {
    if !progress.is_enabled() {
        return;
    }
    let Some(snapshot) = suite.telemetry().metrics_snapshot() else {
        return;
    };
    progress.note("phase profile:");
    for line in snapshot.render_table().lines() {
        progress.note(line);
    }
}

//! Argument parsing for the `ytcdn` CLI (hand-rolled, no parser crates).

use std::fmt;
use std::path::PathBuf;

use ytcdn_core::degenerate::DegenerateShape;
use ytcdn_core::experiments::{ALL_EXPERIMENTS, EXTENSION_EXPERIMENTS};
use ytcdn_tstat::DatasetName;

/// CLI usage text.
pub const USAGE: &str = "\
ytcdn — the YouTube CDN reproduction toolkit

USAGE:
  ytcdn generate  [--dataset NAME] [--scale S] [--seed N]
                  [--mutate SPEC]... [--format ytc|text] --out PATH
                  (ytc, the default: PATH is one file carrying every
                  generated dataset; text: PATH is a file for one dataset,
                  a directory for all five)
  ytcdn analyze   --trace PATH [--scale S] [--seed N]
  ytcdn geolocate --dataset NAME [--scale S] [--seed N] [--jobs K]
                  (CBG on repro's 50 landmarks; K worker threads, any K
                  gives byte-identical output)
  ytcdn whatif    --scenario feb2011|fixed-peering|no-votd|eu2-capacity|popularity
                  [--scale S] [--seed N]
  ytcdn watch     --dataset NAME [--scale S] [--seed N]
                  [--mutate SPEC]... [--window H] [--threshold D] [--min-flows F]
                  [--from PATH.ytc]
                  (simulate — or load PATH.ytc, skipping simulation — then
                  detect CDN changes per H-hour window)
  ytcdn characterize --trace PATH
  ytcdn world     [--scale S] [--seed N]
  ytcdn anonymize --trace PATH --out PATH [--seed KEY]
  ytcdn repro     [--exp ID[,ID]...] [--scale S] [--seed N] [--jobs K]
                  [--from PATH.ytc] [--full-landmarks] [--csv DIR]
                  [--markdown FILE] [--plot] [--scorecard]
                  [--degenerate SHAPE]
                  (regenerate the paper's tables and figures — simulated,
                  or loaded off PATH.ytc, whose recorded scale/seed win;
                  any K gives byte-identical output)

Experiments (--exp; default: every paper experiment):
  table1 table2 table3 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10a
  fig10b fig11 fig12 fig13 fig14 fig15 fig16 fig17 fig18, and the
  extensions ext-perf ext-characterize ext-feb2011
Degenerate shapes (--degenerate, not with --from): empty single-flow
  no-video single-hour missing-net3 truncated-week

Scheduled mutations (--mutate, repeatable):
  dc-down@H:CITY      decommission the CITY data center at trace hour H
  prefer-flip@H:CITY  flip preferred-mapping answers to CITY from hour H
  cache-evict@H:F     shrink warm-cache presence to fraction F at hour H

Global flags (any subcommand, after its name):
  --telemetry PATH    write structured events as JSON lines to PATH
  --metrics-out PATH  write the final metrics snapshot as JSON to PATH
  (either flag also prints a metrics table on stderr at exit)

Datasets: US-Campus, EU1-Campus, EU1-ADSL, EU1-FTTH, EU2.
Defaults: --scale 0.02, --seed 42, --jobs = available CPUs
(a larger --jobs is capped there).
generate simulates all five datasets on one worker per available CPU; the
output is byte-identical for any worker count.";

/// Global observability options, orthogonal to the subcommand.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TelemetryOpts {
    /// Write structured JSONL events here (`--telemetry`).
    pub events: Option<PathBuf>,
    /// Write the final metrics snapshot (JSON) here (`--metrics-out`).
    pub metrics: Option<PathBuf>,
}

impl TelemetryOpts {
    /// Whether either flag was given.
    pub fn enabled(&self) -> bool {
        self.events.is_some() || self.metrics.is_some()
    }
}

/// A fully parsed command line: the subcommand plus global options.
#[derive(Debug, Clone, PartialEq)]
pub struct Invocation {
    /// The subcommand.
    pub command: Command,
    /// Global telemetry options.
    pub telemetry: TelemetryOpts,
}

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Generate one or all datasets as JSON-lines or Tstat text logs.
    Generate {
        /// One dataset, or `None` for all five.
        dataset: Option<DatasetName>,
        /// Workload scale.
        scale: f64,
        /// Scenario seed.
        seed: u64,
        /// Output file (single dataset or `.ytc`) or directory (all).
        out: PathBuf,
        /// Output format (`--format`, default `.ytc`).
        format: TraceFormat,
        /// Scheduled mutation specs (`kind@hour:arg`), applied in order.
        mutate: Vec<String>,
    },
    /// Analyze a trace file.
    Analyze {
        /// The JSON-lines trace.
        trace: PathBuf,
        /// Scale the analysis world was built at.
        scale: f64,
        /// Seed the analysis world was built at.
        seed: u64,
    },
    /// Geolocate a dataset's servers with CBG.
    Geolocate {
        /// The dataset to simulate and geolocate.
        dataset: DatasetName,
        /// Workload scale.
        scale: f64,
        /// Seed.
        seed: u64,
        /// Worker threads for CBG localization (`None` = available CPUs);
        /// per-/24 noise streams make any value byte-identical.
        jobs: Option<usize>,
    },
    /// Evaluate a counterfactual.
    WhatIf {
        /// Scenario name.
        scenario: String,
        /// Workload scale.
        scale: f64,
        /// Seed.
        seed: u64,
    },
    /// Simulate one dataset (optionally mutated) and detect CDN changes.
    Watch {
        /// The dataset to simulate and watch.
        dataset: DatasetName,
        /// Workload scale.
        scale: f64,
        /// Scenario seed.
        seed: u64,
        /// Scheduled mutation specs (`kind@hour:arg`), applied in order.
        mutate: Vec<String>,
        /// Detection window width, hours.
        window: u64,
        /// Change-point threshold on the constellation distance.
        threshold: f64,
        /// Windows with fewer analysis flows are treated as idle.
        min_flows: u64,
        /// Load the dataset from this `.ytc` file instead of simulating
        /// (the file's recorded scale/seed/mutations win).
        from: Option<PathBuf>,
    },
    /// Workload characterization of a trace file.
    Characterize {
        /// The trace (`.ytc` or Tstat text).
        trace: PathBuf,
    },
    /// Describe the simulated world from each vantage point.
    World {
        /// Workload scale (affects DNS capacities).
        scale: f64,
        /// Seed.
        seed: u64,
    },
    /// Anonymize a trace's client addresses (prefix-preserving).
    Anonymize {
        /// Input trace.
        trace: PathBuf,
        /// Output path.
        out: PathBuf,
        /// Anonymization key.
        seed: u64,
    },
    /// Regenerate the paper's tables and figures.
    Repro(ReproArgs),
}

/// `ytcdn repro`'s options.
#[derive(Debug, Clone, PartialEq)]
pub struct ReproArgs {
    /// Experiment ids to report, in order (default: [`ALL_EXPERIMENTS`]).
    pub exp: Vec<&'static str>,
    /// Workload scale.
    pub scale: f64,
    /// Scenario seed.
    pub seed: u64,
    /// Worker threads (`None` = available CPUs); any value gives
    /// byte-identical output.
    pub jobs: Option<usize>,
    /// Load the datasets from this `.ytc` file instead of simulating (the
    /// file's recorded scale/seed win).
    pub from: Option<PathBuf>,
    /// Calibrate CBG on the full 215-landmark set.
    pub full_landmarks: bool,
    /// Write per-figure CSV files into this directory.
    pub csv: Option<PathBuf>,
    /// Write the paper-vs-measured Markdown report here.
    pub markdown: Option<PathBuf>,
    /// Follow each figure's report with an ASCII chart.
    pub plot: bool,
    /// Print the pass/fail scorecard instead of the reports.
    pub scorecard: bool,
    /// Degrade every simulated dataset through this shape.
    pub degenerate: Option<DegenerateShape>,
}

/// Trace serialization format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceFormat {
    /// Compact columnar binary (`.ytc`) — one checksummed file carrying
    /// every generated dataset plus its scale/seed/mutation provenance.
    #[default]
    Ytc,
    /// Tstat-style whitespace columns (`.log`).
    Text,
}

/// Parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// `--help` was requested.
    Help,
    /// No subcommand given.
    MissingSubcommand,
    /// Unknown subcommand.
    UnknownSubcommand(String),
    /// A flag is missing its value or a required flag is absent.
    Missing(&'static str),
    /// A value failed to parse.
    Invalid(&'static str, String),
    /// Unknown flag for this subcommand.
    UnknownFlag(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Help => f.write_str("help requested"),
            ParseError::MissingSubcommand => f.write_str("missing subcommand"),
            ParseError::UnknownSubcommand(s) => write!(f, "unknown subcommand {s:?}"),
            ParseError::Missing(what) => write!(f, "missing {what}"),
            ParseError::Invalid(what, got) => write!(f, "invalid {what}: {got:?}"),
            ParseError::UnknownFlag(s) => write!(f, "unknown flag {s:?}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Flags every subcommand accepts.
const GLOBAL_FLAGS: &str = "--telemetry --metrics-out";

/// The flags `sub` reads besides [`GLOBAL_FLAGS`], space-separated; `None`
/// for an unknown subcommand. Any other flag is a
/// [`ParseError::UnknownFlag`], never silently dropped.
fn subcommand_flags(sub: &str) -> Option<&'static str> {
    Some(match sub {
        "generate" => "--dataset --scale --seed --mutate --format --out",
        "analyze" => "--trace --scale --seed",
        "geolocate" => "--dataset --scale --seed --jobs",
        "whatif" => "--scenario --scale --seed",
        "watch" => "--dataset --scale --seed --mutate --window --threshold --min-flows --from",
        "characterize" => "--trace",
        "world" => "--scale --seed",
        "anonymize" => "--trace --out --seed",
        "repro" => {
            "--exp --scale --seed --jobs --from --full-landmarks --csv --markdown --plot \
             --scorecard --degenerate"
        }
        _ => return None,
    })
}

/// Resolves one `--exp` id to its entry in the experiment tables.
fn experiment_id(id: &str) -> Result<&'static str, ParseError> {
    ALL_EXPERIMENTS
        .iter()
        .chain(EXTENSION_EXPERIMENTS)
        .find(|known| **known == id)
        .copied()
        .ok_or_else(|| ParseError::Invalid("experiment", id.to_owned()))
}

struct Flags {
    dataset: Option<DatasetName>,
    scale: f64,
    seed: u64,
    out: Option<PathBuf>,
    trace: Option<PathBuf>,
    scenario: Option<String>,
    format: TraceFormat,
    jobs: Option<usize>,
    mutate: Vec<String>,
    window: u64,
    threshold: f64,
    min_flows: u64,
    from: Option<PathBuf>,
    exp: Option<Vec<&'static str>>,
    full_landmarks: bool,
    csv: Option<PathBuf>,
    markdown: Option<PathBuf>,
    plot: bool,
    scorecard: bool,
    degenerate: Option<DegenerateShape>,
    telemetry: TelemetryOpts,
}

fn parse_flags(args: &[String], allowed: &str) -> Result<Flags, ParseError> {
    let mut flags = Flags {
        dataset: None,
        scale: 0.02,
        seed: 42,
        out: None,
        trace: None,
        scenario: None,
        format: TraceFormat::default(),
        jobs: None,
        mutate: Vec::new(),
        window: ytcdn_core::constellation::DEFAULT_WINDOW_HOURS,
        threshold: ytcdn_core::constellation::DEFAULT_THRESHOLD,
        min_flows: ytcdn_core::constellation::WatchConfig::default().min_flows,
        from: None,
        exp: None,
        full_landmarks: false,
        csv: None,
        markdown: None,
        plot: false,
        scorecard: false,
        degenerate: None,
        telemetry: TelemetryOpts::default(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let flag = a.as_str();
        let known = |flags: &str| flags.split_whitespace().any(|f| f == flag);
        if !matches!(flag, "--help" | "-h") && !known(allowed) && !known(GLOBAL_FLAGS) {
            return Err(ParseError::UnknownFlag(a.clone()));
        }
        let mut value = |what| it.next().ok_or(ParseError::Missing(what));
        match flag {
            "--help" | "-h" => return Err(ParseError::Help),
            "--dataset" => {
                let v = value("--dataset value")?;
                flags.dataset = Some(
                    v.parse()
                        .map_err(|_| ParseError::Invalid("dataset", v.clone()))?,
                );
            }
            "--scale" => {
                let v = value("--scale value")?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| ParseError::Invalid("scale", v.clone()))?;
                if !(s > 0.0 && s <= 1.0) {
                    return Err(ParseError::Invalid("scale", v.clone()));
                }
                flags.scale = s;
            }
            "--seed" => {
                let v = value("--seed value")?;
                flags.seed = v
                    .parse()
                    .map_err(|_| ParseError::Invalid("seed", v.clone()))?;
            }
            "--out" => flags.out = Some(PathBuf::from(value("--out value")?)),
            "--trace" => flags.trace = Some(PathBuf::from(value("--trace value")?)),
            "--scenario" => flags.scenario = Some(value("--scenario value")?.clone()),
            "--jobs" => {
                let v = value("--jobs value")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| ParseError::Invalid("jobs", v.clone()))?;
                if n == 0 {
                    return Err(ParseError::Invalid("jobs", v.clone()));
                }
                flags.jobs = Some(n);
            }
            "--mutate" => flags.mutate.push(value("--mutate value")?.clone()),
            "--window" => {
                let v = value("--window value")?;
                let h: u64 = v
                    .parse()
                    .map_err(|_| ParseError::Invalid("window", v.clone()))?;
                if h == 0 {
                    return Err(ParseError::Invalid("window", v.clone()));
                }
                flags.window = h;
            }
            "--threshold" => {
                let v = value("--threshold value")?;
                let d: f64 = v
                    .parse()
                    .map_err(|_| ParseError::Invalid("threshold", v.clone()))?;
                if !(d > 0.0 && d <= 1.0) {
                    return Err(ParseError::Invalid("threshold", v.clone()));
                }
                flags.threshold = d;
            }
            "--min-flows" => {
                let v = value("--min-flows value")?;
                flags.min_flows = v
                    .parse()
                    .map_err(|_| ParseError::Invalid("min-flows", v.clone()))?;
            }
            "--telemetry" => {
                flags.telemetry.events = Some(PathBuf::from(value("--telemetry value")?));
            }
            "--metrics-out" => {
                flags.telemetry.metrics = Some(PathBuf::from(value("--metrics-out value")?));
            }
            "--format" => {
                let v = value("--format value")?;
                flags.format = match v.as_str() {
                    "text" => TraceFormat::Text,
                    "ytc" => TraceFormat::Ytc,
                    _ => return Err(ParseError::Invalid("format", v.clone())),
                };
            }
            "--from" => flags.from = Some(PathBuf::from(value("--from value")?)),
            "--exp" => {
                let ids = value("--exp value")?.split(',').map(experiment_id);
                flags.exp = Some(ids.collect::<Result<_, _>>()?);
            }
            "--full-landmarks" => flags.full_landmarks = true,
            "--csv" => flags.csv = Some(PathBuf::from(value("--csv value")?)),
            "--markdown" => flags.markdown = Some(PathBuf::from(value("--markdown value")?)),
            "--plot" => flags.plot = true,
            "--scorecard" => flags.scorecard = true,
            "--degenerate" => {
                let v = value("--degenerate value")?;
                flags.degenerate = Some(
                    v.parse()
                        .map_err(|_| ParseError::Invalid("degenerate shape", v.clone()))?,
                );
            }
            other => return Err(ParseError::UnknownFlag(other.to_owned())),
        }
    }
    Ok(flags)
}

/// Parses a full argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Invocation, ParseError> {
    let (sub, rest) = args.split_first().ok_or(ParseError::MissingSubcommand)?;
    match sub.as_str() {
        "--help" | "-h" | "help" => return Err(ParseError::Help),
        _ => {}
    }
    let allowed =
        subcommand_flags(sub).ok_or_else(|| ParseError::UnknownSubcommand(sub.clone()))?;
    let flags = parse_flags(rest, allowed)?;
    let telemetry = flags.telemetry.clone();
    let command = match sub.as_str() {
        "generate" => {
            let out = flags.out.ok_or(ParseError::Missing("--out"))?;
            Ok(Command::Generate {
                dataset: flags.dataset,
                scale: flags.scale,
                seed: flags.seed,
                out,
                format: flags.format,
                mutate: flags.mutate.clone(),
            })
        }
        "analyze" => Ok(Command::Analyze {
            trace: flags.trace.ok_or(ParseError::Missing("--trace"))?,
            scale: flags.scale,
            seed: flags.seed,
        }),
        "geolocate" => Ok(Command::Geolocate {
            dataset: flags.dataset.ok_or(ParseError::Missing("--dataset"))?,
            scale: flags.scale,
            seed: flags.seed,
            jobs: flags.jobs,
        }),
        "whatif" => Ok(Command::WhatIf {
            scenario: flags.scenario.ok_or(ParseError::Missing("--scenario"))?,
            scale: flags.scale,
            seed: flags.seed,
        }),
        "watch" => {
            if flags.from.is_some() && !flags.mutate.is_empty() {
                // The file already records its mutations; a second set here
                // would silently disagree with the provenance header.
                return Err(ParseError::Invalid(
                    "--mutate",
                    "cannot be combined with --from (the .ytc file records its own mutations)"
                        .to_owned(),
                ));
            }
            Ok(Command::Watch {
                dataset: flags.dataset.ok_or(ParseError::Missing("--dataset"))?,
                scale: flags.scale,
                seed: flags.seed,
                mutate: flags.mutate.clone(),
                window: flags.window,
                threshold: flags.threshold,
                min_flows: flags.min_flows,
                from: flags.from.clone(),
            })
        }
        "characterize" => Ok(Command::Characterize {
            trace: flags.trace.ok_or(ParseError::Missing("--trace"))?,
        }),
        "world" => Ok(Command::World {
            scale: flags.scale,
            seed: flags.seed,
        }),
        "anonymize" => Ok(Command::Anonymize {
            trace: flags.trace.ok_or(ParseError::Missing("--trace"))?,
            out: flags.out.ok_or(ParseError::Missing("--out"))?,
            seed: flags.seed,
        }),
        "repro" => {
            if flags.from.is_some() && flags.degenerate.is_some() {
                return Err(ParseError::Invalid(
                    "--degenerate",
                    "cannot be combined with --from (the .ytc file already fixes the dataset \
                     shapes)"
                        .to_owned(),
                ));
            }
            Ok(Command::Repro(ReproArgs {
                exp: flags.exp.unwrap_or_else(|| ALL_EXPERIMENTS.to_vec()),
                scale: flags.scale,
                seed: flags.seed,
                jobs: flags.jobs,
                from: flags.from,
                full_landmarks: flags.full_landmarks,
                csv: flags.csv,
                markdown: flags.markdown,
                plot: flags.plot,
                scorecard: flags.scorecard,
                degenerate: flags.degenerate,
            }))
        }
        other => Err(ParseError::UnknownSubcommand(other.to_owned())),
    }?;
    Ok(Invocation { command, telemetry })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses a command line given as one whitespace-separated string.
    fn parse_line(line: &str) -> Result<Invocation, ParseError> {
        let args: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        parse(&args)
    }

    /// Parses and discards the global options (most tests only care about
    /// the subcommand).
    fn cmd(line: &str) -> Command {
        parse_line(line).unwrap().command
    }

    fn err(line: &str) -> ParseError {
        parse_line(line).unwrap_err()
    }

    #[test]
    fn parse_generate_single() {
        assert_eq!(
            cmd("generate --dataset EU1-ADSL --scale 0.05 --out trace.ytc"),
            Command::Generate {
                dataset: Some(DatasetName::Eu1Adsl),
                scale: 0.05,
                seed: 42,
                out: PathBuf::from("trace.ytc"),
                format: TraceFormat::Ytc,
                mutate: vec![],
            }
        );
    }

    #[test]
    fn parse_watch_defaults_and_overrides() {
        assert_eq!(
            cmd("watch --dataset EU1-FTTH"),
            Command::Watch {
                dataset: DatasetName::Eu1Ftth,
                scale: 0.02,
                seed: 42,
                mutate: vec![],
                window: ytcdn_core::constellation::DEFAULT_WINDOW_HOURS,
                threshold: ytcdn_core::constellation::DEFAULT_THRESHOLD,
                min_flows: ytcdn_core::constellation::WatchConfig::default().min_flows,
                from: None,
            }
        );
        assert_eq!(
            cmd(
                "watch --dataset EU2 --scale 0.05 --seed 7 --mutate dc-down@72:milan \
                 --mutate cache-evict@48:0.05 --window 12 --threshold 0.3 --min-flows 10"
            ),
            Command::Watch {
                dataset: DatasetName::Eu2,
                scale: 0.05,
                seed: 7,
                mutate: vec!["dc-down@72:milan".into(), "cache-evict@48:0.05".into()],
                window: 12,
                threshold: 0.3,
                min_flows: 10,
                from: None,
            }
        );
        // The dataset is required; window and threshold are validated.
        assert_eq!(err("watch"), ParseError::Missing("--dataset"));
        assert!(matches!(
            err("watch --dataset EU2 --window 0"),
            ParseError::Invalid("window", _)
        ));
        assert!(matches!(
            err("watch --dataset EU2 --threshold 1.5"),
            ParseError::Invalid("threshold", _)
        ));
        assert!(matches!(
            err("watch --dataset EU2 --min-flows lots"),
            ParseError::Invalid("min-flows", _)
        ));
    }

    #[test]
    fn parse_generate_mutations_ride_along() {
        assert!(matches!(
            cmd("generate --out dir --mutate prefer-flip@96:frankfurt"),
            Command::Generate { mutate, .. } if mutate == ["prefer-flip@96:frankfurt"]
        ));
    }

    #[test]
    fn parse_shards() {
        // The flag is gone; an old script must fail loudly, not be ignored.
        for line in [
            "generate --shards 8 --out dir",
            "watch --dataset EU2 --shards 2",
            "geolocate --dataset EU2 --shards 2",
        ] {
            assert_eq!(
                err(line),
                ParseError::UnknownFlag("--shards".to_owned()),
                "{line}"
            );
        }
    }

    #[test]
    fn parse_generate_text_format() {
        assert!(matches!(
            cmd("generate --format text --out dir"),
            Command::Generate {
                format: TraceFormat::Text,
                ..
            }
        ));
        assert!(matches!(
            err("generate --format xml --out d"),
            ParseError::Invalid("format", _)
        ));
    }

    #[test]
    fn parse_generate_ytc_format() {
        // Explicit flag, and the default whatever the extension.
        for line in [
            "generate --format ytc --out data.bin",
            "generate --out trace.log",
        ] {
            assert!(matches!(
                cmd(line),
                Command::Generate {
                    format: TraceFormat::Ytc,
                    ..
                }
            ));
        }
        // The JSON-lines dataset format is gone.
        assert!(matches!(
            err("generate --format jsonl --out d"),
            ParseError::Invalid("format", _)
        ));
    }

    #[test]
    fn parse_watch_from_ytc() {
        assert!(matches!(
            cmd("watch --dataset EU2 --from dataset.ytc"),
            Command::Watch { from: Some(ref p), .. } if p == &PathBuf::from("dataset.ytc")
        ));
        // --from records its own mutations; combining is rejected.
        assert!(matches!(
            err("watch --dataset EU2 --from dataset.ytc --mutate dc-down@72:milan"),
            ParseError::Invalid("--mutate", _)
        ));
        assert_eq!(
            err("watch --dataset EU2 --from"),
            ParseError::Missing("--from value")
        );
    }

    #[test]
    fn parse_generate_all_requires_out() {
        assert_eq!(err("generate"), ParseError::Missing("--out"));
    }

    #[test]
    fn parse_analyze() {
        assert_eq!(
            cmd("analyze --trace x.log --seed 7"),
            Command::Analyze {
                trace: PathBuf::from("x.log"),
                scale: 0.02,
                seed: 7,
            }
        );
    }

    #[test]
    fn parse_jobs() {
        assert!(matches!(
            cmd("geolocate --dataset EU2 --jobs 4"),
            Command::Geolocate { jobs: Some(4), .. }
        ));
        for line in [
            "geolocate --dataset EU2 --jobs 0",
            "geolocate --dataset EU2 --jobs many",
            "repro --jobs 0",
        ] {
            assert!(
                matches!(err(line), ParseError::Invalid("jobs", _)),
                "{line}"
            );
        }
        assert_eq!(
            err("geolocate --dataset EU2 --jobs"),
            ParseError::Missing("--jobs value")
        );
    }

    #[test]
    fn parse_geolocate_defaults() {
        assert_eq!(
            cmd("geolocate --dataset EU2"),
            Command::Geolocate {
                dataset: DatasetName::Eu2,
                scale: 0.02,
                seed: 42,
                jobs: None,
            }
        );
    }

    #[test]
    fn parse_whatif() {
        assert!(matches!(
            cmd("whatif --scenario any-name"),
            Command::WhatIf { scenario, .. } if scenario == "any-name"
        ));
    }

    #[test]
    fn usage_lists_every_counterfactual() {
        for c in ytcdn_core::whatif::COUNTERFACTUALS {
            assert!(
                USAGE.contains(c.name),
                "USAGE lacks whatif scenario {}",
                c.name
            );
        }
    }

    #[test]
    fn parse_telemetry_flags() {
        let inv = parse_line("world --telemetry events.jsonl --metrics-out metrics.json").unwrap();
        assert_eq!(
            inv.telemetry,
            TelemetryOpts {
                events: Some(PathBuf::from("events.jsonl")),
                metrics: Some(PathBuf::from("metrics.json")),
            }
        );
        assert!(inv.telemetry.enabled());
        // Off by default, and each flag requires a value.
        assert!(!parse_line("world").unwrap().telemetry.enabled());
        assert_eq!(
            err("world --telemetry"),
            ParseError::Missing("--telemetry value")
        );
        assert_eq!(
            err("world --metrics-out"),
            ParseError::Missing("--metrics-out value")
        );
    }

    #[test]
    fn rejects_bad_inputs() {
        assert_eq!(parse(&[]).unwrap_err(), ParseError::MissingSubcommand);
        assert!(matches!(err("fly"), ParseError::UnknownSubcommand(_)));
        assert!(matches!(
            err("analyze --trace x --bogus"),
            ParseError::UnknownFlag(_)
        ));
        assert!(matches!(
            err("generate --dataset EU9 --out x"),
            ParseError::Invalid("dataset", _)
        ));
        assert!(matches!(
            err("generate --scale 0 --out x"),
            ParseError::Invalid("scale", _)
        ));
        assert_eq!(err("--help"), ParseError::Help);
        assert_eq!(err("analyze --help"), ParseError::Help);
    }

    #[test]
    fn rejects_flags_the_subcommand_does_not_read() {
        for (line, flag) in [
            (
                "generate --jobs 1 --dataset EU2 --scale 0.002 --format text --out e.log",
                "--jobs",
            ),
            (
                "whatif --scenario x --from /nonexistent --window 3",
                "--from",
            ),
            ("generate --out x --plot", "--plot"),
            ("world --landmarks 9", "--landmarks"),
            ("geolocate --dataset EU2 --landmarks 50", "--landmarks"),
            ("repro --windows", "--windows"),
            ("repro --out x", "--out"),
        ] {
            assert_eq!(
                err(line),
                ParseError::UnknownFlag(flag.to_owned()),
                "{line}"
            );
        }
        // The global flags stay allowed everywhere.
        for sub in ["generate", "analyze", "world", "repro"] {
            assert_eq!(
                err(&format!("{sub} --metrics-out m.json --bogus")),
                ParseError::UnknownFlag("--bogus".to_owned()),
                "{sub}"
            );
        }
    }

    fn repro(args: &str) -> ReproArgs {
        match cmd(&format!("repro {args}")) {
            Command::Repro(r) => r,
            other => panic!("not a repro command: {other:?}"),
        }
    }

    #[test]
    fn parse_repro_defaults() {
        assert_eq!(
            repro(""),
            ReproArgs {
                exp: ALL_EXPERIMENTS.to_vec(),
                scale: 0.02,
                seed: 42,
                jobs: None,
                from: None,
                full_landmarks: false,
                csv: None,
                markdown: None,
                plot: false,
                scorecard: false,
                degenerate: None,
            }
        );
    }

    #[test]
    fn parse_repro_every_flag() {
        assert_eq!(
            repro(
                "--exp fig11 --scale 0.1 --seed 7 --jobs 3 --full-landmarks --csv figures \
                 --markdown report.md --plot --scorecard --degenerate single-hour"
            ),
            ReproArgs {
                exp: vec!["fig11"],
                scale: 0.1,
                seed: 7,
                jobs: Some(3),
                from: None,
                full_landmarks: true,
                csv: Some(PathBuf::from("figures")),
                markdown: Some(PathBuf::from("report.md")),
                plot: true,
                scorecard: true,
                degenerate: Some(DegenerateShape::SingleHour),
            }
        );
        assert_eq!(
            repro("--from dataset.ytc").from,
            Some(PathBuf::from("dataset.ytc"))
        );
    }

    #[test]
    fn parse_repro_experiment_list() {
        assert_eq!(repro("--exp fig3,table3").exp, ["fig3", "table3"]);
        assert_eq!(repro("--exp ext-perf").exp, ["ext-perf"]);
        // Unknown ids fail at parse time, before any simulation.
        for bad in ["fig99", "fig3,fig99", "fig3,", ","] {
            assert!(
                matches!(
                    err(&format!("repro --exp {bad}")),
                    ParseError::Invalid("experiment", _)
                ),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn parse_repro_rejects_bad_combinations() {
        assert!(matches!(
            err("repro --from dataset.ytc --degenerate empty"),
            ParseError::Invalid("--degenerate", _)
        ));
        assert!(matches!(
            err("repro --degenerate hollow"),
            ParseError::Invalid("degenerate shape", _)
        ));
        assert_eq!(err("repro --csv"), ParseError::Missing("--csv value"));
    }

    #[test]
    fn usage_lists_every_experiment_and_shape() {
        for id in ALL_EXPERIMENTS.iter().chain(EXTENSION_EXPERIMENTS) {
            assert!(USAGE.contains(&format!(" {id}")), "{id}");
        }
        for shape in DegenerateShape::ALL {
            assert!(USAGE.contains(&format!(" {shape}")), "{shape}");
        }
    }

    #[test]
    fn parse_characterize() {
        assert_eq!(
            cmd("characterize --trace x.log"),
            Command::Characterize {
                trace: PathBuf::from("x.log")
            }
        );
        assert_eq!(err("characterize"), ParseError::Missing("--trace"));
    }

    #[test]
    fn parse_world_and_anonymize() {
        assert_eq!(
            cmd("world --scale 0.1"),
            Command::World {
                scale: 0.1,
                seed: 42
            }
        );
        assert_eq!(
            cmd("anonymize --trace in.log --out out.log --seed 9"),
            Command::Anonymize {
                trace: PathBuf::from("in.log"),
                out: PathBuf::from("out.log"),
                seed: 9,
            }
        );
        assert_eq!(
            err("anonymize --trace in.log"),
            ParseError::Missing("--out")
        );
    }

    #[test]
    fn missing_flag_values_detected() {
        assert_eq!(err("analyze --trace"), ParseError::Missing("--trace value"));
    }
}

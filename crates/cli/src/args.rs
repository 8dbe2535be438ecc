//! Argument parsing for the `ytcdn` CLI (hand-rolled, no parser crates).

use std::fmt;
use std::path::PathBuf;

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
  ytcdn geolocate --dataset NAME [--landmarks K] [--scale S] [--seed N]
                  [--jobs K] (CBG worker threads; any K gives byte-identical output)
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

Scheduled mutations (--mutate, repeatable):
  dc-down@H:CITY      decommission the CITY data center at trace hour H
  prefer-flip@H:CITY  flip preferred-mapping answers to CITY from hour H
  cache-evict@H:F     shrink warm-cache presence to fraction F at hour H

Global flags (any subcommand):
  --telemetry PATH    write structured events as JSON lines to PATH
  --metrics-out PATH  write the final metrics snapshot as JSON to PATH
  (either flag also prints a metrics table on stderr at exit)

Datasets: US-Campus, EU1-Campus, EU1-ADSL, EU1-FTTH, EU2.
Defaults: --scale 0.02, --seed 42, --landmarks 50, --jobs = available CPUs.
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
        /// Number of CBG landmarks.
        landmarks: usize,
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

struct Flags {
    dataset: Option<DatasetName>,
    scale: f64,
    seed: u64,
    out: Option<PathBuf>,
    trace: Option<PathBuf>,
    landmarks: usize,
    scenario: Option<String>,
    format: TraceFormat,
    jobs: Option<usize>,
    mutate: Vec<String>,
    window: u64,
    threshold: f64,
    min_flows: u64,
    from: Option<PathBuf>,
    telemetry: TelemetryOpts,
}

fn parse_flags(args: &[String]) -> Result<Flags, ParseError> {
    let mut flags = Flags {
        dataset: None,
        scale: 0.02,
        seed: 42,
        out: None,
        trace: None,
        landmarks: 50,
        scenario: None,
        format: TraceFormat::default(),
        jobs: None,
        mutate: Vec::new(),
        window: ytcdn_core::constellation::DEFAULT_WINDOW_HOURS,
        threshold: ytcdn_core::constellation::DEFAULT_THRESHOLD,
        min_flows: ytcdn_core::constellation::WatchConfig::default().min_flows,
        from: None,
        telemetry: TelemetryOpts::default(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what| it.next().ok_or(ParseError::Missing(what));
        match a.as_str() {
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
            "--landmarks" => {
                let v = value("--landmarks value")?;
                let k: usize = v
                    .parse()
                    .map_err(|_| ParseError::Invalid("landmarks", v.clone()))?;
                if k < 3 {
                    return Err(ParseError::Invalid("landmarks", v.clone()));
                }
                flags.landmarks = k;
            }
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
    let flags = parse_flags(rest)?;
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
            landmarks: flags.landmarks,
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
        other => Err(ParseError::UnknownSubcommand(other.to_owned())),
    }?;
    Ok(Invocation { command, telemetry })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// Parses and discards the global options (most tests only care about
    /// the subcommand).
    fn cmd(args: &[&str]) -> Command {
        parse(&v(args)).unwrap().command
    }

    #[test]
    fn parse_generate_single() {
        let cmd = cmd(&[
            "generate",
            "--dataset",
            "EU1-ADSL",
            "--scale",
            "0.05",
            "--out",
            "trace.ytc",
        ]);
        assert_eq!(
            cmd,
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
        let defaults = cmd(&["watch", "--dataset", "EU1-FTTH"]);
        assert_eq!(
            defaults,
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
        let tuned = cmd(&[
            "watch",
            "--dataset",
            "EU2",
            "--scale",
            "0.05",
            "--seed",
            "7",
            "--mutate",
            "dc-down@72:milan",
            "--mutate",
            "cache-evict@48:0.05",
            "--window",
            "12",
            "--threshold",
            "0.3",
            "--min-flows",
            "10",
        ]);
        assert_eq!(
            tuned,
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
        assert_eq!(
            parse(&v(&["watch"])).unwrap_err(),
            ParseError::Missing("--dataset")
        );
        assert!(matches!(
            parse(&v(&["watch", "--dataset", "EU2", "--window", "0"])).unwrap_err(),
            ParseError::Invalid("window", _)
        ));
        assert!(matches!(
            parse(&v(&["watch", "--dataset", "EU2", "--threshold", "1.5"])).unwrap_err(),
            ParseError::Invalid("threshold", _)
        ));
        assert!(matches!(
            parse(&v(&["watch", "--dataset", "EU2", "--min-flows", "lots"])).unwrap_err(),
            ParseError::Invalid("min-flows", _)
        ));
    }

    #[test]
    fn parse_generate_mutations_ride_along() {
        let gen = cmd(&[
            "generate",
            "--out",
            "dir",
            "--mutate",
            "prefer-flip@96:frankfurt",
        ]);
        assert!(matches!(
            gen,
            Command::Generate { mutate, .. } if mutate == ["prefer-flip@96:frankfurt"]
        ));
    }

    #[test]
    fn parse_shards() {
        // The flag is gone; an old script must fail loudly, not be ignored.
        for args in [
            &["generate", "--shards", "8", "--out", "dir"][..],
            &["watch", "--dataset", "EU2", "--shards", "2"],
            &["geolocate", "--dataset", "EU2", "--shards", "2"],
        ] {
            assert_eq!(
                parse(&v(args)).unwrap_err(),
                ParseError::UnknownFlag("--shards".to_owned()),
                "{args:?}"
            );
        }
    }

    #[test]
    fn parse_generate_text_format() {
        let cmd = cmd(&["generate", "--format", "text", "--out", "dir"]);
        assert!(matches!(
            cmd,
            Command::Generate {
                format: TraceFormat::Text,
                ..
            }
        ));
        assert!(matches!(
            parse(&v(&["generate", "--format", "xml", "--out", "d"])).unwrap_err(),
            ParseError::Invalid("format", _)
        ));
    }

    #[test]
    fn parse_generate_ytc_format() {
        // Explicit flag, and the default whatever the extension.
        for args in [
            &["generate", "--format", "ytc", "--out", "data.bin"][..],
            &["generate", "--out", "trace.log"],
        ] {
            assert!(matches!(
                cmd(args),
                Command::Generate {
                    format: TraceFormat::Ytc,
                    ..
                }
            ));
        }
        // The JSON-lines dataset format is gone.
        assert!(matches!(
            parse(&v(&["generate", "--format", "jsonl", "--out", "d"])).unwrap_err(),
            ParseError::Invalid("format", _)
        ));
    }

    #[test]
    fn parse_watch_from_ytc() {
        let loaded = cmd(&["watch", "--dataset", "EU2", "--from", "dataset.ytc"]);
        assert!(matches!(
            loaded,
            Command::Watch { from: Some(ref p), .. } if p == &PathBuf::from("dataset.ytc")
        ));
        // --from records its own mutations; combining is rejected.
        assert!(matches!(
            parse(&v(&[
                "watch",
                "--dataset",
                "EU2",
                "--from",
                "dataset.ytc",
                "--mutate",
                "dc-down@72:milan",
            ]))
            .unwrap_err(),
            ParseError::Invalid("--mutate", _)
        ));
        assert_eq!(
            parse(&v(&["watch", "--dataset", "EU2", "--from"])).unwrap_err(),
            ParseError::Missing("--from value")
        );
    }

    #[test]
    fn parse_generate_all_requires_out() {
        let err = parse(&v(&["generate"])).unwrap_err();
        assert_eq!(err, ParseError::Missing("--out"));
    }

    #[test]
    fn parse_analyze() {
        let cmd = cmd(&["analyze", "--trace", "x.log", "--seed", "7"]);
        assert_eq!(
            cmd,
            Command::Analyze {
                trace: PathBuf::from("x.log"),
                scale: 0.02,
                seed: 7,
            }
        );
    }

    #[test]
    fn parse_jobs() {
        let geo = cmd(&["geolocate", "--dataset", "EU2", "--jobs", "4"]);
        assert!(matches!(geo, Command::Geolocate { jobs: Some(4), .. }));
        assert!(matches!(
            parse(&v(&["geolocate", "--dataset", "EU2", "--jobs", "0"])).unwrap_err(),
            ParseError::Invalid("jobs", _)
        ));
        assert!(matches!(
            parse(&v(&["geolocate", "--dataset", "EU2", "--jobs", "many"])).unwrap_err(),
            ParseError::Invalid("jobs", _)
        ));
        assert_eq!(
            parse(&v(&["geolocate", "--dataset", "EU2", "--jobs"])).unwrap_err(),
            ParseError::Missing("--jobs value")
        );
    }

    #[test]
    fn parse_geolocate_defaults() {
        let cmd = cmd(&["geolocate", "--dataset", "EU2"]);
        assert_eq!(
            cmd,
            Command::Geolocate {
                dataset: DatasetName::Eu2,
                scale: 0.02,
                seed: 42,
                landmarks: 50,
                jobs: None,
            }
        );
    }

    #[test]
    fn parse_whatif() {
        let cmd = cmd(&["whatif", "--scenario", "feb2011"]);
        assert!(matches!(cmd, Command::WhatIf { scenario, .. } if scenario == "feb2011"));
    }

    #[test]
    fn parse_telemetry_flags() {
        let inv = parse(&v(&[
            "world",
            "--telemetry",
            "events.jsonl",
            "--metrics-out",
            "metrics.json",
        ]))
        .unwrap();
        assert_eq!(
            inv.telemetry,
            TelemetryOpts {
                events: Some(PathBuf::from("events.jsonl")),
                metrics: Some(PathBuf::from("metrics.json")),
            }
        );
        assert!(inv.telemetry.enabled());
        // Off by default, and each flag requires a value.
        assert!(!parse(&v(&["world"])).unwrap().telemetry.enabled());
        assert_eq!(
            parse(&v(&["world", "--telemetry"])).unwrap_err(),
            ParseError::Missing("--telemetry value")
        );
        assert_eq!(
            parse(&v(&["world", "--metrics-out"])).unwrap_err(),
            ParseError::Missing("--metrics-out value")
        );
    }

    #[test]
    fn rejects_bad_inputs() {
        assert_eq!(parse(&[]).unwrap_err(), ParseError::MissingSubcommand);
        assert!(matches!(
            parse(&v(&["fly"])).unwrap_err(),
            ParseError::UnknownSubcommand(_)
        ));
        assert!(matches!(
            parse(&v(&["analyze", "--trace", "x", "--bogus"])).unwrap_err(),
            ParseError::UnknownFlag(_)
        ));
        assert!(matches!(
            parse(&v(&["generate", "--dataset", "EU9", "--out", "x"])).unwrap_err(),
            ParseError::Invalid("dataset", _)
        ));
        assert!(matches!(
            parse(&v(&["generate", "--scale", "0", "--out", "x"])).unwrap_err(),
            ParseError::Invalid("scale", _)
        ));
        assert!(matches!(
            parse(&v(&["geolocate", "--dataset", "EU2", "--landmarks", "2"])).unwrap_err(),
            ParseError::Invalid("landmarks", _)
        ));
        assert_eq!(parse(&v(&["--help"])).unwrap_err(), ParseError::Help);
        assert_eq!(
            parse(&v(&["analyze", "--help"])).unwrap_err(),
            ParseError::Help
        );
    }

    #[test]
    fn parse_characterize() {
        let cmd = cmd(&["characterize", "--trace", "x.log"]);
        assert_eq!(
            cmd,
            Command::Characterize {
                trace: PathBuf::from("x.log")
            }
        );
        assert_eq!(
            parse(&v(&["characterize"])).unwrap_err(),
            ParseError::Missing("--trace")
        );
    }

    #[test]
    fn parse_world_and_anonymize() {
        assert_eq!(
            cmd(&["world", "--scale", "0.1"]),
            Command::World {
                scale: 0.1,
                seed: 42
            }
        );
        assert_eq!(
            cmd(&[
                "anonymize",
                "--trace",
                "in.log",
                "--out",
                "out.log",
                "--seed",
                "9"
            ]),
            Command::Anonymize {
                trace: PathBuf::from("in.log"),
                out: PathBuf::from("out.log"),
                seed: 9,
            }
        );
        assert_eq!(
            parse(&v(&["anonymize", "--trace", "in.log"])).unwrap_err(),
            ParseError::Missing("--out")
        );
    }

    #[test]
    fn missing_flag_values_detected() {
        assert_eq!(
            parse(&v(&["analyze", "--trace"])).unwrap_err(),
            ParseError::Missing("--trace value")
        );
    }
}

//! `ytcdn` — command-line interface to the YouTube CDN reproduction.
//!
//! ```text
//! ytcdn generate --dataset EU1-ADSL --scale 0.05 --format text --out trace.log
//! ytcdn analyze  --trace trace.log --scale 0.05
//! ytcdn geolocate --dataset EU1-Campus
//! ytcdn whatif   --scenario feb2011
//! ytcdn repro    --exp fig3,table3 --scale 0.1
//! ```
//!
//! `generate` writes one compact columnar `.ytc` file carrying every
//! generated dataset plus its provenance (see `ytcdn_core::columnar`) — or,
//! with `--format text`, Tstat-style text flow logs; `analyze` re-reads a
//! trace (a one-dataset `.ytc`, or a text log from `generate` or any tool
//! emitting the same columns) and runs the paper's methodology on it; `geolocate` runs CBG over a
//! dataset's servers; `whatif` evaluates the counterfactuals of
//! [`ytcdn_core::whatif`]; `watch --from dataset.ytc` detects CDN changes
//! straight off a columnar file, skipping simulation; `repro` regenerates
//! every table and figure of the paper (`--from dataset.ytc` analyses a
//! columnar file instead of simulating).

#![forbid(unsafe_code)]
// Tables and analysis results go to stdout: that is this binary's product.
#![allow(clippy::print_stdout)]

use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

mod args;

use args::{Command, ParseError, ReproArgs, TelemetryOpts};
use ytcdn_cdnsim::{MutationSpec, ScenarioConfig, StandardScenario};
use ytcdn_core::experiments::{ExperimentSuite, Figure, SuiteConfig};
use ytcdn_core::perf::perf_report;
use ytcdn_core::whatif;
use ytcdn_core::{
    AnalysisContext, DatasetIndex, FormatError, Observatory, WatchConfig, WatchReport, YtcFile,
    YtcHeader,
};
use ytcdn_geoloc::cluster_by_city;
use ytcdn_geomodel::CityDb;
use ytcdn_telemetry::{JsonlSink, Progress, Telemetry};
use ytcdn_tstat::{Dataset, DatasetName};

/// Everything a subcommand needs besides its own flags: the telemetry
/// handle (disabled unless `--telemetry`/`--metrics-out` was given) and the
/// stderr progress reporter. Stdout stays data-only.
struct Ctx {
    telemetry: Telemetry,
    progress: Progress,
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let inv = match args::parse(&argv) {
        Ok(inv) => inv,
        Err(ParseError::Help) => {
            eprintln!("{}", args::USAGE);
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{}", args::USAGE);
            return ExitCode::FAILURE;
        }
    };
    let telemetry = match build_telemetry(&inv.telemetry) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ctx = Ctx {
        telemetry,
        progress: Progress::stderr(),
    };
    let code = run(inv.command, &ctx);
    if let Err(e) = finish_telemetry(&inv.telemetry, &ctx.telemetry) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    code
}

/// The handle the invocation asked for: a JSONL event stream when
/// `--telemetry PATH` is given, metrics-only when just `--metrics-out`,
/// disabled otherwise.
fn build_telemetry(opts: &TelemetryOpts) -> Result<Telemetry, String> {
    match &opts.events {
        Some(path) => {
            let sink = JsonlSink::create(path)
                .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
            Ok(Telemetry::with_sink(Arc::new(sink)))
        }
        None if opts.metrics.is_some() => Ok(Telemetry::metrics_only()),
        None => Ok(Telemetry::disabled()),
    }
}

/// Flushes the event sink, writes the metrics JSON, and prints the
/// human-readable metrics table on stderr.
fn finish_telemetry(opts: &TelemetryOpts, telemetry: &Telemetry) -> Result<(), String> {
    if !opts.enabled() {
        return Ok(());
    }
    telemetry
        .flush()
        .map_err(|e| format!("cannot flush telemetry: {e}"))?;
    let Some(snapshot) = telemetry.metrics_snapshot() else {
        return Ok(());
    };
    if let Some(path) = &opts.metrics {
        std::fs::write(path, snapshot.to_json() + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    eprint!("{}", snapshot.render_table());
    Ok(())
}

fn run(cmd: Command, ctx: &Ctx) -> ExitCode {
    match cmd {
        Command::Generate {
            dataset,
            scale,
            seed,
            out,
            format,
            mutate,
        } => match scenario(scale, seed, &mutate, ctx) {
            Ok(s) => generate(
                s,
                dataset,
                out,
                format,
                YtcHeader {
                    scale,
                    seed,
                    mutations: mutate,
                },
                ctx,
            ),
            Err(code) => code,
        },
        Command::Analyze { trace, scale, seed } => analyze(&trace, scale, seed, ctx),
        Command::Geolocate {
            dataset,
            scale,
            seed,
            jobs,
        } => geolocate(dataset, scale, seed, jobs.unwrap_or(0), ctx),
        Command::WhatIf {
            scenario,
            scale,
            seed,
        } => what_if(&scenario, scale, seed, ctx),
        Command::Watch {
            dataset,
            scale,
            seed,
            mutate,
            window,
            threshold,
            min_flows,
            from,
        } => {
            let config = WatchConfig {
                window_hours: window,
                threshold,
                min_flows,
            };
            match from {
                Some(path) => watch_from(&path, dataset, config, ctx),
                None => match scenario(scale, seed, &mutate, ctx) {
                    Ok(s) => watch(&s, s.run(dataset).0, config, ctx),
                    Err(code) => code,
                },
            }
        }
        Command::Characterize { trace } => characterize_trace(&trace),
        Command::World { scale, seed } => describe_world(scale, seed, ctx),
        Command::Anonymize { trace, out, seed } => anonymize_trace(&trace, &out, seed, ctx),
        Command::Repro(args) => repro(args, ctx),
    }
}

/// `ytcdn repro`: simulate the five datasets (or load them off a `.ytc`
/// file), then print the requested experiments' reports — or, with
/// `--scorecard`, only the pass/fail scorecard — and optionally write the
/// Markdown report and per-figure CSV files.
fn repro(args: ReproArgs, ctx: &Ctx) -> ExitCode {
    let config = |scale, seed| SuiteConfig {
        scenario: ScenarioConfig::with_scale(scale, seed),
        full_landmarks: args.full_landmarks,
        jobs: args.jobs.unwrap_or(0),
    };
    let suite = if let Some(path) = &args.from {
        let file = match read_ytc(path, ctx) {
            Ok(f) => f,
            Err(code) => return code,
        };
        // The file's recorded provenance supersedes --scale/--seed: the
        // analysis world must match the world the flows were simulated in.
        let header = &file.header;
        ctx.progress.note(&format!(
            "loaded {} flows from {} (scale {}, seed {}, {} mutation(s)); skipping simulation",
            file.total_flows(),
            path.display(),
            header.scale,
            header.seed,
            header.mutations.len()
        ));
        let config = config(header.scale, header.seed);
        let datasets = file.into_columnar_datasets();
        match ExperimentSuite::from_columnar(config, ctx.telemetry.clone(), datasets) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot analyse {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    } else {
        ctx.progress.note(&format!(
            "building world and simulating 5 datasets (scale {}, seed {})…",
            args.scale, args.seed
        ));
        let config = config(args.scale, args.seed);
        match args.degenerate {
            Some(shape) => {
                ctx.progress
                    .note(&format!("degrading every dataset to shape {shape}"));
                ExperimentSuite::with_degenerate(config, ctx.telemetry.clone(), shape)
            }
            None => ExperimentSuite::with_telemetry(config, ctx.telemetry.clone()),
        }
    };

    if args.scorecard {
        let card = ytcdn_core::scorecard::scorecard(&suite);
        println!("{}", ytcdn_core::scorecard::render_scorecard(&card));
        // Skipped (unanswerable) claims do not fail the run; wrong ones do.
        return if card.pass() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    // Experiments run concurrently; reports come back in input order, so
    // stdout is byte-identical to the sequential path regardless of --jobs.
    let reports = suite.run_many(&args.exp, suite.jobs());
    for (id, report) in args.exp.iter().zip(reports) {
        println!(
            "──── {id} {}",
            "─".repeat(60_usize.saturating_sub(id.len()))
        );
        match report {
            Ok(report) => {
                println!("{report}");
                if args.plot {
                    if let Ok(Figure {
                        series: Ok(series), ..
                    }) = suite.figure(id)
                    {
                        println!("{}", ytcdn_core::export::ascii_chart(series, 72, 16));
                    }
                }
            }
            Err(e) => println!("SKIPPED: {e}\n"),
        }
    }

    if let Some(path) = &args.markdown {
        let md = ytcdn_core::report::markdown_report(&suite);
        if let Err(e) = std::fs::write(path, md) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        ctx.progress
            .note(&format!("wrote markdown report to {}", path.display()));
    }

    if let Some(dir) = &args.csv {
        match ytcdn_core::export::export_all(&suite, dir) {
            Ok(paths) => ctx.progress.note(&format!(
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
    ExitCode::SUCCESS
}

/// Opens and decodes a `.ytc` file, reporting any failure on stderr.
fn read_ytc(path: &Path, ctx: &Ctx) -> Result<YtcFile, ExitCode> {
    let source = std::fs::File::open(path).map_err(|e| {
        eprintln!("cannot open {}: {e}", path.display());
        ExitCode::FAILURE
    })?;
    YtcFile::read_from(BufReader::new(source), &ctx.telemetry).map_err(|e| {
        eprintln!("cannot read {}: {e}", path.display());
        ExitCode::FAILURE
    })
}

fn describe_world(scale: f64, seed: u64, ctx: &Ctx) -> ExitCode {
    let s = match scenario(scale, seed, &[], ctx) {
        Ok(s) => s,
        Err(code) => return code,
    };
    for name in DatasetName::ALL {
        println!("{}", s.world().describe(name));
    }
    ExitCode::SUCCESS
}

fn anonymize_trace(trace: &PathBuf, out: &PathBuf, seed: u64, ctx: &Ctx) -> ExitCode {
    let ds = match read_trace(trace) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cannot parse {}: {e}", trace.display());
            return ExitCode::FAILURE;
        }
    };
    let anon = ytcdn_tstat::Anonymizer::new(seed).anonymize_dataset(&ds);
    let file = match std::fs::File::create(out) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot create {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
    };
    let write = {
        let _span = ctx.telemetry.span("export");
        ytcdn_tstat::write_textlog(&anon, BufWriter::new(file))
    };
    if let Err(e) = write {
        eprintln!("cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    ctx.progress.note(&format!(
        "anonymized {} flows ({} distinct clients) into {}",
        anon.len(),
        anon.distinct_clients(),
        out.display()
    ));
    ExitCode::SUCCESS
}

fn read_trace(trace: &PathBuf) -> Result<Dataset, String> {
    let file =
        std::fs::File::open(trace).map_err(|e| format!("cannot open {}: {e}", trace.display()))?;
    let mut reader = BufReader::new(file);
    // Sniff the first bytes: `#` opens a Tstat text log, the YTCF magic a
    // columnar file; nothing else is a trace.
    let (is_text, is_ytc) = {
        use std::io::BufRead as _;
        reader
            .fill_buf()
            .map(|b| {
                (
                    b.first() == Some(&b'#'),
                    b.starts_with(&ytcdn_core::columnar::MAGIC),
                )
            })
            .unwrap_or((false, false))
    };
    if is_ytc {
        let file = YtcFile::read_from(reader, &Telemetry::disabled()).map_err(|e| e.to_string())?;
        let mut datasets = file.into_datasets();
        if datasets.len() != 1 {
            return Err(format!(
                "{} carries {} datasets; this command reads exactly one \
                 (generate it with --dataset NAME)",
                trace.display(),
                datasets.len()
            ));
        }
        datasets.pop().ok_or_else(|| "empty .ytc file".to_owned())
    } else if is_text {
        ytcdn_tstat::read_textlog(reader).map_err(|e| e.to_string())
    } else {
        Err("not a trace: expected a .ytc file or a Tstat text log (#dataset header)".to_owned())
    }
}

fn characterize_trace(trace: &PathBuf) -> ExitCode {
    let ds = match read_trace(trace) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cannot parse {}: {e}", trace.display());
            return ExitCode::FAILURE;
        }
    };
    println!("{}", ds.summary());
    let c = ytcdn_core::characterize::characterize(&ds);
    println!(
        "videos requested exactly once: {:.1}%",
        100.0 * c.single_request_video_fraction
    );
    println!(
        "top-1% most-requested videos carry {:.1}% of video flows",
        100.0 * c.top1pct_video_share
    );
    println!(
        "top-10% heaviest clients carry {:.1}% of bytes",
        100.0 * c.top10pct_client_share
    );
    println!("busiest/quietest hour ratio: {:.1}", c.peak_to_trough);
    ExitCode::SUCCESS
}

/// Builds the standard scenario with the invocation's telemetry attached
/// (build phase profiled, engines instrumented per dataset) and installs
/// every `--mutate` spec as a compiled schedule. Any malformed spec or
/// unknown city is reported here and the subcommand exits without running.
fn scenario(
    scale: f64,
    seed: u64,
    specs: &[String],
    ctx: &Ctx,
) -> Result<StandardScenario, ExitCode> {
    let mut s = StandardScenario::build_instrumented(
        ScenarioConfig::with_scale(scale, seed),
        ctx.telemetry.clone(),
    );
    let parsed: Result<Vec<MutationSpec>, String> = specs
        .iter()
        .map(|spec| spec.parse().map_err(|e| format!("{e}")))
        .collect();
    let installed = parsed.and_then(|specs| {
        if specs.is_empty() {
            Ok(())
        } else {
            s.set_mutations(&specs).map_err(|e| format!("{e}"))
        }
    });
    match installed {
        Ok(()) => Ok(s),
        Err(e) => {
            eprintln!("error: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

fn generate(
    s: StandardScenario,
    dataset: Option<DatasetName>,
    out: PathBuf,
    format: args::TraceFormat,
    header: YtcHeader,
    ctx: &Ctx,
) -> ExitCode {
    let datasets: Vec<Dataset> = match dataset {
        Some(n) => vec![s.run(n).0],
        None => s.run_all(0),
    };
    if format == args::TraceFormat::Ytc {
        // The columnar format is one file carrying every generated dataset
        // plus its provenance — `out` is always a file path here.
        return generate_ytc(header, datasets, &out, ctx);
    }
    let export_span = ctx.telemetry.span("export");
    for ds in datasets {
        let name = ds.name();
        let path = if names_len(dataset) == 1 {
            out.clone()
        } else {
            out.join(format!("{name}.log"))
        };
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                if let Err(e) = std::fs::create_dir_all(parent) {
                    eprintln!("cannot create {}: {e}", parent.display());
                    return ExitCode::FAILURE;
                }
            }
        }
        let file = match std::fs::File::create(&path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("cannot create {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = ytcdn_tstat::write_textlog(&ds, BufWriter::new(file)) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        ctx.progress
            .note(&format!("wrote {} ({} flows)", path.display(), ds.len()));
    }
    drop(export_span);
    ExitCode::SUCCESS
}

/// Writes every generated dataset into one checksummed `.ytc` file. The
/// encoding is deterministic, so the same scale/seed/mutations produce
/// byte-identical files whatever the worker count was.
fn generate_ytc(header: YtcHeader, datasets: Vec<Dataset>, out: &PathBuf, ctx: &Ctx) -> ExitCode {
    let file = match YtcFile::new(header, datasets) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(parent) = out.parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("cannot create {}: {e}", parent.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let target = match std::fs::File::create(out) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot create {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
    };
    match file.write_to(BufWriter::new(target), &ctx.telemetry) {
        Ok(bytes) => {
            ctx.progress.note(&format!(
                "wrote {} ({} bytes, {} flows across {} datasets)",
                out.display(),
                bytes,
                file.total_flows(),
                file.datasets().len()
            ));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot write {}: {e}", out.display());
            ExitCode::FAILURE
        }
    }
}

/// `ytcdn watch --from`: load one dataset off a `.ytc` file instead of
/// simulating. The world is rebuilt from the scale/seed/mutations recorded
/// in the file's header (any `--scale`/`--seed` flags are superseded), so
/// the change-point table is byte-identical to the simulate-then-watch
/// path that produced the file.
fn watch_from(path: &Path, dataset: DatasetName, config: WatchConfig, ctx: &Ctx) -> ExitCode {
    let file = match read_ytc(path, ctx) {
        Ok(f) => f,
        Err(code) => return code,
    };
    let header = file.header.clone();
    // The section moves out of the file; the others are dropped.
    let Some(ds) = file
        .into_datasets()
        .into_iter()
        .find(|ds| ds.name() == dataset)
    else {
        let e = FormatError::MissingDataset {
            name: dataset.to_string(),
        };
        eprintln!("error: {e} in {}", path.display());
        return ExitCode::FAILURE;
    };
    ctx.progress.note(&format!(
        "loaded {} ({} flows) from {} — scale {}, seed {}, {} mutation(s); skipping simulation",
        dataset,
        ds.len(),
        path.display(),
        header.scale,
        header.seed,
        header.mutations.len()
    ));
    match scenario(header.scale, header.seed, &header.mutations, ctx) {
        Ok(s) => watch(&s, ds, config, ctx),
        Err(code) => code,
    }
}

/// `ytcdn watch`: window one dataset — simulated in `s` (optionally with
/// scheduled mutations) or loaded off a `.ytc` file — and print the
/// change-point table. Windowed metrics and detected change points also go
/// to the telemetry stream when `--telemetry` is given, scoped to the
/// dataset name.
fn watch(s: &StandardScenario, ds: Dataset, config: WatchConfig, ctx: &Ctx) -> ExitCode {
    let _span = ctx.telemetry.span("analysis.watch");
    let actx = AnalysisContext::from_ground_truth(s.world(), &ds);
    let index = DatasetIndex::build(&actx, ds, ctx.telemetry.clone());
    let report = match WatchReport::build(&actx, index.dataset(), &index, config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    report.emit(&ctx.telemetry.with_scope(index.dataset_name().as_str()));
    println!("{}", report.render_table());
    ExitCode::SUCCESS
}

fn names_len(dataset: Option<DatasetName>) -> usize {
    if dataset.is_some() {
        1
    } else {
        DatasetName::ALL.len()
    }
}

fn analyze(trace: &PathBuf, scale: f64, seed: u64, cli: &Ctx) -> ExitCode {
    let ds = match read_trace(trace) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cannot parse {}: {e}", trace.display());
            return ExitCode::FAILURE;
        }
    };
    let s = match scenario(scale, seed, &[], cli) {
        Ok(s) => s,
        Err(code) => return code,
    };
    println!("{}", ds.summary());

    let _span = cli.telemetry.span("analysis.trace");
    let ctx = AnalysisContext::from_ground_truth(s.world(), &ds);
    let index = DatasetIndex::build(&ctx, ds, cli.telemetry.clone());
    // With no video flow there is no preferred data center to name.
    if let Err(reason) = index.require_video_flows() {
        println!("data-center shares SKIPPED: {reason}");
    } else {
        println!(
            "preferred data center: {} (RTT {:.1} ms, {:.0} km), {:.1}% of video bytes",
            ctx.preferred().city_name,
            ctx.preferred().rtt_ms,
            ctx.preferred().distance_km,
            100.0 * ctx.preferred_share_of_bytes()
        );
        println!(
            "non-preferred share of video flows: {:.1}%",
            100.0 * ctx.nonpreferred_share_of_flows()
        );
    }

    let st = index.patterns();
    println!(
        "sessions: {} total, {:.1}% single-flow ({:.1}% of those to non-preferred DCs)",
        st.total,
        100.0 * st.single_flow_fraction(),
        100.0 * st.one_flow_non_preferred_fraction()
    );
    println!(
        "2-flow patterns: pp={} pn={} np={} nn={}",
        st.two_flow.pp, st.two_flow.pn, st.two_flow.np, st.two_flow.nn
    );

    let perf = perf_report(&ctx, &index);
    println!(
        "performance: median redirect startup penalty {:.0} ms, median non-preferred RTT penalty {:.1} ms",
        perf.median_redirect_penalty_ms(),
        perf.median_rtt_penalty_ms()
    );
    ExitCode::SUCCESS
}

fn geolocate(dataset: DatasetName, scale: f64, seed: u64, jobs: usize, ctx: &Ctx) -> ExitCode {
    let s = match scenario(scale, seed, &[], ctx) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let (ds, _) = s.run(dataset);
    let landmarks =
        ytcdn_netsim::landmarks_with_counts(seed, &ytcdn_netsim::DEFAULT_LANDMARK_COUNTS);
    ctx.progress.note(&format!(
        "calibrating CBG on {} landmarks, geolocating {} servers…",
        landmarks.len(),
        ds.server_ips().len()
    ));
    let _span = ctx.telemetry.span("analysis.geolocate");
    let observatory = Observatory::new(s.world());
    let cbg = observatory.calibrate_cbg(landmarks, 3, seed);
    let locations = ytcdn_core::geo_analysis::geolocate_servers(observatory, &ds, &cbg, seed, jobs);
    let counts = ytcdn_core::geo_analysis::continent_counts(&locations);
    println!(
        "servers per continent: N.America={} Europe={} Others={}",
        counts.north_america, counts.europe, counts.others
    );
    let estimates: Vec<_> = locations.iter().map(|l| (l.ip, l.cbg.estimate)).collect();
    let clusters = cluster_by_city(&estimates, &CityDb::builtin());
    println!("inferred data centers ({}):", clusters.len());
    for c in &clusters {
        println!("  {:<16} {:>3} representative /24s", c.city_name, c.len());
    }
    ExitCode::SUCCESS
}

fn what_if(name: &str, scale: f64, seed: u64, ctx: &Ctx) -> ExitCode {
    let _span = ctx.telemetry.span("analysis.whatif");
    let Some(counterfactual) = whatif::find(name) else {
        let known: Vec<&str> = whatif::COUNTERFACTUALS.iter().map(|c| c.name).collect();
        eprintln!("unknown scenario {name:?}; known: {}", known.join(", "));
        return ExitCode::FAILURE;
    };
    let outcomes = whatif::run(counterfactual, ScenarioConfig::with_scale(scale, seed));
    print!("{}", whatif::render(&outcomes));
    ExitCode::SUCCESS
}

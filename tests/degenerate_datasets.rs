//! Degenerate-dataset robustness harness.
//!
//! Real captures go wrong in boring ways: a probe records nothing, a
//! vantage point loses a subnet, a week-long trace is cut short. This
//! suite drives every analysis entry point — `run_many`, the scorecard,
//! the CSV exporters, the markdown report — over each
//! [`DegenerateShape`] and asserts the analysis layer *degrades*: typed
//! [`AnalysisError`]s and SKIPPED rows, never a panic. Everything here is
//! deterministic (fixed scale and seed, no wall clock, no RNG outside the
//! seeded simulation).

use ytcdn_cdnsim::ScenarioConfig;
use ytcdn_core::degenerate::DegenerateShape;
use ytcdn_core::experiments::{
    ExperimentSuite, SuiteConfig, ALL_EXPERIMENTS, EXTENSION_EXPERIMENTS,
};
use ytcdn_core::export::export_all;
use ytcdn_core::report::markdown_report;
use ytcdn_core::scorecard::{render_scorecard, scorecard};
use ytcdn_core::AnalysisError;
use ytcdn_telemetry::Telemetry;

const SCALE: f64 = 0.003;
const SEED: u64 = 7;

fn config() -> SuiteConfig {
    SuiteConfig {
        scenario: ScenarioConfig::with_scale(SCALE, SEED),
        full_landmarks: false,
        jobs: 0,
    }
}

fn degenerate_suite(shape: DegenerateShape) -> ExperimentSuite {
    ExperimentSuite::with_degenerate(config(), Telemetry::metrics_only(), shape)
}

fn all_ids() -> Vec<&'static str> {
    ALL_EXPERIMENTS
        .iter()
        .chain(EXTENSION_EXPERIMENTS)
        .copied()
        .collect()
}

/// The umbrella guarantee: every shape survives every entry point, in
/// every execution mode, without unwinding — and the parallel path
/// reproduces the sequential one error-for-error.
#[test]
fn every_shape_survives_every_entry_point() {
    let ids = all_ids();
    for shape in DegenerateShape::ALL {
        let suite = degenerate_suite(shape);

        // Reports: sequential and parallel agree, Errs included.
        let sequential: Vec<Result<String, AnalysisError>> =
            ids.iter().map(|id| suite.run(id)).collect();
        assert_eq!(
            suite.run_many(&ids, 3),
            sequential,
            "{shape}: parallel run_many diverges from sequential"
        );

        // Scorecard: computable and renderable; every row is either a
        // real check or a typed skip.
        let card = scorecard(&suite);
        let text = render_scorecard(&card);
        assert!(
            text.contains("checks pass"),
            "{shape}: scorecard did not render"
        );
        assert!(
            !card.checks.is_empty() || !card.skipped.is_empty(),
            "{shape}: scorecard is empty"
        );

        // Every figure — report, series, metrics — is Ok or a typed
        // error, never a panic.
        for id in &ids {
            assert!(suite.figure(id).is_ok(), "{shape}: {id} has no figure");
        }

        // Markdown report: failed experiments become SKIPPED sections.
        let md = markdown_report(&suite);
        for id in &ids {
            assert!(md.contains(&format!("### {id}")), "{shape}: missing {id}");
        }
    }
}

/// Pin the exact typed errors the canonical degenerate input (an empty
/// capture) produces, so their taxonomy is part of the contract rather
/// than an implementation accident.
#[test]
fn empty_capture_yields_stable_typed_errors() {
    let suite = degenerate_suite(DegenerateShape::Empty);
    assert_eq!(
        suite.run("fig2"),
        Err(AnalysisError::EmptyDistribution {
            what: "US-Campus server RTTs".into()
        })
    );
    assert_eq!(
        suite.run("fig9"),
        Err(AnalysisError::EmptyDistribution {
            what: "US-Campus hourly non-preferred fractions".into()
        })
    );
    assert_eq!(
        suite.run("fig11"),
        Err(AnalysisError::EmptyDataset {
            dataset: "EU2".into()
        })
    );
    // The active experiment probes the simulated CDN directly; an empty
    // passive capture does not silence it.
    assert!(suite.run("fig17").is_ok(), "fig17 must still run");
    assert_eq!(
        suite.run("fig99"),
        Err(AnalysisError::UnknownExperiment { id: "fig99".into() })
    );

    // Every error surfaced above was counted by telemetry (fig2, fig9,
    // fig11, fig99).
    let snapshot = suite
        .telemetry()
        .metrics_snapshot()
        .expect("suite runs with metrics-only telemetry");
    assert_eq!(snapshot.counter("analysis.errors"), 4);
}

/// An empty capture proves nothing either way: the scorecard must skip
/// the unanswerable claims with typed reasons and still *pass* on the
/// remaining ones (`ytcdn repro --scorecard --degenerate empty` exits 0).
#[test]
fn empty_capture_scorecard_skips_and_passes() {
    let suite = degenerate_suite(DegenerateShape::Empty);
    let card = scorecard(&suite);
    assert!(card.pass(), "skipped claims must not fail the scorecard");
    // The active-measurement checks are still answerable.
    assert!(card.checks.iter().all(|c| c.experiment == "fig18"));
    assert!(!card.checks.is_empty());
    // Everything passive is skipped, each with a typed reason.
    assert!(card.skipped.len() >= 15, "only {}", card.skipped.len());
    assert!(card.skipped.iter().all(|s| matches!(
        s.error,
        AnalysisError::EmptyDataset { .. } | AnalysisError::EmptyDistribution { .. }
    )));
    let text = render_scorecard(&card);
    assert!(text.contains("SKIPPED: dataset US-Campus contains no flows"));
}

/// Removing US-Campus Net-3 — the subnet Figure 12 is *about* — skips
/// exactly the Net-3 claims with a MissingSubnet reason.
#[test]
fn missing_net3_skips_fig12_only() {
    let suite = degenerate_suite(DegenerateShape::MissingNet3);
    let card = scorecard(&suite);
    let skipped_exps: Vec<&str> = card.skipped.iter().map(|s| s.experiment).collect();
    assert_eq!(skipped_exps, ["fig12", "fig12"], "{:?}", card.skipped);
    assert!(card.skipped.iter().all(|s| s.error
        == AnalysisError::MissingSubnet {
            dataset: "US-Campus".into(),
            subnet: "Net-3".into(),
        }));
}

/// The CSV exporter writes whatever is answerable and skips the rest,
/// even when every dataset is empty.
#[test]
fn exporters_survive_an_empty_capture() {
    let suite = degenerate_suite(DegenerateShape::Empty);
    let dir = std::env::temp_dir().join(format!("ytcdn_degenerate_{}", std::process::id()));
    let written = export_all(&suite, &dir).expect("export must not fail on empty data");
    assert!(!written.is_empty(), "nothing exported");
    for p in &written {
        // Header row at minimum; no file is corrupt.
        let content = std::fs::read_to_string(p).expect("written file readable");
        assert!(content.starts_with("series,x,y"), "{}", p.display());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The same scale/seed without a shape is fully answerable: no skips, no
/// errors, no SKIPPED sections. Guards against the fail-soft paths
/// leaking into healthy runs.
#[test]
fn normal_run_is_fully_answerable() {
    let suite = ExperimentSuite::with_telemetry(config(), Telemetry::metrics_only());
    for id in all_ids() {
        assert!(suite.run(id).is_ok(), "{id} failed on a healthy dataset");
    }
    let card = scorecard(&suite);
    assert!(card.skipped.is_empty(), "{:?}", card.skipped);
    assert!(!markdown_report(&suite).contains("SKIPPED"));
    let snapshot = suite
        .telemetry()
        .metrics_snapshot()
        .expect("suite runs with metrics-only telemetry");
    assert_eq!(snapshot.counter("analysis.errors"), 0);
}

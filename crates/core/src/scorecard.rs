//! The executable reproduction scorecard.
//!
//! EXPERIMENTS.md narrates paper-vs-measured; this module *executes* it:
//! every quantitative claim the paper makes that this reproduction targets
//! is one row of a table — experiment, metric name, paper value, tolerance
//! band — evaluated as a [`Check`] against the named metric of that
//! experiment's cached [`crate::experiments::Figure`], and the whole set
//! renders as a pass/fail table (`ytcdn repro --scorecard`). The
//! integration suite asserts the scorecard passes, so any model change
//! that degrades fidelity fails CI rather than silently rotting the docs.
//!
//! On degenerate inputs (an empty capture, a trace with no video flows, a
//! missing subnet) a claim may be *unanswerable* rather than failed: those
//! rows become [`Skipped`] entries carrying a typed
//! [`AnalysisError`], render as `SKIPPED` lines after the table, and do
//! not count against the pass total.

use std::fmt::Write as _;

use crate::error::AnalysisError;
use crate::experiments::ExperimentSuite;

/// One quantitative claim, checked.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// Which experiment the claim belongs to ("table1", "fig11", …).
    pub experiment: &'static str,
    /// What is being measured.
    pub metric: String,
    /// The paper's value or band center.
    pub paper: f64,
    /// This run's value.
    pub measured: f64,
    /// Accepted band (inclusive).
    pub band: (f64, f64),
}

impl Check {
    /// Whether the measured value falls in the accepted band.
    pub fn pass(&self) -> bool {
        (self.band.0..=self.band.1).contains(&self.measured)
    }
}

/// One claim the scorecard could not evaluate on this input, and why.
#[derive(Debug, Clone, PartialEq)]
pub struct Skipped {
    /// Which experiment the claim belongs to ("table1", "fig11", …).
    pub experiment: &'static str,
    /// What would have been measured.
    pub metric: String,
    /// Why the measurement is unanswerable here.
    pub error: AnalysisError,
}

/// The full scorecard: evaluated checks plus claims that were skipped
/// because the input cannot answer them.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Scorecard {
    /// Claims that were evaluated.
    pub checks: Vec<Check>,
    /// Claims that were unanswerable on this input.
    pub skipped: Vec<Skipped>,
}

impl Scorecard {
    /// Whether every *evaluated* check passes. Skipped claims do not fail
    /// the scorecard: an empty capture proves nothing either way.
    pub fn pass(&self) -> bool {
        self.checks.iter().all(Check::pass)
    }
}

/// Every claim the scorecard checks, in scorecard order: the experiment
/// and the name of the [`crate::experiments::Figure`] metric it reads, the
/// paper's value, and the accepted band (inclusive). Table I's rows are
/// per unit of workload scale: the paper's flow count times the scale is
/// the target, and the band is a fraction of that target.
#[rustfmt::skip]
const CLAIMS: [(&str, &str, f64, (f64, f64)); 25] = [
    ("table1", "US-Campus flows (scaled)", 874_649.0, (0.80, 1.20)),
    ("table1", "EU1-Campus flows (scaled)", 134_789.0, (0.80, 1.20)),
    ("table1", "EU1-ADSL flows (scaled)", 877_443.0, (0.80, 1.20)),
    ("table1", "EU1-FTTH flows (scaled)", 91_955.0, (0.80, 1.20)),
    ("table1", "EU2 flows (scaled)", 513_403.0, (0.80, 1.20)),
    // The paper's median is 41 km with 200–320 km 90th percentiles; the
    // reproduction's reduced landmark set is coarser, so the band asserts
    // the order of magnitude (same-continent, not same-city precision).
    ("fig3", "US CBG radius median [km]", 41.0, (1.0, 1500.0)),
    ("fig3", "Europe CBG radius median [km]", 41.0, (1.0, 1500.0)),
    ("fig7", "US-Campus preferred byte share", 0.90, (0.85, 0.99)),
    ("fig7", "EU1-Campus preferred byte share", 0.90, (0.85, 0.99)),
    ("fig7", "EU1-ADSL preferred byte share", 0.90, (0.85, 0.99)),
    ("fig7", "EU1-FTTH preferred byte share", 0.90, (0.85, 0.99)),
    ("fig7", "EU2 preferred byte share (split)", 0.45, (0.25, 0.60)),
    ("fig8", "US-Campus closest-5 DC byte share", 0.02, (0.0, 0.05)),
    ("fig6", "US-Campus single-flow session fraction", 0.765, (0.68, 0.88)),
    ("fig6", "EU1-Campus single-flow session fraction", 0.765, (0.68, 0.88)),
    ("fig6", "EU1-ADSL single-flow session fraction", 0.765, (0.68, 0.88)),
    ("fig6", "EU1-FTTH single-flow session fraction", 0.765, (0.68, 0.88)),
    ("fig6", "EU2 single-flow session fraction", 0.765, (0.68, 0.88)),
    ("fig10a", "EU2 single-flow-to-non-preferred fraction", 0.45, (0.30, 0.70)),
    ("fig11", "EU2 load/local-fraction correlation", -0.9, (-1.0, -0.6)),
    ("fig12", "Net-3 share of all flows", 0.04, (0.02, 0.06)),
    ("fig12", "Net-3 share of non-preferred flows", 0.50, (0.25, 0.70)),
    ("fig13", "EU1-ADSL exactly-once fraction", 0.85, (0.6, 1.0)),
    ("fig18", "nodes with RTT1/RTT2 > 1", 0.40, (0.25, 0.90)),
    ("fig18", "nodes with RTT1/RTT2 > 10", 0.20, (0.05, 0.50)),
];

/// Evaluates every [`CLAIMS`] row against the suite's cached figures
/// ([`ExperimentSuite::figure`]); nothing here runs an analysis.
///
/// Degenerate inputs do not panic: a claim whose prerequisite data is
/// missing (empty dataset, no video flows, an absent subnet, no active
/// traces) lands in [`Scorecard::skipped`] with the metric's typed reason
/// instead of producing a meaningless number.
pub fn scorecard(suite: &ExperimentSuite) -> Scorecard {
    let scale = suite.scenario().config().engine.scale;
    let mut card = Scorecard::default();
    for (experiment, metric, paper, band) in CLAIMS {
        let (paper, band) = if experiment == "table1" {
            let target = paper * scale;
            (target, (band.0 * target, band.1 * target))
        } else {
            (paper, band)
        };
        let measured = suite.figure(experiment).and_then(|figure| {
            figure.metric(metric).cloned().unwrap_or_else(|| {
                Err(AnalysisError::NotProduced {
                    experiment: experiment.to_owned(),
                    output: format!("metric {metric:?}"),
                })
            })
        });
        match measured {
            Ok(measured) => card.checks.push(Check {
                experiment,
                metric: metric.to_owned(),
                paper,
                measured,
                band,
            }),
            Err(error) => card.skipped.push(Skipped {
                experiment,
                metric: metric.to_owned(),
                error,
            }),
        }
    }
    card
}

/// Renders a list of checks as an aligned text table.
pub fn render(checks: &[Check]) -> String {
    let mut out = String::new();
    let passed = checks.iter().filter(|c| c.pass()).count();
    let _ = writeln!(
        out,
        "Reproduction scorecard: {passed}/{} checks pass",
        checks.len()
    );
    let _ = writeln!(
        out,
        "{:<8} {:<44} {:>10} {:>10} {:>19} {:>5}",
        "exp", "metric", "paper", "measured", "band", "ok"
    );
    for c in checks {
        let _ = writeln!(
            out,
            "{:<8} {:<44} {:>10.3} {:>10.3} {:>8.3}..{:<8.3} {:>5}",
            c.experiment,
            c.metric,
            c.paper,
            c.measured,
            c.band.0,
            c.band.1,
            if c.pass() { "yes" } else { "NO" }
        );
    }
    out
}

/// Renders the full scorecard: the [`render`] table, then one `SKIPPED`
/// row per unanswerable claim. With nothing skipped the output is
/// byte-identical to `render(&card.checks)`.
pub fn render_scorecard(card: &Scorecard) -> String {
    let mut out = render(&card.checks);
    for s in &card.skipped {
        let _ = writeln!(
            out,
            "{:<8} {:<44} SKIPPED: {}",
            s.experiment, s.metric, s.error
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::SuiteConfig;
    use ytcdn_cdnsim::ScenarioConfig;

    #[test]
    fn scorecard_passes_at_reference_scale() {
        let suite = ExperimentSuite::new(SuiteConfig {
            scenario: ScenarioConfig::with_scale(0.02, 42),
            full_landmarks: false,
            jobs: 0,
        });
        let card = scorecard(&suite);
        assert!(card.checks.len() >= 18, "only {} checks", card.checks.len());
        assert!(
            card.skipped.is_empty(),
            "nothing is unanswerable on a normal run: {:?}",
            card.skipped
        );
        let failing: Vec<&Check> = card.checks.iter().filter(|c| !c.pass()).collect();
        assert!(
            failing.is_empty(),
            "failing checks:\n{}",
            render(&failing.into_iter().cloned().collect::<Vec<_>>())
        );
        // With nothing skipped, the full rendering is the plain table.
        assert_eq!(render_scorecard(&card), render(&card.checks));
    }

    #[test]
    fn render_flags_failures() {
        let checks = vec![Check {
            experiment: "figX",
            metric: "made up".into(),
            paper: 1.0,
            measured: 5.0,
            band: (0.5, 1.5),
        }];
        let text = render(&checks);
        assert!(text.contains("0/1 checks pass"));
        assert!(text.contains("NO"));
    }

    #[test]
    fn skipped_rows_render_after_the_table() {
        let card = Scorecard {
            checks: vec![Check {
                experiment: "figX",
                metric: "fine".into(),
                paper: 1.0,
                measured: 1.0,
                band: (0.5, 1.5),
            }],
            skipped: vec![Skipped {
                experiment: "fig12",
                metric: "Net-3 share of all flows".into(),
                error: AnalysisError::MissingSubnet {
                    dataset: "US-Campus".into(),
                    subnet: "Net-3".into(),
                },
            }],
        };
        assert!(card.pass(), "skipped rows must not fail the scorecard");
        let text = render_scorecard(&card);
        assert!(text.contains("1/1 checks pass"));
        assert!(text.contains("SKIPPED: subnet Net-3 contributed no flows to US-Campus"));
        // The skipped row comes after the whole table.
        assert!(text.find("SKIPPED").unwrap() > text.find("figX").unwrap());
    }

    #[test]
    fn check_band_is_inclusive() {
        let c = Check {
            experiment: "t",
            metric: "m".into(),
            paper: 1.0,
            measured: 1.5,
            band: (0.5, 1.5),
        };
        assert!(c.pass());
    }
}

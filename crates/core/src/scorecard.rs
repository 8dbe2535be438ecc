//! The executable reproduction scorecard.
//!
//! EXPERIMENTS.md narrates paper-vs-measured; this module *executes* it:
//! every quantitative claim the paper makes that this reproduction targets
//! is evaluated as a [`Check`] with an explicit tolerance band, and the
//! whole set renders as a pass/fail table (`ytcdn repro --scorecard`). The
//! integration suite asserts the scorecard passes, so any model change
//! that degrades fidelity fails CI rather than silently rotting the docs.
//!
//! On degenerate inputs (an empty capture, a trace with no video flows, a
//! missing subnet) a claim may be *unanswerable* rather than failed: those
//! rows become [`Skipped`] entries carrying a typed
//! [`AnalysisError`], render as `SKIPPED` lines after the table, and do
//! not count against the pass total.

use std::fmt::Write as _;

use ytcdn_tstat::DatasetName;

use crate::error::AnalysisError;
use crate::experiments::ExperimentSuite;
use crate::preferred::closest_k_share;
use crate::subnet::subnet_shares;
use crate::timeseries::{hourly_samples, load_vs_preferred_correlation};
use crate::videos::nonpreferred_video_stats;

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

/// Evaluates every scorecard check against a simulated suite.
///
/// Degenerate inputs do not panic: a claim whose prerequisite data is
/// missing (empty dataset, no video flows, an absent subnet, no active
/// traces) lands in [`Scorecard::skipped`] with a typed reason instead of
/// producing a meaningless number.
pub fn scorecard(suite: &ExperimentSuite) -> Scorecard {
    let mut card = Scorecard::default();
    // Analysis video flows per dataset: the prerequisite for every
    // flow-derived claim. Zero means "unanswerable", not "failed".
    let video_flows = |name: DatasetName| -> u64 {
        suite
            .context(name)
            .dcs()
            .iter()
            .map(|d| d.video_flows)
            .sum()
    };
    // The typed reason a dataset's flow analyses are unanswerable.
    let no_flows_error = |name: DatasetName| -> AnalysisError {
        if suite.dataset(name).is_empty() {
            AnalysisError::EmptyDataset {
                dataset: name.to_string(),
            }
        } else {
            AnalysisError::NoVideoFlows {
                dataset: name.to_string(),
            }
        }
    };

    // --- Table I: flows per dataset, relative to the paper at this scale.
    let scale = suite.scenario().config().engine.scale;
    let paper_flows = [874_649.0, 134_789.0, 877_443.0, 91_955.0, 513_403.0];
    for (name, paper) in DatasetName::ALL.into_iter().zip(paper_flows) {
        let metric = format!("{name} flows (scaled)");
        if suite.dataset(name).is_empty() {
            card.skipped.push(Skipped {
                experiment: "table1",
                metric,
                error: AnalysisError::EmptyDataset {
                    dataset: name.to_string(),
                },
            });
            continue;
        }
        let measured = suite.dataset(name).len() as f64;
        let target = paper * scale;
        card.checks.push(Check {
            experiment: "table1",
            metric,
            paper: target,
            measured,
            band: (0.80 * target, 1.20 * target),
        });
    }

    // --- Figure 3: CBG confidence-region radii, off the shared geo index.
    // The paper's median is 41 km with 200–320 km 90th percentiles; the
    // reproduction's reduced landmark set is coarser, so the band asserts
    // the order of magnitude (same-continent, not same-city precision).
    let (fig3_us, fig3_eu) = crate::geo_analysis::radius_cdfs(&suite.cbg_locations());
    for (label, cdf) in [("US", &fig3_us), ("Europe", &fig3_eu)] {
        let metric = format!("{label} CBG radius median [km]");
        if cdf.is_empty() {
            card.skipped.push(Skipped {
                experiment: "fig3",
                metric,
                error: AnalysisError::EmptyDistribution {
                    what: format!("{label} CBG radii"),
                },
            });
            continue;
        }
        card.checks.push(Check {
            experiment: "fig3",
            metric,
            paper: 41.0,
            measured: cdf.median(),
            band: (1.0, 1500.0),
        });
    }

    // --- Figure 7: preferred byte shares.
    let fig7 = [
        (DatasetName::UsCampus, 0.90, (0.85, 0.99)),
        (DatasetName::Eu1Campus, 0.90, (0.85, 0.99)),
        (DatasetName::Eu1Adsl, 0.90, (0.85, 0.99)),
        (DatasetName::Eu1Ftth, 0.90, (0.85, 0.99)),
        (DatasetName::Eu2, 0.45, (0.25, 0.60)),
    ];
    for (name, paper, band) in fig7 {
        let metric = if name == DatasetName::Eu2 {
            "EU2 preferred byte share (split)".into()
        } else {
            format!("{name} preferred byte share")
        };
        if video_flows(name) == 0 {
            card.skipped.push(Skipped {
                experiment: "fig7",
                metric,
                error: no_flows_error(name),
            });
            continue;
        }
        card.checks.push(Check {
            experiment: "fig7",
            metric,
            paper,
            measured: suite.context(name).preferred_share_of_bytes(),
            band,
        });
    }

    // --- Figure 8: US closest-5 share.
    if video_flows(DatasetName::UsCampus) == 0 {
        card.skipped.push(Skipped {
            experiment: "fig8",
            metric: "US-Campus closest-5 DC byte share".into(),
            error: no_flows_error(DatasetName::UsCampus),
        });
    } else {
        card.checks.push(Check {
            experiment: "fig8",
            metric: "US-Campus closest-5 DC byte share".into(),
            paper: 0.02,
            measured: closest_k_share(suite.context(DatasetName::UsCampus), 5),
            band: (0.0, 0.05),
        });
    }

    // --- Figure 6 / 10: session structure.
    for name in DatasetName::ALL {
        if video_flows(name) == 0 {
            card.skipped.push(Skipped {
                experiment: "fig6",
                metric: format!("{name} single-flow session fraction"),
                error: no_flows_error(name),
            });
            if name == DatasetName::Eu2 {
                card.skipped.push(Skipped {
                    experiment: "fig10a",
                    metric: "EU2 single-flow-to-non-preferred fraction".into(),
                    error: no_flows_error(name),
                });
            }
            continue;
        }
        let st = suite.dataset_index(name).patterns();
        card.checks.push(Check {
            experiment: "fig6",
            metric: format!("{name} single-flow session fraction"),
            paper: 0.765,
            measured: st.single_flow_fraction(),
            band: (0.68, 0.88),
        });
        if name == DatasetName::Eu2 {
            card.checks.push(Check {
                experiment: "fig10a",
                metric: "EU2 single-flow-to-non-preferred fraction".into(),
                paper: 0.45,
                measured: st.one_flow_non_preferred_fraction(),
                band: (0.30, 0.70),
            });
        }
    }

    // --- Figure 11: EU2 load balancing.
    let eu2_samples = hourly_samples(suite.dataset_index(DatasetName::Eu2));
    if eu2_samples.iter().all(|s| s.total() == 0) {
        card.skipped.push(Skipped {
            experiment: "fig11",
            metric: "EU2 load/local-fraction correlation".into(),
            error: no_flows_error(DatasetName::Eu2),
        });
    } else {
        card.checks.push(Check {
            experiment: "fig11",
            metric: "EU2 load/local-fraction correlation".into(),
            paper: -0.9,
            measured: load_vs_preferred_correlation(&eu2_samples),
            band: (-1.0, -0.6),
        });
    }

    // --- Figure 12: Net-3 dominance.
    let subnets = suite
        .scenario()
        .world()
        .vantage(DatasetName::UsCampus)
        .subnets
        .clone();
    let shares = subnet_shares(
        suite.context(DatasetName::UsCampus),
        suite.dataset(DatasetName::UsCampus),
        &subnets,
    );
    // `subnet_shares` emits a row per *configured* subnet, so Net-3's row
    // exists even when the subnet contributed nothing — require actual
    // flows before trusting its shares.
    let net3 = shares
        .iter()
        .find(|s| s.name == "Net-3")
        .filter(|s| s.share_of_all_flows > 0.0);
    match net3 {
        Some(net3) if video_flows(DatasetName::UsCampus) > 0 => {
            card.checks.push(Check {
                experiment: "fig12",
                metric: "Net-3 share of all flows".into(),
                paper: 0.04,
                measured: net3.share_of_all_flows,
                band: (0.02, 0.06),
            });
            card.checks.push(Check {
                experiment: "fig12",
                metric: "Net-3 share of non-preferred flows".into(),
                paper: 0.50,
                measured: net3.share_of_nonpreferred_flows,
                band: (0.25, 0.70),
            });
        }
        _ => {
            let error = if video_flows(DatasetName::UsCampus) == 0 {
                no_flows_error(DatasetName::UsCampus)
            } else {
                AnalysisError::MissingSubnet {
                    dataset: DatasetName::UsCampus.to_string(),
                    subnet: "Net-3".into(),
                }
            };
            for metric in [
                "Net-3 share of all flows",
                "Net-3 share of non-preferred flows",
            ] {
                card.skipped.push(Skipped {
                    experiment: "fig12",
                    metric: metric.into(),
                    error: error.clone(),
                });
            }
        }
    }

    // --- Figure 13: cold-tail repair.
    let vstats = nonpreferred_video_stats(
        suite.dataset_index(DatasetName::Eu1Adsl),
        suite.dataset(DatasetName::Eu1Adsl),
    );
    if vstats.cdf.is_empty() {
        card.skipped.push(Skipped {
            experiment: "fig13",
            metric: "EU1-ADSL exactly-once fraction".into(),
            error: AnalysisError::EmptyDistribution {
                what: "EU1-ADSL non-preferred per-video counts".into(),
            },
        });
    } else {
        card.checks.push(Check {
            experiment: "fig13",
            metric: "EU1-ADSL exactly-once fraction".into(),
            paper: 0.85,
            measured: vstats.exactly_once_fraction,
            band: (0.6, 1.0),
        });
    }

    // --- Figures 17/18: active experiment.
    let traces = suite.active_traces();
    if traces.is_empty() {
        for metric in ["nodes with RTT1/RTT2 > 1", "nodes with RTT1/RTT2 > 10"] {
            card.skipped.push(Skipped {
                experiment: "fig18",
                metric: metric.into(),
                error: AnalysisError::NoActiveTraces,
            });
        }
    } else {
        let rstats = crate::active_analysis::ratio_stats(&traces);
        card.checks.push(Check {
            experiment: "fig18",
            metric: "nodes with RTT1/RTT2 > 1".into(),
            paper: 0.40,
            measured: rstats.above_one,
            band: (0.25, 0.90),
        });
        card.checks.push(Check {
            experiment: "fig18",
            metric: "nodes with RTT1/RTT2 > 10".into(),
            paper: 0.20,
            measured: rstats.above_ten,
            band: (0.05, 0.50),
        });
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

//! Markdown report generation: a regenerable EXPERIMENTS-style document.
//!
//! `ytcdn repro --markdown FILE` writes this report so paper-vs-measured numbers
//! can be refreshed mechanically after any model change, instead of being
//! hand-copied into the repository's EXPERIMENTS.md.

use std::fmt::Write as _;

use crate::experiments::{ExperimentSuite, ALL_EXPERIMENTS, EXTENSION_EXPERIMENTS};

/// Renders the full suite as a markdown document.
///
/// Layout: a provenance header (seed, scale), one section per paper
/// experiment with the report inside a fenced code block, then the
/// extension experiments.
pub fn markdown_report(suite: &ExperimentSuite) -> String {
    let cfg = suite.scenario().config();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Reproduction report\n\n\
         *Dissecting Video Server Selection Strategies in the YouTube CDN* (ICDCS 2011).\n\n\
         Generated with seed `{}`, workload scale `{}`. Regenerate with:\n\n\
         ```sh\ncargo run --release -p ytcdn-cli -- repro --markdown report.md --seed {} --scale {}\n```\n",
        cfg.seed, cfg.engine.scale, cfg.seed, cfg.engine.scale
    );
    let _ = writeln!(out, "## Paper experiments\n");
    for id in ALL_EXPERIMENTS {
        let _ = writeln!(out, "{}", section(suite, id));
    }
    let _ = writeln!(out, "## Extensions\n");
    for id in EXTENSION_EXPERIMENTS {
        let _ = writeln!(out, "{}", section(suite, id));
    }
    out
}

/// One experiment's section; an unanswerable experiment (empty capture, no
/// active traces) renders as an italic `SKIPPED` note instead of aborting
/// the whole report.
fn section(suite: &ExperimentSuite, id: &str) -> String {
    match suite.run(id) {
        Ok(report) => format!("### {id}\n\n```text\n{}```\n", ensure_newline(&report)),
        Err(e) => format!("### {id}\n\n_SKIPPED: {e}_\n"),
    }
}

fn ensure_newline(s: &str) -> String {
    if s.ends_with('\n') {
        s.to_owned()
    } else {
        format!("{s}\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::SuiteConfig;
    use ytcdn_cdnsim::ScenarioConfig;

    #[test]
    fn report_covers_everything_and_is_valid_markdown() {
        let suite = ExperimentSuite::new(SuiteConfig {
            scenario: ScenarioConfig::with_scale(0.003, 44),
            full_landmarks: false,
            jobs: 0,
        });
        let md = markdown_report(&suite);
        for id in ALL_EXPERIMENTS.iter().chain(EXTENSION_EXPERIMENTS) {
            assert!(md.contains(&format!("### {id}")), "missing section {id}");
        }
        // Fenced blocks are balanced.
        let fences = md.matches("```").count();
        assert_eq!(fences % 2, 0, "unbalanced fences");
        // Provenance header present.
        assert!(md.contains("seed `44`"));
        assert!(md.contains("scale `0.003`"));
    }
}

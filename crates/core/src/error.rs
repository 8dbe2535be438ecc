//! Typed error taxonomy for the analysis layer.
//!
//! The paper's pipeline ingests messy edge traces: a subnet that never
//! appears, an hour with zero flows, a vantage point that saw no video
//! sessions. Every analysis entry point that used to panic on those
//! shapes now returns [`AnalysisError`] instead, so a degenerate dataset
//! degrades one experiment to a SKIPPED row rather than unwinding a
//! whole parallel [`run_many`](crate::experiments::ExperimentSuite::run_many)
//! pool. The variants are deliberately coarse — they name *what was
//! missing*, which is all a scorecard row or report section needs to
//! explain itself.

use std::fmt;

/// Why an analysis step could not produce a result.
///
/// Each variant carries just enough context to render a human-readable
/// SKIPPED row. Errors compare structurally (`PartialEq`) so the
/// degenerate-dataset harness can pin them as stable values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalysisError {
    /// A dataset required by the analysis contains no flow records.
    EmptyDataset {
        /// The vantage-point dataset that was empty.
        dataset: String,
    },
    /// A configured client subnet contributed no flows to the dataset.
    MissingSubnet {
        /// The dataset the subnet was expected in.
        dataset: String,
        /// The subnet label (e.g. `Net-3`).
        subnet: String,
    },
    /// A dataset has flows, but none of them are video flows.
    NoVideoFlows {
        /// The dataset with no video traffic.
        dataset: String,
    },
    /// A distribution (CDF, sample set) was empty where a value was needed.
    EmptyDistribution {
        /// What distribution was empty, e.g. `US-Campus server RTT`.
        what: String,
    },
    /// The experiment id is not one of the known figure/table ids.
    UnknownExperiment {
        /// The unrecognised id.
        id: String,
    },
    /// No data centers could be derived for the analysis context.
    NoDataCenters {
        /// What the data-center map was being built from.
        source: String,
    },
    /// A city name did not resolve against the built-in city table.
    UnknownCity {
        /// The unresolvable city name.
        city: String,
    },
    /// The active-measurement phase produced no node traces.
    NoActiveTraces,
    /// A vantage-point dataset the suite needs is absent from the input
    /// set (e.g. a `.ytc` file that does not carry all five datasets).
    MissingDataset {
        /// The absent vantage-point dataset.
        dataset: String,
    },
    /// An experiment does not produce the requested output (a table has no
    /// data series; a figure has no metric of that name).
    NotProduced {
        /// The experiment id.
        experiment: String,
        /// What was requested, e.g. `data series`.
        output: String,
    },
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyDataset { dataset } => {
                write!(f, "dataset {dataset} contains no flows")
            }
            Self::MissingSubnet { dataset, subnet } => {
                write!(f, "subnet {subnet} contributed no flows to {dataset}")
            }
            Self::NoVideoFlows { dataset } => {
                write!(f, "dataset {dataset} contains no video flows")
            }
            Self::EmptyDistribution { what } => {
                write!(f, "empty distribution: {what}")
            }
            Self::UnknownExperiment { id } => {
                write!(f, "unknown experiment id {id:?}")
            }
            Self::NoDataCenters { source } => {
                write!(f, "no data centers derivable from {source}")
            }
            Self::UnknownCity { city } => {
                write!(f, "city {city:?} is not in the built-in city table")
            }
            Self::NoActiveTraces => write!(f, "no active-measurement traces recorded"),
            Self::MissingDataset { dataset } => {
                write!(f, "dataset {dataset} missing from the input set")
            }
            Self::NotProduced { experiment, output } => {
                write!(f, "experiment {experiment} produces no {output}")
            }
        }
    }
}

impl std::error::Error for AnalysisError {}

/// Convenience alias used across the analysis modules.
pub type AnalysisResult<T> = Result<T, AnalysisError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_missing_piece() {
        let e = AnalysisError::MissingSubnet {
            dataset: "US-Campus".into(),
            subnet: "Net-3".into(),
        };
        assert_eq!(
            e.to_string(),
            "subnet Net-3 contributed no flows to US-Campus"
        );
        assert_eq!(
            AnalysisError::NoActiveTraces.to_string(),
            "no active-measurement traces recorded"
        );
        assert!(AnalysisError::UnknownExperiment { id: "fig99".into() }
            .to_string()
            .contains("fig99"));
    }

    #[test]
    fn errors_compare_structurally() {
        let a = AnalysisError::EmptyDataset {
            dataset: "EU2".into(),
        };
        assert_eq!(a.clone(), a);
        assert_ne!(
            a,
            AnalysisError::EmptyDataset {
                dataset: "EU1-ADSL".into()
            }
        );
    }
}

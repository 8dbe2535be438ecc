//! Degenerate dataset shapes for the robustness harness.
//!
//! Real edge traces are messy: a capture can be empty, cover a single
//! hour, miss a subnet, or contain no video flows at all. Each
//! [`DegenerateShape`] deterministically degrades a simulated dataset
//! into one of those shapes so `tests/degenerate_datasets.rs` (and
//! `ytcdn repro --degenerate`) can prove the analysis layer degrades to typed
//! [`AnalysisError`](crate::error::AnalysisError)s instead of panicking.
//! The transforms are pure record filters — no wall clock, no RNG — so
//! a given (scenario seed, shape) pair always produces the same bytes.

use std::str::FromStr;

use ytcdn_tstat::{Dataset, DatasetName, FlowClass, HOUR_MS};

use crate::observatory::Observatory;

/// A deterministic way to degrade a simulated dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegenerateShape {
    /// Drop every record: the capture produced nothing.
    Empty,
    /// Keep only the first record (by start time): a capture cut short
    /// immediately after it began.
    SingleFlow,
    /// Drop every video flow, keeping control traffic only.
    NoVideo,
    /// Keep only hour 12 of the week (a busy daytime hour).
    SingleHour,
    /// Drop every client in US-Campus Net-3 — the subnet Figure 12's
    /// analysis singles out. Other vantage points are unaffected.
    MissingNet3,
    /// Keep only the first three days of the week-long trace.
    TruncatedWeek,
}

impl DegenerateShape {
    /// Every shape, in the order the harness drives them.
    pub const ALL: [DegenerateShape; 6] = [
        DegenerateShape::Empty,
        DegenerateShape::SingleFlow,
        DegenerateShape::NoVideo,
        DegenerateShape::SingleHour,
        DegenerateShape::MissingNet3,
        DegenerateShape::TruncatedWeek,
    ];

    /// The CLI spelling of this shape (`ytcdn repro --degenerate <shape>`).
    pub fn as_str(self) -> &'static str {
        match self {
            DegenerateShape::Empty => "empty",
            DegenerateShape::SingleFlow => "single-flow",
            DegenerateShape::NoVideo => "no-video",
            DegenerateShape::SingleHour => "single-hour",
            DegenerateShape::MissingNet3 => "missing-net3",
            DegenerateShape::TruncatedWeek => "truncated-week",
        }
    }

    /// Applies the shape to one simulated dataset. Only
    /// [`DegenerateShape::MissingNet3`] reads `observatory`, for the
    /// vantage point's subnets.
    pub fn apply(self, observatory: Observatory<'_>, dataset: Dataset) -> Dataset {
        match self {
            DegenerateShape::Empty => Dataset::new(dataset.name()),
            DegenerateShape::SingleFlow => {
                Dataset::from_records(dataset.name(), dataset.iter().take(1).collect())
            }
            DegenerateShape::NoVideo => Dataset::from_records(
                dataset.name(),
                dataset
                    .iter()
                    .filter(|r| FlowClass::of_bytes(r.bytes) != FlowClass::Video)
                    .collect(),
            ),
            DegenerateShape::SingleHour => dataset.time_slice(12 * HOUR_MS, 13 * HOUR_MS),
            DegenerateShape::MissingNet3 => {
                if dataset.name() != DatasetName::UsCampus {
                    return dataset;
                }
                let net3 = observatory
                    .subnets(DatasetName::UsCampus)
                    .iter()
                    .find(|s| s.name == "Net-3")
                    .map(|s| s.block);
                match net3 {
                    Some(block) => dataset.filter_clients(|ip| !block.contains(ip)),
                    None => dataset,
                }
            }
            DegenerateShape::TruncatedWeek => dataset.time_slice(0, 72 * HOUR_MS),
        }
    }
}

impl std::fmt::Display for DegenerateShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The error returned when parsing an unknown shape name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownShape(pub String);

impl std::fmt::Display for UnknownShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown degenerate shape {:?} (expected one of: {})",
            self.0,
            DegenerateShape::ALL.map(DegenerateShape::as_str).join(", ")
        )
    }
}

impl std::error::Error for UnknownShape {}

impl FromStr for DegenerateShape {
    type Err = UnknownShape;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DegenerateShape::ALL
            .into_iter()
            .find(|shape| shape.as_str() == s)
            .ok_or_else(|| UnknownShape(s.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ytcdn_cdnsim::{ScenarioConfig, StandardScenario};

    #[test]
    fn shape_names_round_trip() {
        for shape in DegenerateShape::ALL {
            assert_eq!(shape.as_str().parse::<DegenerateShape>(), Ok(shape));
        }
        let err = "bogus".parse::<DegenerateShape>().unwrap_err();
        assert!(err.to_string().contains("bogus"));
        assert!(err.to_string().contains("missing-net3"));
    }

    #[test]
    fn shapes_degrade_as_documented() {
        let s = StandardScenario::build(ScenarioConfig::with_scale(0.004, 2));
        let (ds, _) = s.run(DatasetName::UsCampus);
        let obs = Observatory::new(s.world());
        let n = ds.len();
        assert!(n > 100, "need a real dataset to degrade, got {n} flows");

        assert_eq!(DegenerateShape::Empty.apply(obs, ds.clone()).len(), 0);
        assert_eq!(DegenerateShape::SingleFlow.apply(obs, ds.clone()).len(), 1);

        let no_video = DegenerateShape::NoVideo.apply(obs, ds.clone());
        assert!(!no_video.is_empty());
        assert!(no_video
            .iter()
            .all(|r| FlowClass::of_bytes(r.bytes) != FlowClass::Video));

        let hour = DegenerateShape::SingleHour.apply(obs, ds.clone());
        assert!(!hour.is_empty() && hour.len() < n);
        assert!(hour
            .iter()
            .all(|r| (12 * HOUR_MS..13 * HOUR_MS).contains(&r.start_ms)));

        let net3_block = obs
            .subnets(DatasetName::UsCampus)
            .iter()
            .find(|s| s.name == "Net-3")
            .map(|s| s.block)
            .expect("US-Campus config defines Net-3");
        let no_net3 = DegenerateShape::MissingNet3.apply(obs, ds.clone());
        assert!(!no_net3.is_empty() && no_net3.len() < n);
        assert!(no_net3.iter().all(|r| !net3_block.contains(r.client_ip)));
        // Other vantage points pass through untouched.
        let (eu2, _) = s.run(DatasetName::Eu2);
        assert_eq!(
            DegenerateShape::MissingNet3.apply(obs, eu2.clone()).len(),
            eu2.len()
        );

        let truncated = DegenerateShape::TruncatedWeek.apply(obs, ds.clone());
        assert!(!truncated.is_empty() && truncated.len() < n);
        assert!(truncated.iter().all(|r| r.start_ms < 72 * HOUR_MS));
    }
}

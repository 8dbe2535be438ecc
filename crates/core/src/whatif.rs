//! What-if analysis — the use case the paper's introduction motivates:
//! "explore how changes in video popularity distributions, or changes to
//! the YouTube infrastructure design can impact ISP traffic patterns, as
//! well as user performance."
//!
//! Every counterfactual is one entry of [`COUNTERFACTUALS`]: the dataset
//! it watches, its rows — each a label and the one [`Delta`] it applies
//! to the standard scenario — and the metric it expects to move, and in
//! which direction, from the first row to the last. [`run`] builds every
//! row through the same path and summarizes the traffic pattern the
//! dataset's vantage point would see; [`render`] prints the outcomes as
//! one table.

use std::fmt::Write as _;

use ytcdn_cdnsim::{ScenarioConfig, StandardScenario, VantagePoint};
use ytcdn_tstat::DatasetName;

use crate::dcmap::AnalysisContext;

/// Traffic-pattern summary of one simulated counterfactual.
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIfOutcome {
    /// Human-readable label of the counterfactual.
    pub label: String,
    /// City of the preferred data center under this configuration.
    pub preferred_city: String,
    /// Distance from the vantage point to the preferred data center, km.
    pub preferred_distance_km: f64,
    /// Fraction of video bytes served by the preferred data center.
    pub preferred_byte_share: f64,
    /// Fraction of video flows served by non-preferred data centers.
    pub nonpreferred_flow_share: f64,
    /// Flow-weighted mean RTT to the serving data center, ms — the
    /// user-performance proxy.
    pub mean_serving_rtt_ms: f64,
}

/// One change to the standard scenario; a row applies exactly one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Delta {
    /// The standard scenario, unchanged.
    StatusQuo,
    /// The catalog's popularity concentration (Zipf exponent).
    ZipfExponent(f64),
    /// Multiplier on the EU2 in-ISP data center's capacity.
    Eu2CapacityFactor(f64),
    /// No front-page promotions ("video of the day").
    VotdOff,
    /// The entry's vantage point without its transit detours toward
    /// nearby data centers.
    PeeringFixed,
    /// The entry's vantage point mapped to this city's data center.
    PreferredCity(&'static str),
}

impl Delta {
    fn apply(self, config: &mut ScenarioConfig, vantage: &mut VantagePoint) {
        match self {
            Delta::StatusQuo => {}
            Delta::ZipfExponent(s) => config.catalog.zipf_exponent = s,
            Delta::Eu2CapacityFactor(f) => config.eu2_capacity_factor = f,
            Delta::VotdOff => config.votd_enabled = false,
            Delta::PeeringFixed => vantage.peering_penalty_ms.clear(),
            Delta::PreferredCity(city) => vantage.preferred_city_override = Some(city),
        }
    }
}

/// A metric of [`WhatIfOutcome`] a counterfactual expects to move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// [`WhatIfOutcome::preferred_distance_km`].
    PreferredDistanceKm,
    /// [`WhatIfOutcome::preferred_byte_share`].
    PreferredByteShare,
    /// [`WhatIfOutcome::nonpreferred_flow_share`].
    NonPreferredFlowShare,
    /// [`WhatIfOutcome::mean_serving_rtt_ms`].
    MeanServingRttMs,
}

impl Metric {
    /// The metric's value in `outcome`.
    pub fn of(self, outcome: &WhatIfOutcome) -> f64 {
        match self {
            Metric::PreferredDistanceKm => outcome.preferred_distance_km,
            Metric::PreferredByteShare => outcome.preferred_byte_share,
            Metric::NonPreferredFlowShare => outcome.nonpreferred_flow_share,
            Metric::MeanServingRttMs => outcome.mean_serving_rtt_ms,
        }
    }
}

/// The way a metric moves from a counterfactual's first row to its last.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// The last row's value is larger.
    Up,
    /// The last row's value is smaller.
    Down,
}

/// One counterfactual: rows simulated on one dataset, and the movement
/// they are expected to show.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Counterfactual {
    /// The `ytcdn whatif --scenario` name.
    pub name: &'static str,
    /// The dataset whose vantage point is summarized.
    pub dataset: DatasetName,
    /// `(label, delta)` per row, in table order.
    pub rows: &'static [(&'static str, Delta)],
    /// The metric expected to move from the first row to the last, and
    /// its direction.
    pub expect: (Metric, Direction),
}

impl Counterfactual {
    /// Whether `outcomes` — this entry's rows, in order — move the
    /// expected metric strictly in the expected direction from the first
    /// row to the last.
    pub fn holds(&self, outcomes: &[WhatIfOutcome]) -> bool {
        let (metric, direction) = self.expect;
        let (Some(first), Some(last)) = (outcomes.first(), outcomes.last()) else {
            return false;
        };
        let (first, last) = (metric.of(first), metric.of(last));
        match direction {
            Direction::Up => last > first,
            Direction::Down => last < first,
        }
    }
}

/// The February-2011 observation (the paper's Section VI-B): the US campus
/// is suddenly mapped to a data center "with an RTT of more than 100 ms and
/// not to the closest" — preference is a Google policy, not a pure RTT
/// optimization. Mountain View is the far-coast data center, ~3200 km from
/// the campus. Public because the `ext-feb2011` experiment runs it.
pub const FEB2011: Counterfactual = Counterfactual {
    name: "feb2011",
    dataset: DatasetName::UsCampus,
    rows: &[
        ("Sep 2010", Delta::StatusQuo),
        ("Feb 2011", Delta::PreferredCity("Mountain View")),
    ],
    expect: (Metric::MeanServingRttMs, Direction::Up),
};

/// Remove the transit detours toward the data centers near US-Campus: the
/// selection picks a genuinely close data center, collapsing the paper's
/// Figure 8 anomaly.
const FIXED_PEERING: Counterfactual = Counterfactual {
    name: "fixed-peering",
    dataset: DatasetName::UsCampus,
    rows: &[
        ("status quo", Delta::StatusQuo),
        ("fixed peering", Delta::PeeringFixed),
    ],
    expect: (Metric::PreferredDistanceKm, Direction::Down),
};

/// Without video-of-the-day flash crowds, hot-spot redirections (Figures
/// 14-16) disappear.
const NO_VOTD: Counterfactual = Counterfactual {
    name: "no-votd",
    dataset: DatasetName::Eu1Adsl,
    rows: &[
        ("with VotD", Delta::StatusQuo),
        ("without VotD", Delta::VotdOff),
    ],
    expect: (Metric::NonPreferredFlowShare, Direction::Down),
};

/// Provisioning the EU2 in-ISP data center for the peak removes the
/// DNS-level spill (Figure 11).
const EU2_CAPACITY: Counterfactual = Counterfactual {
    name: "eu2-capacity",
    dataset: DatasetName::Eu2,
    rows: &[
        ("capacity×0.5", Delta::Eu2CapacityFactor(0.5)),
        ("capacity×1", Delta::Eu2CapacityFactor(1.0)),
        ("capacity×4", Delta::Eu2CapacityFactor(4.0)),
        ("capacity×10", Delta::Eu2CapacityFactor(10.0)),
    ],
    expect: (Metric::PreferredByteShare, Direction::Up),
};

/// A more concentrated catalog has fewer cold-tail misses, so less
/// redirected traffic.
const POPULARITY: Counterfactual = Counterfactual {
    name: "popularity",
    dataset: DatasetName::Eu1Adsl,
    rows: &[
        ("zipf=0.7", Delta::ZipfExponent(0.7)),
        ("zipf=0.9", Delta::ZipfExponent(0.9)),
        ("zipf=1.2", Delta::ZipfExponent(1.2)),
    ],
    expect: (Metric::NonPreferredFlowShare, Direction::Down),
};

/// Every counterfactual, in `ytcdn whatif` usage order.
pub const COUNTERFACTUALS: &[Counterfactual] =
    &[FEB2011, FIXED_PEERING, NO_VOTD, EU2_CAPACITY, POPULARITY];

/// The entry of [`COUNTERFACTUALS`] called `name`.
pub fn find(name: &str) -> Option<&'static Counterfactual> {
    COUNTERFACTUALS.iter().find(|c| c.name == name)
}

/// Simulates every row of `counterfactual` — `base` with the row's delta
/// applied, the entry's dataset on its vantage point — and summarizes
/// each, in row order.
pub fn run(counterfactual: &Counterfactual, base: ScenarioConfig) -> Vec<WhatIfOutcome> {
    let name = counterfactual.dataset;
    counterfactual
        .rows
        .iter()
        .map(|&(label, delta)| {
            let mut config = base;
            let mut vantages = VantagePoint::standard_five();
            if let Some(vantage) = vantages.iter_mut().find(|v| v.dataset == name) {
                delta.apply(&mut config, vantage);
            }
            let scenario = StandardScenario::build_with_vantages(config, vantages);
            summarize(label, &scenario, name)
        })
        .collect()
}

fn summarize(label: &str, scenario: &StandardScenario, name: DatasetName) -> WhatIfOutcome {
    let (ds, _) = scenario.run(name);
    let ctx = AnalysisContext::from_ground_truth(scenario.world(), &ds);
    let total_flows: u64 = ctx.dcs().iter().map(|d| d.video_flows).sum();
    let mean_rtt = if total_flows == 0 {
        0.0
    } else {
        ctx.dcs()
            .iter()
            .map(|d| d.rtt_ms * d.video_flows as f64)
            .sum::<f64>()
            / total_flows as f64
    };
    WhatIfOutcome {
        label: label.to_owned(),
        preferred_city: ctx.preferred().city_name.clone(),
        preferred_distance_km: ctx.preferred().distance_km,
        preferred_byte_share: ctx.preferred_share_of_bytes(),
        nonpreferred_flow_share: ctx.nonpreferred_share_of_flows(),
        mean_serving_rtt_ms: mean_rtt,
    }
}

/// The outcomes as a table: a header line, then one line per outcome.
pub fn render(outcomes: &[WhatIfOutcome]) -> String {
    let mut out = format!(
        "{:<16} {:>14} {:>10} {:>12} {:>15} {:>13}\n",
        "scenario", "preferred", "dist[km]", "pref bytes", "non-pref flows", "mean RTT[ms]"
    );
    for o in outcomes {
        let _ = writeln!(
            out,
            "{:<16} {:>14} {:>10.0} {:>12.3} {:>15.3} {:>13.1}",
            o.label,
            o.preferred_city,
            o.preferred_distance_km,
            o.preferred_byte_share,
            o.nonpreferred_flow_share,
            o.mean_serving_rtt_ms
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `c`'s outcomes at scale 0.008, at each seed the tests use.
    fn runs(c: &Counterfactual) -> impl Iterator<Item = (u64, Vec<WhatIfOutcome>)> + '_ {
        [301, 7]
            .into_iter()
            .map(move |seed| (seed, run(c, ScenarioConfig::with_scale(0.008, seed))))
    }

    #[test]
    fn every_counterfactual_moves_its_metric_as_expected() {
        for c in COUNTERFACTUALS {
            for (seed, o) in runs(c) {
                let labels: Vec<&str> = o.iter().map(|o| o.label.as_str()).collect();
                let rows: Vec<&str> = c.rows.iter().map(|&(label, _)| label).collect();
                assert_eq!(labels, rows, "{} seed {seed}", c.name);
                assert!(
                    c.holds(&o),
                    "{} seed {seed}: expected {:?}; got {o:?}",
                    c.name,
                    c.expect
                );
            }
        }
    }

    #[test]
    fn entries_have_unique_names_and_a_first_and_last_row() {
        for (i, c) in COUNTERFACTUALS.iter().enumerate() {
            assert!(c.rows.len() >= 2, "{} needs two rows to move", c.name);
            assert_eq!(find(c.name), Some(c));
            assert!(COUNTERFACTUALS[..i].iter().all(|d| d.name != c.name));
        }
        assert_eq!(find("unknown"), None);
    }

    #[test]
    fn concentrated_popularity_reduces_redirections() {
        const SWEEP: Counterfactual = Counterfactual {
            rows: &[
                ("zipf=0.7", Delta::ZipfExponent(0.7)),
                ("zipf=1.3", Delta::ZipfExponent(1.3)),
            ],
            ..POPULARITY
        };
        for (seed, o) in runs(&SWEEP) {
            let (flat, steep) = (&o[0], &o[1]);
            assert!(
                steep.nonpreferred_flow_share < flat.nonpreferred_flow_share,
                "seed {seed}: zipf 1.3 {} vs 0.7 {}",
                steep.nonpreferred_flow_share,
                flat.nonpreferred_flow_share
            );
        }
    }

    #[test]
    fn removing_votd_reduces_hot_spot_traffic() {
        for (seed, o) in runs(&NO_VOTD) {
            let (with, without) = (&o[0], &o[1]);
            assert!(
                without.nonpreferred_flow_share < with.nonpreferred_flow_share,
                "seed {seed}: with {} vs without {}",
                with.nonpreferred_flow_share,
                without.nonpreferred_flow_share
            );
        }
    }

    #[test]
    fn fixing_peering_moves_the_preferred_dc_closer() {
        for (seed, o) in runs(&FIXED_PEERING) {
            let (before, after) = (&o[0], &o[1]);
            // The Figure 8 anomaly collapses: the preferred DC is now nearby.
            assert!(
                after.preferred_distance_km < 450.0,
                "seed {seed}: {after:?}"
            );
            // And users get a faster serving RTT on average.
            assert!(
                after.mean_serving_rtt_ms < before.mean_serving_rtt_ms + 1.0,
                "seed {seed}: before {before:?}, after {after:?}"
            );
        }
    }

    #[test]
    fn provisioning_eu2_removes_the_spill() {
        for (seed, o) in runs(&EU2_CAPACITY) {
            let (x1, x10) = (&o[1], &o[3]);
            assert_eq!(
                (x1.label.as_str(), x10.label.as_str()),
                ("capacity×1", "capacity×10")
            );
            assert!(
                x10.preferred_byte_share > x1.preferred_byte_share + 0.2,
                "seed {seed}: ×1 {} vs ×10 {}",
                x1.preferred_byte_share,
                x10.preferred_byte_share
            );
            assert!(x10.nonpreferred_flow_share < 0.25, "seed {seed}: {x10:?}");
        }
    }

    #[test]
    fn feb2011_shift_moves_preference_far_away() {
        for (seed, o) in runs(&FEB2011) {
            let (before, after) = (&o[0], &o[1]);
            assert_eq!(after.preferred_city, "Mountain View", "seed {seed}");
            assert_ne!(before.preferred_city, "Mountain View", "seed {seed}");
            // RTT to the new preferred DC is a multiple of the old one (the
            // paper: >100 ms vs ~30 ms to the closest).
            assert!(
                after.mean_serving_rtt_ms > 2.0 * before.mean_serving_rtt_ms,
                "seed {seed}: before {} ms, after {} ms",
                before.mean_serving_rtt_ms,
                after.mean_serving_rtt_ms
            );
            // The majority of requests still follow the (now far) preferred DC.
            assert!(after.preferred_byte_share > 0.8, "seed {seed}: {after:?}");
        }
    }

    #[test]
    fn outcome_fields_are_consistent() {
        const BASE: Counterfactual = Counterfactual {
            name: "base",
            dataset: DatasetName::Eu1Campus,
            rows: &[("base", Delta::StatusQuo)],
            expect: (Metric::MeanServingRttMs, Direction::Up),
        };
        let o = &run(&BASE, ScenarioConfig::with_scale(0.008, 301))[0];
        assert_eq!(o.label, "base");
        assert_eq!(o.preferred_city, "Milan");
        assert!((0.0..=1.0).contains(&o.preferred_byte_share));
        assert!((0.0..=1.0).contains(&o.nonpreferred_flow_share));
        assert!(o.mean_serving_rtt_ms > 0.0);
    }
}

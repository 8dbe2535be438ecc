//! What-if analysis — the use case the paper's introduction motivates:
//! "explore how changes in video popularity distributions, or changes to
//! the YouTube infrastructure design can impact ISP traffic patterns, as
//! well as user performance."
//!
//! Each function here rebuilds the world under a counterfactual and
//! summarizes the traffic pattern a given vantage point would see.

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

/// Simulates `name` under `config` and summarizes the resulting pattern.
pub fn evaluate(label: &str, config: ScenarioConfig, name: DatasetName) -> WhatIfOutcome {
    let scenario = StandardScenario::build(config);
    summarize(label, &scenario, name)
}

/// Like [`evaluate`], with caller-modified vantage points (infrastructure
/// counterfactuals such as changed peering).
pub fn evaluate_with_vantages(
    label: &str,
    config: ScenarioConfig,
    vantages: Vec<VantagePoint>,
    name: DatasetName,
) -> WhatIfOutcome {
    let scenario = StandardScenario::build_with_vantages(config, vantages);
    summarize(label, &scenario, name)
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

/// Sweep of the catalog's popularity concentration (Zipf exponent): a more
/// concentrated catalog has fewer cold-tail misses, so less redirected
/// traffic.
pub fn popularity_sweep(
    base: ScenarioConfig,
    exponents: &[f64],
    name: DatasetName,
) -> Vec<WhatIfOutcome> {
    exponents
        .iter()
        .map(|&s| {
            let mut cfg = base;
            cfg.catalog.zipf_exponent = s;
            evaluate(&format!("zipf={s}"), cfg, name)
        })
        .collect()
}

/// The "fix the campus peering" counterfactual: remove the transit detours
/// toward the data centers near US-Campus, letting the selection pick a
/// genuinely close data center — collapsing the paper's Figure 8 anomaly.
pub fn fixed_us_peering(base: ScenarioConfig) -> (WhatIfOutcome, WhatIfOutcome) {
    let before = evaluate("status quo", base, DatasetName::UsCampus);
    let mut vantages = VantagePoint::standard_five();
    for vp in &mut vantages {
        if vp.dataset == DatasetName::UsCampus {
            vp.peering_penalty_ms.clear();
        }
    }
    let after = evaluate_with_vantages("fixed peering", base, vantages, DatasetName::UsCampus);
    (before, after)
}

/// Sweep of the EU2 in-ISP data center's capacity: provisioning the
/// internal data center for the peak removes the DNS-level spill.
pub fn eu2_capacity_sweep(base: ScenarioConfig, factors: &[f64]) -> Vec<WhatIfOutcome> {
    factors
        .iter()
        .map(|&f| {
            let mut cfg = base;
            cfg.eu2_capacity_factor = f;
            evaluate(&format!("capacity×{f}"), cfg, DatasetName::Eu2)
        })
        .collect()
}

/// The February-2011 observation (the paper's Section VI-B): the US campus
/// is suddenly mapped to a data center "with an RTT of more than 100 ms and
/// not to the closest" — preference is a Google policy, not a pure RTT
/// optimization. Returns (September-2010 status quo, February-2011).
pub fn feb2011_us_campus(base: ScenarioConfig) -> (WhatIfOutcome, WhatIfOutcome) {
    let before = evaluate("Sep 2010", base, DatasetName::UsCampus);
    let mut vantages = VantagePoint::standard_five();
    for vp in &mut vantages {
        if vp.dataset == DatasetName::UsCampus {
            // The far-coast data center: ~3200 km from the campus.
            vp.preferred_city_override = Some("Mountain View");
        }
    }
    let after = evaluate_with_vantages("Feb 2011", base, vantages, DatasetName::UsCampus);
    (before, after)
}

/// The "no front-page promotion" counterfactual: without video-of-the-day
/// flash crowds, hot-spot redirections disappear.
pub fn without_votd(base: ScenarioConfig, name: DatasetName) -> (WhatIfOutcome, WhatIfOutcome) {
    let with = evaluate("with VotD", base, name);
    let mut cfg = base;
    cfg.votd_enabled = false;
    let without = evaluate("without VotD", cfg, name);
    (with, without)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ScenarioConfig {
        ScenarioConfig::with_scale(0.008, 301)
    }

    #[test]
    fn concentrated_popularity_reduces_redirections() {
        let outcomes = popularity_sweep(base(), &[0.7, 1.3], DatasetName::Eu1Adsl);
        assert_eq!(outcomes.len(), 2);
        assert!(
            outcomes[1].nonpreferred_flow_share < outcomes[0].nonpreferred_flow_share,
            "zipf 1.3 {} vs 0.7 {}",
            outcomes[1].nonpreferred_flow_share,
            outcomes[0].nonpreferred_flow_share
        );
    }

    #[test]
    fn fixing_peering_moves_the_preferred_dc_closer() {
        let (before, after) = fixed_us_peering(base());
        assert!(
            after.preferred_distance_km < before.preferred_distance_km,
            "before {} km, after {} km",
            before.preferred_distance_km,
            after.preferred_distance_km
        );
        // The Figure 8 anomaly collapses: the preferred DC is now nearby.
        assert!(after.preferred_distance_km < 450.0, "{after:?}");
        // And users get a faster serving RTT on average.
        assert!(after.mean_serving_rtt_ms < before.mean_serving_rtt_ms + 1.0);
    }

    #[test]
    fn provisioning_eu2_removes_the_spill() {
        let outcomes = eu2_capacity_sweep(base(), &[1.0, 10.0]);
        assert!(
            outcomes[1].preferred_byte_share > outcomes[0].preferred_byte_share + 0.2,
            "×1 {} vs ×10 {}",
            outcomes[0].preferred_byte_share,
            outcomes[1].preferred_byte_share
        );
        assert!(
            outcomes[1].nonpreferred_flow_share < 0.25,
            "{:?}",
            outcomes[1]
        );
    }

    #[test]
    fn removing_votd_reduces_hot_spot_traffic() {
        let (with, without) = without_votd(base(), DatasetName::Eu1Adsl);
        assert!(
            without.nonpreferred_flow_share < with.nonpreferred_flow_share,
            "with {} vs without {}",
            with.nonpreferred_flow_share,
            without.nonpreferred_flow_share
        );
    }

    #[test]
    fn feb2011_shift_moves_preference_far_away() {
        let (before, after) = feb2011_us_campus(base());
        assert_eq!(after.preferred_city, "Mountain View");
        assert_ne!(before.preferred_city, "Mountain View");
        // RTT to the new preferred DC is a multiple of the old one (the
        // paper: >100 ms vs ~30 ms to the closest).
        assert!(
            after.mean_serving_rtt_ms > 2.0 * before.mean_serving_rtt_ms,
            "before {} ms, after {} ms",
            before.mean_serving_rtt_ms,
            after.mean_serving_rtt_ms
        );
        // The majority of requests still follow the (now far) preferred DC.
        assert!(after.preferred_byte_share > 0.8, "{after:?}");
    }

    #[test]
    fn outcome_fields_are_consistent() {
        let o = evaluate("base", base(), DatasetName::Eu1Campus);
        assert_eq!(o.label, "base");
        assert_eq!(o.preferred_city, "Milan");
        assert!((0.0..=1.0).contains(&o.preferred_byte_share));
        assert!((0.0..=1.0).contains(&o.nonpreferred_flow_share));
        assert!(o.mean_serving_rtt_ms > 0.0);
    }
}

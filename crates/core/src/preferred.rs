//! Byte-share profiles against RTT and distance (Figures 7 and 8).
//!
//! Figure 7 plots, for each dataset, the cumulative fraction of video bytes
//! served by data centers with RTT below a threshold; Figure 8 repeats the
//! exercise with geographic distance. Together they show that the dominant
//! ("preferred") data center is the lowest-RTT one — but, for US-Campus,
//! *not* a geographically close one.

use crate::dcmap::AnalysisContext;

/// One step of a cumulative byte-share profile.
#[derive(Debug, Clone, PartialEq)]
pub struct ShareStep {
    /// The x-coordinate (RTT in ms, or distance in km).
    pub x: f64,
    /// Cumulative fraction of video bytes from data centers with
    /// x-coordinate ≤ this step's.
    pub cumulative_fraction: f64,
    /// City of the data center contributing this step.
    pub city: String,
}

/// Cumulative byte fraction by data-center RTT (one Figure 7 curve).
pub fn bytes_by_rtt(ctx: &AnalysisContext) -> Vec<ShareStep> {
    profile(ctx, |d| d.rtt_ms)
}

/// Cumulative byte fraction by data-center distance (one Figure 8 curve).
pub fn bytes_by_distance(ctx: &AnalysisContext) -> Vec<ShareStep> {
    profile(ctx, |d| d.distance_km)
}

fn profile(ctx: &AnalysisContext, key: impl Fn(&crate::dcmap::DcInfo) -> f64) -> Vec<ShareStep> {
    let total: u64 = ctx.dcs().iter().map(|d| d.video_bytes).sum();
    if total == 0 {
        return Vec::new();
    }
    let mut dcs: Vec<_> = ctx.dcs().iter().collect();
    dcs.sort_by(|a, b| key(a).total_cmp(&key(b)));
    let mut acc = 0u64;
    dcs.into_iter()
        .map(|d| {
            acc += d.video_bytes;
            ShareStep {
                x: key(d),
                cumulative_fraction: acc as f64 / total as f64,
                city: d.city_name.clone(),
            }
        })
        .collect()
}

/// Byte fraction served by the `k` geographically closest data centers
/// (the paper: the five closest to US-Campus carry < 2 %).
pub fn closest_k_share(ctx: &AnalysisContext, k: usize) -> f64 {
    let total: u64 = ctx.dcs().iter().map(|d| d.video_bytes).sum();
    if total == 0 {
        return 0.0;
    }
    let mut dcs: Vec<_> = ctx.dcs().iter().collect();
    dcs.sort_by(|a, b| a.distance_km.total_cmp(&b.distance_km));
    let close: u64 = dcs.iter().take(k).map(|d| d.video_bytes).sum();
    close as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcmap::AnalysisContext;
    use ytcdn_cdnsim::{ScenarioConfig, StandardScenario};
    use ytcdn_tstat::DatasetName;

    fn ctx(name: DatasetName) -> AnalysisContext {
        let s = StandardScenario::build(ScenarioConfig::with_scale(0.008, 33));
        let (ds, _) = s.run(name);
        AnalysisContext::from_ground_truth(s.world(), &ds)
    }

    #[test]
    fn profiles_are_monotone_and_end_at_one() {
        let c = ctx(DatasetName::Eu1Adsl);
        for steps in [bytes_by_rtt(&c), bytes_by_distance(&c)] {
            assert!(!steps.is_empty());
            assert!(steps
                .windows(2)
                .all(|w| w[0].x <= w[1].x && w[0].cumulative_fraction <= w[1].cumulative_fraction));
            let last = steps.last().unwrap().cumulative_fraction;
            assert!((last - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn lowest_rtt_dc_dominates_eu1() {
        // Figure 7: "in each dataset one data center provides more than 85%
        // of the traffic" (except EU2) and it is the smallest-RTT one.
        let c = ctx(DatasetName::Eu1Campus);
        let steps = bytes_by_rtt(&c);
        assert!(
            steps[0].cumulative_fraction > 0.75,
            "first-RTT DC carries {}",
            steps[0].cumulative_fraction
        );
    }

    #[test]
    fn us_campus_closest_dcs_carry_little() {
        // Figure 8: the five closest data centers provide <2% of bytes for
        // US-Campus.
        let c = ctx(DatasetName::UsCampus);
        let share = closest_k_share(&c, 5);
        assert!(share < 0.10, "closest-5 share {share}");
        // While for EU1 the closest DC is the preferred one.
        let eu1 = ctx(DatasetName::Eu1Ftth);
        assert!(closest_k_share(&eu1, 1) > 0.7);
    }

    #[test]
    fn eu2_needs_two_dcs_for_95_percent() {
        let c = ctx(DatasetName::Eu2);
        let steps = bytes_by_rtt(&c);
        assert!(steps[0].cumulative_fraction < 0.85, "EU2 is split");
        // The two dominant byte sources (the internal DC and the external
        // spill target) together carry the bulk of the traffic.
        let mut by_bytes: Vec<u64> = c.dcs().iter().map(|d| d.video_bytes).collect();
        by_bytes.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = by_bytes.iter().sum();
        let top2 = (by_bytes[0] + by_bytes[1]) as f64 / total as f64;
        assert!(top2 > 0.80, "top-2 DCs carry {top2}");
    }
}

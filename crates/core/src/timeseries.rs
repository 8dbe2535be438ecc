//! Hourly time-series analyses (Figures 9 and 11).
//!
//! Figure 9 is the CDF, over one-hour slots, of the fraction of video flows
//! directed to non-preferred data centers. Figure 11 shows the EU2
//! mechanism underneath: the fraction served by the *local* (preferred,
//! in-ISP) data center collapses to ~30 % exactly when the hourly request
//! count peaks — adaptive DNS-level load balancing.

use crate::index::DatasetIndex;
use crate::stats::Cdf;

/// One hourly sample of preferred/non-preferred traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HourSample {
    /// Hour index since trace start.
    pub hour: u64,
    /// Video flows to the preferred data center in this hour.
    pub preferred: u64,
    /// Video flows to non-preferred (analysis) data centers.
    pub non_preferred: u64,
}

impl HourSample {
    /// Total analysis video flows in the hour.
    pub fn total(&self) -> u64 {
        self.preferred + self.non_preferred
    }

    /// Fraction of flows to non-preferred data centers; `None` for an empty
    /// hour.
    pub fn non_preferred_fraction(&self) -> Option<f64> {
        let t = self.total();
        (t > 0).then(|| self.non_preferred as f64 / t as f64)
    }

    /// Fraction of flows to the preferred (for EU2: local) data center.
    pub fn preferred_fraction(&self) -> Option<f64> {
        self.non_preferred_fraction().map(|f| 1.0 - f)
    }
}

/// Bins a dataset's analysis video flows into hourly samples, read off the
/// index's per-hour record ranges and per-flow columns; the vector is
/// indexed by hour and covers the whole observed span.
pub fn hourly_samples(index: &DatasetIndex) -> Vec<HourSample> {
    index
        .hour_ranges()
        .iter()
        .enumerate()
        .map(|(hour, range)| {
            let mut sample = HourSample {
                hour: hour as u64,
                preferred: 0,
                non_preferred: 0,
            };
            for i in range.clone() {
                if !index.is_video_flow(i) {
                    continue;
                }
                match index.is_preferred_flow(i) {
                    Some(true) => sample.preferred += 1,
                    Some(false) => sample.non_preferred += 1,
                    None => {}
                }
            }
            sample
        })
        .collect()
}

/// The Figure 9 CDF: distribution over hours of the non-preferred fraction.
pub fn nonpreferred_fraction_cdf(index: &DatasetIndex) -> Cdf {
    Cdf::from_values(
        hourly_samples(index)
            .iter()
            .filter_map(HourSample::non_preferred_fraction),
    )
}

/// Pearson correlation between hourly load and the hourly preferred
/// fraction — negative for EU2 (load balancing kicks in under load),
/// near zero elsewhere.
pub fn load_vs_preferred_correlation(samples: &[HourSample]) -> f64 {
    let pairs: Vec<(f64, f64)> = samples
        .iter()
        .filter_map(|s| s.preferred_fraction().map(|f| (s.total() as f64, f)))
        .collect();
    if pairs.len() < 2 {
        return 0.0;
    }
    let n = pairs.len() as f64;
    let mx = pairs.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pairs.iter().map(|p| p.1).sum::<f64>() / n;
    let cov = pairs.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum::<f64>();
    let vx = pairs.iter().map(|p| (p.0 - mx).powi(2)).sum::<f64>();
    let vy = pairs.iter().map(|p| (p.1 - my).powi(2)).sum::<f64>();
    if vx == 0.0 || vy == 0.0 {
        return 0.0;
    }
    cov / (vx * vy).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcmap::AnalysisContext;
    use ytcdn_cdnsim::{ScenarioConfig, StandardScenario};
    use ytcdn_telemetry::Telemetry;
    use ytcdn_tstat::DatasetName;

    fn samples_for(name: DatasetName) -> (Vec<HourSample>, Cdf) {
        let s = StandardScenario::build(ScenarioConfig::with_scale(0.01, 99));
        let (ds, _) = s.run(name);
        let ctx = AnalysisContext::from_ground_truth(s.world(), &ds);
        let index = DatasetIndex::build(&ctx, ds, Telemetry::disabled());
        (hourly_samples(&index), nonpreferred_fraction_cdf(&index))
    }

    #[test]
    fn covers_the_week() {
        let (samples, _) = samples_for(DatasetName::Eu1Adsl);
        assert!((165..=170).contains(&samples.len()), "{}", samples.len());
        assert!(samples.iter().enumerate().all(|(i, s)| s.hour == i as u64));
    }

    #[test]
    fn diurnal_load_pattern_visible() {
        let (samples, _) = samples_for(DatasetName::Eu2);
        // Compare a deep-night hour with a peak hour on the same day.
        let night = samples[4].total() as f64;
        let evening = samples[21].total() as f64;
        assert!(
            evening > 3.0 * night.max(1.0),
            "evening {evening} night {night}"
        );
    }

    #[test]
    fn eu2_local_fraction_anticorrelated_with_load() {
        // Figure 11: during the night the internal DC takes ~100%, during
        // the peak ~30%.
        let (samples, _) = samples_for(DatasetName::Eu2);
        let corr = load_vs_preferred_correlation(&samples);
        assert!(corr < -0.5, "EU2 correlation {corr}");
        // Aggregate the deep-night hours (02:00–06:00) and the evening peak
        // (19:00–23:00) over all seven days: single hours are noisy at
        // small simulation scales.
        let agg = |range: std::ops::Range<u64>| {
            let (mut pref, mut total) = (0u64, 0u64);
            for s in &samples {
                if range.contains(&(s.hour % 24)) {
                    pref += s.preferred;
                    total += s.total();
                }
            }
            pref as f64 / total.max(1) as f64
        };
        let night_frac = agg(2..6);
        assert!(night_frac > 0.8, "night local fraction {night_frac}");
        let peak_frac = agg(19..23);
        assert!(peak_frac < 0.65, "peak local fraction {peak_frac}");
    }

    #[test]
    fn eu1_fraction_less_correlated_with_load() {
        let (samples, _) = samples_for(DatasetName::Eu1Adsl);
        let corr = load_vs_preferred_correlation(&samples);
        assert!(
            corr.abs() < 0.6,
            "EU1 should not show EU2-grade correlation: {corr}"
        );
    }

    #[test]
    fn figure9_cdf_ranges() {
        let (_, eu2_cdf) = samples_for(DatasetName::Eu2);
        let (_, eu1_cdf) = samples_for(DatasetName::Eu1Ftth);
        // EU2's median hourly non-preferred fraction is far above EU1's.
        assert!(
            eu2_cdf.median() > eu1_cdf.median() + 0.1,
            "eu2 {} vs eu1 {}",
            eu2_cdf.median(),
            eu1_cdf.median()
        );
        // All fractions are valid probabilities.
        assert!(eu2_cdf.min() >= 0.0 && eu2_cdf.max() <= 1.0);
    }

    #[test]
    fn correlation_degenerate_cases() {
        assert_eq!(load_vs_preferred_correlation(&[]), 0.0);
        let s = HourSample {
            hour: 0,
            preferred: 5,
            non_preferred: 5,
        };
        assert_eq!(load_vs_preferred_correlation(&[s]), 0.0);
        // Constant series → zero variance → defined as 0.
        assert_eq!(load_vs_preferred_correlation(&[s, s, s]), 0.0);
    }

    #[test]
    fn empty_hour_has_no_fraction() {
        let s = HourSample {
            hour: 3,
            preferred: 0,
            non_preferred: 0,
        };
        assert_eq!(s.non_preferred_fraction(), None);
        assert_eq!(s.preferred_fraction(), None);
    }
}

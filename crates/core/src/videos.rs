//! Per-video non-preferred access analysis (Figure 13).
//!
//! Section VII-C: counting, per video, how many times it was downloaded
//! from a non-preferred data center reveals two populations — a large mass
//! of videos redirected *exactly once* (cold tail content, repaired by
//! pull-through replication) and a long tail of videos redirected hundreds
//! of times (flash-crowd hot spots).

use ytcdn_tstat::VideoId;

use crate::index::DatasetIndex;
use crate::stats::Cdf;

/// Per-video request counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VideoCounts {
    /// Video flows to any analysis data center.
    pub total: u64,
    /// Video flows to non-preferred data centers.
    pub non_preferred: u64,
}

/// Summary statistics behind Figure 13 and the surrounding text.
#[derive(Debug, Clone, PartialEq)]
pub struct NonPreferredVideoStats {
    /// CDF of non-preferred request counts over videos with ≥ 1
    /// non-preferred request (the Figure 13 curve).
    pub cdf: Cdf,
    /// Fraction of those videos with *exactly one* non-preferred request.
    pub exactly_once_fraction: f64,
    /// Of the exactly-once videos, the fraction whose one non-preferred
    /// access was also their only access in the whole dataset (the paper:
    /// "over 99 %").
    pub exactly_once_and_single_access_fraction: f64,
    /// Largest non-preferred count seen (the paper's >1000 tail).
    pub max_count: u64,
}

/// Request counts per video with at least one analysis video flow, in
/// video-id order, read off the index's dense per-video column.
pub fn per_video_counts(index: &DatasetIndex) -> Vec<(VideoId, VideoCounts)> {
    index
        .dataset()
        .video_ids()
        .iter()
        .zip(index.video_counts())
        .filter(|(_, c)| c.total > 0)
        .map(|(&video, &c)| (video, c))
        .collect()
}

/// Computes the Figure 13 statistics from the index's per-video column.
pub fn nonpreferred_video_stats(index: &DatasetIndex) -> NonPreferredVideoStats {
    let nonpref: Vec<&VideoCounts> = index
        .video_counts()
        .iter()
        .filter(|c| c.non_preferred >= 1)
        .collect();
    let cdf = Cdf::from_values(nonpref.iter().map(|c| c.non_preferred as f64));
    let once = nonpref.iter().filter(|c| c.non_preferred == 1);
    let once_and_single = once.clone().filter(|c| c.total == 1).count();
    let exactly_once_and_single_access_fraction = match once.count() {
        0 => 0.0,
        n => once_and_single as f64 / n as f64,
    };
    NonPreferredVideoStats {
        max_count: cdf.try_max().unwrap_or(0.0) as u64,
        // Every count is at least 1, so F(1) is the exactly-once share.
        exactly_once_fraction: cdf.fraction_at_or_below(1.0),
        cdf,
        exactly_once_and_single_access_fraction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcmap::AnalysisContext;
    use ytcdn_cdnsim::{ScenarioConfig, StandardScenario};
    use ytcdn_telemetry::Telemetry;
    use ytcdn_tstat::{Dataset, DatasetName};

    fn stats(name: DatasetName) -> NonPreferredVideoStats {
        let s = StandardScenario::build(ScenarioConfig::with_scale(0.015, 13));
        let (ds, _) = s.run(name);
        let ctx = AnalysisContext::from_ground_truth(s.world(), &ds);
        let index = DatasetIndex::build(&ctx, ds, Telemetry::disabled());
        nonpreferred_video_stats(&index)
    }

    #[test]
    fn most_videos_redirected_exactly_once() {
        // Figure 13: for EU1-Campus ~85% of videos hitting a non-preferred
        // DC do so exactly once.
        let st = stats(DatasetName::Eu1Adsl);
        assert!(
            st.exactly_once_fraction > 0.55,
            "exactly-once fraction {}",
            st.exactly_once_fraction
        );
    }

    #[test]
    fn exactly_once_videos_are_single_access() {
        // "over 99% of these videos were accessed exactly once in the entire
        // dataset" — the cold-tail signature. Our synthetic tail is slightly
        // less extreme but strongly dominant.
        let st = stats(DatasetName::Eu1Adsl);
        assert!(
            st.exactly_once_and_single_access_fraction > 0.80,
            "single-access fraction {}",
            st.exactly_once_and_single_access_fraction
        );
    }

    #[test]
    fn long_tail_exists() {
        // The VotD flash crowds produce videos with many non-preferred
        // downloads.
        let st = stats(DatasetName::Eu1Adsl);
        assert!(
            st.max_count > 20,
            "max non-preferred count {}",
            st.max_count
        );
        assert!(st.max_count as f64 > st.cdf.median() * 10.0);
    }

    #[test]
    fn counts_are_consistent() {
        let s = StandardScenario::build(ScenarioConfig::with_scale(0.008, 13));
        let (ds, _) = s.run(DatasetName::Eu1Ftth);
        let ctx = AnalysisContext::from_ground_truth(s.world(), &ds);
        let index = DatasetIndex::build(&ctx, ds, Telemetry::disabled());
        let counts = per_video_counts(&index);
        for (v, c) in &counts {
            assert!(c.non_preferred <= c.total, "{v}: {c:?}");
            assert!(c.total >= 1);
        }
        assert!(counts.windows(2).all(|w| w[0].0 < w[1].0));
        // Totals match the context's flow accounting.
        let total_flows: u64 = counts.iter().map(|(_, c)| c.total).sum();
        let ctx_total: u64 = ctx.dcs().iter().map(|d| d.video_flows).sum();
        assert_eq!(total_flows, ctx_total);
    }

    #[test]
    fn empty_dataset() {
        let s = StandardScenario::build(ScenarioConfig::with_scale(0.008, 13));
        let (ds, _) = s.run(DatasetName::Eu1Ftth);
        let ctx = AnalysisContext::from_ground_truth(s.world(), &ds);
        let empty = Dataset::new(DatasetName::Eu1Ftth);
        let index = DatasetIndex::build(&ctx, empty, Telemetry::disabled());
        let st = nonpreferred_video_stats(&index);
        assert!(st.cdf.is_empty());
        assert_eq!(st.exactly_once_fraction, 0.0);
        assert_eq!(st.max_count, 0);
    }
}

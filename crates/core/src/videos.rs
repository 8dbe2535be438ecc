//! Per-video non-preferred access analysis (Figure 13).
//!
//! Section VII-C: counting, per video, how many times it was downloaded
//! from a non-preferred data center reveals two populations — a large mass
//! of videos redirected *exactly once* (cold tail content, repaired by
//! pull-through replication) and a long tail of videos redirected hundreds
//! of times (flash-crowd hot spots).

use std::collections::HashMap;

use ytcdn_tstat::{Dataset, VideoId};

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

/// Counts requests per video (analysis video flows only), reading each
/// flow's target off the index columns.
pub fn per_video_counts(index: &DatasetIndex, dataset: &Dataset) -> HashMap<VideoId, VideoCounts> {
    let mut out: HashMap<VideoId, VideoCounts> = HashMap::new();
    for (i, r) in dataset.iter().enumerate() {
        if !index.is_video_flow(i) {
            continue;
        }
        let Some(pref) = index.is_preferred_flow(i) else {
            continue;
        };
        let c = out.entry(r.video_id).or_default();
        c.total += 1;
        if !pref {
            c.non_preferred += 1;
        }
    }
    out
}

/// Computes the Figure 13 statistics. Every derived quantity is
/// order-independent (the CDF sorts its samples; the rest are counts), so
/// the per-video map's iteration order does not reach the output.
pub fn nonpreferred_video_stats(index: &DatasetIndex, dataset: &Dataset) -> NonPreferredVideoStats {
    let counts = per_video_counts(index, dataset);
    let nonpref: Vec<(&VideoId, &VideoCounts)> = counts
        .iter()
        .filter(|(_, c)| c.non_preferred >= 1)
        .collect();
    let cdf = Cdf::from_values(nonpref.iter().map(|(_, c)| c.non_preferred as f64));
    let once: Vec<_> = nonpref
        .iter()
        .filter(|(_, c)| c.non_preferred == 1)
        .collect();
    let exactly_once_fraction = if nonpref.is_empty() {
        0.0
    } else {
        once.len() as f64 / nonpref.len() as f64
    };
    let once_and_single = once.iter().filter(|(_, c)| c.total == 1).count();
    let exactly_once_and_single_access_fraction = if once.is_empty() {
        0.0
    } else {
        once_and_single as f64 / once.len() as f64
    };
    NonPreferredVideoStats {
        max_count: cdf.samples().last().copied().unwrap_or(0.0) as u64,
        cdf,
        exactly_once_fraction,
        exactly_once_and_single_access_fraction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcmap::AnalysisContext;
    use ytcdn_cdnsim::{ScenarioConfig, StandardScenario};
    use ytcdn_telemetry::Telemetry;
    use ytcdn_tstat::DatasetName;

    fn stats(name: DatasetName) -> NonPreferredVideoStats {
        let s = StandardScenario::build(ScenarioConfig::with_scale(0.015, 13));
        let (ds, _) = s.run(name);
        let ctx = AnalysisContext::from_ground_truth(s.world(), &ds);
        let index = DatasetIndex::build(&ctx, &ds, 2, Telemetry::disabled());
        nonpreferred_video_stats(&index, &ds)
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
        let index = DatasetIndex::build(&ctx, &ds, 2, Telemetry::disabled());
        let counts = per_video_counts(&index, &ds);
        for (v, c) in &counts {
            assert!(c.non_preferred <= c.total, "{v}: {c:?}");
            assert!(c.total >= 1);
        }
        // Totals match the context's flow accounting.
        let total_flows: u64 = counts.values().map(|c| c.total).sum();
        let ctx_total: u64 = ctx.dcs().iter().map(|d| d.video_flows).sum();
        assert_eq!(total_flows, ctx_total);
    }

    #[test]
    fn empty_dataset() {
        let s = StandardScenario::build(ScenarioConfig::with_scale(0.008, 13));
        let (ds, _) = s.run(DatasetName::Eu1Ftth);
        let ctx = AnalysisContext::from_ground_truth(s.world(), &ds);
        let empty = Dataset::new(DatasetName::Eu1Ftth);
        let index = DatasetIndex::build(&ctx, &empty, 2, Telemetry::disabled());
        let st = nonpreferred_video_stats(&index, &empty);
        assert!(st.cdf.is_empty());
        assert_eq!(st.exactly_once_fraction, 0.0);
        assert_eq!(st.max_count, 0);
    }
}

//! Trace characterization: the per-video and per-client statistics of the
//! measurement studies the paper builds on (Gill et al. IMC'07, Zink et
//! al. ComNet'09 — the paper's refs [3], [4]).
//!
//! The paper differentiates itself from these works ("we study the video
//! distribution infrastructure" instead), but its simulator must still
//! *produce* traces with the usage statistics those works established:
//! Zipf-like video popularity with a heavy one-hit tail, heavy-tailed
//! per-client activity, and strong day/night cycles. This module measures
//! them, both as a library feature and as the calibration check for the
//! workload generator.

use std::collections::HashMap;

use ytcdn_tstat::{Dataset, FlowClass, HOUR_MS};

use crate::stats::Cdf;

/// Summary of a trace's workload characteristics.
#[derive(Debug, Clone, PartialEq)]
pub struct Characterization {
    /// Requests-per-video CDF (video flows only).
    pub requests_per_video: Cdf,
    /// Fraction of videos requested exactly once (the one-hit tail).
    pub single_request_video_fraction: f64,
    /// Share of video flows going to the top 1 % most-requested videos.
    pub top1pct_video_share: f64,
    /// Bytes-per-client CDF.
    pub bytes_per_client: Cdf,
    /// Share of bytes from the top 10 % heaviest clients.
    pub top10pct_client_share: f64,
    /// Ratio of the busiest hour's video flows to the quietest hour's
    /// (within the observed span; empty hours count as quietest = 0 is
    /// excluded to keep the ratio finite).
    pub peak_to_trough: f64,
}

/// Characterizes a dataset.
pub fn characterize(dataset: &Dataset) -> Characterization {
    let mut per_video: HashMap<_, u64> = HashMap::new();
    let mut per_client: HashMap<_, u64> = HashMap::new();
    let mut per_hour: HashMap<u64, u64> = HashMap::new();
    let mut total_video_flows = 0u64;
    let mut total_bytes = 0u64;
    for r in dataset.iter() {
        *per_client.entry(r.client_ip).or_default() += r.bytes;
        total_bytes += r.bytes;
        if FlowClass::of_bytes(r.bytes) == FlowClass::Video {
            *per_video.entry(r.video_id).or_default() += 1;
            *per_hour.entry(r.start_ms / HOUR_MS).or_default() += 1;
            total_video_flows += 1;
        }
    }

    let mut video_counts: Vec<u64> = per_video.values().copied().collect();
    video_counts.sort_unstable_by(|a, b| b.cmp(a));
    let top1 = (video_counts.len() / 100).max(1);
    let top1pct_video_share = if total_video_flows == 0 {
        0.0
    } else {
        video_counts.iter().take(top1).sum::<u64>() as f64 / total_video_flows as f64
    };

    let mut client_bytes: Vec<u64> = per_client.values().copied().collect();
    client_bytes.sort_unstable_by(|a, b| b.cmp(a));
    let top10 = (client_bytes.len() / 10).max(1);
    let top10pct_client_share = if total_bytes == 0 {
        0.0
    } else {
        client_bytes.iter().take(top10).sum::<u64>() as f64 / total_bytes as f64
    };

    let peak = per_hour.values().copied().max().unwrap_or(0);
    let trough = per_hour
        .values()
        .copied()
        .filter(|&v| v > 0)
        .min()
        .unwrap_or(0);
    let peak_to_trough = if trough == 0 {
        0.0
    } else {
        peak as f64 / trough as f64
    };

    let requests_per_video = Cdf::from_values(per_video.values().map(|&c| c as f64));
    Characterization {
        // Every video counted has at least one request.
        single_request_video_fraction: requests_per_video.fraction_at_or_below(1.0),
        requests_per_video,
        top1pct_video_share,
        bytes_per_client: Cdf::from_values(client_bytes.iter().map(|&b| b as f64)),
        top10pct_client_share,
        peak_to_trough,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ytcdn_cdnsim::{ScenarioConfig, StandardScenario};
    use ytcdn_tstat::DatasetName;

    fn characterization() -> Characterization {
        let s = StandardScenario::build(ScenarioConfig::with_scale(0.01, 404));
        characterize(&s.run(DatasetName::Eu1Adsl).0)
    }

    #[test]
    fn popularity_is_zipf_like() {
        let c = characterization();
        // Heavy one-hit tail (Gill et al.: most videos are requested once
        // at the edge)...
        assert!(
            c.single_request_video_fraction > 0.5,
            "single-request fraction {}",
            c.single_request_video_fraction
        );
        // ...while the top 1% of videos carry a disproportionate share.
        assert!(
            c.top1pct_video_share > 0.05,
            "top-1% share {}",
            c.top1pct_video_share
        );
        assert!(c.requests_per_video.median() <= 2.0);
    }

    #[test]
    fn client_activity_is_heavy_tailed() {
        let c = characterization();
        assert!(
            c.top10pct_client_share > 0.3,
            "top-10% clients carry {}",
            c.top10pct_client_share
        );
        assert!(c.bytes_per_client.max() > 10.0 * c.bytes_per_client.median());
    }

    #[test]
    fn diurnal_cycle_visible() {
        let c = characterization();
        assert!(c.peak_to_trough > 3.0, "peak/trough {}", c.peak_to_trough);
    }

    #[test]
    fn empty_dataset_is_all_zero() {
        let c = characterize(&Dataset::new(DatasetName::Eu2));
        assert!(c.requests_per_video.is_empty());
        assert_eq!(c.single_request_video_fraction, 0.0);
        assert_eq!(c.top1pct_video_share, 0.0);
        assert_eq!(c.top10pct_client_share, 0.0);
        assert_eq!(c.peak_to_trough, 0.0);
    }
}

//! Hot-spot and per-server load analyses (Figures 14, 15, 16).
//!
//! Section VII-C traces the four videos with the most non-preferred
//! accesses (all "video of the day" flash crowds), shows that the maximum
//! per-server load in the preferred data center spikes far above the
//! average exactly then, and that the affected server's sessions switch
//! from all-preferred to (preferred → non-preferred) redirection patterns.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use ytcdn_tstat::{Dataset, VideoId, HOUR_MS};

use crate::index::DatasetIndex;
use crate::videos::per_video_counts;

/// The `k` videos with the highest number of non-preferred accesses
/// (the paper's Figure 14 selects the top 4), most-redirected first, among
/// the videos with an analysis video flow. Ties are broken by video id:
/// the per-video counts arrive in id order and the sort is stable.
pub fn top_nonpreferred_videos(
    index: &DatasetIndex,
    dataset: &Dataset,
    k: usize,
) -> Vec<(VideoId, u64)> {
    let mut v: Vec<(VideoId, u64)> = per_video_counts(index, dataset)
        .into_iter()
        .map(|(id, c)| (id, c.non_preferred))
        .collect();
    v.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    v.truncate(k);
    v
}

/// One hour of a single video's request series (a Figure 14 panel point).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VideoHour {
    /// All analysis video flows for the video this hour.
    pub all: u64,
    /// Those served by non-preferred data centers.
    pub non_preferred: u64,
}

/// Hourly request series for one video over the whole trace.
pub fn video_timeseries(index: &DatasetIndex, dataset: &Dataset, video: VideoId) -> Vec<VideoHour> {
    // A video outside the dictionary matches no flow.
    let rank = dataset.video_ids().binary_search(&video).ok();
    let video_ranks = &dataset.columns().video_ranks;
    index
        .hour_ranges()
        .iter()
        .map(|range| {
            let mut h = VideoHour::default();
            for i in range.clone() {
                if Some(video_ranks[i] as usize) != rank || !index.is_video_flow(i) {
                    continue;
                }
                let Some(pref) = index.is_preferred_flow(i) else {
                    continue;
                };
                h.all += 1;
                if !pref {
                    h.non_preferred += 1;
                }
            }
            h
        })
        .collect()
}

/// One hour of preferred-data-center per-server load (a Figure 15 point).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServerLoadHour {
    /// Mean requests per (seen) server of the preferred data center.
    pub avg: f64,
    /// Maximum requests at a single server.
    pub max: u64,
    /// The server carrying the maximum.
    pub max_server: Option<Ipv4Addr>,
}

/// Hourly average and maximum per-server request load in the preferred data
/// center. "Requests" counts every flow a server answers — control flows
/// included, since a redirecting server still served the request. Ties for
/// the maximum go to the lowest address.
pub fn preferred_server_load(index: &DatasetIndex, dataset: &Dataset) -> Vec<ServerLoadHour> {
    let pref_idx = index.preferred_index();
    let denominator = index.preferred_servers_seen().max(1) as f64;
    index
        .hour_ranges()
        .iter()
        .map(|range| {
            let mut m: BTreeMap<Ipv4Addr, u64> = BTreeMap::new();
            for i in range.clone() {
                if index.dc_of_flow(i) == Some(pref_idx) {
                    *m.entry(dataset.server_ip(i)).or_default() += 1;
                }
            }
            let total: u64 = m.values().sum();
            let (max_server, max) = m
                .into_iter()
                .max_by_key(|&(ip, n)| (n, std::cmp::Reverse(ip)))
                .map(|(ip, n)| (Some(ip), n))
                .unwrap_or((None, 0));
            ServerLoadHour {
                avg: total as f64 / denominator,
                max,
                max_server,
            }
        })
        .collect()
}

/// Hourly session-pattern breakdown at one server (Figure 16).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerSessionHour {
    /// Sessions touching the server whose flows all went to the preferred
    /// data center.
    pub all_preferred: u64,
    /// Sessions whose first flow hit the preferred data center but a later
    /// flow did not — the redirection signature.
    pub first_preferred_then_non: u64,
    /// Everything else.
    pub others: u64,
}

impl ServerSessionHour {
    /// Total sessions in the hour.
    pub fn total(&self) -> u64 {
        self.all_preferred + self.first_preferred_then_non + self.others
    }
}

/// Bins the index's default-gap sessions that touch `server` by start hour
/// and pattern, with per-flow targets read from the columns.
pub fn server_session_breakdown(
    index: &DatasetIndex,
    dataset: &Dataset,
    server: Ipv4Addr,
) -> Vec<ServerSessionHour> {
    let sessions = index.sessions();
    let last_hour = sessions
        .iter()
        .map(|s| s.start_ms / HOUR_MS)
        .max()
        .unwrap_or(0);
    let mut out = vec![ServerSessionHour::default(); last_hour as usize + 1];
    // A server outside the dictionary is touched by no session.
    let rank = dataset.server_ips().binary_search(&server).ok();
    let server_ranks = &dataset.columns().server_ranks;
    for s in sessions.iter() {
        let touches = |&i: &u32| Some(server_ranks[i as usize] as usize) == rank;
        if !s.flow_indices().iter().any(touches) {
            continue;
        }
        let slot = &mut out[(s.start_ms / HOUR_MS) as usize];
        // (first flow preferred, every flow preferred); `None` when a flow
        // left the analysis ASes.
        let tally = s
            .flow_indices()
            .iter()
            .try_fold((None, true), |(first, all), &i| {
                let p = index.is_preferred_flow(i as usize)?;
                Some((first.or(Some(p)), all && p))
            });
        match tally {
            Some((_, true)) => slot.all_preferred += 1,
            Some((Some(true), false)) => slot.first_preferred_then_non += 1,
            _ => slot.others += 1,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcmap::AnalysisContext;
    use ytcdn_cdnsim::{ScenarioConfig, StandardScenario};
    use ytcdn_telemetry::Telemetry;
    use ytcdn_tstat::DatasetName;

    fn setup() -> (StandardScenario, Dataset, DatasetIndex) {
        let s = StandardScenario::build(ScenarioConfig::with_scale(0.015, 3));
        let (ds, _) = s.run(DatasetName::Eu1Adsl);
        let ctx = AnalysisContext::from_ground_truth(s.world(), &ds);
        let index = DatasetIndex::build(&ctx, &ds, Telemetry::disabled());
        (s, ds, index)
    }

    #[test]
    fn top_videos_are_the_flash_crowds() {
        let (s, ds, index) = setup();
        let top = top_nonpreferred_videos(&index, &ds, 4);
        assert_eq!(top.len(), 4);
        // The promoted (video-of-the-day) catalog entries should dominate.
        let votd: Vec<u64> = s
            .world()
            .catalog()
            .votd()
            .windows()
            .iter()
            .map(|w| w.video.index())
            .collect();
        let hits = top
            .iter()
            .filter(|(v, _)| votd.contains(&v.index()))
            .count();
        assert!(hits >= 2, "only {hits} of top-4 are VotD: {top:?}");
        // Ordered by count.
        assert!(top.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn top_video_series_spikes_in_its_window() {
        let (s, ds, index) = setup();
        let top = top_nonpreferred_videos(&index, &ds, 1);
        let video = top[0].0;
        let series = video_timeseries(&index, &ds, video);
        // Find the VotD window for this video if it is one.
        if let Some(w) = s
            .world()
            .catalog()
            .votd()
            .windows()
            .iter()
            .find(|w| w.video == video)
        {
            let inside: u64 = series
                .iter()
                .enumerate()
                .filter(|(h, _)| {
                    (*h as u64) * HOUR_MS >= w.start_ms && (*h as u64) * HOUR_MS < w.end_ms
                })
                .map(|(_, v)| v.all)
                .sum();
            let outside: u64 = series.iter().map(|v| v.all).sum::<u64>() - inside;
            assert!(
                inside > outside * 3,
                "spike not confined: inside {inside} outside {outside}"
            );
        }
        // Non-preferred never exceeds total.
        assert!(series.iter().all(|v| v.non_preferred <= v.all));
    }

    #[test]
    fn max_server_load_spikes_above_average() {
        let (_, ds, index) = setup();
        let load = preferred_server_load(&index, &ds);
        let peak_ratio = load
            .iter()
            .filter(|h| h.avg > 0.5)
            .map(|h| h.max as f64 / h.avg)
            .fold(0.0f64, f64::max);
        // Figure 15: the peak server load is far above the mean (650 vs 50
        // in the paper).
        assert!(peak_ratio > 3.0, "peak/avg ratio {peak_ratio}");
    }

    #[test]
    fn hot_server_sessions_shift_to_redirection() {
        let (_, ds, index) = setup();
        let load = preferred_server_load(&index, &ds);
        let hot = load
            .iter()
            .max_by(|a, b| a.max.cmp(&b.max))
            .and_then(|h| h.max_server)
            .expect("some server saw load");
        let breakdown = server_session_breakdown(&index, &ds, hot);
        let redirected: u64 = breakdown.iter().map(|h| h.first_preferred_then_non).sum();
        let total: u64 = breakdown.iter().map(|h| h.total()).sum();
        assert!(total > 0);
        assert!(
            redirected > 0,
            "hot server shows no redirection: {breakdown:?}"
        );
    }

    #[test]
    fn empty_video_series() {
        let (_, ds, index) = setup();
        // A video that never appears: all-zero series.
        let series = video_timeseries(&index, &ds, VideoId::from_index(u64::MAX - 1));
        assert!(series.iter().all(|v| v.all == 0 && v.non_preferred == 0));
    }
}

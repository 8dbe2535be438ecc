//! Hot-spot and per-server load analyses (Figures 14, 15, 16).
//!
//! Section VII-C traces the four videos with the most non-preferred
//! accesses (all "video of the day" flash crowds), shows that the maximum
//! per-server load in the preferred data center spikes far above the
//! average exactly then, and that the affected server's sessions switch
//! from all-preferred to (preferred → non-preferred) redirection patterns.

use std::net::Ipv4Addr;

use ytcdn_tstat::{VideoId, HOUR_MS};

use crate::index::DatasetIndex;
use crate::videos::per_video_counts;

/// The `k` videos with the highest number of non-preferred accesses
/// (the paper's Figure 14 selects the top 4), most-redirected first, among
/// the videos with an analysis video flow. Ties are broken by video id:
/// the per-video counts arrive in id order and the sort is stable.
pub fn top_nonpreferred_videos(index: &DatasetIndex, k: usize) -> Vec<(VideoId, u64)> {
    let mut v: Vec<(VideoId, u64)> = per_video_counts(index)
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
pub fn video_timeseries(index: &DatasetIndex, video: VideoId) -> Vec<VideoHour> {
    let dataset = index.dataset();
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
///
/// Each hour tallies its flows in a counter per server-dictionary rank,
/// shared by all hours: the ranks an hour touched are read, then zeroed.
/// The dictionary is sorted by address, so the lowest rank is the lowest
/// address.
pub fn preferred_server_load(index: &DatasetIndex) -> Vec<ServerLoadHour> {
    let pref_idx = index.preferred_index();
    let denominator = index.preferred_servers_seen().max(1) as f64;
    let dataset = index.dataset();
    let servers = dataset.server_ips();
    let preferred: Vec<bool> = (0..servers.len())
        .map(|rank| index.dc_of_server(rank) == Some(pref_idx))
        .collect();
    let server_ranks = &dataset.columns().server_ranks;
    let mut load = vec![0u64; servers.len()];
    let mut touched: Vec<usize> = Vec::new();
    index
        .hour_ranges()
        .iter()
        .map(|range| {
            for &rank in &server_ranks[range.clone()] {
                let rank = rank as usize;
                if preferred[rank] {
                    if load[rank] == 0 {
                        touched.push(rank);
                    }
                    load[rank] += 1;
                }
            }
            let total: u64 = touched.iter().map(|&rank| load[rank]).sum();
            let top = touched
                .iter()
                .map(|&rank| (load[rank], std::cmp::Reverse(rank)))
                .max();
            for rank in touched.drain(..) {
                load[rank] = 0;
            }
            ServerLoadHour {
                avg: total as f64 / denominator,
                max: top.map_or(0, |(max, _)| max),
                max_server: top.map(|(_, rank)| servers[rank.0]),
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
pub fn server_session_breakdown(index: &DatasetIndex, server: Ipv4Addr) -> Vec<ServerSessionHour> {
    let dataset = index.dataset();
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
    use ytcdn_tstat::{Dataset, DatasetName};

    fn setup() -> (StandardScenario, DatasetIndex) {
        let s = StandardScenario::build(ScenarioConfig::with_scale(0.015, 3));
        let (ds, _) = s.run(DatasetName::Eu1Adsl);
        let ctx = AnalysisContext::from_ground_truth(s.world(), &ds);
        let index = DatasetIndex::build(&ctx, ds, Telemetry::disabled());
        (s, index)
    }

    #[test]
    fn top_videos_are_the_flash_crowds() {
        let (s, index) = setup();
        let top = top_nonpreferred_videos(&index, 4);
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
        let (s, index) = setup();
        let top = top_nonpreferred_videos(&index, 1);
        let video = top[0].0;
        let series = video_timeseries(&index, video);
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
        let (_, index) = setup();
        let load = preferred_server_load(&index);
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
        let (_, index) = setup();
        let load = preferred_server_load(&index);
        let hot = load
            .iter()
            .max_by(|a, b| a.max.cmp(&b.max))
            .and_then(|h| h.max_server)
            .expect("some server saw load");
        let breakdown = server_session_breakdown(&index, hot);
        let redirected: u64 = breakdown.iter().map(|h| h.first_preferred_then_non).sum();
        let total: u64 = breakdown.iter().map(|h| h.total()).sum();
        assert!(total > 0);
        assert!(
            redirected > 0,
            "hot server shows no redirection: {breakdown:?}"
        );
    }

    /// The per-hour ordered-map fold [`preferred_server_load`] replaced,
    /// kept as its oracle.
    fn preferred_server_load_by_map(index: &DatasetIndex) -> Vec<ServerLoadHour> {
        use std::collections::BTreeMap;
        let dataset = index.dataset();
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

    #[test]
    fn server_load_matches_the_map_oracle() {
        let s = StandardScenario::build(ScenarioConfig::with_scale(0.006, 9));
        for name in DatasetName::ALL {
            let (ds, _) = s.run(name);
            let ctx = AnalysisContext::from_ground_truth(s.world(), &ds);
            let index = DatasetIndex::build(&ctx, ds, Telemetry::disabled());
            assert_eq!(
                preferred_server_load(&index),
                preferred_server_load_by_map(&index),
                "{name}"
            );
        }
    }

    #[test]
    fn server_load_ties_go_to_the_lowest_address() {
        use ytcdn_tstat::{FlowRecord, Resolution};
        // Hour 0: .9 and .3 tie at two flows each, .5 has one; hour 1: .7
        // alone; hour 2: nothing. The ties arrive highest address first.
        let (s, index) = setup();
        let ds = index.dataset();
        let ctx = AnalysisContext::from_ground_truth(s.world(), ds);
        let preferred: Vec<Ipv4Addr> = ds
            .server_ips()
            .iter()
            .zip(ctx.server_dcs(ds.server_ips()))
            .filter(|&(_, dc)| dc == Some(ctx.preferred().index))
            .map(|(&ip, _)| ip)
            .take(4)
            .collect();
        assert_eq!(preferred.len(), 4, "four preferred servers");
        let (low, mid, high, other) = (preferred[0], preferred[1], preferred[2], preferred[3]);
        let flow = |server: Ipv4Addr, start_ms: u64| FlowRecord {
            client_ip: Ipv4Addr::new(10, 0, 0, 1),
            server_ip: server,
            start_ms,
            end_ms: start_ms + 10,
            bytes: 5_000,
            video_id: VideoId::from_index(1),
            resolution: Resolution::R360,
        };
        let records = vec![
            flow(high, 0),
            flow(high, 1),
            flow(mid, 2),
            flow(low, 3),
            flow(low, 4),
            flow(other, HOUR_MS + 5),
        ];
        let small = Dataset::from_records(ds.name(), records);
        let small_ctx = AnalysisContext::from_ground_truth(s.world(), &small);
        let index = DatasetIndex::build(&small_ctx, small, Telemetry::disabled());
        let load = preferred_server_load(&index);
        assert_eq!(load, preferred_server_load_by_map(&index));
        assert_eq!(load.len(), 2);
        assert_eq!((load[0].max, load[0].max_server), (2, Some(low)));
        assert_eq!((load[1].max, load[1].max_server), (1, Some(other)));
    }

    #[test]
    fn empty_video_series() {
        let (_, index) = setup();
        // A video that never appears: all-zero series.
        let series = video_timeseries(&index, VideoId::from_index(u64::MAX - 1));
        assert!(series.iter().all(|v| v.all == 0 && v.non_preferred == 0));
    }
}

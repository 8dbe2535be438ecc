//! Differential harness: the columnar analysis index vs naive references.
//!
//! The [`DatasetIndex`] contract mirrors the simulator's: byte identity
//! for any worker count. Session grouping must reproduce a naive
//! hash-bucket reference grouper; the index's gap sweep
//! must reproduce the direct flows-per-session CDF at every gap; every
//! figure analysis must equal what a naive per-flow table, built from the
//! context's own probes, derives; and the whole experiment suite must emit
//! byte-identical reports whether built and run with one thread or many.

use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;

use ytcdn_cdnsim::{ScenarioConfig, StandardScenario, World};
use ytcdn_core::columnar::{YtcFile, YtcHeader};
use ytcdn_core::degenerate::DegenerateShape;
use ytcdn_core::experiments::{
    ExperimentSuite, SuiteConfig, ALL_EXPERIMENTS, EXTENSION_EXPERIMENTS,
};
use ytcdn_core::hotspot::{
    preferred_server_load, server_session_breakdown, top_nonpreferred_videos, video_timeseries,
    ServerLoadHour, ServerSessionHour, VideoHour,
};
use ytcdn_core::index::{DatasetIndex, DEFAULT_GAP_MS};
use ytcdn_core::patterns::PatternStats;
use ytcdn_core::scorecard::{render_scorecard, scorecard};
use ytcdn_core::session::{flows_per_session, group_sessions, Sessions};
use ytcdn_core::subnet::{subnet_shares, SubnetShare};
use ytcdn_core::timeseries::{hourly_samples, nonpreferred_fraction_cdf, HourSample};
use ytcdn_core::videos::{
    nonpreferred_video_stats, per_video_counts, NonPreferredVideoStats, VideoCounts,
};
use ytcdn_core::{AnalysisContext, Cdf, Observatory};
use ytcdn_telemetry::Telemetry;
use ytcdn_tstat::{Dataset, DatasetName, FlowRecord, Resolution, VideoId, HOUR_MS};

/// The (scale, seed) pairs the per-dataset cases cover.
const CASES: [(f64, u64); 2] = [(0.004, 2), (0.008, 55)];

/// The gap thresholds the sweep is checked at: zero, the smallest step,
/// both sides of the paper's `T = 1 s`, and the Figure 5 tail.
const SWEEP_GAPS_MS: [u64; 8] = [0, 1, 500, 1_000, 5_000, 10_000, 60_000, 300_000];

fn scenario(scale: f64, seed: u64) -> StandardScenario {
    StandardScenario::build(ScenarioConfig::with_scale(scale, seed))
}

/// One session as the naive grouper builds it: an owned struct with its
/// own `Vec` of flow indices, independent of the library's column layout.
#[derive(Debug)]
struct NaiveSession {
    client_ip: Ipv4Addr,
    video_id: VideoId,
    flow_indices: Vec<usize>,
    start_ms: u64,
    end_ms: u64,
}

/// The naive reference grouper: bucket flow indices by (client, video) in
/// a hash map (each bucket fills in ascending, i.e. start-time, order),
/// scan every bucket once against the gap, and sort the sessions by the
/// canonical `(start_ms, end_ms, client_ip, video_id)` key. Obvious rather
/// than fast; the library's sort-based grouper must match it exactly.
fn naive_group_sessions(ds: &Dataset, gap_ms: u64) -> Vec<NaiveSession> {
    let mut buckets: HashMap<(Ipv4Addr, VideoId), Vec<usize>> = HashMap::new();
    for (i, r) in ds.iter().enumerate() {
        buckets
            .entry((r.client_ip, r.video_id))
            .or_default()
            .push(i);
    }
    let mut sessions: Vec<NaiveSession> = Vec::new();
    for ((client_ip, video_id), indices) in buckets {
        let mut current: Option<NaiveSession> = None;
        for idx in indices {
            let r = ds.row(idx);
            match current.as_mut() {
                Some(s) if r.start_ms <= s.end_ms.saturating_add(gap_ms) => {
                    s.flow_indices.push(idx);
                    s.end_ms = s.end_ms.max(r.end_ms);
                }
                _ => {
                    sessions.extend(current.take());
                    current = Some(NaiveSession {
                        client_ip,
                        video_id,
                        flow_indices: vec![idx],
                        start_ms: r.start_ms,
                        end_ms: r.end_ms,
                    });
                }
            }
        }
        sessions.extend(current);
    }
    sessions.sort_by_key(|s| (s.start_ms, s.end_ms, s.client_ip, s.video_id));
    sessions
}

/// Asserts the library's sessions equal the oracle's, field by field and
/// flow by flow, in the same order.
fn assert_sessions_match(sessions: &Sessions, oracle: &[NaiveSession], label: &str) {
    assert_eq!(sessions.len(), oracle.len(), "{label}: session count");
    for (k, (s, o)) in sessions.iter().zip(oracle).enumerate() {
        assert_eq!(
            (s.client_ip, s.video_id, s.start_ms, s.end_ms),
            (o.client_ip, o.video_id, o.start_ms, o.end_ms),
            "{label}: session {k}"
        );
        assert!(
            s.flow_indices()
                .iter()
                .map(|&i| i as usize)
                .eq(o.flow_indices.iter().copied()),
            "{label}: session {k} flows {:?} vs {:?}",
            s.flow_indices(),
            o.flow_indices
        );
    }
}

/// Asserts the grouper equals the naive oracle, and counts the dataset's
/// distinct clients as `Dataset::distinct_clients` does.
fn assert_grouping_matches_oracle(ds: &Dataset, gap_ms: u64, label: &str) {
    let sessions = group_sessions(ds, gap_ms);
    assert_sessions_match(
        &sessions,
        &naive_group_sessions(ds, gap_ms),
        &format!("{label} gap={gap_ms}"),
    );
    assert_eq!(
        sessions.distinct_clients(),
        ds.distinct_clients(),
        "{label} gap={gap_ms}: distinct clients"
    );
}

/// Asserts the index's one-walk sweep equals the direct per-gap CDF.
fn assert_sweep_matches_direct(index: &DatasetIndex, label: &str) {
    let ds = index.dataset();
    let swept = index.flows_per_session_sweep(&SWEEP_GAPS_MS);
    assert_eq!(swept.len(), SWEEP_GAPS_MS.len(), "{label}");
    for (gap_ms, cdf) in SWEEP_GAPS_MS.iter().zip(&swept) {
        assert_eq!(cdf, &flows_per_session(ds, *gap_ms), "{label} gap={gap_ms}");
    }
}

fn flow(client: [u8; 4], video: u64, start_ms: u64, end_ms: u64) -> FlowRecord {
    FlowRecord {
        client_ip: Ipv4Addr::from(client),
        server_ip: Ipv4Addr::new(74, 125, 0, 1),
        start_ms,
        end_ms,
        bytes: 1_000,
        video_id: VideoId::from_index(video),
        resolution: Resolution::R360,
    }
}

/// Flows at the edges of the grouper's `(client, video, index)` sort key:
/// the lowest and highest client addresses and video ids, one client
/// interleaving many videos, and ties on start time within and across
/// buckets.
fn packed_key_edge_cases() -> Dataset {
    let mut records = Vec::new();
    for client in [[0, 0, 0, 0], [255, 255, 255, 255]] {
        for video in [0, u64::MAX] {
            for (start, end) in [(0, 100), (600, 700), (5_000, 9_000), (5_000, 5_500)] {
                records.push(flow(client, video, start, end));
            }
        }
    }
    // One client cycling through twelve videos: consecutive flows in
    // record order always belong to different buckets.
    for k in 0..60u64 {
        let start = 20_000 + k * 250;
        records.push(flow([10, 0, 0, 1], k % 12, start, start + 400));
    }
    // Equal start times: one bucket with three simultaneous flows, and
    // three buckets starting together.
    for end in [90_100, 90_050, 99_000] {
        records.push(flow([10, 0, 0, 2], 7, 90_000, end));
    }
    for client in [[10, 0, 0, 3], [10, 0, 0, 4], [10, 0, 0, 5]] {
        records.push(flow(client, u64::MAX, 90_000, 90_400));
    }
    // Two buckets whose packed keys would collide if the client field
    // overlapped the video field by one bit (client 0.0.0.0 with video
    // 2^63, client 0.0.0.1 with video 0), alternating in time.
    for k in 0..6u64 {
        let start = 120_000 + k * 300;
        let (client, video) = if k % 2 == 0 {
            ([0, 0, 0, 0], 1 << 63)
        } else {
            ([0, 0, 0, 1], 0)
        };
        records.push(flow(client, video, start, start + 200));
    }
    Dataset::from_records(DatasetName::UsCampus, records)
}

#[test]
fn grouping_matches_oracle_on_simulated_datasets() {
    for (scale, seed) in CASES {
        let s = scenario(scale, seed);
        for name in DatasetName::ALL {
            let (ds, _) = s.run(name);
            for gap_ms in [DEFAULT_GAP_MS, 10_000] {
                assert_grouping_matches_oracle(
                    &ds,
                    gap_ms,
                    &format!("{name} scale={scale} seed={seed}"),
                );
            }
        }
    }
}

#[test]
fn grouping_matches_oracle_on_packed_key_edge_cases() {
    let ds = packed_key_edge_cases();
    for gap_ms in SWEEP_GAPS_MS {
        assert_grouping_matches_oracle(&ds, gap_ms, "edge cases");
    }
    // The extreme keys survive into the sessions intact.
    let sessions = group_sessions(&ds, DEFAULT_GAP_MS);
    for client in [Ipv4Addr::UNSPECIFIED, Ipv4Addr::BROADCAST] {
        for video in [VideoId::from_index(0), VideoId::from_index(u64::MAX)] {
            let sizes: Vec<usize> = sessions
                .iter()
                .filter(|s| s.client_ip == client && s.video_id == video)
                .map(|s| s.flow_count())
                .collect();
            assert_eq!(sizes, [2, 2], "{client} {video:?}");
        }
    }
}

/// A few clients over an address span of `span`, their buckets
/// interleaved in time. For a dataset this small the grouper ranks clients
/// through a dense table while the span is at most 2^20 addresses, and
/// through a sort of the distinct addresses beyond that.
fn client_span_dataset(span: u32) -> Dataset {
    let base = u32::from(Ipv4Addr::new(10, 0, 0, 0));
    let clients = [base + span - 1, base, base + span / 2, base + 1];
    let records = (0..48u64)
        .map(|k| {
            let start = k * 400;
            let client = Ipv4Addr::from(clients[(k % 4) as usize]).octets();
            flow(client, k % 3, start, start + 300 + (k % 5) * 500)
        })
        .collect();
    Dataset::from_records(DatasetName::UsCampus, records)
}

/// Every flow in one (client, video) bucket, so only the gap cuts
/// sessions: steps of 0 to 60 s between starts, durations of 0 to 30 s,
/// and flows contained in earlier ones.
fn one_bucket() -> Dataset {
    let mut start = 0;
    let records = (0..80usize)
        .map(|k| {
            start += [0, 1, 499, 500, 501, 1_000, 1_001, 4_000, 60_000][k % 9];
            let end = start + [0, 100, 2_000, 30_000][k % 4];
            flow([192, 168, 1, 1], 42, start, end)
        })
        .collect();
    Dataset::from_records(DatasetName::UsCampus, records)
}

/// Sessions of different buckets that share a `start_ms`. Canonical order
/// breaks such a tie by end, then client, then video. The flows' own order
/// breaks it by the first flow's end and then input order, so the two
/// differ here: equal starts and ends listed in descending client and
/// video order, and a session whose first flow ends first but whose later
/// flow ends last.
fn start_ties() -> Dataset {
    let mut records = Vec::new();
    for (client, video) in [
        ([10, 0, 0, 9], 5),
        ([10, 0, 0, 9], 1),
        ([10, 0, 0, 2], 7),
        ([10, 0, 0, 1], 7),
    ] {
        records.push(flow(client, video, 1_000, 2_000));
    }
    records.push(flow([10, 0, 0, 5], 3, 1_000, 1_100));
    records.push(flow([10, 0, 0, 5], 3, 1_500, 9_000));
    records.push(flow([10, 0, 0, 6], 3, 1_000, 1_200));
    records.push(flow([10, 0, 0, 4], 3, 1_000, 1_200));
    for k in 0..20u8 {
        let end = 50_000 + u64::from(k % 3) * 10;
        records.push(flow([10, 0, 1, 20 - k], u64::from(k % 4), 50_000, end));
    }
    Dataset::from_records(DatasetName::UsCampus, records)
}

#[test]
fn grouping_matches_oracle_on_both_client_rank_paths() {
    // 2^20 addresses is the widest span the dense table takes at this
    // size; one more takes the sort, as the edge cases' full span does.
    for span in [2, 1 << 20, (1 << 20) + 1] {
        let ds = client_span_dataset(span);
        for gap_ms in SWEEP_GAPS_MS {
            assert_grouping_matches_oracle(&ds, gap_ms, &format!("client span {span}"));
        }
    }
    // Every simulated vantage point's clients take the table.
    let s = scenario(0.004, 2);
    for name in DatasetName::ALL {
        let (ds, _) = s.run(name);
        for gap_ms in SWEEP_GAPS_MS {
            assert_grouping_matches_oracle(&ds, gap_ms, &format!("{name}"));
        }
    }
}

#[test]
fn grouping_matches_oracle_on_one_bucket_and_start_ties() {
    for (label, ds) in [("one bucket", one_bucket()), ("start ties", start_ties())] {
        for gap_ms in SWEEP_GAPS_MS {
            assert_grouping_matches_oracle(&ds, gap_ms, label);
        }
    }
    let sessions = group_sessions(&one_bucket(), 0);
    let mut flows: Vec<u32> = sessions
        .iter()
        .flat_map(|s| s.flow_indices().to_vec())
        .collect();
    flows.sort_unstable();
    assert!(flows.iter().copied().eq(0..80), "every flow in one session");
    assert!(
        sessions.len() > 1 && sessions.len() < 80,
        "the gap cuts the bucket"
    );
    // The tie rule decides the order of the sessions starting at 1 s.
    let tied: Vec<(u64, Ipv4Addr, u64)> = group_sessions(&start_ties(), DEFAULT_GAP_MS)
        .iter()
        .filter(|s| s.start_ms == 1_000)
        .map(|s| (s.end_ms, s.client_ip, s.video_id.index()))
        .collect();
    let mut sorted = tied.clone();
    sorted.sort_unstable();
    assert_eq!(tied, sorted);
    assert_eq!(tied.len(), 7);
    assert_eq!(tied[6], (9_000, Ipv4Addr::new(10, 0, 0, 5), 3));
}

#[test]
fn sweep_matches_direct_flows_per_session() {
    for (scale, seed) in CASES {
        let s = scenario(scale, seed);
        for name in DatasetName::ALL {
            let (ds, _) = s.run(name);
            let ctx = AnalysisContext::from_ground_truth(s.world(), &ds);
            let index = DatasetIndex::build(&ctx, ds, Telemetry::disabled());
            assert_sweep_matches_direct(&index, &format!("{name} scale={scale} seed={seed}"));
        }
    }
    // Degenerate and edge-case datasets, indexed against a real context.
    let s = scenario(0.004, 2);
    let ctx = AnalysisContext::from_ground_truth(s.world(), &s.run(DatasetName::UsCampus).0);
    let single = Dataset::from_records(DatasetName::UsCampus, vec![flow([10, 0, 0, 1], 3, 0, 100)]);
    for (label, ds) in [
        ("empty", Dataset::new(DatasetName::UsCampus)),
        ("single flow", single),
        ("edge cases", packed_key_edge_cases()),
        ("one bucket", one_bucket()),
        ("start ties", start_ties()),
        ("client span 2^20 + 1", client_span_dataset((1 << 20) + 1)),
    ] {
        let index = DatasetIndex::build(&ctx, ds, Telemetry::disabled());
        assert_sweep_matches_direct(&index, label);
    }
}

/// One row of the naive per-flow table: the context's verdict on a flow
/// plus the record fields the figures key on.
struct FlowRow {
    hour: usize,
    client: Ipv4Addr,
    video: VideoId,
    server: Ipv4Addr,
    /// `ctx.is_video`.
    is_video: bool,
    /// `ctx.is_preferred`: `None` outside the analysis ASes.
    target: Option<bool>,
}

impl FlowRow {
    /// The target of an analysis video flow — what the hourly, per-video
    /// and per-video-hour counts tally; `None` for every other flow.
    fn video_target(&self) -> Option<bool> {
        self.target.filter(|_| self.is_video)
    }
}

fn flow_table(ctx: &AnalysisContext, ds: &Dataset) -> Vec<FlowRow> {
    ds.iter()
        .map(|r| FlowRow {
            hour: (r.start_ms / HOUR_MS) as usize,
            client: r.client_ip,
            video: r.video_id,
            server: r.server_ip,
            is_video: ctx.is_video(&r),
            target: ctx.is_preferred(&r),
        })
        .collect()
}

/// Builds `ds`'s context and index the way the suite does, then asserts
/// every figure analysis equals what the naive per-flow table derives.
fn assert_analyses_match_oracle(world: &World, ds: Dataset, label: &str) {
    let ctx = AnalysisContext::from_ground_truth(world, &ds);
    let index = DatasetIndex::build(&ctx, ds, Telemetry::disabled());
    let ds = index.dataset();
    let table = flow_table(&ctx, ds);
    let hours = table.iter().map(|f| f.hour + 1).max().unwrap_or(1);

    // Figures 9 and 11: per-hour preferred / non-preferred video flows.
    let mut samples: Vec<HourSample> = (0..hours as u64)
        .map(|hour| HourSample {
            hour,
            preferred: 0,
            non_preferred: 0,
        })
        .collect();
    for f in &table {
        match f.video_target() {
            Some(true) => samples[f.hour].preferred += 1,
            Some(false) => samples[f.hour].non_preferred += 1,
            None => {}
        }
    }
    assert_eq!(hourly_samples(&index), samples, "{label}: hourly samples");
    let fractions = samples
        .iter()
        .filter_map(HourSample::non_preferred_fraction);
    assert_eq!(
        nonpreferred_fraction_cdf(&index),
        Cdf::from_values(fractions),
        "{label}: Figure 9 CDF"
    );

    // Figure 13: per-video counts and their summary.
    let mut counts: BTreeMap<VideoId, VideoCounts> = BTreeMap::new();
    for f in &table {
        if let Some(preferred) = f.video_target() {
            let c = counts.entry(f.video).or_default();
            c.total += 1;
            c.non_preferred += u64::from(!preferred);
        }
    }
    let got: BTreeMap<VideoId, VideoCounts> = per_video_counts(&index).into_iter().collect();
    assert_eq!(got, counts, "{label}: per-video counts");
    let redirected: Vec<&VideoCounts> = counts.values().filter(|c| c.non_preferred > 0).collect();
    let once: Vec<&&VideoCounts> = redirected.iter().filter(|c| c.non_preferred == 1).collect();
    let single_access = once.iter().filter(|c| c.total == 1).count();
    let fraction = |n: usize, of: usize| if of == 0 { 0.0 } else { n as f64 / of as f64 };
    let want = NonPreferredVideoStats {
        cdf: Cdf::from_values(redirected.iter().map(|c| c.non_preferred as f64)),
        exactly_once_fraction: fraction(once.len(), redirected.len()),
        exactly_once_and_single_access_fraction: fraction(single_access, once.len()),
        max_count: redirected
            .iter()
            .map(|c| c.non_preferred)
            .max()
            .unwrap_or(0),
    };
    assert_eq!(
        nonpreferred_video_stats(&index),
        want,
        "{label}: Figure 13 stats"
    );

    // Figure 14: the four most-redirected videos (ties by id) and their
    // hourly series, plus one video that never appears.
    let mut top: Vec<(VideoId, u64)> = counts.iter().map(|(v, c)| (*v, c.non_preferred)).collect();
    top.sort_by_key(|&(video, n)| (std::cmp::Reverse(n), video));
    top.truncate(4);
    assert_eq!(
        top_nonpreferred_videos(&index, 4),
        top,
        "{label}: top videos"
    );
    let absent = VideoId::from_index(u64::MAX - 1);
    for video in top.iter().map(|t| t.0).chain([absent]) {
        let mut series = vec![VideoHour::default(); hours];
        for f in table.iter().filter(|f| f.video == video) {
            if let Some(preferred) = f.video_target() {
                series[f.hour].all += 1;
                series[f.hour].non_preferred += u64::from(!preferred);
            }
        }
        assert_eq!(
            video_timeseries(&index, video),
            series,
            "{label}: series of {video:?}"
        );
    }

    // Figure 12: each subnet's share of the analysis video flows and of
    // the non-preferred ones; a client belongs to the first subnet whose
    // block holds it.
    let subnets = &world.vantage(ds.name()).subnets;
    let mut all = vec![0u64; subnets.len()];
    let mut nonpref = vec![0u64; subnets.len()];
    for f in &table {
        let Some(preferred) = f.video_target() else {
            continue;
        };
        if let Some(k) = subnets.iter().position(|s| s.block.contains(f.client)) {
            all[k] += 1;
            nonpref[k] += u64::from(!preferred);
        }
    }
    let share = |n: u64, of: u64| if of == 0 { 0.0 } else { n as f64 / of as f64 };
    let (total_all, total_nonpref) = (all.iter().sum(), nonpref.iter().sum());
    let want: Vec<SubnetShare> = subnets
        .iter()
        .zip(all.iter().zip(&nonpref))
        .map(|(s, (&a, &np))| SubnetShare {
            name: s.name.to_owned(),
            share_of_all_flows: share(a, total_all),
            share_of_nonpreferred_flows: share(np, total_nonpref),
        })
        .collect();
    assert_eq!(
        subnet_shares(&index, subnets),
        want,
        "{label}: Figure 12 shares"
    );

    // Figure 15: per-hour load of the preferred data center's servers,
    // control flows included; the busiest server of an hour is the first
    // (lowest) address to reach the maximum.
    let mut per_hour: Vec<BTreeMap<Ipv4Addr, u64>> = vec![BTreeMap::new(); hours];
    for f in table.iter().filter(|f| f.target == Some(true)) {
        *per_hour[f.hour].entry(f.server).or_default() += 1;
    }
    let servers_seen = ctx.preferred().servers_seen.max(1) as f64;
    let load: Vec<ServerLoadHour> = per_hour
        .iter()
        .map(|m| {
            let busiest = m.iter().fold(None, |best, (&ip, &n)| match best {
                Some((_, most)) if most >= n => best,
                _ => Some((ip, n)),
            });
            ServerLoadHour {
                avg: m.values().sum::<u64>() as f64 / servers_seen,
                max: busiest.map_or(0, |(_, n)| n),
                max_server: busiest.map(|(ip, _)| ip),
            }
        })
        .collect();
    assert_eq!(preferred_server_load(&index), load, "{label}: server load");

    // Figures 6 and 10: the default-gap sessions and their pattern classes.
    let sessions = naive_group_sessions(ds, DEFAULT_GAP_MS);
    assert_sessions_match(index.sessions(), &sessions, label);
    let targets = |s: &NaiveSession| -> Option<Vec<bool>> {
        s.flow_indices.iter().map(|&i| table[i].target).collect()
    };
    let mut patterns = PatternStats::default();
    for t in sessions.iter().map(targets) {
        let Some(t) = t else {
            patterns.excluded += 1;
            continue;
        };
        patterns.total += 1;
        match t[..] {
            [true] => patterns.one_flow.preferred += 1,
            [false] => patterns.one_flow.non_preferred += 1,
            [true, true] => patterns.two_flow.pp += 1,
            [true, false] => patterns.two_flow.pn += 1,
            [false, true] => patterns.two_flow.np += 1,
            [false, false] => patterns.two_flow.nn += 1,
            _ => {
                patterns.three_plus += 1;
                patterns.three_plus_first_preferred_then_non +=
                    u64::from(t[0] && t.contains(&false));
            }
        }
    }
    assert_eq!(index.patterns(), patterns, "{label}: patterns");

    // Figure 16: sessions by start hour and pattern at the busiest server,
    // and at the first non-preferred server seen (where sessions that
    // start away from the preferred data center show up).
    let hot = load
        .iter()
        .max_by_key(|h| h.max)
        .and_then(|h| h.max_server)
        .unwrap_or(Ipv4Addr::UNSPECIFIED);
    let away = table
        .iter()
        .find(|f| f.target == Some(false))
        .map_or(Ipv4Addr::UNSPECIFIED, |f| f.server);
    let session_hours = sessions
        .iter()
        .map(|s| (s.start_ms / HOUR_MS) as usize + 1)
        .max()
        .unwrap_or(1);
    for server in [hot, away] {
        let mut breakdown = vec![ServerSessionHour::default(); session_hours];
        for s in &sessions {
            if !s.flow_indices.iter().any(|&i| table[i].server == server) {
                continue;
            }
            let slot = &mut breakdown[(s.start_ms / HOUR_MS) as usize];
            match targets(s) {
                Some(t) if !t.contains(&false) => slot.all_preferred += 1,
                Some(t) if t[0] => slot.first_preferred_then_non += 1,
                _ => slot.others += 1,
            }
        }
        assert_eq!(
            server_session_breakdown(&index, server),
            breakdown,
            "{label}: breakdown at {server}"
        );
    }
}

#[test]
fn analyses_match_naive_oracle() {
    for (scale, seed) in CASES {
        let s = scenario(scale, seed);
        for name in DatasetName::ALL {
            let (ds, _) = s.run(name);
            let label = format!("{name} scale={scale} seed={seed}");
            for shape in [DegenerateShape::Empty, DegenerateShape::SingleFlow] {
                let degenerate = shape.apply(Observatory::new(s.world()), ds.clone());
                assert_analyses_match_oracle(s.world(), degenerate, &format!("{label} {shape}"));
            }
            assert_analyses_match_oracle(s.world(), ds, &label);
        }
    }
    let s = scenario(0.004, 2);
    assert_analyses_match_oracle(s.world(), packed_key_edge_cases(), "edge cases");
}

/// The acceptance criterion: every experiment's report is byte-identical
/// between a single-threaded suite and a many-threaded one, whether the
/// experiments themselves run via `run` or concurrently via `run_many`.
/// A `jobs` far above the CPU count is capped there, never one thread per
/// requested job.
#[test]
fn suite_reports_identical_sequential_vs_parallel() {
    for (scale, seed) in [(0.003, 7), (0.004, 2)] {
        let config = |jobs| SuiteConfig {
            scenario: ScenarioConfig::with_scale(scale, seed),
            full_landmarks: false,
            jobs,
        };
        let sequential = ExperimentSuite::new(config(1));
        let ids: Vec<&str> = ALL_EXPERIMENTS
            .iter()
            .chain(EXTENSION_EXPERIMENTS)
            .copied()
            .collect();
        let seq_reports: Vec<Result<String, ytcdn_core::AnalysisError>> =
            ids.iter().map(|id| sequential.run(id)).collect();
        for jobs in [4, 50_000] {
            let parallel = ExperimentSuite::new(config(jobs));
            assert_eq!(
                parallel.run_many(&ids, parallel.jobs()),
                seq_reports,
                "scale={scale} seed={seed} jobs={jobs}: parallel suite reports differ"
            );
            // Session lists and classifications behind the reports also match.
            for name in DatasetName::ALL {
                assert_eq!(
                    parallel.dataset_index(name).sessions(),
                    sequential.dataset_index(name).sessions(),
                    "{name} jobs={jobs}: sessions differ"
                );
                assert_eq!(
                    parallel.dataset_index(name).patterns(),
                    sequential.dataset_index(name).patterns(),
                    "{name} jobs={jobs}: patterns differ"
                );
            }
        }
    }
}

/// The `.ytc` acceptance criterion: a suite rebuilt from decoded columnar
/// datasets (`ytcdn repro --from dataset.ytc`) emits the full report set and
/// scorecard byte-identical to the simulate-in-memory path, single- and
/// multi-threaded alike.
#[test]
fn suite_from_ytc_matches_in_memory() {
    for (scale, seed) in [(0.003, 7), (0.004, 2)] {
        // What `ytcdn generate --out dataset.ytc` writes...
        let s = scenario(scale, seed);
        let file = YtcFile::new(
            YtcHeader {
                scale,
                seed,
                mutations: vec![],
            },
            s.run_all(2),
        )
        .expect("full scenario output is encodable");
        // ...round-tripped through the wire form, exactly as `--from` sees it.
        let decoded = YtcFile::decode(&file.encode()).expect("own encode decodes");

        let config = |jobs| SuiteConfig {
            scenario: ScenarioConfig::with_scale(scale, seed),
            full_landmarks: false,
            jobs,
        };
        let in_memory = ExperimentSuite::new(config(1));
        let ids: Vec<&str> = ALL_EXPERIMENTS
            .iter()
            .chain(EXTENSION_EXPERIMENTS)
            .copied()
            .collect();
        let want_reports: Vec<Result<String, ytcdn_core::AnalysisError>> =
            ids.iter().map(|id| in_memory.run(id)).collect();
        let want_card = render_scorecard(&scorecard(&in_memory));

        for jobs in [1, 4] {
            let from_ytc = ExperimentSuite::from_columnar(
                config(jobs),
                Telemetry::disabled(),
                decoded.clone().into_columnar_datasets(),
            )
            .expect("five datasets decoded from the file");
            assert_eq!(
                from_ytc.run_many(&ids, jobs),
                want_reports,
                "scale={scale} seed={seed} jobs={jobs}: reports from .ytc differ"
            );
            assert_eq!(
                render_scorecard(&scorecard(&from_ytc)),
                want_card,
                "scale={scale} seed={seed} jobs={jobs}: scorecard from .ytc differs"
            );
        }
    }
}

/// A `.ytc` file missing a vantage point is a typed analysis error, not a
/// panic, when fed to the suite.
#[test]
fn suite_from_partial_ytc_is_a_typed_error() {
    let s = scenario(0.003, 7);
    let file = YtcFile::new(
        YtcHeader {
            scale: 0.003,
            seed: 7,
            mutations: vec![],
        },
        vec![s.run(DatasetName::Eu2).0],
    )
    .expect("a single dataset is encodable");
    let result = ExperimentSuite::from_columnar(
        SuiteConfig {
            scenario: ScenarioConfig::with_scale(0.003, 7),
            full_landmarks: false,
            jobs: 1,
        },
        Telemetry::disabled(),
        file.into_columnar_datasets(),
    );
    match result {
        Ok(_) => panic!("a partial .ytc must not build a suite"),
        Err(err) => assert!(
            matches!(err, ytcdn_core::AnalysisError::MissingDataset { ref dataset } if dataset == "US-Campus"),
            "got {err}"
        ),
    }
}

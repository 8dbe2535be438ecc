//! Video-session grouping — the paper's key analysis device.
//!
//! Section VI-A: "A video session aggregates all flows that i) have the same
//! source IP address and VideoID, and ii) are overlapped in time. In
//! particular, we consider two flows to overlap in time if the end of the
//! first flow and the beginning of the second flow are separated by less
//! than T seconds." The paper settles on `T = 1 s` after the sensitivity
//! analysis of Figure 5.
//!
//! Grouping related flows is what lets the analysis tell *DNS-caused*
//! non-preferred accesses (a session that starts at the non-preferred data
//! center) apart from *application-layer redirections* (a session whose
//! first, control flow goes to the preferred data center and whose video
//! flow does not).

use std::net::Ipv4Addr;

use ytcdn_cdnsim::par_map;
use ytcdn_tstat::{Dataset, FlowRecord, VideoId};

/// A group of related flows: one user's attempt to watch one video.
///
/// Holds indices into the dataset's record slice rather than clones, so
/// grouping a million-flow dataset stays cheap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Session {
    /// The client address.
    pub client_ip: Ipv4Addr,
    /// The video requested.
    pub video_id: VideoId,
    /// Indices of the member flows in the dataset, in start-time order.
    pub flow_indices: Vec<usize>,
    /// Session start (first flow's start), ms.
    pub start_ms: u64,
    /// Session end (latest flow end), ms.
    pub end_ms: u64,
}

impl Session {
    /// Number of flows in the session.
    pub fn flow_count(&self) -> usize {
        self.flow_indices.len()
    }

    /// Iterates over the member flows, resolved against their dataset,
    /// without allocating.
    ///
    /// # Panics
    ///
    /// Panics (on use) if `dataset` is not the dataset the session was
    /// built from.
    pub fn flows_iter<'s, 'd: 's>(
        &'s self,
        dataset: &'d Dataset,
    ) -> impl Iterator<Item = &'d FlowRecord> + 's {
        self.flow_indices
            .iter()
            .map(move |&i| &dataset.records()[i])
    }
}

/// Groups a dataset's flows into video sessions with gap threshold
/// `gap_ms` (the paper's `T`, in milliseconds), with the bucketing pass
/// split by client IP into `jobs` shards (clamped to `[1, flows]`) that
/// run on the shared worker pool ([`ytcdn_cdnsim::par_map`]).
///
/// Returns sessions sorted by start time. The output is **identical for
/// any `jobs`**: every (client, video) bucket is wholly owned by one shard
/// — sharding is a function of the client address alone — and within a
/// shard each bucket's indices are visited in ascending (= start-time)
/// order, so each shard produces exactly the sessions a single pass would
/// for its clients. The final sort key `(start_ms, end_ms, client_ip,
/// video_id)` is unique across sessions (two sessions of the same bucket
/// are separated by more than the gap, so their `start_ms` differ;
/// sessions of different buckets differ in client or video), so
/// concatenation order cannot leak into the result.
pub fn group_sessions(dataset: &Dataset, gap_ms: u64, jobs: usize) -> Vec<Session> {
    let shards = jobs.clamp(1, dataset.len().max(1));
    let mut sessions = if shards == 1 {
        group_record_range(dataset, gap_ms, 0..dataset.len())
    } else {
        let mut by_client: Vec<Vec<usize>> = vec![Vec::new(); shards];
        for (i, r) in dataset.records().iter().enumerate() {
            by_client[u32::from(r.client_ip) as usize % shards].push(i);
        }
        par_map(jobs, &by_client, |indices| {
            group_record_range(dataset, gap_ms, indices.iter().copied())
        })
        .into_iter()
        .flatten()
        .collect()
    };
    sort_sessions(&mut sessions);
    sessions
}

/// Orders record indices into (client, video) buckets: sorted by the key
/// `(client, video, index)`, so each bucket is one contiguous run and its
/// indices ascend — which, because records are sorted by start time, is
/// start-time order. The key is unique per record, so the unstable sort is
/// deterministic. This one order serves the grouper at any gap and the
/// index's [`crate::index::DatasetIndex::flows_per_session_sweep`].
pub(crate) fn bucket_order(
    dataset: &Dataset,
    indices: impl IntoIterator<Item = usize>,
) -> Vec<usize> {
    let records = dataset.records();
    let mut keys: Vec<(u32, u64, usize)> = indices
        .into_iter()
        .map(|i| {
            let r = &records[i];
            (u32::from(r.client_ip), r.video_id.index(), i)
        })
        .collect();
    keys.sort_unstable();
    keys.into_iter().map(|(_, _, i)| i).collect()
}

/// The shared gap-scan pass over one subset of record indices, walked in
/// [`bucket_order`]. Returns sessions in arbitrary order; callers sort.
fn group_record_range(
    dataset: &Dataset,
    gap_ms: u64,
    indices: impl IntoIterator<Item = usize>,
) -> Vec<Session> {
    let records = dataset.records();
    let mut sessions: Vec<Session> = Vec::new();
    for idx in bucket_order(dataset, indices) {
        let r = &records[idx];
        match sessions.last_mut() {
            Some(s)
                if (s.client_ip, s.video_id) == (r.client_ip, r.video_id)
                    && r.start_ms <= s.end_ms.saturating_add(gap_ms) =>
            {
                s.flow_indices.push(idx);
                s.end_ms = s.end_ms.max(r.end_ms);
            }
            _ => sessions.push(Session {
                client_ip: r.client_ip,
                video_id: r.video_id,
                flow_indices: vec![idx],
                start_ms: r.start_ms,
                end_ms: r.end_ms,
            }),
        }
    }
    sessions
}

/// The canonical session order. The key is unique per session (see
/// [`group_sessions`]), which is what makes sharded grouping
/// reproducible.
fn sort_sessions(sessions: &mut [Session]) {
    sessions.sort_by_key(|s| (s.start_ms, s.end_ms, s.client_ip, s.video_id));
}

/// The distribution of flows-per-session for a dataset at one gap threshold
/// — one curve of the paper's Figures 5 and 6.
pub fn flows_per_session(dataset: &Dataset, gap_ms: u64) -> crate::stats::Cdf {
    crate::stats::Cdf::from_values(
        group_sessions(dataset, gap_ms, 1)
            .iter()
            .map(|s| s.flow_count() as f64),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ytcdn_tstat::{DatasetName, Resolution};

    fn flow(client: &str, video: u64, start: u64, end: u64, bytes: u64) -> FlowRecord {
        FlowRecord {
            client_ip: client.parse().unwrap(),
            server_ip: "74.125.0.1".parse().unwrap(),
            start_ms: start,
            end_ms: end,
            bytes,
            video_id: VideoId::from_index(video),
            resolution: Resolution::R360,
        }
    }

    fn ds(records: Vec<FlowRecord>) -> Dataset {
        Dataset::from_records(DatasetName::UsCampus, records)
    }

    #[test]
    fn close_flows_group() {
        let d = ds(vec![
            flow("10.0.0.1", 1, 0, 100, 500),
            flow("10.0.0.1", 1, 600, 5000, 1_000_000),
        ]);
        let sessions = group_sessions(&d, 1_000, 1);
        assert_eq!(sessions.len(), 1);
        assert_eq!(sessions[0].flow_count(), 2);
        assert_eq!(sessions[0].start_ms, 0);
        assert_eq!(sessions[0].end_ms, 5000);
    }

    #[test]
    fn gap_splits_sessions() {
        let d = ds(vec![
            flow("10.0.0.1", 1, 0, 100, 500),
            flow("10.0.0.1", 1, 1_200, 5_000, 1_000_000),
        ]);
        assert_eq!(group_sessions(&d, 1_000, 1).len(), 2);
        // A larger T merges them (the Figure 5 sensitivity).
        assert_eq!(group_sessions(&d, 5_000, 1).len(), 1);
    }

    #[test]
    fn different_videos_never_group() {
        let d = ds(vec![
            flow("10.0.0.1", 1, 0, 100, 500),
            flow("10.0.0.1", 2, 150, 5_000, 1_000_000),
        ]);
        assert_eq!(group_sessions(&d, 1_000, 1).len(), 2);
    }

    #[test]
    fn different_clients_never_group() {
        let d = ds(vec![
            flow("10.0.0.1", 1, 0, 100, 500),
            flow("10.0.0.2", 1, 150, 5_000, 1_000_000),
        ]);
        assert_eq!(group_sessions(&d, 1_000, 1).len(), 2);
    }

    #[test]
    fn overlapping_flows_group() {
        // Second flow starts before the first ends.
        let d = ds(vec![
            flow("10.0.0.1", 1, 0, 10_000, 500),
            flow("10.0.0.1", 1, 2_000, 4_000, 1_000_000),
        ]);
        assert_eq!(group_sessions(&d, 1_000, 1).len(), 1);
    }

    #[test]
    fn gap_measured_from_max_end() {
        // Flow B is contained in flow A; flow C starts within T of A's end
        // even though it is far past B's end.
        let d = ds(vec![
            flow("10.0.0.1", 1, 0, 10_000, 500),
            flow("10.0.0.1", 1, 1_000, 2_000, 700),
            flow("10.0.0.1", 1, 10_500, 12_000, 1_000_000),
        ]);
        let sessions = group_sessions(&d, 1_000, 1);
        assert_eq!(sessions.len(), 1);
        assert_eq!(sessions[0].flow_count(), 3);
    }

    #[test]
    fn boundary_gap_exactly_t_groups() {
        // "separated by less than T seconds" — we group at <= T since times
        // are integer ms; the boundary case is vanishingly rare in data.
        let d = ds(vec![
            flow("10.0.0.1", 1, 0, 100, 500),
            flow("10.0.0.1", 1, 1_100, 2_000, 900),
        ]);
        assert_eq!(group_sessions(&d, 1_000, 1).len(), 1);
    }

    #[test]
    fn sessions_sorted_by_start() {
        let d = ds(vec![
            flow("10.0.0.2", 9, 5_000, 6_000, 100),
            flow("10.0.0.1", 1, 0, 100, 500),
            flow("10.0.0.3", 4, 2_000, 3_000, 100),
        ]);
        let sessions = group_sessions(&d, 1_000, 1);
        let starts: Vec<_> = sessions.iter().map(|s| s.start_ms).collect();
        assert_eq!(starts, vec![0, 2_000, 5_000]);
    }

    #[test]
    fn flows_resolve_in_order() {
        let d = ds(vec![
            flow("10.0.0.1", 1, 600, 5_000, 1_000_000),
            flow("10.0.0.1", 1, 0, 100, 500),
        ]);
        let sessions = group_sessions(&d, 1_000, 1);
        let flows: Vec<&FlowRecord> = sessions[0].flows_iter(&d).collect();
        assert_eq!(flows[0].start_ms, 0);
        assert_eq!(flows[1].start_ms, 600);
    }

    #[test]
    fn empty_dataset_no_sessions() {
        let d = ds(vec![]);
        assert!(group_sessions(&d, 1_000, 1).is_empty());
        assert!(flows_per_session(&d, 1_000).is_empty());
    }

    #[test]
    fn parallel_grouping_matches_sequential() {
        // Many clients, some sharing videos, some overlapping in time, so
        // every shard count slices the buckets differently.
        let mut records = Vec::new();
        for c in 0u32..23 {
            for v in 0u64..3 {
                let base = u64::from(c) * 37 + v * 911;
                records.push(flow(
                    &format!("10.0.{}.{}", c / 7, c % 7 + 1),
                    v,
                    base,
                    base + 400,
                    900,
                ));
                records.push(flow(
                    &format!("10.0.{}.{}", c / 7, c % 7 + 1),
                    v,
                    base + 500,
                    base + 4_000,
                    1_000_000,
                ));
            }
        }
        records.sort_by_key(|r| r.start_ms);
        let d = ds(records);
        for gap in [100, 1_000, 10_000] {
            let sequential = group_sessions(&d, gap, 1);
            for jobs in [1usize, 2, 3, 4, 7, 16, 64] {
                assert_eq!(
                    group_sessions(&d, gap, jobs),
                    sequential,
                    "gap {gap} jobs {jobs}"
                );
            }
        }
    }

    #[test]
    fn parallel_grouping_degenerate_inputs() {
        let empty = ds(vec![]);
        assert!(group_sessions(&empty, 1_000, 8).is_empty());
        let one = ds(vec![flow("10.0.0.1", 1, 0, 100, 500)]);
        assert_eq!(
            group_sessions(&one, 1_000, 8),
            group_sessions(&one, 1_000, 1)
        );
        // jobs = 0 is clamped to 1.
        let two = ds(vec![
            flow("10.0.0.1", 1, 0, 100, 500),
            flow("10.0.0.2", 1, 0, 100, 500),
        ]);
        assert_eq!(
            group_sessions(&two, 1_000, 0),
            group_sessions(&two, 1_000, 1)
        );
    }

    #[test]
    fn flows_per_session_cdf() {
        let d = ds(vec![
            flow("10.0.0.1", 1, 0, 100, 500),
            flow("10.0.0.1", 1, 300, 900, 1_000_000),
            flow("10.0.0.2", 2, 0, 100, 1_000_000),
        ]);
        let cdf = flows_per_session(&d, 1_000);
        assert_eq!(cdf.len(), 2);
        assert_eq!(cdf.fraction_at_or_below(1.0), 0.5);
        assert_eq!(cdf.fraction_at_or_below(2.0), 1.0);
    }
}

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
//!
//! The sessions of one dataset are stored as columns ([`Sessions`]): one
//! flat `u32` column of flow indices in *bucket order* — each (client,
//! video) bucket one contiguous, ascending run — and one row per session,
//! in canonical order, holding its `(offset, len)` into that column plus
//! its client, video and time bounds. A [`Session`] is a borrowed view of
//! one row; grouping two million sessions allocates two vectors, not two
//! million.

use std::net::Ipv4Addr;

use ytcdn_tstat::{Dataset, FlowRecord, VideoId};

/// A group of related flows: one user's attempt to watch one video.
///
/// A borrowed view of one row of [`Sessions`]; it owns no heap data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Session<'a> {
    /// The client address.
    pub client_ip: Ipv4Addr,
    /// The video requested.
    pub video_id: VideoId,
    /// Session start (first flow's start), ms.
    pub start_ms: u64,
    /// Session end (latest flow end), ms.
    pub end_ms: u64,
    flow_indices: &'a [u32],
}

impl<'a> Session<'a> {
    /// Indices of the member flows in the dataset, in start-time order.
    pub fn flow_indices(&self) -> &'a [u32] {
        self.flow_indices
    }

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
    pub fn flows_iter<'d>(&self, dataset: &'d Dataset) -> impl Iterator<Item = FlowRecord> + 'd
    where
        'a: 'd,
    {
        self.flow_indices
            .iter()
            .map(move |&i| dataset.row(i as usize))
    }
}

/// One session's row: where its flows sit in the flat column, and the
/// fields of its [`Session`] view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Row {
    start_ms: u64,
    end_ms: u64,
    video_id: VideoId,
    client_ip: Ipv4Addr,
    /// The session's flows are `flows[offset..offset + len]`.
    offset: u32,
    len: u32,
}

/// The sessions of one dataset at one gap, as columns (see the module
/// docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Sessions {
    /// Every flow index once, bucket by bucket, each bucket ascending.
    flows: Vec<u32>,
    /// Per position of `flows`: whether a new bucket starts there.
    bucket_starts: Vec<bool>,
    /// One row per session, in canonical order.
    rows: Vec<Row>,
    /// Distinct client addresses among the grouped flows.
    clients: usize,
}

impl Sessions {
    /// Number of sessions.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether there are no sessions.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The sessions, in canonical `(start_ms, end_ms, client_ip, video_id)`
    /// order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Session<'_>> + '_ {
        self.rows.iter().map(|row| {
            let start = row.offset as usize;
            Session {
                client_ip: row.client_ip,
                video_id: row.video_id,
                start_ms: row.start_ms,
                end_ms: row.end_ms,
                flow_indices: &self.flows[start..start + row.len as usize],
            }
        })
    }

    /// The flat column: every flow index of the dataset once, in bucket
    /// order. Each (client, video) bucket is one contiguous run whose
    /// indices ascend (start-time order), and the buckets follow each other
    /// in `(client, video)` order.
    pub fn flows_in_bucket_order(&self) -> &[u32] {
        &self.flows
    }

    /// Per position of [`Sessions::flows_in_bucket_order`]: whether a new
    /// (client, video) bucket starts there.
    pub(crate) fn bucket_starts(&self) -> &[bool] {
        &self.bucket_starts
    }

    /// Distinct client addresses in the dataset — Table I's client count,
    /// [`Dataset::distinct_clients`], counted while grouping.
    pub fn distinct_clients(&self) -> usize {
        self.clients
    }

    /// The flows-per-session histogram: `counts[k]` sessions of `k` flows.
    pub(crate) fn size_counts(&self) -> Vec<u64> {
        let mut counts = Vec::new();
        for row in &self.rows {
            tally(&mut counts, row.len as usize);
        }
        counts
    }
}

/// Adds one sample of size `size` to the histogram `counts`.
pub(crate) fn tally(counts: &mut Vec<u64>, size: usize) {
    if counts.len() <= size {
        counts.resize(size + 1, 0);
    }
    counts[size] += 1;
}

/// Groups a dataset's flows into video sessions with gap threshold
/// `gap_ms` (the paper's `T`, in milliseconds): one sort of the flows into
/// (client, video) buckets, then one gap scan over them. A flow joins the
/// open session when it is in the same bucket and starts within `gap_ms`
/// of the session's latest end.
///
/// Returns the sessions in canonical order: sorted by the key `(start_ms,
/// end_ms, client_ip, video_id)`. The key is unique across sessions (two
/// sessions of the same bucket are separated by more than the gap, so
/// their `start_ms` differ; sessions of different buckets differ in client
/// or video), so the order is a function of the sessions alone.
///
/// # Panics
///
/// Panics if the dataset holds more than `u32::MAX` flows (flow indices
/// are stored as `u32`).
pub fn group_sessions(dataset: &Dataset, gap_ms: u64) -> Sessions {
    let n = dataset.len();
    assert!(
        u32::try_from(n).is_ok(),
        "{n} flows overflow the u32 session column"
    );
    let c = dataset.columns();
    let keys = bucket_keys(dataset);
    let mut flows: Vec<u32> = Vec::with_capacity(n);
    let mut bucket_starts: Vec<bool> = Vec::with_capacity(n);
    let mut rows: Vec<Row> = Vec::new();
    let mut bucket = None;
    // Keys ascend with the client in their top bits, so each client is
    // one run of keys.
    let mut clients = 0usize;
    for (pos, &key) in keys.iter().enumerate() {
        let idx = key as u32;
        let new_bucket = bucket != Some(key >> 32);
        clients += usize::from(bucket.is_none_or(|b| b >> 32 != key >> 64));
        bucket = Some(key >> 32);
        flows.push(idx);
        bucket_starts.push(new_bucket);
        let (start_ms, end_ms) = (c.start_ms[idx as usize], c.end_ms[idx as usize]);
        match rows.last_mut() {
            Some(s) if !new_bucket && start_ms <= s.end_ms.saturating_add(gap_ms) => {
                s.len += 1;
                s.end_ms = s.end_ms.max(end_ms);
            }
            _ => rows.push(Row {
                start_ms,
                end_ms,
                video_id: c.videos[(key >> 32) as u32 as usize],
                client_ip: Ipv4Addr::from((key >> 64) as u32),
                offset: pos as u32,
                len: 1,
            }),
        }
    }
    let rows = canonical_order(&flows, &rows);
    Sessions {
        flows,
        bucket_starts,
        rows,
        clients,
    }
}

/// The rows in canonical `(start_ms, end_ms, client_ip, video_id)` order.
///
/// Records ascend by start time, so ordering sessions by their first
/// flow's index orders them by `start_ms`. One `sort_unstable` over
/// compact `(first flow index, row)` keys — unique, since every flow opens
/// at most one session — does the bulk of the work; only sessions that
/// share a `start_ms` are then ordered by the rest of the key.
fn canonical_order(flows: &[u32], rows: &[Row]) -> Vec<Row> {
    let mut keys: Vec<u64> = rows
        .iter()
        .enumerate()
        .map(|(k, row)| u64::from(flows[row.offset as usize]) << 32 | k as u64)
        .collect();
    keys.sort_unstable();
    let mut ordered: Vec<Row> = keys.iter().map(|&key| rows[key as u32 as usize]).collect();
    for tied in ordered.chunk_by_mut(|a, b| a.start_ms == b.start_ms) {
        tied.sort_unstable_by_key(|r| (r.end_ms, r.client_ip, r.video_id));
    }
    ordered
}

/// Orders the record indices into (client, video) buckets: sorted by the
/// key `(client, video rank, index)`, so each bucket is one contiguous run
/// and its indices ascend — which, because records are sorted by start
/// time, is start-time order. Rank order is video-id order (the dictionary
/// is sorted). The key is unique per record, so the unstable sort is
/// deterministic; it is packed into one `u128` (client in bits 64–95,
/// video rank in 32–63, index in the low 32), so the sort compares single
/// integers, and a key's bucket is its bits above the index.
fn bucket_keys(dataset: &Dataset) -> Vec<u128> {
    let c = dataset.columns();
    let mut keys: Vec<u128> = c
        .clients
        .iter()
        .zip(&c.video_ranks)
        .enumerate()
        .map(|(i, (&client, &video))| {
            u128::from(client) << 64 | u128::from(video) << 32 | i as u128
        })
        .collect();
    keys.sort_unstable();
    keys
}

/// The distribution of flows-per-session for a dataset at one gap threshold
/// — one curve of the paper's Figures 5 and 6.
pub fn flows_per_session(dataset: &Dataset, gap_ms: u64) -> crate::stats::Cdf {
    crate::stats::Cdf::from_values(
        group_sessions(dataset, gap_ms)
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
        let sessions = group_sessions(&d, 1_000);
        assert_eq!(sessions.len(), 1);
        let only = sessions.iter().next().unwrap();
        assert_eq!(only.flow_count(), 2);
        assert_eq!(only.start_ms, 0);
        assert_eq!(only.end_ms, 5000);
    }

    #[test]
    fn gap_splits_sessions() {
        let d = ds(vec![
            flow("10.0.0.1", 1, 0, 100, 500),
            flow("10.0.0.1", 1, 1_200, 5_000, 1_000_000),
        ]);
        assert_eq!(group_sessions(&d, 1_000).len(), 2);
        // A larger T merges them (the Figure 5 sensitivity).
        assert_eq!(group_sessions(&d, 5_000).len(), 1);
    }

    #[test]
    fn different_videos_never_group() {
        let d = ds(vec![
            flow("10.0.0.1", 1, 0, 100, 500),
            flow("10.0.0.1", 2, 150, 5_000, 1_000_000),
        ]);
        assert_eq!(group_sessions(&d, 1_000).len(), 2);
    }

    #[test]
    fn different_clients_never_group() {
        let d = ds(vec![
            flow("10.0.0.1", 1, 0, 100, 500),
            flow("10.0.0.2", 1, 150, 5_000, 1_000_000),
        ]);
        assert_eq!(group_sessions(&d, 1_000).len(), 2);
    }

    #[test]
    fn overlapping_flows_group() {
        // Second flow starts before the first ends.
        let d = ds(vec![
            flow("10.0.0.1", 1, 0, 10_000, 500),
            flow("10.0.0.1", 1, 2_000, 4_000, 1_000_000),
        ]);
        assert_eq!(group_sessions(&d, 1_000).len(), 1);
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
        let sessions = group_sessions(&d, 1_000);
        assert_eq!(sessions.len(), 1);
        assert_eq!(sessions.iter().next().unwrap().flow_count(), 3);
    }

    #[test]
    fn boundary_gap_exactly_t_groups() {
        // "separated by less than T seconds" — we group at <= T since times
        // are integer ms; the boundary case is vanishingly rare in data.
        let d = ds(vec![
            flow("10.0.0.1", 1, 0, 100, 500),
            flow("10.0.0.1", 1, 1_100, 2_000, 900),
        ]);
        assert_eq!(group_sessions(&d, 1_000).len(), 1);
    }

    #[test]
    fn sessions_sorted_by_start() {
        let d = ds(vec![
            flow("10.0.0.2", 9, 5_000, 6_000, 100),
            flow("10.0.0.1", 1, 0, 100, 500),
            flow("10.0.0.3", 4, 2_000, 3_000, 100),
        ]);
        let sessions = group_sessions(&d, 1_000);
        let starts: Vec<_> = sessions.iter().map(|s| s.start_ms).collect();
        assert_eq!(starts, vec![0, 2_000, 5_000]);
    }

    #[test]
    fn flows_resolve_in_order() {
        let d = ds(vec![
            flow("10.0.0.1", 1, 600, 5_000, 1_000_000),
            flow("10.0.0.1", 1, 0, 100, 500),
        ]);
        let sessions = group_sessions(&d, 1_000);
        let flows: Vec<FlowRecord> = sessions.iter().next().unwrap().flows_iter(&d).collect();
        assert_eq!(flows[0].start_ms, 0);
        assert_eq!(flows[1].start_ms, 600);
    }

    #[test]
    fn empty_dataset_no_sessions() {
        let d = ds(vec![]);
        assert!(group_sessions(&d, 1_000).is_empty());
        assert_eq!(group_sessions(&d, 1_000).distinct_clients(), 0);
        assert!(flows_per_session(&d, 1_000).is_empty());
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

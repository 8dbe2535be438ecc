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
//! one row; two million sessions are a few vectors, not two million.
//!
//! [`group_sessions`] sorts nothing by comparison at the flow grain: two
//! stable counting sorts over dense video and client ranks lay out the
//! bucket order, one gap scan records each session at its first flow, and
//! one ascending pass over the flow indices writes the rows, which are
//! then in canonical order except among rows sharing a `start_ms`.

use std::net::Ipv4Addr;
use std::ops::Range;

use ytcdn_tstat::{Dataset, DatasetColumns, FlowRecord, VideoId};

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

    /// The (client, video) buckets in `(client, video)` order, each one
    /// non-empty run of flow indices ascending in start-time order.
    /// Together they hold every flow index of the dataset once: the flat
    /// bucket-order column, cut at its bucket starts.
    pub fn buckets(&self) -> impl Iterator<Item = &[u32]> + '_ {
        bucket_ranges(&self.bucket_starts).map(|run| &self.flows[run])
    }

    /// Distinct client addresses in the dataset — Table I's client count,
    /// [`Dataset::distinct_clients`]: the number of client ranks the
    /// grouper's bucket sort assigns.
    pub fn distinct_clients(&self) -> usize {
        self.clients
    }

    /// The flows-per-session histogram: `counts[k]` sessions of `k` flows.
    pub(crate) fn size_counts(&self) -> Vec<u64> {
        let mut counts = Vec::new();
        for row in &self.rows {
            tally(&mut counts, row.len as usize, 1);
        }
        counts
    }
}

/// Adds `samples` samples of size `size` to the histogram `counts`.
pub(crate) fn tally(counts: &mut Vec<u64>, size: usize, samples: u64) {
    if counts.len() <= size {
        counts.resize(size + 1, 0);
    }
    counts[size] += samples;
}

/// Groups a dataset's flows into video sessions with gap threshold
/// `gap_ms` (the paper's `T`, in milliseconds). A flow joins the open
/// session when it is in the same (client, video) bucket and starts within
/// `gap_ms` of the session's latest end. Three passes (see the module
/// docs): `bucket_order`, `gap_scan` and `canonical_rows`.
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
    let (ranks, clients) = client_ranks(&c.clients);
    let (flows, bucket_starts) = bucket_order(ranks, clients, &c.video_ranks, c.videos.len());
    let (head, sessions) = gap_scan(&flows, &bucket_starts, c, gap_ms);
    let rows = canonical_rows(c, &flows, &head, sessions);
    Sessions {
        flows,
        bucket_starts,
        rows,
        clients,
    }
}

/// Each flow's rank among the distinct client addresses (ranks ascend with
/// the address), and the number of distinct addresses.
///
/// While the addresses span at most `max(2^20, 8 × flows)` values (every
/// simulated vantage point's clients do), they are ranked through a table
/// over that span, which takes at most 4 MiB or 32 bytes per flow — the
/// bound the simulator's video dictionary uses. Wider spans are ranked
/// through a sort of the distinct addresses.
fn client_ranks(clients: &[u32]) -> (Vec<u32>, usize) {
    let (Some(&min), Some(&max)) = (clients.iter().min(), clients.iter().max()) else {
        return (Vec::new(), 0);
    };
    let span = u64::from(max - min) + 1;
    if span > (clients.len() as u64).saturating_mul(8).max(1 << 20) {
        let mut distinct = clients.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let ranks = clients
            .iter()
            .map(|&a| distinct.partition_point(|&d| d < a) as u32)
            .collect();
        return (ranks, distinct.len());
    }
    // Mark the addresses in use, then an exclusive prefix sum turns each
    // used address's entry into its rank.
    let mut table = vec![0u32; span as usize];
    for &a in clients {
        table[(a - min) as usize] = 1;
    }
    let mut distinct = 0u32;
    for entry in &mut table {
        let used = *entry;
        *entry = distinct;
        distinct += used;
    }
    let ranks = clients.iter().map(|&a| table[(a - min) as usize]).collect();
    (ranks, distinct as usize)
}

/// For each of `buckets` keys, where its run starts in a stable counting
/// sort of `keys`: the exclusive prefix sum of the key counts.
fn run_starts(keys: &[u32], buckets: usize) -> Vec<u32> {
    let mut at = vec![0u32; buckets];
    for &k in keys {
        at[k as usize] += 1;
    }
    let mut sum = 0u32;
    for slot in &mut at {
        let count = *slot;
        *slot = sum;
        sum += count;
    }
    at
}

/// Orders the flow indices into (client, video) buckets, and marks where
/// each bucket starts: the flows sorted by `(client, video rank, index)`,
/// so each bucket is one contiguous run whose indices ascend — which,
/// because flows are sorted by start time, is start-time order. Rank order
/// is address order for clients and id order for videos (the dictionary is
/// sorted).
///
/// Two stable counting sorts, least significant key first: the indices by
/// video rank, then that order by client rank. Each entry of the first
/// order carries its flow's client rank beside the index, so the second
/// pass reads no column; it walks the first order video by video, and a
/// bucket starts wherever a client's run moves on to a new video.
fn bucket_order(
    client_ranks: Vec<u32>,
    clients: usize,
    video_ranks: &[u32],
    videos: usize,
) -> (Vec<u32>, Vec<bool>) {
    let n = video_ranks.len();
    let mut video_at = run_starts(video_ranks, videos);
    let mut by_video = vec![0u64; n];
    for (i, (&video, &client)) in video_ranks.iter().zip(&client_ranks).enumerate() {
        let at = &mut video_at[video as usize];
        by_video[*at as usize] = u64::from(client) << 32 | i as u64;
        *at += 1;
    }
    // Per client: the next position of its run, and the video it last
    // placed there (none yet: no video rank reaches `u32::MAX`).
    let mut client_at: Vec<(u32, u32)> = run_starts(&client_ranks, clients)
        .into_iter()
        .map(|at| (at, u32::MAX))
        .collect();
    drop(client_ranks);
    let mut flows = vec![0u32; n];
    let mut bucket_starts = vec![false; n];
    // After the scatter, `video_at[v]` is where video `v`'s run ends.
    let mut from = 0;
    for (video, &end) in (0u32..).zip(&video_at) {
        for &entry in &by_video[from..end as usize] {
            let (at, last) = &mut client_at[(entry >> 32) as usize];
            flows[*at as usize] = entry as u32;
            bucket_starts[*at as usize] = *last != video;
            *at += 1;
            *last = video;
        }
        from = end as usize;
    }
    (flows, bucket_starts)
}

/// The position ranges of the buckets, in order, given where each starts.
fn bucket_ranges(starts: &[bool]) -> impl Iterator<Item = Range<usize>> + '_ {
    let mut from = 0;
    std::iter::from_fn(move || {
        let rest = starts.get(from + 1..)?;
        let len = rest.iter().position(|&s| s).unwrap_or(rest.len()) + 1;
        from += len;
        Some(from - len..from)
    })
}

/// Cuts each bucket into sessions, and records each session at its first
/// flow: per flow index, `len << 32 | offset` of the session the flow
/// opens (its run of the bucket-order column), or 0 for a flow that joins
/// one. Also returns the number of sessions.
///
/// A flow alone in its bucket is a one-flow session at every gap, so its
/// times are not loaded; only buckets of two or more flows read the time
/// columns.
fn gap_scan(
    flows: &[u32],
    bucket_starts: &[bool],
    c: &DatasetColumns,
    gap_ms: u64,
) -> (Vec<u64>, usize) {
    let mut head = vec![0u64; flows.len()];
    let mut sessions = 0;
    let mut record = |first: u32, offset: usize, len: usize| {
        head[first as usize] = (len as u64) << 32 | offset as u64;
        sessions += 1;
    };
    for bucket in bucket_ranges(bucket_starts) {
        let run = &flows[bucket.clone()];
        if let [only] = run {
            record(*only, bucket.start, 1);
            continue;
        }
        let mut open = bucket.start;
        let mut end = c.end_ms[run[0] as usize];
        for (pos, &i) in bucket.clone().zip(run).skip(1) {
            let (start_ms, end_ms) = (c.start_ms[i as usize], c.end_ms[i as usize]);
            if start_ms <= end.saturating_add(gap_ms) {
                end = end.max(end_ms);
            } else {
                record(flows[open], open, pos - open);
                (open, end) = (pos, end_ms);
            }
        }
        record(flows[open], open, bucket.end - open);
    }
    (head, sessions)
}

/// The rows in canonical `(start_ms, end_ms, client_ip, video_id)` order.
///
/// Flows ascend by start time and every session is recorded at its first
/// flow, so one ascending pass over the flow indices writes the rows in
/// `start_ms` order; only rows that share a `start_ms` are then ordered by
/// the rest of the key. A session's end is its latest member's: for a
/// one-flow session, the flow's own.
fn canonical_rows(c: &DatasetColumns, flows: &[u32], head: &[u64], sessions: usize) -> Vec<Row> {
    let mut rows = Vec::with_capacity(sessions);
    for (i, &h) in head.iter().enumerate() {
        if h == 0 {
            continue;
        }
        let (offset, len) = (h as u32, (h >> 32) as u32);
        let end_ms = match len {
            1 => c.end_ms[i],
            _ => flows[offset as usize..][..len as usize]
                .iter()
                .map(|&j| c.end_ms[j as usize])
                .max()
                .unwrap_or_default(),
        };
        rows.push(Row {
            start_ms: c.start_ms[i],
            end_ms,
            video_id: c.videos[c.video_ranks[i] as usize],
            client_ip: Ipv4Addr::from(c.clients[i]),
            offset,
            len,
        });
    }
    for tied in rows.chunk_by_mut(|a, b| a.start_ms == b.start_ms) {
        tied.sort_unstable_by_key(|r| (r.end_ms, r.client_ip, r.video_id));
    }
    rows
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

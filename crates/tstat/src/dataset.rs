//! Named per-vantage-point flow datasets, stored as columns with a server
//! and a video dictionary (see [`Dataset`]).

use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

use crate::flow::{FlowRecord, Resolution, VideoId};
use crate::summary::TrafficSummary;

/// The five vantage points of the paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DatasetName {
    /// US university campus (Purdue).
    UsCampus,
    /// European university campus (Politecnico di Torino).
    Eu1Campus,
    /// ADSL PoP of the EU1 nation-wide ISP.
    Eu1Adsl,
    /// FTTH PoP of the same EU1 ISP.
    Eu1Ftth,
    /// PoP of the largest ISP in a second European country — the one with a
    /// YouTube data center *inside* the ISP.
    Eu2,
}

impl DatasetName {
    /// All five datasets, in the paper's table order.
    pub const ALL: [DatasetName; 5] = [
        DatasetName::UsCampus,
        DatasetName::Eu1Campus,
        DatasetName::Eu1Adsl,
        DatasetName::Eu1Ftth,
        DatasetName::Eu2,
    ];

    /// The dataset's position in [`DatasetName::ALL`]: the slot it takes
    /// in every per-dataset vector, and its `.ytc` wire code.
    pub fn index(self) -> usize {
        match self {
            DatasetName::UsCampus => 0,
            DatasetName::Eu1Campus => 1,
            DatasetName::Eu1Adsl => 2,
            DatasetName::Eu1Ftth => 3,
            DatasetName::Eu2 => 4,
        }
    }

    /// The paper's name for the dataset, as a static string (the form used
    /// by [`fmt::Display`], CLI flags, and telemetry scopes).
    pub fn as_str(self) -> &'static str {
        match self {
            DatasetName::UsCampus => "US-Campus",
            DatasetName::Eu1Campus => "EU1-Campus",
            DatasetName::Eu1Adsl => "EU1-ADSL",
            DatasetName::Eu1Ftth => "EU1-FTTH",
            DatasetName::Eu2 => "EU2",
        }
    }
}

impl fmt::Display for DatasetName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for DatasetName {
    type Err = DatasetError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "US-Campus" => Ok(DatasetName::UsCampus),
            "EU1-Campus" => Ok(DatasetName::Eu1Campus),
            "EU1-ADSL" => Ok(DatasetName::Eu1Adsl),
            "EU1-FTTH" => Ok(DatasetName::Eu1Ftth),
            "EU2" => Ok(DatasetName::Eu2),
            _ => Err(DatasetError::UnknownName(s.to_owned())),
        }
    }
}

/// A week-long flow log collected at one vantage point, stored as columns.
///
/// Each flow is one position across seven columns: client address, server
/// rank, start and end time, byte count, video rank and resolution — 37
/// bytes per flow. The two ranks index per-dataset dictionaries, the
/// distinct server addresses and the distinct video ids, each sorted
/// ascending and holding exactly the values some flow references. So a
/// dictionary's length is the distinct count, a fact that depends only on
/// the server (its data center, its AS) can be resolved once per
/// dictionary entry, and rank order is value order.
///
/// Flows are kept sorted by `(start_ms, end_ms)` — the order a passive
/// monitor produces them — which downstream session grouping relies on.
/// The representation is canonical: two datasets holding the same flows in
/// the same order are equal, column for column, and the `.ytc` encoder
/// writes the columns as they are.
///
/// [`FlowRecord`] is the by-value row view ([`Dataset::row`],
/// [`Dataset::iter`]); hot analysis loops read the columns.
///
/// # Examples
///
/// ```
/// use ytcdn_tstat::{Dataset, DatasetName};
///
/// let ds = Dataset::new(DatasetName::UsCampus);
/// assert_eq!(ds.len(), 0);
/// assert!(ds.is_empty());
/// assert_eq!(ds.name().to_string(), "US-Campus");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    name: DatasetName,
    columns: DatasetColumns,
}

/// The columns of a [`Dataset`], one entry per flow except the two
/// dictionaries. [`Dataset::from_columns`] checks every invariant listed
/// here before it accepts them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DatasetColumns {
    /// Client address per flow, as the big-endian `u32` of its octets.
    pub clients: Vec<u32>,
    /// Server per flow: a position in `servers`.
    pub server_ranks: Vec<u32>,
    /// Flow start per flow, ms since the start of the collection window;
    /// `(start_ms, end_ms)` ascends across flows.
    pub start_ms: Vec<u64>,
    /// Flow end per flow, never before its start.
    pub end_ms: Vec<u64>,
    /// Bytes carried server→client per flow.
    pub bytes: Vec<u64>,
    /// Video per flow: a position in `videos`.
    pub video_ranks: Vec<u32>,
    /// Requested resolution per flow.
    pub resolutions: Vec<Resolution>,
    /// The server dictionary: strictly ascending, every entry referenced.
    pub servers: Vec<Ipv4Addr>,
    /// The video dictionary: strictly ascending, every entry referenced.
    pub videos: Vec<VideoId>,
}

impl Dataset {
    /// Creates an empty dataset for `name`.
    pub fn new(name: DatasetName) -> Self {
        Self {
            name,
            columns: DatasetColumns::default(),
        }
    }

    /// Builds a dataset from records: sorts them by `(start_ms, end_ms)`,
    /// keeping equal times in input order, and builds both dictionaries
    /// with each flow's rank in them.
    ///
    /// The flow order is [`flow_order`]. Each dictionary is one unstable
    /// sort of packed `(value, flow)` keys and one scan that opens a new
    /// rank at each change of value. The simulation engine builds its
    /// columns without this constructor; it stays the reference the
    /// engine's columns are tested against, and the builder of filtered
    /// copies ([`Dataset::time_slice`], [`Dataset::filter_clients`]).
    ///
    /// # Panics
    ///
    /// Panics if there are more than `u32::MAX` records (ranks are `u32`).
    pub fn from_records(name: DatasetName, records: Vec<FlowRecord>) -> Self {
        let start_ms: Vec<u64> = records.iter().map(|r| r.start_ms).collect();
        let end_ms: Vec<u64> = records.iter().map(|r| r.end_ms).collect();
        let order = flow_order(&start_ms, &end_ms);
        let rows = || order.iter().map(|&k| &records[k as usize]);
        let (servers, server_ranks) = dictionary(
            (0u64..)
                .zip(rows())
                .map(|(flow, r)| (u64::from(u32::from(r.server_ip)) << 32) | flow)
                .collect(),
            |key| (Ipv4Addr::from((key >> 32) as u32), key as u32),
        );
        let (videos, video_ranks) = dictionary(
            (0u128..)
                .zip(rows())
                .map(|(flow, r)| (u128::from(r.video_id.index()) << 32) | flow)
                .collect(),
            |key| (VideoId::from_index((key >> 32) as u64), key as u32),
        );
        let columns = DatasetColumns {
            clients: rows().map(|r| u32::from(r.client_ip)).collect(),
            server_ranks,
            start_ms: order.iter().map(|&k| start_ms[k as usize]).collect(),
            end_ms: order.iter().map(|&k| end_ms[k as usize]).collect(),
            bytes: rows().map(|r| r.bytes).collect(),
            video_ranks,
            resolutions: rows().map(|r| r.resolution).collect(),
            servers,
            videos,
        };
        Self { name, columns }
    }

    /// Builds a dataset straight from its columns — what the `.ytc`
    /// decoder does — after checking every [`DatasetColumns`] invariant.
    ///
    /// # Errors
    ///
    /// The [`ColumnError`] naming the first invariant that fails.
    pub fn from_columns(name: DatasetName, columns: DatasetColumns) -> Result<Self, ColumnError> {
        let c = &columns;
        let flows = c.start_ms.len();
        for (column, len) in [
            ("client", c.clients.len()),
            ("server rank", c.server_ranks.len()),
            ("end_ms", c.end_ms.len()),
            ("bytes", c.bytes.len()),
            ("video rank", c.video_ranks.len()),
            ("resolution", c.resolutions.len()),
        ] {
            if len != flows {
                return Err(ColumnError::LengthMismatch { column, len, flows });
            }
        }
        check_dictionary("server", &c.servers, &c.server_ranks)?;
        check_dictionary("video", &c.videos, &c.video_ranks)?;
        let times = c.start_ms.iter().zip(&c.end_ms);
        if let Some(flow) = times.clone().position(|(start, end)| end < start) {
            return Err(ColumnError::EndBeforeStart { flow });
        }
        if let Some(pos) = times.clone().zip(times.skip(1)).position(|(a, b)| b < a) {
            return Err(ColumnError::OutOfOrder { flow: pos + 1 });
        }
        Ok(Self { name, columns })
    }

    /// The vantage point this dataset was collected at.
    pub fn name(&self) -> DatasetName {
        self.name
    }

    /// Number of flow records.
    pub fn len(&self) -> usize {
        self.columns.start_ms.len()
    }

    /// Whether the dataset has no records.
    pub fn is_empty(&self) -> bool {
        self.columns.start_ms.is_empty()
    }

    /// The columns.
    pub fn columns(&self) -> &DatasetColumns {
        &self.columns
    }

    /// Flow `i` as a row.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn row(&self, i: usize) -> FlowRecord {
        let c = &self.columns;
        FlowRecord {
            client_ip: Ipv4Addr::from(c.clients[i]),
            server_ip: self.server_ip(i),
            start_ms: c.start_ms[i],
            end_ms: c.end_ms[i],
            bytes: c.bytes[i],
            video_id: c.videos[c.video_ranks[i] as usize],
            resolution: c.resolutions[i],
        }
    }

    /// The rows, in `(start_ms, end_ms)` order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = FlowRecord> + '_ {
        (0..self.len()).map(|i| self.row(i))
    }

    /// The server address of flow `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn server_ip(&self, i: usize) -> Ipv4Addr {
        self.columns.servers[self.columns.server_ranks[i] as usize]
    }

    /// Distinct server IPs observed, ascending: the server dictionary.
    pub fn server_ips(&self) -> &[Ipv4Addr] {
        &self.columns.servers
    }

    /// Distinct videos requested, ascending: the video dictionary.
    pub fn video_ids(&self) -> &[VideoId] {
        &self.columns.videos
    }

    /// Number of distinct client IPs observed.
    pub fn distinct_clients(&self) -> usize {
        let mut clients = self.columns.clients.clone();
        clients.sort_unstable();
        clients.dedup();
        clients.len()
    }

    /// Total bytes across all flows.
    pub fn total_bytes(&self) -> u64 {
        self.columns.bytes.iter().sum()
    }

    /// Computes the Table I row for this dataset.
    pub fn summary(&self) -> TrafficSummary {
        TrafficSummary::of(self)
    }

    /// A new dataset containing only flows *starting* within
    /// `[start_ms, end_ms)` — hour- or day-slicing for time-window analyses.
    pub fn time_slice(&self, start_ms: u64, end_ms: u64) -> Dataset {
        self.filtered(|r| (start_ms..end_ms).contains(&r.start_ms))
    }

    /// A new dataset containing only flows whose client passes `keep` —
    /// e.g. one subnet's traffic.
    pub fn filter_clients(&self, mut keep: impl FnMut(Ipv4Addr) -> bool) -> Dataset {
        self.filtered(|r| keep(r.client_ip))
    }

    fn filtered(&self, keep: impl FnMut(&FlowRecord) -> bool) -> Dataset {
        Dataset::from_records(self.name, self.iter().filter(keep).collect())
    }
}

/// The order that sorts flows by `(start_ms, end_ms)`, equal times kept in
/// input order: the input positions, in output order. It is the sort of
/// the unique keys `(start_ms, end_ms, input position)`.
///
/// Flows that arrive almost in order cost little. One backward pass keeps
/// in place every flow whose key is below every later key; those flows
/// are already sorted among themselves. Only the rest are sorted, and one
/// merge of the two runs gives the order. The result is the same for any
/// input.
///
/// # Panics
///
/// Panics if the two slices differ in length, or if they hold more than
/// `u32::MAX` flows (positions are `u32`).
pub fn flow_order(start_ms: &[u64], end_ms: &[u64]) -> Vec<u32> {
    assert_eq!(start_ms.len(), end_ms.len(), "one end per start");
    let flows = u32::try_from(start_ms.len())
        .unwrap_or_else(|_| panic!("{} flows overflow the u32 positions", start_ms.len()));
    let key = |k: u32| (start_ms[k as usize], end_ms[k as usize], k);
    let mut in_place: Vec<u32> = Vec::with_capacity(start_ms.len());
    let mut rest: Vec<(u64, u64, u32)> = Vec::new();
    // The least `(start, end)` of the flows after `k`; a tie keeps `k` in
    // place, as its position is the lower.
    let mut floor = (u64::MAX, u64::MAX);
    for k in (0..flows).rev() {
        let time = (start_ms[k as usize], end_ms[k as usize]);
        if time <= floor {
            floor = time;
            in_place.push(k);
        } else {
            rest.push(key(k));
        }
    }
    in_place.reverse();
    rest.sort_unstable();
    let mut rest = rest.into_iter().peekable();
    let mut order = Vec::with_capacity(start_ms.len());
    for k in in_place {
        let next = key(k);
        while let Some((_, _, r)) = rest.next_if(|&r| r < next) {
            order.push(r);
        }
        order.push(k);
    }
    order.extend(rest.map(|(_, _, r)| r));
    order
}

/// A dictionary and its rank column from packed `(value, flow)` keys, one
/// per flow: `split` unpacks a key. Sorting the keys groups each value's
/// flows, in value order, so one scan ranks them.
fn dictionary<K: Ord, V: PartialEq>(
    mut keys: Vec<K>,
    split: impl Fn(K) -> (V, u32),
) -> (Vec<V>, Vec<u32>) {
    keys.sort_unstable();
    let mut dict: Vec<V> = Vec::new();
    let mut ranks = vec![0u32; keys.len()];
    for key in keys {
        let (value, flow) = split(key);
        if dict.last() != Some(&value) {
            dict.push(value);
        }
        ranks[flow as usize] = (dict.len() - 1) as u32;
    }
    (dict, ranks)
}

/// Checks one dictionary: entries strictly ascending, every rank in range,
/// every entry referenced by some flow.
fn check_dictionary<T: Ord>(
    dictionary: &'static str,
    entries: &[T],
    ranks: &[u32],
) -> Result<(), ColumnError> {
    if entries.windows(2).any(|w| w[0] >= w[1]) {
        return Err(ColumnError::DictionaryNotAscending { dictionary });
    }
    let mut referenced = vec![false; entries.len()];
    for (flow, &rank) in ranks.iter().enumerate() {
        match referenced.get_mut(rank as usize) {
            Some(seen) => *seen = true,
            None => {
                return Err(ColumnError::RankOutOfRange {
                    dictionary,
                    flow,
                    rank,
                    len: entries.len(),
                })
            }
        }
    }
    match referenced.iter().position(|seen| !seen) {
        Some(rank) => Err(ColumnError::UnreferencedEntry { dictionary, rank }),
        None => Ok(()),
    }
}

/// Why [`Dataset::from_columns`] rejected a set of columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnError {
    /// A per-flow column's length differs from the start column's.
    LengthMismatch {
        /// The column.
        column: &'static str,
        /// Its length.
        len: usize,
        /// The flow count (the start column's length).
        flows: usize,
    },
    /// A dictionary's entries are not strictly ascending.
    DictionaryNotAscending {
        /// `server` or `video`.
        dictionary: &'static str,
    },
    /// A flow's rank points past the end of its dictionary.
    RankOutOfRange {
        /// `server` or `video`.
        dictionary: &'static str,
        /// The flow.
        flow: usize,
        /// Its rank.
        rank: u32,
        /// The dictionary's length.
        len: usize,
    },
    /// A dictionary entry no flow references.
    UnreferencedEntry {
        /// `server` or `video`.
        dictionary: &'static str,
        /// The entry's rank.
        rank: usize,
    },
    /// A flow ends before it starts.
    EndBeforeStart {
        /// The flow.
        flow: usize,
    },
    /// A flow sorts before the one preceding it by `(start_ms, end_ms)`.
    OutOfOrder {
        /// The flow.
        flow: usize,
    },
}

impl fmt::Display for ColumnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::LengthMismatch { column, len, flows } => {
                write!(f, "{column} column holds {len} entries for {flows} flows")
            }
            Self::DictionaryNotAscending { dictionary } => {
                write!(f, "{dictionary} dictionary: entries not strictly ascending")
            }
            Self::RankOutOfRange {
                dictionary,
                flow,
                rank,
                len,
            } => write!(
                f,
                "{dictionary} dictionary: reference {rank} of flow {flow} out of range (dict has {len})"
            ),
            Self::UnreferencedEntry { dictionary, rank } => {
                write!(f, "{dictionary} dictionary: entry {rank} referenced by no flow")
            }
            Self::EndBeforeStart { flow } => write!(f, "flow {flow} ends before it starts"),
            Self::OutOfOrder { flow } => {
                write!(f, "flow {flow} sorts before its predecessor by (start, end)")
            }
        }
    }
}

impl std::error::Error for ColumnError {}

/// Errors from dataset parsing.
#[derive(Debug)]
pub enum DatasetError {
    /// Unrecognized dataset name string.
    UnknownName(String),
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::UnknownName(s) => write!(f, "unknown dataset name: {s:?}"),
        }
    }
}

impl std::error::Error for DatasetError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{Resolution, VideoId};

    fn flow(start: u64, bytes: u64) -> FlowRecord {
        FlowRecord {
            client_ip: "10.0.0.1".parse().unwrap(),
            server_ip: "74.125.0.1".parse().unwrap(),
            start_ms: start,
            end_ms: start + 100,
            bytes,
            video_id: VideoId::from_index(start),
            resolution: Resolution::R360,
        }
    }

    #[test]
    fn names_roundtrip() {
        for n in DatasetName::ALL {
            assert_eq!(n.to_string().parse::<DatasetName>().unwrap(), n);
        }
        assert!("EU3".parse::<DatasetName>().is_err());
    }

    #[test]
    fn index_is_the_position_in_all() {
        for n in DatasetName::ALL {
            assert_eq!(DatasetName::ALL[n.index()], n);
        }
    }

    #[test]
    fn from_records_sorts() {
        let ds = Dataset::from_records(
            DatasetName::Eu2,
            vec![flow(50, 1), flow(10, 2), flow(30, 3)],
        );
        let starts: Vec<_> = ds.iter().map(|r| r.start_ms).collect();
        assert_eq!(starts, vec![10, 30, 50]);
    }

    /// The order as one unstable sort of `(start, end, index)` keys.
    fn sorted_order(start_ms: &[u64], end_ms: &[u64]) -> Vec<u32> {
        let mut keys: Vec<(u64, u64, u32)> = (0u32..)
            .zip(start_ms.iter().zip(end_ms))
            .map(|(k, (&start, &end))| (start, end, k))
            .collect();
        keys.sort_unstable();
        keys.into_iter().map(|(_, _, k)| k).collect()
    }

    #[test]
    fn flow_order_matches_a_key_sort() {
        let max = u64::MAX;
        let cases: Vec<(Vec<u64>, Vec<u64>)> = vec![
            (vec![], vec![]),
            (vec![7], vec![9]),
            (vec![max], vec![max]),
            // Reverse sorted.
            (
                (0..50).rev().collect(),
                (0..50).rev().map(|t| t + 3).collect(),
            ),
            // All starts equal, ends in every order.
            (vec![4; 8], vec![9, 4, 7, 4, 9, 5, 4, 8]),
            // `(start, end)` ties, in place and out of place.
            (vec![1, 1, 0, 1, 0, 1], vec![2, 2, 5, 2, 5, 1]),
            // `u64::MAX` times among small ones.
            (vec![max, 0, max, 3, max, 0], vec![max, max, max, 3, max, 0]),
            // Sessions: ascending starts with later flows that overtake.
            (
                vec![0, 10, 5, 20, 12, 30, 25],
                vec![30, 40, 6, 25, 14, 31, 26],
            ),
        ];
        for (start, end) in cases {
            assert_eq!(
                flow_order(&start, &end),
                sorted_order(&start, &end),
                "{start:?} {end:?}"
            );
        }
        // A pseudo-random mix of runs and stragglers.
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = |bound: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % bound
        };
        for _ in 0..64 {
            let n = next(200) as usize;
            let start: Vec<u64> = (0..n as u64).map(|k| k / 3 + next(4)).collect();
            let end: Vec<u64> = start.iter().map(|&s| s + next(3)).collect();
            assert_eq!(flow_order(&start, &end), sorted_order(&start, &end));
        }
    }

    #[test]
    fn distinct_ip_sets() {
        let mut f1 = flow(0, 10);
        f1.client_ip = "10.0.0.1".parse().unwrap();
        f1.server_ip = "74.125.0.1".parse().unwrap();
        let mut f2 = flow(1, 20);
        f2.client_ip = "10.0.0.2".parse().unwrap();
        f2.server_ip = "74.125.0.1".parse().unwrap();
        let ds = Dataset::from_records(DatasetName::Eu1Adsl, vec![f1, f2]);
        assert_eq!(ds.distinct_clients(), 2);
        assert_eq!(ds.server_ips().len(), 1);
        assert_eq!(ds.total_bytes(), 30);
    }

    #[test]
    fn rows_round_trip_through_the_columns() {
        let mut records: Vec<FlowRecord> = (0..6u64).map(|k| flow(100 - k * 10, k)).collect();
        records[2].server_ip = "74.125.9.9".parse().unwrap();
        records[4].video_id = VideoId::from_index(u64::MAX);
        let ds = Dataset::from_records(DatasetName::Eu2, records.clone());
        records.reverse();
        assert_eq!(ds.iter().collect::<Vec<_>>(), records);
        assert_eq!(ds.row(3), records[3]);
        let c = ds.columns();
        assert_eq!(c.servers.len(), 2);
        assert!(c.videos.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(Dataset::from_columns(DatasetName::Eu2, c.clone()), Ok(ds));
    }

    #[test]
    fn from_columns_checks_every_invariant() {
        let ds = Dataset::from_records(DatasetName::Eu2, vec![flow(0, 1), flow(5, 2)]);
        let check = |edit: fn(&mut DatasetColumns)| {
            let mut c = ds.columns().clone();
            edit(&mut c);
            Dataset::from_columns(DatasetName::Eu2, c).unwrap_err()
        };
        assert!(matches!(
            check(|c| c.bytes.push(3)),
            ColumnError::LengthMismatch {
                column: "bytes",
                ..
            }
        ));
        assert!(matches!(
            check(|c| c.server_ranks[1] = 1),
            ColumnError::RankOutOfRange {
                dictionary: "server",
                flow: 1,
                rank: 1,
                len: 1
            }
        ));
        assert!(matches!(
            check(|c| c.video_ranks[1] = 0),
            ColumnError::UnreferencedEntry {
                dictionary: "video",
                rank: 1
            }
        ));
        assert!(matches!(
            check(|c| c.videos.swap(0, 1)),
            ColumnError::DictionaryNotAscending {
                dictionary: "video"
            }
        ));
        assert_eq!(
            check(|c| c.end_ms[1] = 4),
            ColumnError::EndBeforeStart { flow: 1 }
        );
        let unsorted = check(|c| c.start_ms[0] = 6);
        assert_eq!(unsorted, ColumnError::OutOfOrder { flow: 1 });
        assert!(unsorted.to_string().contains("flow 1"));
    }

    #[test]
    fn time_slice_selects_by_start() {
        let ds = Dataset::from_records(
            DatasetName::Eu2,
            vec![flow(0, 1), flow(100, 2), flow(200, 3), flow(300, 4)],
        );
        let slice = ds.time_slice(100, 300);
        assert_eq!(slice.len(), 2);
        assert!(slice.iter().all(|r| (100..300).contains(&r.start_ms)));
        assert_eq!(slice.name(), DatasetName::Eu2);
        // Empty window.
        assert!(ds.time_slice(500, 600).is_empty());
    }

    #[test]
    fn filter_clients_partitions() {
        let mut a = flow(0, 1);
        a.client_ip = "10.0.0.1".parse().unwrap();
        let mut b = flow(1, 2);
        b.client_ip = "10.0.0.2".parse().unwrap();
        let ds = Dataset::from_records(DatasetName::Eu2, vec![a, b]);
        let one = ds.filter_clients(|ip| ip.octets()[3] == 1);
        let two = ds.filter_clients(|ip| ip.octets()[3] == 2);
        assert_eq!(one.len() + two.len(), ds.len());
        assert_eq!(one.len(), 1);
    }
}

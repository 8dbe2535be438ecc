//! Cross-crate property tests: the structural invariants every analysis in
//! the reproduction silently relies on, from the flow-record codecs up to
//! the content store and the DNS resolver.
//!
//! Each property runs over generated cases. Case `i` draws every input
//! from `SimRng::for_stream(SEED, &[i])` alone, so a failure names a case
//! that replays by itself; the edge values a shrinker would find (0, the
//! type's maximum, equal pairs) are covered by explicit cases instead.

use std::collections::BTreeSet;
use std::net::Ipv4Addr;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};

use ytcdn_cdnsim::dns::{DnsResolver, LdnsId, LdnsPolicy};
use ytcdn_cdnsim::{ContentStore, DataCenterId, SimRng, Topology};
use ytcdn_core::session::group_sessions;
use ytcdn_core::stats::Cdf;
use ytcdn_core::{YtcFile, YtcHeader};
use ytcdn_geomodel::{min_rtt_ms, Coord};
use ytcdn_netsim::{AccessKind, DelayModel, Endpoint};
use ytcdn_tstat::{
    read_textlog, write_textlog, Anonymizer, Dataset, DatasetColumns, DatasetName, FlowClass,
    FlowRecord, Resolution, VideoId, HOUR_MS, VIDEO_MIN_BYTES,
};

/// Root seed of every property's case streams.
const SEED: u64 = 0x5EED_CA5E;

/// Cases per structural property.
const CASES: u64 = 256;

/// Runs `property` once per case on that case's generator and re-raises a
/// failure with the case that produced it.
fn check(cases: u64, property: impl Fn(&mut SimRng)) {
    for case in 0..cases {
        let mut rng = SimRng::for_stream(SEED, &[case]);
        if let Err(panic) = panic::catch_unwind(AssertUnwindSafe(|| property(&mut rng))) {
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("(non-string panic)");
            panic!("case {case} (SimRng::for_stream({SEED:#x}, &[{case}])) failed: {msg}");
        }
    }
}

/// A vector of `len`-range length whose items come from `item`.
fn vec_of<T>(
    rng: &mut SimRng,
    len: Range<usize>,
    mut item: impl FnMut(&mut SimRng) -> T,
) -> Vec<T> {
    let n = rng.gen_range(len);
    (0..n).map(|_| item(rng)).collect()
}

/// A small universe of flows with realistic collisions (few clients, few
/// videos, clustered times) so session grouping is exercised on
/// adversarial overlaps.
fn colliding_flows(rng: &mut SimRng) -> Vec<FlowRecord> {
    vec_of(rng, 0..60, |rng| {
        let client = rng.gen_range(0u8..4);
        let video = rng.gen_range(0u64..6);
        let start = rng.gen_range(0u64..100_000);
        let duration = rng.gen_range(1u64..30_000);
        FlowRecord {
            client_ip: Ipv4Addr::new(10, 0, 0, client),
            server_ip: Ipv4Addr::new(74, 125, 0, video as u8),
            start_ms: start,
            end_ms: start + duration,
            bytes: rng.gen_range(0u64..20_000_000),
            video_id: VideoId::from_index(video),
            resolution: Resolution::R360,
        }
    })
}

/// A pair of addresses sharing a uniformly drawn prefix length (0–32
/// bits): uniform pairs would almost never share more than a few bits.
fn address_pair(rng: &mut SimRng) -> (Ipv4Addr, Ipv4Addr) {
    let a = rng.next_u64() as u32;
    let flip = ((rng.next_u64() >> 32) >> rng.gen_range(0u32..33)) as u32;
    (Ipv4Addr::from(a), Ipv4Addr::from(a ^ flip))
}

fn common_prefix_len(a: Ipv4Addr, b: Ipv4Addr) -> u32 {
    (u32::from(a) ^ u32::from(b)).leading_zeros()
}

// ---- Flow records and their codecs (ytcdn-tstat) ----

#[test]
fn video_id_roundtrip_any() {
    for index in [0, 1, u64::MAX] {
        let id = VideoId::from_index(index);
        assert_eq!(id.as_str().parse::<VideoId>().unwrap(), id, "index {index}");
    }
    check(CASES, |rng| {
        let id = VideoId::from_index(rng.next_u64());
        assert_eq!(id.as_str().parse::<VideoId>().unwrap(), id);
    });
}

#[test]
fn video_id_injective() {
    check(CASES, |rng| {
        let (a, b) = (rng.next_u64(), rng.next_u64());
        if a != b {
            assert_ne!(
                VideoId::from_index(a).as_str(),
                VideoId::from_index(b).as_str()
            );
        }
    });
}

#[test]
fn classify_is_threshold_indicator() {
    check(CASES, |rng| {
        // The edges, then anywhere and around the threshold.
        let (anywhere, near) = (rng.next_u64(), rng.gen_range(0..2 * VIDEO_MIN_BYTES));
        for bytes in [
            0,
            VIDEO_MIN_BYTES - 1,
            VIDEO_MIN_BYTES,
            u64::MAX,
            anywhere,
            near,
        ] {
            assert_eq!(
                FlowClass::of_bytes(bytes) == FlowClass::Video,
                bytes >= VIDEO_MIN_BYTES,
                "{bytes} bytes"
            );
        }
    });
}

/// The defining property of the anonymizer: the longest common prefix of
/// any two addresses survives anonymization.
#[test]
fn prefix_preservation() {
    check(CASES, |rng| {
        let anon = Anonymizer::new(rng.next_u64());
        let (a, b) = address_pair(rng);
        let (oa, ob) = (anon.anonymize_ip(a), anon.anonymize_ip(b));
        assert_eq!(
            common_prefix_len(a, b),
            common_prefix_len(oa, ob),
            "{a} {b}"
        );
    });
}

/// Injective: distinct inputs stay distinct (follows from prefix
/// preservation, asserted directly for clarity).
#[test]
fn anonymization_is_injective() {
    check(CASES, |rng| {
        let anon = Anonymizer::new(rng.next_u64());
        let (a, b) = address_pair(rng);
        if a != b {
            assert_ne!(anon.anonymize_ip(a), anon.anonymize_ip(b), "{a} {b}");
        }
    });
}

#[test]
fn textlog_roundtrip_arbitrary_records() {
    check(CASES, |rng| {
        let records = vec_of(rng, 0..50, |rng| {
            let start = rng.gen_range(0u64..1_000_000);
            let duration = rng.gen_range(0u64..1_000_000);
            let bytes = rng.gen_range(0u64..10_000_000_000);
            FlowRecord {
                client_ip: Ipv4Addr::from(rng.next_u64() as u32),
                server_ip: Ipv4Addr::from(rng.next_u64() as u32),
                start_ms: start,
                end_ms: start + duration,
                bytes,
                video_id: VideoId::from_index(rng.next_u64()),
                resolution: Resolution::ALL[rng.gen_range(0..Resolution::ALL.len())],
            }
        });
        let ds = Dataset::from_records(DatasetName::UsCampus, records);
        let mut buf = Vec::new();
        write_textlog(&ds, &mut buf).unwrap();
        assert_eq!(read_textlog(&buf[..]).unwrap(), ds);
    });
}

/// Asserts the three producers of a [`Dataset`] agree on `records`:
/// `from_records`, a `.ytc` encode→decode of its result and a text-log
/// write→parse of it give equal datasets; both dictionaries are strictly
/// ascending and hold exactly the distinct values; and the row view is
/// the input stably sorted by `(start_ms, end_ms)`.
fn assert_one_value_from_every_producer(records: Vec<FlowRecord>) {
    let ds = Dataset::from_records(DatasetName::Eu2, records.clone());
    let mut sorted = records.clone();
    sorted.sort_by_key(|r| (r.start_ms, r.end_ms));
    assert!(ds.iter().eq(sorted), "rows are not the stably sorted input");
    let servers: BTreeSet<Ipv4Addr> = records.iter().map(|r| r.server_ip).collect();
    let videos: BTreeSet<VideoId> = records.iter().map(|r| r.video_id).collect();
    assert!(ds.server_ips().iter().eq(&servers), "server dictionary");
    assert!(ds.video_ids().iter().eq(&videos), "video dictionary");

    let header = YtcHeader {
        scale: 1.0,
        seed: 0,
        mutations: vec![],
    };
    let file = YtcFile::new(header, vec![ds.clone()]).expect("well-formed rows encode");
    let decoded = YtcFile::decode(&file.encode()).expect("own encode decodes");
    assert_eq!(decoded.datasets().len(), 1, ".ytc encode→decode");
    assert_eq!(decoded.datasets()[0].dataset(), &ds, ".ytc encode→decode");
    let mut text = Vec::new();
    write_textlog(&ds, &mut text).expect("writing to a Vec");
    let parsed = read_textlog(&text[..]).expect("own text log parses");
    assert_eq!(parsed, ds, "text write→parse");
}

#[test]
fn every_producer_builds_the_same_dataset() {
    assert_one_value_from_every_producer(Vec::new());
    check(CASES, |rng| {
        // Few distinct starts and durations (ties on start_ms and on the
        // whole sort key), across several hours; few servers and videos
        // (repeats), including the widest video id.
        let records = vec_of(rng, 0..40, |rng| {
            let start = rng.gen_range(0u64..6) * (HOUR_MS / 2);
            FlowRecord {
                client_ip: Ipv4Addr::new(10, 0, 0, rng.gen_range(0u8..3)),
                server_ip: Ipv4Addr::new(74, 125, 0, rng.gen_range(0u8..4)),
                start_ms: start,
                end_ms: start + rng.gen_range(0u64..3) * 100,
                bytes: rng.gen_range(0u64..5_000_000),
                video_id: VideoId::from_index([0, 7, 1 << 40, u64::MAX][rng.gen_range(0..4)]),
                resolution: Resolution::ALL[rng.gen_range(0..Resolution::ALL.len())],
            }
        });
        assert_one_value_from_every_producer(records);
    });
}

/// The columns of `records` as `from_records` built them before its key
/// sorts: a stable row sort by `(start_ms, end_ms)`, each dictionary a
/// `sort_unstable` + `dedup` of the values, and one `binary_search` rank
/// per flow.
fn row_sort_oracle(mut records: Vec<FlowRecord>) -> DatasetColumns {
    records.sort_by_key(|r| (r.start_ms, r.end_ms));
    let mut servers: Vec<Ipv4Addr> = records.iter().map(|r| r.server_ip).collect();
    servers.sort_unstable();
    servers.dedup();
    let mut videos: Vec<VideoId> = records.iter().map(|r| r.video_id).collect();
    videos.sort_unstable();
    videos.dedup();
    let rank = |found: Result<usize, usize>| found.expect("the dictionary holds it") as u32;
    DatasetColumns {
        clients: records.iter().map(|r| u32::from(r.client_ip)).collect(),
        server_ranks: records
            .iter()
            .map(|r| rank(servers.binary_search(&r.server_ip)))
            .collect(),
        start_ms: records.iter().map(|r| r.start_ms).collect(),
        end_ms: records.iter().map(|r| r.end_ms).collect(),
        bytes: records.iter().map(|r| r.bytes).collect(),
        video_ranks: records
            .iter()
            .map(|r| rank(videos.binary_search(&r.video_id)))
            .collect(),
        resolutions: records.iter().map(|r| r.resolution).collect(),
        servers,
        videos,
    }
}

fn assert_from_records_matches_oracle(records: Vec<FlowRecord>) {
    let ds = Dataset::from_records(DatasetName::Eu1Ftth, records.clone());
    assert_eq!(ds.columns(), &row_sort_oracle(records));
}

#[test]
fn from_records_matches_the_row_sort_oracle() {
    assert_from_records_matches_oracle(Vec::new());
    let widest = FlowRecord {
        client_ip: Ipv4Addr::BROADCAST,
        server_ip: Ipv4Addr::BROADCAST,
        start_ms: u64::MAX,
        end_ms: u64::MAX,
        bytes: u64::MAX,
        video_id: VideoId::from_index(u64::MAX),
        resolution: Resolution::R1080,
    };
    assert_from_records_matches_oracle(vec![widest]);
    // Six rows tied on the whole sort key, differing in every other field:
    // the output keeps them in input order.
    let tied = (0..6u8)
        .map(|k| FlowRecord {
            client_ip: Ipv4Addr::new(10, 0, 0, k),
            server_ip: Ipv4Addr::new(74, 125, 0, 5 - k),
            start_ms: 5,
            end_ms: 9,
            bytes: u64::from(k),
            video_id: VideoId::from_index(u64::from(5 - k)),
            resolution: Resolution::ALL[usize::from(k) % Resolution::ALL.len()],
        })
        .collect();
    assert_from_records_matches_oracle(tied);
    check(CASES, |rng| {
        // Four starts and at most two ends per start, so many rows tie on
        // `(start_ms, end_ms)` while their other fields differ; few servers
        // and videos, so both dictionaries repeat; and times, byte counts
        // and video ids reach `u64::MAX`.
        let records = vec_of(rng, 0..48, |rng| {
            let start = [0, 1, HOUR_MS, u64::MAX][rng.gen_range(0..4)];
            FlowRecord {
                client_ip: Ipv4Addr::new(10, 0, 0, rng.gen_range(0u8..4)),
                server_ip: [
                    Ipv4Addr::UNSPECIFIED,
                    Ipv4Addr::new(74, 125, 0, 1),
                    Ipv4Addr::BROADCAST,
                ][rng.gen_range(0..3)],
                start_ms: start,
                end_ms: start.saturating_add(rng.gen_range(0u64..2)),
                bytes: [0, 1_500, u64::MAX][rng.gen_range(0..3)],
                video_id: VideoId::from_index([0, 7, 1 << 40, u64::MAX][rng.gen_range(0..4)]),
                resolution: Resolution::ALL[rng.gen_range(0..Resolution::ALL.len())],
            }
        });
        assert_from_records_matches_oracle(records);
    });
}

// ---- CDFs (ytcdn-core stats) ----

fn values(rng: &mut SimRng, len: Range<usize>, span: f64) -> Vec<f64> {
    vec_of(rng, len, |rng| rng.gen_range(-span..span))
}

#[test]
fn ks_distance_is_a_bounded_pseudometric() {
    check(CASES, |rng| {
        let a = Cdf::from_values(values(rng, 1..80, 1e3));
        let b = Cdf::from_values(values(rng, 1..80, 1e3));
        let d = a.ks_distance(&b);
        assert!((0.0..=1.0).contains(&d), "{d}");
        assert!((d - b.ks_distance(&a)).abs() < 1e-12);
        assert_eq!(a.ks_distance(&a), 0.0);
    });
}

#[test]
fn fraction_is_monotone() {
    check(CASES, |rng| {
        let cdf = Cdf::from_values(values(rng, 1..200, 1e6));
        let (a, b) = (rng.gen_range(-1e6..1e6), rng.gen_range(-1e6..1e6));
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(cdf.fraction_at_or_below(lo) <= cdf.fraction_at_or_below(hi));
    });
}

#[test]
fn percentile_within_range() {
    check(CASES, |rng| {
        let cdf = Cdf::from_values(values(rng, 1..200, 1e6));
        let v = cdf.percentile(rng.gen_range(0.0..100.0));
        assert!(v >= cdf.min() && v <= cdf.max(), "{v}");
    });
}

#[test]
fn median_splits_mass() {
    check(CASES, |rng| {
        let cdf = Cdf::from_values(values(rng, 1..100, 1e3));
        assert!(cdf.fraction_at_or_below(cdf.median()) >= 0.5);
    });
}

/// The sorted-sample `Cdf` that the runs replaced, kept as their oracle:
/// one `f64` per finite sample, in `f64::total_cmp` order.
struct SortedCdf(Vec<f64>);

impl SortedCdf {
    fn new(values: &[f64]) -> Self {
        let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
        sorted.sort_by(f64::total_cmp);
        Self(sorted)
    }

    fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.partition_point(|&v| v <= x) as f64 / self.0.len() as f64
    }

    /// Nearest rank `⌈q·n⌉`, clamped to `1..=n`.
    fn percentile(&self, p: f64) -> Option<f64> {
        let n = self.0.len();
        let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1));
        self.0.get(rank - 1).copied()
    }

    /// The `j/k`-quantile ranks, `k = min(n, max_points)`.
    fn plot_points(&self, max_points: usize) -> Vec<(f64, f64)> {
        let n = self.0.len();
        let k = max_points.min(n);
        (1..=k)
            .map(|j| {
                let i = j * n / k - 1;
                (self.0[i], (i + 1) as f64 / n as f64)
            })
            .collect()
    }

    fn ks_distance(&self, other: &SortedCdf) -> f64 {
        match (self.0.is_empty(), other.0.is_empty()) {
            (true, true) => return 0.0,
            (true, false) | (false, true) => return 1.0,
            _ => {}
        }
        let mut max_gap = 0.0f64;
        for &x in self.0.iter().chain(&other.0) {
            let gap = (self.fraction_at_or_below(x) - other.fraction_at_or_below(x)).abs();
            max_gap = max_gap.max(gap);
        }
        max_gap
    }
}

/// Asserts that `cdf` answers every query with the same bits as `oracle`.
fn assert_matches_sorted(cdf: &Cdf, oracle: &SortedCdf, what: &str) {
    let bits = |v: Option<f64>| v.map(f64::to_bits);
    assert_eq!(cdf.len(), oracle.0.len(), "{what}: len");
    assert_eq!(cdf.is_empty(), oracle.0.is_empty(), "{what}: is_empty");
    // Each sample, the midpoints between neighbours, and beyond both ends.
    let mut probes = vec![f64::NEG_INFINITY, f64::INFINITY, f64::NAN, -0.0, 0.0];
    probes.extend(oracle.0.iter().copied());
    probes.extend(oracle.0.windows(2).map(|w| w[0] + (w[1] - w[0]) / 2.0));
    if let (Some(&lo), Some(&hi)) = (oracle.0.first(), oracle.0.last()) {
        probes.extend([lo - 1.0, hi + 1.0]);
    }
    for x in probes {
        assert_eq!(
            cdf.fraction_at_or_below(x).to_bits(),
            oracle.fraction_at_or_below(x).to_bits(),
            "{what}: F({x})"
        );
    }
    for p in [0.0, 0.1, 1.0, 10.0, 25.0, 50.0, 90.0, 99.0, 100.0] {
        assert_eq!(
            bits(cdf.try_percentile(p).ok()),
            bits(oracle.percentile(p)),
            "{what}: p{p}"
        );
    }
    assert_eq!(
        bits(cdf.try_min().ok()),
        bits(oracle.0.first().copied()),
        "{what}: min"
    );
    assert_eq!(
        bits(cdf.try_max().ok()),
        bits(oracle.0.last().copied()),
        "{what}: max"
    );
    for max_points in [1, 2, 7, 400] {
        let to_bits = |pts: Vec<(f64, f64)>| -> Vec<(u64, u64)> {
            pts.into_iter()
                .map(|(x, y)| (x.to_bits(), y.to_bits()))
                .collect()
        };
        assert_eq!(
            to_bits(cdf.plot_points(max_points)),
            to_bits(oracle.plot_points(max_points)),
            "{what}: plot_points({max_points})"
        );
    }
}

/// The runs answer every query with the bits the sorted-sample `Cdf` did:
/// on heavily tied, signed-zero, NaN-laden, single-sample and empty inputs,
/// from values and from histograms, and pairwise for the KS distance.
#[test]
fn runs_match_the_sorted_sample_cdf() {
    let mut inputs: Vec<Vec<f64>> = vec![
        vec![],
        vec![42.5],
        vec![f64::NAN, f64::NAN],
        vec![0.0, -0.0, 0.0],
        vec![
            f64::NEG_INFINITY,
            -0.0,
            3.0,
            f64::NAN,
            0.0,
            3.0,
            f64::INFINITY,
        ],
    ];
    let mut rng = SimRng::for_stream(SEED, &[0xCDF]);
    for distinct in [1u64, 2, 3, 10, 1000] {
        for len in [1usize, 5, 64, 999] {
            inputs.push(
                (0..len)
                    .map(|_| match rng.gen_range(0..20u64) {
                        0 => f64::NAN,
                        1 => -0.0,
                        2 => rng.gen_range(-1e3..1e3),
                        _ => rng.gen_range(0..distinct) as f64 - (distinct / 2) as f64,
                    })
                    .collect(),
            );
        }
    }
    let cdfs: Vec<(Cdf, SortedCdf)> = inputs
        .iter()
        .map(|v| (Cdf::from_values(v.iter().copied()), SortedCdf::new(v)))
        .collect();
    for (i, (cdf, oracle)) in cdfs.iter().enumerate() {
        assert_matches_sorted(cdf, oracle, &format!("input {i} {:?}", &inputs[i]));
    }
    for (i, (a, oa)) in cdfs.iter().enumerate() {
        for (j, (b, ob)) in cdfs.iter().enumerate() {
            assert_eq!(
                a.ks_distance(b).to_bits(),
                oa.ks_distance(ob).to_bits(),
                "ks_distance of inputs {i} and {j}"
            );
        }
    }
    // Histograms, trailing and all-zero ones included.
    check(CASES, |rng| {
        let counts = vec_of(rng, 0..40, |rng| match rng.gen_range(0..3u64) {
            0 => 0,
            _ => rng.gen_range(0..50u64),
        });
        let expanded: Vec<f64> = counts
            .iter()
            .enumerate()
            .flat_map(|(v, &c)| std::iter::repeat_n(v as f64, c as usize))
            .collect();
        let what = format!("histogram {counts:?}");
        assert_matches_sorted(
            &Cdf::from_counts(&counts),
            &SortedCdf::new(&expanded),
            &what,
        );
    });
}

// ---- Session grouping (ytcdn-core) ----

/// Every flow belongs to exactly one session: sessions partition the
/// dataset.
#[test]
fn sessions_partition_flows() {
    check(CASES, |rng| {
        let ds = Dataset::from_records(DatasetName::UsCampus, colliding_flows(rng));
        let gap = rng.gen_range(1u64..5_000);
        let mut seen = vec![false; ds.len()];
        for s in group_sessions(&ds, gap).iter() {
            for &i in s.flow_indices() {
                let i = i as usize;
                assert!(!seen[i], "flow {i} in two sessions");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&b| b), "some flow in no session");
    });
}

/// The sessions' buckets, laid end to end, hold every flow index exactly
/// once; each bucket is one (client, video) pair's whole run, the runs
/// ascend in `(client, video)` order across the column, and every
/// session's slice ascends inside one bucket.
#[test]
fn session_column_is_a_bucketed_permutation() {
    check(CASES, |rng| {
        let ds = Dataset::from_records(DatasetName::UsCampus, colliding_flows(rng));
        let gap = rng.gen_range(1u64..5_000);
        let sessions = group_sessions(&ds, gap);
        let column: Vec<u32> = sessions.buckets().flatten().copied().collect();
        let mut sorted = column.clone();
        sorted.sort_unstable();
        assert!(
            sorted.iter().copied().eq(0..ds.len() as u32),
            "column is not a permutation of the flows"
        );
        let bucket = |i: u32| {
            let r = ds.row(i as usize);
            (r.client_ip, r.video_id)
        };
        for pair in column.windows(2) {
            let (a, b) = (bucket(pair[0]), bucket(pair[1]));
            assert!(
                a < b || (a == b && pair[0] < pair[1]),
                "bucket {a:?} (flow {}) before {b:?} (flow {})",
                pair[0],
                pair[1]
            );
        }
        let mut previous = None;
        for run in sessions.buckets() {
            let key = bucket(run[0]);
            assert!(run.iter().all(|&i| bucket(i) == key), "bucket mixes pairs");
            assert!(previous < Some(key), "{key:?} split across buckets");
            previous = Some(key);
        }
        for s in sessions.iter() {
            let flows = s.flow_indices();
            assert!(flows.windows(2).all(|w| w[0] < w[1]));
            assert!(
                flows
                    .iter()
                    .all(|&i| bucket(i) == (s.client_ip, s.video_id)),
                "session leaves its bucket"
            );
        }
    });
}

/// Sessions never mix clients or videos, and their time bounds cover
/// their member flows.
#[test]
fn sessions_are_homogeneous() {
    check(CASES, |rng| {
        let ds = Dataset::from_records(DatasetName::UsCampus, colliding_flows(rng));
        for s in group_sessions(&ds, 1_000).iter() {
            for f in s.flows_iter(&ds) {
                assert_eq!(f.client_ip, s.client_ip);
                assert_eq!(f.video_id, s.video_id);
                assert!(f.start_ms >= s.start_ms);
                assert!(f.end_ms <= s.end_ms);
            }
        }
    });
}

/// A larger gap threshold can only merge sessions, never split them.
#[test]
fn session_count_monotone_in_gap() {
    check(CASES, |rng| {
        let ds = Dataset::from_records(DatasetName::UsCampus, colliding_flows(rng));
        let t1 = rng.gen_range(1u64..3_000);
        let t2 = t1 + rng.gen_range(1u64..300_000);
        let small = group_sessions(&ds, t1).len();
        let large = group_sessions(&ds, t2).len();
        assert!(large <= small, "T={t1}: {small} sessions, T={t2}: {large}");
    });
}

/// Within a session, consecutive flows respect the gap rule: each flow
/// starts no later than `gap` after the latest end seen so far.
#[test]
fn session_gap_rule_holds() {
    check(CASES, |rng| {
        let ds = Dataset::from_records(DatasetName::UsCampus, colliding_flows(rng));
        let gap = rng.gen_range(1u64..5_000);
        for s in group_sessions(&ds, gap).iter() {
            let flows: Vec<_> = s.flows_iter(&ds).collect();
            let mut max_end = flows[0].end_ms;
            for f in &flows[1..] {
                assert!(
                    f.start_ms <= max_end + gap,
                    "gap violated: start {} vs max_end {max_end} + {gap}",
                    f.start_ms
                );
                max_end = max_end.max(f.end_ms);
            }
        }
    });
}

// ---- Network and CDN models (ytcdn-netsim, ytcdn-cdnsim) ----

/// The delay model never violates the speed of light, for any pair of
/// valid coordinates and access kinds.
#[test]
fn delay_respects_physics() {
    check(CASES, |rng| {
        let mut coord = || Coord::new(rng.gen_range(-89.0..89.0), rng.gen_range(-179.0..179.0));
        let a = Endpoint::new(coord().unwrap(), AccessKind::Campus);
        let b = Endpoint::new(coord().unwrap(), AccessKind::DataCenter);
        let model = DelayModel::default();
        let km = a.coord.distance_km(b.coord);
        assert!(model.floor_rtt_ms(&a, &b) >= min_rtt_ms(km));
        // Symmetry.
        assert!((model.floor_rtt_ms(&a, &b) - model.floor_rtt_ms(&b, &a)).abs() < 1e-9);
    });
}

/// The DNS resolver's capacity budget is exact: within any hour, at most
/// `cap` resolutions reach the preferred data center.
#[test]
fn dns_capacity_is_a_hard_budget() {
    check(CASES, |rng| {
        let cap = rng.gen_range(1u64..20);
        let offsets = vec_of(rng, 1..120, |rng| rng.gen_range(0..3 * HOUR_MS));
        let mut resolver = DnsResolver::new(vec![LdnsPolicy {
            preferred: DataCenterId(0),
            alternates: vec![DataCenterId(1)],
            noise_prob: 0.0,
            hourly_capacity: Some(cap),
        }]);
        let mut dns_rng = SimRng::seed_from_u64(1);
        let mut per_hour = std::collections::BTreeMap::new();
        for t in offsets {
            let d = resolver.resolve(LdnsId(0), t, &mut dns_rng);
            if d.dc == DataCenterId(0) {
                *per_hour.entry(t / HOUR_MS).or_insert(0u64) += 1;
            }
        }
        for (&hour, &n) in &per_hour {
            assert!(n <= cap, "hour {hour}: {n} > cap {cap}");
        }
    });
}

/// Content presence is monotone: replication adds availability and never
/// removes it, for arbitrary videos and data centers.
#[test]
fn replication_is_monotone() {
    let topo = Topology::standard();
    check(CASES, |rng| {
        let mut store = ContentStore::new(Default::default(), &topo);
        let video = VideoId::from_index(rng.gen_range(0u64..2_000_000));
        let dcs: Vec<DataCenterId> = store.dcs().to_vec();
        let dc = dcs[rng.gen_range(0..dcs.len())];
        let before: Vec<bool> = dcs.iter().map(|&d| store.has(d, video)).collect();
        store.replicate(dc, video);
        for (i, &d) in dcs.iter().enumerate() {
            let after = store.has(d, video);
            assert!(after >= before[i], "{d}: availability lost");
            if d == dc {
                assert!(after, "replication target still missing content");
            }
        }
    });
}

/// The origin invariant: every video is available somewhere, always.
#[test]
fn every_video_has_a_holder() {
    let topo = Topology::standard();
    let store = ContentStore::new(Default::default(), &topo);
    check(CASES, |rng| {
        let video = VideoId::from_index(rng.next_u64());
        let origin = store.origin_of(video);
        assert!(store.has(origin, video));
        assert!(store.dcs().contains(&origin));
    });
}

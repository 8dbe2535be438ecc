//! Cross-crate property tests: the structural invariants every analysis in
//! the reproduction silently relies on, from the flow-record codecs up to
//! the content store and the DNS resolver.
//!
//! Each property runs over generated cases. Case `i` draws every input
//! from `SimRng::for_stream(SEED, &[i])` alone, so a failure names a case
//! that replays by itself; the edge values a shrinker would find (0, the
//! type's maximum, equal pairs) are covered by explicit cases instead.

use std::net::Ipv4Addr;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};

use ytcdn_cdnsim::dns::{DnsResolver, LdnsId, LdnsPolicy};
use ytcdn_cdnsim::{ContentStore, DataCenterId, SimRng, Topology};
use ytcdn_core::session::group_sessions;
use ytcdn_core::stats::Cdf;
use ytcdn_geomodel::{min_rtt_ms, Coord};
use ytcdn_netsim::{AccessKind, DelayModel, Endpoint};
use ytcdn_tstat::{
    read_textlog, write_textlog, Anonymizer, Dataset, DatasetName, FlowClass, FlowClassifier,
    FlowRecord, Resolution, VideoId, HOUR_MS,
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
        let thr = rng.gen_range(1u64..10_000_000);
        let c = FlowClassifier::with_threshold(thr);
        // Both sides of the threshold, the threshold itself, and anywhere.
        for bytes in [thr - 1, thr, rng.gen_range(0..2 * thr), rng.next_u64()] {
            let want = if bytes < thr {
                FlowClass::Control
            } else {
                FlowClass::Video
            };
            assert_eq!(
                c.classify_bytes(bytes),
                want,
                "{bytes} bytes, threshold {thr}"
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

// ---- Session grouping (ytcdn-core) ----

/// Every flow belongs to exactly one session: sessions partition the
/// dataset.
#[test]
fn sessions_partition_flows() {
    check(CASES, |rng| {
        let ds = Dataset::from_records(DatasetName::UsCampus, colliding_flows(rng));
        let gap = rng.gen_range(1u64..5_000);
        let mut seen = vec![false; ds.len()];
        for s in &group_sessions(&ds, gap) {
            for &i in &s.flow_indices {
                assert!(!seen[i], "flow {i} in two sessions");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&b| b), "some flow in no session");
    });
}

/// Sessions never mix clients or videos, and their time bounds cover
/// their member flows.
#[test]
fn sessions_are_homogeneous() {
    check(CASES, |rng| {
        let ds = Dataset::from_records(DatasetName::UsCampus, colliding_flows(rng));
        for s in group_sessions(&ds, 1_000) {
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
        for s in group_sessions(&ds, gap) {
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

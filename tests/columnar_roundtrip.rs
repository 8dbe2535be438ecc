//! Round-trip and golden tests for the `.ytc` columnar format.
//!
//! The format's contract is twofold. First, *identity*: `decode(encode(f))`
//! reproduces every flow column exactly — timestamps, durations, byte
//! counts, client and server addresses, video ids, resolutions — for
//! simulator output at any seed/scale and for every degenerate shape the
//! analysis layer tolerates. Second, *byte stability*: encoding is a pure
//! function of the header and the sorted record columns, so the same
//! scenario yields identical bytes whatever worker count simulated it, and
//! a pinned whole-file SHA-256 detects any accidental format
//! or simulation drift (the binary twin of `tests/golden_tables.rs`).
//!
//! ## Golden update procedure
//!
//! If your change *intentionally* alters the simulation or the wire format
//! (the latter requires a [`FORMAT_VERSION`] bump — see `DESIGN.md` §13),
//! re-baseline:
//!
//! ```text
//! cargo test --test columnar_roundtrip -- --ignored --nocapture print_golden_ytc_sha256
//! ```
//!
//! then paste the printed constant over `GOLDEN_SHA256` below and state in
//! the PR description why the bytes changed. An unexplained golden diff is
//! the red flag this test exists to raise.

use ytcdn_cdnsim::{ScenarioConfig, StandardScenario};
use ytcdn_core::degenerate::DegenerateShape;
use ytcdn_core::sha256::sha256_hex;
use ytcdn_core::{YtcFile, YtcHeader};
use ytcdn_tstat::{Dataset, DatasetName};

/// The (scale, seed) pairs the round-trip cases cover — the same pairs as
/// `tests/analysis_index_differential.rs`, so drift shows up in both.
const CASES: [(f64, u64); 2] = [(0.004, 2), (0.008, 55)];

/// Scale/seed of the golden file, matching `tests/golden_tables.rs`.
const GOLDEN_SCALE: f64 = 0.01;
const GOLDEN_SEED: u64 = 42;

/// Pinned SHA-256 of the full five-dataset `.ytc` encode at
/// [`GOLDEN_SCALE`]/[`GOLDEN_SEED`] with no mutations. See the module docs
/// for the update procedure.
const GOLDEN_SHA256: &str = "c568bb4a470bc6fc2bb861185096186457b44dc68dc94c2a861c68a5e0e62434";

fn header(scale: f64, seed: u64) -> YtcHeader {
    YtcHeader {
        scale,
        seed,
        mutations: vec![],
    }
}

fn scenario(scale: f64, seed: u64) -> StandardScenario {
    StandardScenario::build(ScenarioConfig::with_scale(scale, seed))
}

/// Asserts column-by-column equality, so a regression names the column
/// that drifted instead of dumping two whole datasets.
fn assert_columns_equal(got: &Dataset, want: &Dataset, label: &str) {
    assert_eq!(got.name(), want.name(), "{label}: dataset name");
    assert_eq!(got.len(), want.len(), "{label}: flow count");
    for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        assert_eq!(g.start_ms, w.start_ms, "{label}: start_ms of flow {i}");
        assert_eq!(g.end_ms, w.end_ms, "{label}: end_ms of flow {i}");
        assert_eq!(g.bytes, w.bytes, "{label}: bytes of flow {i}");
        assert_eq!(g.client_ip, w.client_ip, "{label}: client_ip of flow {i}");
        assert_eq!(g.server_ip, w.server_ip, "{label}: server_ip of flow {i}");
        assert_eq!(g.video_id, w.video_id, "{label}: video_id of flow {i}");
        assert_eq!(
            g.resolution, w.resolution,
            "{label}: resolution of flow {i}"
        );
    }
    // Belt and suspenders: structural equality of the whole dataset.
    assert_eq!(got, want, "{label}: datasets differ beyond the columns");
}

/// Every flow column survives the encode/decode round trip, for every
/// vantage point, across seeds × scales.
#[test]
fn roundtrip_preserves_every_column() {
    for (scale, seed) in CASES {
        let datasets = scenario(scale, seed).run_all(2);
        let file = YtcFile::new(header(scale, seed), datasets.clone()).unwrap();
        let back = YtcFile::decode(&file.encode()).unwrap();
        assert_eq!(back.header, file.header, "header survives the trip");
        let decoded = back.into_datasets();
        assert_eq!(decoded.len(), datasets.len());
        for (got, want) in decoded.iter().zip(&datasets) {
            let label = format!("{} scale={scale} seed={seed}", want.name());
            assert_columns_equal(got, want, &label);
        }
    }
}

/// The encoded bytes are identical for any simulation worker count — the
/// worker count changes wall-clock, never the file.
#[test]
fn encoded_bytes_identical_across_jobs() {
    for (scale, seed) in CASES {
        let s = scenario(scale, seed);
        let baseline = YtcFile::new(header(scale, seed), s.run_all(1))
            .unwrap()
            .encode();
        for jobs in [3, 5] {
            let pooled = YtcFile::new(header(scale, seed), s.run_all(jobs))
                .unwrap()
                .encode();
            assert_eq!(
                pooled, baseline,
                "scale={scale} seed={seed}: jobs={jobs} encoded differently \
                 from the one-worker run"
            );
        }
    }
}

/// Degenerate shapes — empty, single-flow, single-hour, and the rest of
/// [`DegenerateShape::ALL`] — round-trip exactly, including the hour index.
#[test]
fn degenerate_shapes_roundtrip() {
    let s = scenario(0.004, 2);
    let (ds, _) = s.run(DatasetName::Eu1Adsl);
    for shape in DegenerateShape::ALL {
        let shaped = shape.apply(s.world(), ds.clone());
        let file = YtcFile::new(header(0.004, 2), vec![shaped.clone()]).unwrap();
        let back = YtcFile::decode(&file.encode()).unwrap();
        assert_eq!(back, file, "{shape}: file survives the trip");
        assert_columns_equal(
            back.into_datasets().first().unwrap(),
            &shaped,
            shape.as_str(),
        );
    }
}

/// A header-only file (zero datasets) is legal and round-trips; so does a
/// header carrying mutation specs.
#[test]
fn empty_file_and_mutations_roundtrip() {
    let mut h = header(0.02, 7);
    h.mutations = vec!["dc-down@72:milan".into(), "prefs@100:eu2".into()];
    let file = YtcFile::new(h, vec![]).unwrap();
    let back = YtcFile::decode(&file.encode()).unwrap();
    assert_eq!(back, file);
    assert_eq!(back.header.mutations.len(), 2);
    assert_eq!(back.total_flows(), 0);
}

/// The decoded hour index matches what [`ytcdn_core::DatasetIndex`] would
/// derive from the records, so `from_columnar` can trust it.
#[test]
fn decoded_hour_ranges_match_index_binning() {
    let s = scenario(0.004, 2);
    let (ds, _) = s.run(DatasetName::Eu2);
    let ctx = ytcdn_core::AnalysisContext::from_ground_truth(s.world(), &ds);
    let index = ytcdn_core::DatasetIndex::build(&ctx, &ds, ytcdn_telemetry::Telemetry::disabled());
    let file = YtcFile::new(header(0.004, 2), vec![ds]).unwrap();
    let back = YtcFile::decode(&file.encode()).unwrap();
    let columnar = back.dataset(DatasetName::Eu2).unwrap();
    assert_eq!(columnar.hour_ranges(), index.hour_ranges());
}

/// Builds the golden file: all five vantage points at the golden
/// scale/seed, no mutations.
fn golden_file() -> YtcFile {
    let s = scenario(GOLDEN_SCALE, GOLDEN_SEED);
    YtcFile::new(header(GOLDEN_SCALE, GOLDEN_SEED), s.run_all(1)).expect("golden output encodes")
}

/// Pins the whole-file digest. Every byte of the encode is derived from
/// in-tree deterministic code (`SimRng` simulation, in-tree SHA-256), so
/// this value is identical on every platform and toolchain.
#[test]
fn golden_ytc_sha256_is_stable() {
    let digest = sha256_hex(&golden_file().encode());
    assert_eq!(
        digest, GOLDEN_SHA256,
        "the golden .ytc bytes drifted — if intentional, follow the update \
         procedure in tests/columnar_roundtrip.rs"
    );
}

/// Regeneration helper — see the update procedure in the module docs.
#[test]
#[ignore = "regeneration helper, run with --ignored --nocapture"]
fn print_golden_ytc_sha256() {
    let bytes = golden_file().encode();
    println!("const GOLDEN_SHA256: &str = \"{}\";", sha256_hex(&bytes));
    println!(
        "// ({} bytes, {} flows)",
        bytes.len(),
        golden_file().total_flows()
    );
}

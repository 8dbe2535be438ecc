//! Dataset serialization round-trips: a trace written to disk and read back
//! yields identical analysis results — the property that lets datasets be
//! generated once and analyzed separately (as the paper's authors did with
//! their Tstat logs).

use ytcdn_cdnsim::{ScenarioConfig, StandardScenario};
use ytcdn_core::index::DatasetIndex;
use ytcdn_core::session::group_sessions;
use ytcdn_core::AnalysisContext;
use ytcdn_telemetry::Telemetry;
use ytcdn_tstat::{read_textlog, write_textlog, Dataset, DatasetName};

#[test]
fn textlog_roundtrip_preserves_analysis() {
    let scenario = StandardScenario::build(ScenarioConfig::with_scale(0.004, 3));
    let (ds, _) = scenario.run(DatasetName::Eu1Campus);

    let mut buf = Vec::new();
    write_textlog(&ds, &mut buf).expect("serialize");
    let back = read_textlog(&buf[..]).expect("deserialize");
    assert_eq!(back, ds);

    // Full analysis agreement, not just record equality.
    let ctx_a = AnalysisContext::from_ground_truth(scenario.world(), &ds);
    let ctx_b = AnalysisContext::from_ground_truth(scenario.world(), &back);
    assert_eq!(ctx_a.preferred().city_name, ctx_b.preferred().city_name);
    let index_a = DatasetIndex::build(&ctx_a, ds, Telemetry::disabled());
    let index_b = DatasetIndex::build(&ctx_b, back, Telemetry::disabled());
    assert_eq!(index_a.sessions().len(), index_b.sessions().len());
    assert_eq!(index_a.patterns(), index_b.patterns());
}

#[test]
fn textlog_is_line_oriented_and_truncatable() {
    let scenario = StandardScenario::build(ScenarioConfig::with_scale(0.001, 4));
    let (ds, _) = scenario.run(DatasetName::Eu1Ftth);
    let mut buf = Vec::new();
    write_textlog(&ds, &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), ds.len() + 2, "two header lines + one per flow");
    // Truncating the file to half at a line boundary still parses (a
    // partially transferred trace remains usable).
    let half = lines[..lines.len() / 2].join("\n");
    let partial = read_textlog(half.as_bytes()).unwrap();
    assert_eq!(partial.len(), lines.len() / 2 - 2);
    assert!(partial.iter().eq(ds.iter().take(partial.len())));
}

/// The latent gap: an empty dataset (what `--degenerate empty` exports)
/// must survive every serialization path, not just the populated ones.
#[test]
fn empty_dataset_roundtrips_through_every_format() {
    let empty = Dataset::new(DatasetName::Eu1Adsl);

    // Text log: header lines only, reads back empty.
    let mut buf = Vec::new();
    write_textlog(&empty, &mut buf).expect("serialize empty");
    let text = String::from_utf8(buf.clone()).unwrap();
    assert_eq!(text.lines().count(), 2, "header lines only");
    let back = read_textlog(&buf[..]).expect("deserialize empty");
    assert_eq!(back, empty);
    assert_eq!(back.len(), 0);

    // .ytc: a zero-flow section round-trips, hour index included.
    let file = ytcdn_core::YtcFile::new(
        ytcdn_core::YtcHeader {
            scale: 0.001,
            seed: 6,
            mutations: vec![],
        },
        vec![empty.clone()],
    )
    .expect("empty dataset is encodable");
    let decoded = ytcdn_core::YtcFile::decode(&file.encode()).expect("decode empty");
    assert_eq!(decoded.total_flows(), 0);
    let columnar = decoded.dataset(DatasetName::Eu1Adsl).expect("present");
    assert_eq!(
        columnar.hour_ranges().len(),
        1,
        "one empty hour, never zero"
    );
    assert_eq!(columnar.hour_ranges()[0], 0..0);
    assert_eq!(columnar.dataset(), &empty);

    // Analysis still degrades gracefully rather than panicking.
    let scenario = StandardScenario::build(ScenarioConfig::with_scale(0.001, 6));
    let ctx = AnalysisContext::from_ground_truth(scenario.world(), &empty);
    assert!(group_sessions(&back, 1_000).is_empty());
    assert_eq!(
        DatasetIndex::build(&ctx, back, Telemetry::disabled()).patterns(),
        ytcdn_core::patterns::PatternStats::default()
    );
}

#[test]
fn disk_roundtrip_through_tempfile() {
    let scenario = StandardScenario::build(ScenarioConfig::with_scale(0.001, 5));
    let (ds, _) = scenario.run(DatasetName::Eu2);
    let path = std::env::temp_dir().join(format!("ytcdn_test_{}.log", std::process::id()));
    {
        let f = std::fs::File::create(&path).unwrap();
        write_textlog(&ds, std::io::BufWriter::new(f)).unwrap();
    }
    let f = std::fs::File::open(&path).unwrap();
    let back = read_textlog(std::io::BufReader::new(f)).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(back, ds);
}

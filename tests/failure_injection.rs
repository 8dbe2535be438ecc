//! Failure injection and degenerate-input coverage: the reproduction must
//! fail loudly on corrupt inputs and behave sanely at the edges of its
//! parameter space.

use ytcdn_cdnsim::{ScenarioConfig, StandardScenario};
use ytcdn_core::AnalysisContext;
use ytcdn_geoloc::Cbg;
use ytcdn_geomodel::CityDb;
use ytcdn_netsim::{AccessKind, DelayModel, Endpoint, Landmark, NoiseRng};
use ytcdn_tstat::{Dataset, DatasetName};

#[test]
fn corrupt_textlog_reports_an_error_not_garbage() {
    let scenario = StandardScenario::build(ScenarioConfig::with_scale(0.001, 1));
    let (ds, _) = scenario.run(DatasetName::Eu1Ftth);
    let mut buf = Vec::new();
    ytcdn_tstat::write_textlog(&ds, &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();

    // Corrupt one record line in the middle.
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    let mid = lines.len() / 2;
    lines[mid] = lines[mid].replace(' ', ";");
    let corrupted = lines.join("\n");
    assert!(ytcdn_tstat::read_textlog(corrupted.as_bytes()).is_err());

    // Records without the `#dataset` header are also an error.
    let no_header = lines[1..].join("\n");
    assert!(ytcdn_tstat::read_textlog(no_header.as_bytes()).is_err());
}

#[test]
fn textlog_with_embedded_garbage_fails_with_line_number() {
    let scenario = StandardScenario::build(ScenarioConfig::with_scale(0.001, 2));
    let (ds, _) = scenario.run(DatasetName::Eu1Ftth);
    let mut buf = Vec::new();
    ytcdn_tstat::write_textlog(&ds, &mut buf).unwrap();
    let mut text = String::from_utf8(buf).unwrap();
    text.push_str("totally not a record\n");
    let err = ytcdn_tstat::read_textlog(text.as_bytes()).unwrap_err();
    // The error names the line and the first unparsable column.
    let msg = err.to_string();
    assert!(msg.contains("client_ip"), "{msg}");
}

#[test]
fn cbg_survives_colocated_landmarks() {
    // All landmarks in one metro area: the constraints barely triangulate,
    // so the region must simply be wide — not a panic, not a bogus pinpoint.
    let turin = CityDb::builtin().named("Turin").coord;
    let landmarks: Vec<Landmark> = (0..6)
        .map(|i| Landmark {
            name: format!("colo-{i}"),
            coord: turin.offset_km(i as f64 * 60.0, 5.0 + i as f64),
            continent: ytcdn_geomodel::Continent::Europe,
        })
        .collect();
    let cbg = Cbg::calibrate(landmarks, DelayModel::default(), 3, 1);
    let mut rng = NoiseRng::seed_from_u64(3);
    let far = Endpoint::new(
        CityDb::builtin().named("Tokyo").coord,
        AccessKind::DataCenter,
    );
    let r = cbg.localize(&far, &mut rng);
    assert!(
        r.radius_km > 500.0,
        "colocated landmarks cannot pinpoint a far target: radius {}",
        r.radius_km
    );
    // And a nearby target still resolves reasonably.
    let near = Endpoint::new(
        CityDb::builtin().named("Milan").coord,
        AccessKind::DataCenter,
    );
    let r = cbg.localize(&near, &mut rng);
    assert!(r.estimate.distance_km(near.coord) < 600.0);
}

#[test]
fn tiny_scale_still_produces_consistent_world() {
    // The smallest meaningful scale: a handful of sessions. Everything must
    // stay well-formed even when some hours see zero traffic.
    let scenario = StandardScenario::build(ScenarioConfig::with_scale(0.0002, 4));
    for name in DatasetName::ALL {
        let (ds, outcome) = scenario.run(name);
        assert_eq!(ds.len() as u64, outcome.flows);
        assert!(ds.iter().all(|r| r.is_well_formed()));
        if ds.is_empty() {
            continue;
        }
        let ctx = AnalysisContext::from_ground_truth(scenario.world(), &ds);
        // Shares stay within [0, 1] no matter how sparse the data.
        let share = ctx.preferred_share_of_bytes();
        assert!((0.0..=1.0).contains(&share), "{name}: {share}");
    }
}

#[test]
fn analysis_on_foreign_only_dataset_is_safe() {
    // A dataset where every flow goes to a non-analysis AS (hand-built):
    // the context must not panic and must report zero traffic.
    let scenario = StandardScenario::build(ScenarioConfig::with_scale(0.001, 5));
    let legacy_server = scenario
        .world()
        .topology()
        .dcs_in_pool(ytcdn_cdnsim::ServerPool::LegacyYouTubeEu)
        .next()
        .unwrap()
        .servers[0];
    let records = vec![ytcdn_tstat::FlowRecord {
        client_ip: "128.210.0.1".parse().unwrap(),
        server_ip: legacy_server,
        start_ms: 0,
        end_ms: 1000,
        bytes: 5_000_000,
        video_id: ytcdn_tstat::VideoId::from_index(1),
        resolution: ytcdn_tstat::Resolution::R360,
    }];
    let ds = Dataset::from_records(DatasetName::UsCampus, records);
    let ctx = AnalysisContext::from_ground_truth(scenario.world(), &ds);
    assert_eq!(ctx.preferred_share_of_bytes(), 0.0);
    assert_eq!(ctx.nonpreferred_share_of_flows(), 0.0);
    assert!(ctx.dc_of(&ds.records()[0]).is_none());
}

#[test]
fn dns_noise_of_one_always_diverts() {
    use ytcdn_cdnsim::dns::{DnsResolver, LdnsId, LdnsPolicy};
    use ytcdn_cdnsim::DataCenterId;
    let mut r = DnsResolver::new(vec![LdnsPolicy {
        preferred: DataCenterId(0),
        alternates: vec![DataCenterId(1), DataCenterId(2)],
        noise_prob: 1.0,
        hourly_capacity: None,
    }]);
    let mut rng = ytcdn_cdnsim::SimRng::seed_from_u64(6);
    for _ in 0..50 {
        let d = r.resolve(LdnsId(0), 0, &mut rng);
        assert_ne!(d.dc, DataCenterId(0));
    }
}

#[test]
fn empty_dataset_summary_and_serialization() {
    let ds = Dataset::new(DatasetName::Eu2);
    let s = ds.summary();
    assert_eq!(s.flows, 0);
    let mut buf = Vec::new();
    ytcdn_tstat::write_textlog(&ds, &mut buf).unwrap();
    let back = ytcdn_tstat::read_textlog(&buf[..]).unwrap();
    assert_eq!(back, ds);
}

#[test]
fn scenario_rejects_invalid_catalog() {
    let mut cfg = ScenarioConfig::with_scale(0.001, 7);
    cfg.catalog.num_videos = 0;
    let r = std::panic::catch_unwind(|| StandardScenario::build(cfg));
    assert!(r.is_err(), "empty catalog must be rejected at build time");
}

#[test]
fn scenario_rejects_unknown_override_city() {
    let mut vantages = ytcdn_cdnsim::VantagePoint::standard_five();
    vantages[0].preferred_city_override = Some("Atlantis");
    let cfg = ScenarioConfig::with_scale(0.001, 8);
    let r = std::panic::catch_unwind(|| StandardScenario::build_with_vantages(cfg, vantages));
    assert!(r.is_err());
}

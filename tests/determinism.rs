//! Reproducibility: a seed fully determines the simulated world and every
//! analysis derived from it. This property is what makes the repository's
//! EXPERIMENTS.md numbers checkable by a third party.

use std::sync::Arc;

use ytcdn_cdnsim::{ActiveConfig, ActiveExperiment, ScenarioConfig, StandardScenario};
use ytcdn_core::session::group_sessions;
use ytcdn_core::{AnalysisContext, YtcFile, YtcHeader};
use ytcdn_telemetry::{DnsCauseKind, JsonlSink, Sink, Telemetry};
use ytcdn_tstat::DatasetName;

#[test]
fn datasets_are_bit_identical_across_builds() {
    let a = StandardScenario::build(ScenarioConfig::with_scale(0.004, 31)).run_all(1);
    let b = StandardScenario::build(ScenarioConfig::with_scale(0.004, 31)).run_all(1);
    assert_eq!(a, b);
}

#[test]
fn different_seeds_produce_different_traces_with_same_shape() {
    let a = StandardScenario::build(ScenarioConfig::with_scale(0.004, 1));
    let b = StandardScenario::build(ScenarioConfig::with_scale(0.004, 2));
    let (ds_a, _) = a.run(DatasetName::Eu1Adsl);
    let (ds_b, _) = b.run(DatasetName::Eu1Adsl);
    assert_ne!(ds_a, ds_b);
    // Same shape: session structure within a band, preferred DC identical.
    let ctx_a = AnalysisContext::from_ground_truth(a.world(), &ds_a);
    let ctx_b = AnalysisContext::from_ground_truth(b.world(), &ds_b);
    assert_eq!(ctx_a.preferred().city_name, ctx_b.preferred().city_name);
    let sa = ctx_a.preferred_share_of_bytes();
    let sb = ctx_b.preferred_share_of_bytes();
    assert!((sa - sb).abs() < 0.05, "{sa} vs {sb}");
}

#[test]
fn telemetry_does_not_perturb_datasets() {
    // The telemetry layer observes decisions; it must never draw from or
    // reorder the RNG stream. Byte-for-byte identical `.ytc` encodings with
    // telemetry fully on (events + metrics) vs. fully off is the invariant
    // the whole observability layer hangs on. The instrumented side runs
    // all five engines concurrently into one sink, so this also shows that
    // concurrent engines leave the same bytes and well-formed lines.
    let cfg = ScenarioConfig::with_scale(0.004, 31);
    let plain = StandardScenario::build(cfg).run_all(1);

    let sink = Arc::new(JsonlSink::new(Vec::new()));
    let telemetry = Telemetry::with_sink(Arc::clone(&sink) as Arc<dyn Sink>);
    let mut instrumented = StandardScenario::build(cfg);
    instrumented.set_telemetry(telemetry.clone());
    let observed = instrumented.run_all(5);

    let header = YtcHeader {
        scale: 0.004,
        seed: 31,
        mutations: vec![],
    };
    let encode = |datasets| YtcFile::new(header.clone(), datasets).unwrap().encode();
    assert!(
        encode(plain) == encode(observed),
        "datasets not byte-identical with telemetry on"
    );

    // The instrumented run actually observed things: every DNS cause has a
    // nonzero counter and at least one structured event on the wire.
    let snap = telemetry.metrics_snapshot().unwrap();
    for cause in DnsCauseKind::ALL {
        assert!(
            snap.counter(cause.counter_name()) > 0,
            "no {} resolutions observed",
            cause.counter_name()
        );
    }
    assert!(snap.counter("engine.cache_miss") > 0);
    assert!(snap.counter("placement.replication") > 0);
    telemetry.flush().unwrap();
    // Release every Telemetry handle so the sink can be unwrapped.
    drop(instrumented);
    drop(telemetry);
    let events = Arc::try_unwrap(sink)
        .unwrap_or_else(|_| panic!("sink still shared"))
        .into_inner();
    let text = String::from_utf8(events).unwrap();
    assert!(!text.is_empty());
    // One compact object per line; engine events lead with their dataset
    // scope (the key set and types are pinned by the telemetry crate's
    // golden schema).
    let mut dns_events = [0usize; 5];
    for line in text.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        if line.contains(r#""event":"dns_resolution""#) {
            let scope = DatasetName::ALL
                .iter()
                .position(|n| line.starts_with(&format!(r#"{{"scope":"{n}","event":"#)));
            let Some(i) = scope else {
                panic!("engine events carry a dataset scope: {line}");
            };
            dns_events[i] += 1;
        }
    }
    assert!(
        dns_events.iter().all(|&n| n > 0),
        "every concurrent engine reported: {dns_events:?}"
    );
}

#[test]
fn dataset_order_does_not_matter() {
    // Each dataset draws from its own seed stream: simulating EU2 first or
    // last yields the same trace.
    let s = StandardScenario::build(ScenarioConfig::with_scale(0.002, 8));
    let (early, _) = s.run(DatasetName::Eu2);
    let _ = s.run(DatasetName::UsCampus);
    let _ = s.run(DatasetName::Eu1Ftth);
    let (late, _) = s.run(DatasetName::Eu2);
    assert_eq!(early, late);
}

#[test]
fn active_experiment_deterministic() {
    let s = StandardScenario::build(ScenarioConfig::with_scale(0.001, 77));
    let cfg = ActiveConfig {
        nodes: 15,
        samples: 4,
        ..ActiveConfig::default()
    };
    let a = ActiveExperiment::new(cfg).run(&s);
    let b = ActiveExperiment::new(cfg).run(&s);
    assert_eq!(a, b);
}

#[test]
fn analysis_is_pure() {
    // Running the analysis twice over the same dataset gives identical
    // results (no hidden RNG in the analysis path except the seeded pings).
    let s = StandardScenario::build(ScenarioConfig::with_scale(0.004, 13));
    let (ds, _) = s.run(DatasetName::UsCampus);
    let c1 = AnalysisContext::from_ground_truth(s.world(), &ds);
    let c2 = AnalysisContext::from_ground_truth(s.world(), &ds);
    assert_eq!(c1.preferred().city_name, c2.preferred().city_name);
    assert_eq!(c1.preferred().rtt_ms, c2.preferred().rtt_ms);
    assert_eq!(
        group_sessions(&ds, 1_000).len(),
        group_sessions(&ds, 1_000).len()
    );
}

#[test]
fn scale_preserves_shape() {
    // The same world at double the scale keeps the headline fractions.
    let small = StandardScenario::build(ScenarioConfig::with_scale(0.004, 50));
    let large = StandardScenario::build(ScenarioConfig::with_scale(0.012, 50));
    for name in [DatasetName::Eu1Adsl, DatasetName::Eu2] {
        let (ds_s, _) = small.run(name);
        let (ds_l, _) = large.run(name);
        assert!(
            ds_l.len() > 2 * ds_s.len(),
            "{name}: {} vs {}",
            ds_l.len(),
            ds_s.len()
        );
        let cs = AnalysisContext::from_ground_truth(small.world(), &ds_s);
        let cl = AnalysisContext::from_ground_truth(large.world(), &ds_l);
        assert_eq!(cs.preferred().city_name, cl.preferred().city_name);
        let a = cs.nonpreferred_share_of_flows();
        let b = cl.nonpreferred_share_of_flows();
        assert!((a - b).abs() < 0.08, "{name}: {a} vs {b}");
    }
}

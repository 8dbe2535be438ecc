//! Integration of the controlled active experiment (Section VII-C):
//! cold-video upload, worldwide probing, pull-through repair, and the
//! replication ablation.

use ytcdn_cdnsim::{ActiveConfig, ActiveExperiment, ScenarioConfig, StandardScenario};
use ytcdn_core::active_analysis::{most_illustrative_node, ratio_cdf, ratio_stats};

fn scenario() -> StandardScenario {
    StandardScenario::build(ScenarioConfig::with_scale(0.001, 99))
}

#[test]
fn figures_17_and_18_shape() {
    let s = scenario();
    let traces = ActiveExperiment::new(ActiveConfig::default()).run(&s);
    assert_eq!(traces.len(), 45);

    // Figure 17: a far-from-origin node pays a large first-sample RTT.
    let node = most_illustrative_node(&traces).unwrap();
    assert!(node.first_to_second_ratio().unwrap() > 5.0);
    // After the first sample, every later sample is served by the node's
    // preferred data center.
    for t in &traces {
        assert!(
            t.samples[1..].iter().all(|s| s.dc == t.preferred),
            "{}",
            t.node
        );
    }

    // Figure 18: substantial >1 mass, heavy >10 tail, and a near-1 mass
    // (nodes near the origin or warmed by a same-preference neighbor).
    let st = ratio_stats(&traces);
    assert!(st.above_one > 0.2 && st.above_one < 0.95, "{st:?}");
    assert!(st.above_ten > 0.05, "{st:?}");
    let cdf = ratio_cdf(&traces);
    assert!(cdf.fraction_at_or_below(2.0) > 0.2, "no near-1 mass");
}

#[test]
fn first_probe_goes_to_the_upload_origin() {
    let s = scenario();
    let exp = ActiveExperiment::new(ActiveConfig {
        nodes: 10,
        samples: 3,
        stagger_ms: 0,
        ..ActiveConfig::default()
    });
    let traces = exp.run(&s);
    // Replication is per preferred data center: the *first* node probing
    // through a given preferred DC must be served by the origin (unless its
    // preferred DC *is* the origin); nodes sharing that DC afterwards hit
    // the warm cache.
    let origin_city = "Groningen";
    let origin_id = s
        .world()
        .topology()
        .analysis_dcs()
        .find(|d| d.city.name == origin_city)
        .unwrap()
        .id;
    let mut seen_pref = std::collections::HashSet::new();
    for t in &traces {
        let first_for_this_pref = seen_pref.insert(t.preferred);
        if t.preferred == origin_id || first_for_this_pref {
            assert_eq!(t.samples[0].dc, origin_id, "{}", t.node);
        } else {
            // Warmed by an earlier same-preference node.
            assert_eq!(t.samples[0].dc, t.preferred, "{}", t.node);
        }
    }
}

#[test]
fn replication_ablation_breaks_the_repair() {
    // With pull-through replication disabled in the engine config, the
    // simulated week keeps redirecting repeat accesses; the active
    // experiment module always replicates (it models YouTube, not our
    // ablation), so here we validate the engine-side ablation flag.
    let mut cfg = ScenarioConfig::with_scale(0.004, 123);
    cfg.engine.disable_replication = true;
    let ablated = StandardScenario::build(cfg);
    let (_, out_ablated) = ablated.run(ytcdn_tstat::DatasetName::Eu1Adsl);

    let normal = StandardScenario::build(ScenarioConfig::with_scale(0.004, 123));
    let (_, out_normal) = normal.run(ytcdn_tstat::DatasetName::Eu1Adsl);

    assert_eq!(out_ablated.replications, 0);
    assert!(out_normal.replications > 0);
    // Without repair, strictly more sessions are redirected on misses.
    assert!(
        out_ablated.miss_redirects > out_normal.miss_redirects,
        "ablated {} vs normal {}",
        out_ablated.miss_redirects,
        out_normal.miss_redirects
    );
}

#[test]
fn staggered_nodes_share_warm_caches() {
    let s = scenario();
    // Many nodes, heavy stagger: later nodes with an already-warmed
    // preferred data center see ratio ≈ 1 from their very first sample.
    let traces = ActiveExperiment::new(ActiveConfig {
        nodes: 40,
        samples: 4,
        stagger_ms: 60_000,
        ..ActiveConfig::default()
    })
    .run(&s);
    let near_one = traces
        .iter()
        .filter_map(|t| t.first_to_second_ratio())
        .filter(|r| (0.5..1.5).contains(r))
        .count();
    assert!(near_one >= 5, "only {near_one} warm-start nodes");
}

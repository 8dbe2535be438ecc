//! Integration of the geolocation pipeline: CBG localization → city
//! clustering → data-center map → flow analysis, compared against the
//! ground-truth map. This is the paper's actual Section V → Section VI
//! pipeline, closed-loop.

use ytcdn_cdnsim::{ScenarioConfig, StandardScenario};
use ytcdn_core::geo_analysis::{continent_counts, geolocate_servers};
use ytcdn_core::{AnalysisContext, DcMap};
use ytcdn_geoloc::{cluster_by_city, Cbg, MaxmindLike};
use ytcdn_geomodel::{CityDb, Continent};
use ytcdn_netsim::{landmarks_with_counts, NoiseRng};
use ytcdn_tstat::DatasetName;

fn cbg(world_delay: ytcdn_netsim::DelayModel) -> Cbg {
    let lms = landmarks_with_counts(
        4,
        &[
            (Continent::NorthAmerica, 20),
            (Continent::Europe, 20),
            (Continent::Asia, 7),
            (Continent::SouthAmerica, 3),
            (Continent::Oceania, 2),
        ],
    );
    Cbg::calibrate(lms, world_delay, 3, 8)
}

#[test]
fn cbg_map_agrees_with_ground_truth_on_the_headline_analysis() {
    let scenario = StandardScenario::build(ScenarioConfig::with_scale(0.006, 5));
    let (ds, _) = scenario.run(DatasetName::Eu1Campus);
    let world = scenario.world();

    // Paper pipeline: geolocate every /24, cluster by city, build the map.
    let cbg = cbg(world.delay_model());
    let locations = geolocate_servers(world, &ds, &cbg, 31, 1);
    let estimates: Vec<_> = locations.iter().map(|l| (l.ip, l.cbg.estimate)).collect();
    let clusters = cluster_by_city(&estimates, &CityDb::builtin());
    let inferred =
        DcMap::from_clusters(&clusters, &CityDb::builtin()).expect("cluster cities resolve");
    let ctx_inferred =
        AnalysisContext::from_map(world, &ds, inferred).expect("CBG map is non-empty");

    // Oracle pipeline.
    let ctx_truth = AnalysisContext::from_ground_truth(world, &ds);

    // Both agree on the preferred data center's city...
    assert_eq!(
        ctx_inferred.preferred().city_name,
        ctx_truth.preferred().city_name,
        "CBG-inferred preferred differs from ground truth"
    );
    // ...and on the preferred byte share (within a few points: CBG noise can
    // misplace a small /24).
    let a = ctx_inferred.preferred_share_of_bytes();
    let b = ctx_truth.preferred_share_of_bytes();
    assert!((a - b).abs() < 0.05, "inferred {a} vs truth {b}");
}

#[test]
fn cbg_beats_the_database_baseline() {
    let scenario = StandardScenario::build(ScenarioConfig::with_scale(0.004, 6));
    let (ds, _) = scenario.run(DatasetName::Eu1Ftth);
    let world = scenario.world();
    let cbg = cbg(world.delay_model());
    let locations = geolocate_servers(world, &ds, &cbg, 77, 1);
    assert!(!locations.is_empty());

    // Database answer: every server in Mountain View.
    let maxmind = MaxmindLike::with_hq_default();
    let mut cbg_err = 0.0;
    let mut db_err = 0.0;
    for l in &locations {
        cbg_err += l.error_km();
        db_err += maxmind.geolocate(l.ip).distance_km(l.truth);
    }
    let n = locations.len() as f64;
    // The paper's point exactly: Maxmind places European servers an ocean
    // away; CBG is off by tens-to-hundreds of km.
    assert!(
        cbg_err / n < (db_err / n) / 5.0,
        "CBG mean {} km vs DB mean {} km",
        cbg_err / n,
        db_err / n
    );
}

#[test]
fn table3_shape_from_cbg() {
    let scenario = StandardScenario::build(ScenarioConfig::with_scale(0.006, 7));
    let world = scenario.world();
    let cbg = cbg(world.delay_model());

    // US dataset sees mostly NA servers; EU1 mostly European; everyone sees
    // at least some foreign-continent servers (Table III).
    let (us, _) = scenario.run(DatasetName::UsCampus);
    let us_counts = continent_counts(&geolocate_servers(world, &us, &cbg, 41, 1));
    assert!(us_counts.north_america > us_counts.europe, "{us_counts:?}");
    let foreign = us_counts.europe + us_counts.others;
    assert!(
        foreign * 10 >= us_counts.total(),
        "US sees <10% foreign servers: {us_counts:?}"
    );

    let (eu, _) = scenario.run(DatasetName::Eu1Adsl);
    let eu_counts = continent_counts(&geolocate_servers(world, &eu, &cbg, 42, 1));
    assert!(eu_counts.europe > eu_counts.north_america, "{eu_counts:?}");
}

#[test]
fn cbg_competitive_with_shortest_ping() {
    // CBG triangulates between landmarks; shortest-ping snaps to one. On a
    // mixed set of targets CBG should be at least as accurate on average.
    let delay = ytcdn_netsim::DelayModel::default();
    let cbg_loc = cbg(delay);
    let sp = ytcdn_geoloc::ShortestPing::new(cbg_loc.landmarks().to_vec(), delay, 3);
    let db = CityDb::builtin();
    let mut cbg_err = 0.0;
    let mut sp_err = 0.0;
    let mut rng = NoiseRng::seed_from_u64(21);
    let targets = ["Lyon", "Hamburg", "Prague", "Denver", "Nashville", "Osaka"];
    for city in targets {
        let t =
            ytcdn_netsim::Endpoint::new(db.named(city).coord, ytcdn_netsim::AccessKind::DataCenter);
        cbg_err += cbg_loc.localize(&t, &mut rng).estimate.distance_km(t.coord);
        sp_err += sp.localize(&t, &mut rng).estimate.distance_km(t.coord);
    }
    let n = targets.len() as f64;
    assert!(
        cbg_err / n <= sp_err / n + 100.0,
        "CBG mean {} km vs shortest-ping {} km",
        cbg_err / n,
        sp_err / n
    );
}

#[test]
fn cbg_radius_scales_with_landmark_density() {
    // More landmarks → tighter confidence regions on average (the
    // accuracy-side of the landmark-count ablation).
    let delay = ytcdn_netsim::DelayModel::default();
    let sparse = Cbg::calibrate(
        landmarks_with_counts(2, &[(Continent::Europe, 6), (Continent::NorthAmerica, 6)]),
        delay,
        3,
        9,
    );
    let dense = cbg(delay);
    let db = CityDb::builtin();
    let mut sparse_sum = 0.0;
    let mut dense_sum = 0.0;
    let mut rng = NoiseRng::seed_from_u64(11);
    for city in ["Paris", "Berlin", "Madrid", "Chicago", "Boston"] {
        let t =
            ytcdn_netsim::Endpoint::new(db.named(city).coord, ytcdn_netsim::AccessKind::DataCenter);
        sparse_sum += sparse.localize(&t, &mut rng).radius_km;
        dense_sum += dense.localize(&t, &mut rng).radius_km;
    }
    assert!(
        dense_sum < sparse_sum,
        "dense {dense_sum} vs sparse {sparse_sum}"
    );
}

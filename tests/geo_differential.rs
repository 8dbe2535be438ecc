//! Differential harness: the shared geolocation index vs the direct path.
//!
//! The [`GeoIndex`] contract mirrors the analysis index's: byte identity.
//! Per-/24 splittable noise streams must make CBG geolocation
//! byte-identical for any `jobs` count, and the suite's cached
//! union-of-blocks pass must hand every consumer (`fig3`, `table3`, the
//! CSV export, `cbg_locations`) exactly the values a standalone
//! `geolocate_servers` call computes.

use ytcdn_cdnsim::ScenarioConfig;
use ytcdn_core::degenerate::DegenerateShape;
use ytcdn_core::experiments::{ExperimentSuite, SuiteConfig};
use ytcdn_core::export::Series;
use ytcdn_core::geo_analysis::{continent_counts, geolocate_servers, radius_cdfs, ServerLocation};
use ytcdn_core::observatory::GroundTruth;
use ytcdn_core::Observatory;
use ytcdn_telemetry::Telemetry;
use ytcdn_tstat::DatasetName;

/// The worker counts every differential case runs: the degenerate 1, an
/// even split, and counts that exceed or do not divide the block count.
const JOB_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// The (scale, seed) pairs the cases cover.
const CASES: [(f64, u64); 2] = [(0.004, 2), (0.008, 55)];

fn suite(scale: f64, seed: u64, jobs: usize) -> ExperimentSuite {
    ExperimentSuite::new(SuiteConfig {
        scenario: ScenarioConfig::with_scale(scale, seed),
        full_landmarks: false,
        jobs,
    })
}

/// A standalone `geolocate_servers` pass over one dataset of `s`, with
/// the seed the suite derives for its own geolocation pass.
fn direct(s: &ExperimentSuite, name: DatasetName, seed: u64, jobs: usize) -> Vec<ServerLocation> {
    let observatory = Observatory::new(s.scenario().world());
    geolocate_servers(observatory, s.dataset(name), s.cbg(), seed ^ 0xF16, jobs)
}

#[test]
fn geolocation_identical_across_job_counts() {
    for (scale, seed) in CASES {
        let s = suite(scale, seed, 1);
        for name in DatasetName::ALL {
            let sequential = direct(&s, name, seed, 1);
            assert!(!sequential.is_empty(), "{name} at scale {scale}");
            for jobs in JOB_COUNTS {
                let parallel = direct(&s, name, seed, jobs);
                assert_eq!(sequential, parallel, "{name} scale {scale} jobs {jobs}");
            }
        }
    }
}

#[test]
fn geo_index_matches_direct_geolocation_per_dataset() {
    for (scale, seed) in CASES {
        let s = suite(scale, seed, 3);
        for name in DatasetName::ALL {
            assert_eq!(
                s.geo_index().dataset(name),
                direct(&s, name, seed, 1).as_slice(),
                "{name} at scale {scale}"
            );
        }
    }
}

#[test]
fn pooled_locations_match_concatenated_direct_passes() {
    let (scale, seed) = CASES[0];
    let s = suite(scale, seed, 2);
    let mut pooled: Vec<ServerLocation> = Vec::new();
    for name in DatasetName::ALL {
        pooled.extend(direct(&s, name, seed, 1));
    }
    assert_eq!(s.cbg_locations(), pooled);
}

#[test]
fn fig3_table3_and_export_serve_the_geo_index_values() {
    let (scale, seed) = CASES[0];
    let s = suite(scale, seed, 2);
    let mut pooled: Vec<ServerLocation> = Vec::new();
    for name in DatasetName::ALL {
        let direct = direct(&s, name, seed, 1);
        // table3 counts this dataset exactly as the direct pass does.
        assert_eq!(
            continent_counts(s.geo_index().dataset(name)),
            continent_counts(&direct),
            "{name}"
        );
        pooled.extend(direct);
    }
    // fig3's underlying CDFs equal the direct pooled pass…
    let truth = GroundTruth::new(s.scenario().world());
    let (us, eu) = radius_cdfs(&pooled, truth);
    let (us_idx, eu_idx) = radius_cdfs(&s.cbg_locations(), truth);
    assert_eq!(us, us_idx);
    assert_eq!(eu, eu_idx);
    // …and the exported fig3 series are built from the same CDFs.
    let fig3 = s.figure("fig3").expect("fig3 is an experiment");
    assert_eq!(
        fig3.series,
        Ok(vec![
            Series::from_cdf("US", &us),
            Series::from_cdf("Europe", &eu)
        ])
    );
}

#[test]
fn suite_reports_identical_across_suite_job_counts() {
    let (scale, seed) = CASES[0];
    let reference: Vec<_> = {
        let s = suite(scale, seed, 1);
        ["fig3", "table3"].map(|id| s.run(id)).into_iter().collect()
    };
    for jobs in [2, 7] {
        let s = suite(scale, seed, jobs);
        let got: Vec<_> = ["fig3", "table3"].map(|id| s.run(id)).into_iter().collect();
        assert_eq!(reference, got, "suite jobs {jobs}");
    }
}

#[test]
fn geo_telemetry_counts_one_build_then_hits() {
    let (scale, seed) = CASES[0];
    let telemetry = Telemetry::metrics_only();
    let s = ExperimentSuite::with_telemetry(
        SuiteConfig {
            scenario: ScenarioConfig::with_scale(scale, seed),
            full_landmarks: false,
            jobs: 2,
        },
        telemetry.clone(),
    );
    let blocks = s.geo_index().pooled();
    let _ = s.run("fig3");
    let _ = s.run("table3");
    let snap = telemetry.metrics_snapshot().expect("metrics enabled");
    assert_eq!(snap.counter("geo.cache_miss"), 1);
    assert!(snap.counter("geo.cache_hit") >= 2);
    assert!(snap.counter("geo.blocks") > 0);
    assert!(snap.counter("geo.blocks") <= blocks.len() as u64);
    assert!(
        snap.histograms["geo.localize"].count == 1,
        "exactly one shared localization pass"
    );
}

#[test]
fn empty_capture_geolocates_nothing_and_degrades() {
    let s = ExperimentSuite::with_degenerate(
        SuiteConfig {
            scenario: ScenarioConfig::with_scale(0.003, 7),
            full_landmarks: false,
            jobs: 0,
        },
        Telemetry::disabled(),
        DegenerateShape::Empty,
    );
    for name in DatasetName::ALL {
        assert!(s.geo_index().dataset(name).is_empty(), "{name}");
    }
    assert!(s.cbg_locations().is_empty());
    let fig3 = s.run("fig3").expect("fig3 degrades, it does not error");
    assert!(fig3.contains("(no servers)"), "{fig3}");
    let table3 = s.run("table3").expect("table3 degrades, it does not error");
    for line in table3.lines().skip(2) {
        assert!(line.contains(" 0"), "empty capture row: {line}");
    }
}

#[test]
fn missing_net3_still_geolocates_every_dataset() {
    let s = ExperimentSuite::with_degenerate(
        SuiteConfig {
            scenario: ScenarioConfig::with_scale(0.003, 7),
            full_landmarks: false,
            jobs: 0,
        },
        Telemetry::disabled(),
        DegenerateShape::MissingNet3,
    );
    // Dropping EU1-ADSL's dominant subnet removes clients, not servers:
    // the geolocation layer must still answer for all five datasets.
    for name in DatasetName::ALL {
        let locs = s.geo_index().dataset(name);
        assert!(!locs.is_empty(), "{name}");
        assert!(continent_counts(locs).total() > 0, "{name}");
    }
    let (us, eu) = radius_cdfs(&s.cbg_locations(), GroundTruth::new(s.scenario().world()));
    assert!(!us.is_empty() && !eu.is_empty());
}

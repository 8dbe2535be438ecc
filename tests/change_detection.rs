//! End-to-end contract of the CDN-change watchtower: scheduled mutations
//! injected into the simulator must surface as change points at exactly the
//! scheduled hour, nothing must fire on an unmutated trace, and the whole
//! simulate→window→detect pipeline must be invariant under simulation
//! parallelism.
//!
//! Scale 0.05 is the smallest scale at which every 6-hour window of
//! EU1-FTTH clears the detector's activity floor, so detection latency is
//! zero: the change point lands in the window that contains the scheduled
//! hour. The margins were measured across seeds — unmutated windows stay
//! below distance 0.10 while the weakest mutation tested here reaches 0.28
//! and the topology mutations 0.9+, against the default threshold of 0.20.

use ytcdn_cdnsim::{MutationSpec, ScenarioConfig, StandardScenario};
use ytcdn_core::{AnalysisContext, DatasetIndex, WatchConfig, WatchReport};
use ytcdn_telemetry::Telemetry;
use ytcdn_tstat::{Dataset, DatasetName};

const SCALE: f64 = 0.05;
const SEEDS: [u64; 2] = [3, 5];
const DATASET: DatasetName = DatasetName::Eu1Ftth;

/// Every mutation kind with the window its scheduled hour falls in (6-hour
/// windows: hour 72 → window 12, hour 96 → window 16, hour 48 → window 8).
const CASES: [(&str, usize); 3] = [
    ("dc-down@72:milan", 12),
    ("prefer-flip@96:frankfurt", 16),
    ("cache-evict@48:0.05", 8),
];

fn mutated_scenario(seed: u64, specs: &[&str]) -> StandardScenario {
    let mut s = StandardScenario::build(ScenarioConfig::with_scale(SCALE, seed));
    let parsed: Vec<MutationSpec> = specs
        .iter()
        .map(|m| m.parse().expect("test mutation specs are well-formed"))
        .collect();
    s.set_mutations(&parsed)
        .expect("test mutation cities exist in the standard topology");
    s
}

fn report_for(s: &StandardScenario, ds: Dataset) -> WatchReport {
    let ctx = AnalysisContext::from_ground_truth(s.world(), &ds);
    let index = DatasetIndex::build(&ctx, ds, Telemetry::disabled());
    WatchReport::build(&ctx, index.dataset(), &index, WatchConfig::default())
        .expect("simulated datasets are never degenerate")
}

#[test]
fn detector_fires_exactly_at_each_scheduled_hour() {
    for seed in SEEDS {
        for (spec, expected_window) in CASES {
            let s = mutated_scenario(seed, &[spec]);
            let (ds, _) = s.run(DATASET);
            let r = report_for(&s, ds);
            assert_eq!(
                r.change_points.len(),
                1,
                "{spec} seed {seed}: expected exactly one change point, got {:?}",
                r.change_points
            );
            let cp = &r.change_points[0];
            assert_eq!(
                cp.window, expected_window,
                "{spec} seed {seed}: fired in window {} (hour {}), expected window {expected_window}",
                cp.window, cp.hour
            );
            assert_eq!(cp.hour, expected_window as u64 * 6);
            assert!(
                cp.distance > WatchConfig::default().threshold,
                "{spec} seed {seed}: distance {} at threshold",
                cp.distance
            );
            assert!(
                !cp.affected.is_empty(),
                "{spec} seed {seed}: no attribution"
            );
        }
    }
}

#[test]
fn unmutated_traces_stay_silent() {
    for seed in SEEDS {
        let s = StandardScenario::build(ScenarioConfig::with_scale(SCALE, seed));
        let (ds, _) = s.run(DATASET);
        let r = report_for(&s, ds);
        assert!(
            r.change_points.is_empty(),
            "seed {seed}: false positive(s) {:?}",
            r.change_points
        );
        let max = r.windows.iter().map(|w| w.distance).fold(0.0, f64::max);
        assert!(
            max < WatchConfig::default().threshold / 1.5,
            "seed {seed}: noise floor {max} leaves no margin to the threshold"
        );
    }
}

/// A mutated trace must be byte-identical whether its dataset was simulated
/// alone or in the five-dataset pool at any worker count, and all three
/// mutations together must fire one change point per scheduled hour.
#[test]
fn mutated_pipeline_is_invariant_under_jobs() {
    let specs: Vec<&str> = CASES.iter().map(|(m, _)| *m).collect();
    let s = mutated_scenario(5, &specs);
    let (seq, _) = s.run(DATASET);
    let baseline = report_for(&s, seq.clone());
    // All three mutations together: one change point per scheduled hour,
    // in trace order.
    let mut expected: Vec<usize> = CASES.iter().map(|&(_, w)| w).collect();
    expected.sort_unstable();
    let windows: Vec<usize> = baseline.change_points.iter().map(|c| c.window).collect();
    assert_eq!(windows, expected, "combined mutations: {windows:?}");
    for jobs in [2, 5] {
        let pooled = s.run_all(jobs).swap_remove(DATASET.index());
        assert_eq!(pooled, seq, "jobs={jobs}: mutated dataset differs");
    }
}

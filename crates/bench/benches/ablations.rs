//! Ablations of the design choices called out in DESIGN.md:
//!
//! * **EU2 DNS capacity sweep** — the Figure 11 plateau emerges as the
//!   in-ISP data center's capacity shrinks relative to offered load;
//! * **replication on/off** — without pull-through replication, repeat
//!   accesses to cold videos keep being redirected and the Figure 18 ratio
//!   distribution collapses toward 1 everywhere but never repairs;
//! * **session gap threshold** — how session counts respond to T, the
//!   paper's own Figure 5 ablation.
//!
//! Each ablation prints its measured effect once and benches the run cost.

// Narrated output to stdout is the point of this target.
#![allow(clippy::print_stdout)]

use ytcdn_bench::{Bench, BENCH_SCALE, BENCH_SEED};
use ytcdn_cdnsim::{ActiveConfig, ActiveExperiment, ScenarioConfig, StandardScenario};
use ytcdn_core::index::DatasetIndex;
use ytcdn_core::session::group_sessions;
use ytcdn_core::timeseries::{hourly_samples, load_vs_preferred_correlation};
use ytcdn_core::AnalysisContext;
use ytcdn_telemetry::Telemetry;
use ytcdn_tstat::DatasetName;

fn ablation_eu2_capacity(b: &Bench) {
    // Sweep the in-ISP data center's hourly DNS capacity.
    for cap_factor in [0.5_f64, 1.0, 8.0] {
        let mut cfg = ScenarioConfig::with_scale(BENCH_SCALE, BENCH_SEED);
        cfg.eu2_capacity_factor = cap_factor;
        let scenario = StandardScenario::build(cfg);
        let (ds, _) = scenario.run(DatasetName::Eu2);
        let ctx = AnalysisContext::from_ground_truth(scenario.world(), &ds);
        let index = DatasetIndex::build(&ctx, &ds, 2, Telemetry::disabled());
        let corr = load_vs_preferred_correlation(&hourly_samples(&index));
        println!("eu2 capacity×{cap_factor}: load/local-fraction correlation {corr:.3}");
        b.run(
            &format!("ablation/eu2_capacity/capacity_x{cap_factor}"),
            || scenario.run(DatasetName::Eu2).0,
        );
    }
}

fn ablation_replication(b: &Bench) {
    for disable in [false, true] {
        let mut cfg = ScenarioConfig::with_scale(0.001, BENCH_SEED);
        cfg.engine.disable_replication = disable;
        let scenario = StandardScenario::build(cfg);
        let exp = ActiveExperiment::new(ActiveConfig {
            nodes: 30,
            samples: 6,
            ..ActiveConfig::default()
        });
        let traces = exp.run(&scenario);
        let stats = ytcdn_core::active_analysis::ratio_stats(&traces);
        println!(
            "replication {}: above-1 ratio fraction {:.2}",
            if disable { "off" } else { "on" },
            stats.above_one
        );
        let mode = if disable { "off" } else { "on" };
        b.run(&format!("ablation/replication/{mode}"), || {
            exp.run(&scenario)
        });
    }
}

fn ablation_session_gap(b: &Bench) {
    let scenario = StandardScenario::build(ScenarioConfig::with_scale(BENCH_SCALE, BENCH_SEED));
    let (ds, _) = scenario.run(DatasetName::UsCampus);
    for t_ms in [200u64, 1_000, 10_000, 300_000] {
        let n = group_sessions(&ds, t_ms).len();
        println!("session gap T={t_ms}ms → {n} sessions");
        b.run(&format!("ablation/session_gap/T={t_ms}ms"), || {
            group_sessions(&ds, t_ms)
        });
    }
}

fn main() {
    let b = Bench::from_args();
    ablation_eu2_capacity(&b);
    ablation_replication(&b);
    ablation_session_gap(&b);
    b.finish();
}

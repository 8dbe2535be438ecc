//! Benches for the what-if machinery and the user-performance analysis —
//! the paper's motivating "what-if" use case should itself be fast enough
//! to sweep.

// Narrated output to stdout is the point of this target.
#![allow(clippy::print_stdout)]

use ytcdn_bench::{bench_scenario, Bench, BENCH_SCALE, BENCH_SEED};
use ytcdn_cdnsim::ScenarioConfig;
use ytcdn_core::perf::perf_report;
use ytcdn_core::session::group_sessions;
use ytcdn_core::whatif;
use ytcdn_core::AnalysisContext;
use ytcdn_tstat::DatasetName;

fn bench_whatif_evaluate(b: &Bench) {
    let base = ScenarioConfig::with_scale(BENCH_SCALE, BENCH_SEED);
    b.run("whatif/evaluate/eu1_adsl", || {
        whatif::evaluate("bench", base, DatasetName::Eu1Adsl)
    });

    // Print the headline counterfactual once so bench logs carry the
    // qualitative result alongside the timing.
    let (before, after) = whatif::fixed_us_peering(base);
    println!(
        "fixed_us_peering: preferred {} @ {:.0} km -> {} @ {:.0} km",
        before.preferred_city,
        before.preferred_distance_km,
        after.preferred_city,
        after.preferred_distance_km
    );
}

fn bench_perf_report(b: &Bench) {
    let scenario = bench_scenario();
    let (ds, _) = scenario.run(DatasetName::Eu1Adsl);
    let ctx = AnalysisContext::from_ground_truth(scenario.world(), &ds);
    let sessions = group_sessions(&ds, 1000);
    b.run("perf/report", || perf_report(&ctx, &ds, &sessions));
}

fn bench_parallel_vs_sequential(b: &Bench) {
    let scenario = bench_scenario();
    b.run("scenario/run_all/sequential", || scenario.run_all(1));
    b.run("scenario/run_all/parallel", || scenario.run_all(5));
}

fn main() {
    let b = Bench::from_args();
    bench_whatif_evaluate(&b);
    bench_perf_report(&b);
    bench_parallel_vs_sequential(&b);
    b.finish();
}

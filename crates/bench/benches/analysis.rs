//! Analysis-pipeline benches: session grouping (sequential and sharded,
//! including the Figure 5 T-sweep), context construction, columnar index
//! build (which includes pattern classification), and the hourly
//! time-series and per-video passes over a built index.

use ytcdn_bench::{bench_scenario, Bench};
use ytcdn_core::index::{DatasetIndex, DEFAULT_GAP_MS};
use ytcdn_core::session::{group_sessions, group_sessions_parallel};
use ytcdn_core::timeseries::hourly_samples;
use ytcdn_core::videos::nonpreferred_video_stats;
use ytcdn_core::AnalysisContext;
use ytcdn_telemetry::Telemetry;
use ytcdn_tstat::DatasetName;

fn bench_session_grouping(b: &Bench) {
    let scenario = bench_scenario();
    let (ds, _) = scenario.run(DatasetName::Eu1Adsl);
    // The Figure 5 sensitivity sweep doubles as a performance sweep: larger
    // T merges more flows but the cost is dominated by the bucketing pass.
    for t_s in [1u64, 5, 10, 60, 300] {
        b.run(&format!("analysis/group_sessions/T={t_s}s"), || {
            group_sessions(&ds, t_s * 1000)
        });
    }
}

fn bench_parallel_grouping(b: &Bench) {
    let scenario = bench_scenario();
    let (ds, _) = scenario.run(DatasetName::Eu1Adsl);
    // jobs=1 isolates the shard/merge overhead against the sequential pass
    // above; the larger counts show the scaling headroom on this host.
    for jobs in [1usize, 2, 4, 8] {
        b.run(
            &format!("analysis/group_sessions_parallel/jobs={jobs}"),
            || group_sessions_parallel(&ds, DEFAULT_GAP_MS, jobs),
        );
    }
}

fn bench_index_build(b: &Bench) {
    let scenario = bench_scenario();
    let (ds, _) = scenario.run(DatasetName::Eu1Adsl);
    let ctx = AnalysisContext::from_ground_truth(scenario.world(), &ds);
    for jobs in [1usize, 4] {
        b.run(&format!("analysis/index_build/jobs={jobs}"), || {
            DatasetIndex::build(&ctx, &ds, jobs, Telemetry::disabled())
        });
    }
}

fn bench_context_build(b: &Bench) {
    let scenario = bench_scenario();
    let (ds, _) = scenario.run(DatasetName::UsCampus);
    b.run("analysis/context/from_ground_truth", || {
        AnalysisContext::from_ground_truth(scenario.world(), &ds)
    });
}

fn bench_timeseries_and_videos(b: &Bench) {
    let scenario = bench_scenario();
    let (ds, _) = scenario.run(DatasetName::Eu2);
    let ctx = AnalysisContext::from_ground_truth(scenario.world(), &ds);
    let index = DatasetIndex::build(&ctx, &ds, 4, Telemetry::disabled());
    b.run("analysis/hourly_samples", || hourly_samples(&index));
    b.run("analysis/per_video_stats", || {
        nonpreferred_video_stats(&index, &ds)
    });
}

fn main() {
    let b = Bench::from_args();
    bench_session_grouping(&b);
    bench_parallel_grouping(&b);
    bench_index_build(&b);
    bench_context_build(&b);
    bench_timeseries_and_videos(&b);
    b.finish();
}

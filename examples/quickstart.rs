//! Quickstart: simulate one vantage point of the YouTube CDN for a week,
//! then run the paper's core analysis pipeline on the resulting flow log.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

// Narrated output to stdout is the point of this target.
#![allow(clippy::print_stdout)]

use ytcdn_cdnsim::{ScenarioConfig, StandardScenario};
use ytcdn_core::index::DatasetIndex;
use ytcdn_core::AnalysisContext;
use ytcdn_telemetry::Telemetry;
use ytcdn_tstat::DatasetName;

fn main() {
    // 2% of the paper's traffic volume: fast, same shapes.
    let scenario = StandardScenario::build(ScenarioConfig::with_scale(0.02, 42));
    let (dataset, _) = scenario.run(DatasetName::Eu1Campus);
    println!("simulated {}: {}", dataset.name(), dataset.summary());

    // Step 1 of the methodology: map servers to data centers and find the
    // preferred one.
    let ctx = AnalysisContext::from_ground_truth(scenario.world(), &dataset);
    println!(
        "preferred data center: {} (RTT {:.1} ms, {:.0} km) serving {:.1}% of video bytes",
        ctx.preferred().city_name,
        ctx.preferred().rtt_ms,
        ctx.preferred().distance_km,
        100.0 * ctx.preferred_share_of_bytes()
    );

    // Step 2: build the analysis index, which groups flows into video
    // sessions (T = 1 s) and classifies them.
    let index = DatasetIndex::build(&ctx, &dataset, Telemetry::disabled());
    let stats = index.patterns();
    println!(
        "{} sessions: {:.1}% single-flow, {:.1}% of single-flow ones to non-preferred DCs",
        stats.total,
        100.0 * stats.single_flow_fraction(),
        100.0 * stats.one_flow_non_preferred_fraction()
    );
    println!(
        "2-flow patterns: pp={} pn={} np={} nn={}  (pn = application-layer redirection)",
        stats.two_flow.pp, stats.two_flow.pn, stats.two_flow.np, stats.two_flow.nn
    );
}

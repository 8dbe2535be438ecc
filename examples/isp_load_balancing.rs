//! The EU2 story: a YouTube data center *inside* the ISP handles the whole
//! network at night but only ~a third of the daily peak — adaptive
//! DNS-level load balancing spills the rest to an external Google data
//! center (the paper's Figure 11 and Section VII-A).
//!
//! ```sh
//! cargo run --release --example isp_load_balancing
//! ```

// Narrated output to stdout is the point of this target.
#![allow(clippy::print_stdout)]

use ytcdn_cdnsim::{ScenarioConfig, StandardScenario};
use ytcdn_core::index::DatasetIndex;
use ytcdn_core::timeseries::{hourly_samples, load_vs_preferred_correlation};
use ytcdn_core::AnalysisContext;
use ytcdn_telemetry::Telemetry;
use ytcdn_tstat::DatasetName;

fn main() {
    let scenario = StandardScenario::build(ScenarioConfig::with_scale(0.02, 11));
    let (dataset, _) = scenario.run(DatasetName::Eu2);
    let ctx = AnalysisContext::from_ground_truth(scenario.world(), &dataset);

    println!(
        "EU2 preferred data center: {} (inside the ISP, RTT {:.1} ms)",
        ctx.preferred().city_name,
        ctx.preferred().rtt_ms
    );
    println!(
        "share of video bytes from the internal DC: {:.1}% (non-preferred share of flows: {:.1}%)",
        100.0 * ctx.preferred_share_of_bytes(),
        100.0 * ctx.nonpreferred_share_of_flows()
    );

    let index = DatasetIndex::build(&ctx, &dataset, Telemetry::disabled());
    let samples = hourly_samples(&index);
    println!(
        "\ncorrelation(hourly load, local fraction) = {:.3}  — strongly negative = load balancing",
        load_vs_preferred_correlation(&samples)
    );

    println!("\nfirst two days, hour by hour (cf. Figure 11):");
    println!("{:>5} {:>8}  local fraction", "hour", "flows");
    for s in samples.iter().take(48) {
        let bar_len = (s.preferred_fraction().unwrap_or(0.0) * 40.0) as usize;
        println!(
            "{:>5} {:>8}  {:<40} {}",
            s.hour,
            s.total(),
            "#".repeat(bar_len),
            s.preferred_fraction()
                .map(|f| format!("{f:.2}"))
                .unwrap_or_else(|| "-".into())
        );
    }
}

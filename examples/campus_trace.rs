//! The US-Campus walk-through: why a campus network's YouTube traffic is
//! served by a data center ~900 km away while five closer ones sit idle,
//! and how one internal subnet ("Net-3") betrays per-LDNS DNS policies.
//!
//! Reproduces the reasoning behind the paper's Figures 8 and 12.
//!
//! ```sh
//! cargo run --release --example campus_trace
//! ```

// Narrated output to stdout is the point of this target.
#![allow(clippy::print_stdout)]

use ytcdn_cdnsim::{ScenarioConfig, StandardScenario};
use ytcdn_core::preferred::{bytes_by_distance, closest_k_share};
use ytcdn_core::subnet::subnet_shares;
use ytcdn_core::{AnalysisContext, DatasetIndex};
use ytcdn_telemetry::Telemetry;
use ytcdn_tstat::DatasetName;

fn main() {
    let scenario = StandardScenario::build(ScenarioConfig::with_scale(0.02, 7));
    let (dataset, _) = scenario.run(DatasetName::UsCampus);
    let ctx = AnalysisContext::from_ground_truth(scenario.world(), &dataset);

    println!("== geographic proximity is not the criterion (Figure 8) ==");
    println!(
        "the 5 geographically closest data centers serve {:.2}% of bytes",
        100.0 * closest_k_share(&ctx, 5)
    );
    println!(
        "preferred: {} at {:.0} km (RTT {:.1} ms)",
        ctx.preferred().city_name,
        ctx.preferred().distance_km,
        ctx.preferred().rtt_ms
    );
    println!("\nby distance, the first data centers to accumulate traffic:");
    for step in bytes_by_distance(&ctx).iter().take(8) {
        println!(
            "  {:>22}: {:>6.0} km  cumulative {:>6.2}%",
            step.city,
            step.x,
            100.0 * step.cumulative_fraction
        );
    }

    println!("\n== per-subnet DNS variation (Figure 12) ==");
    let subnets = scenario
        .world()
        .vantage(DatasetName::UsCampus)
        .subnets
        .clone();
    // The index takes the dataset; the subnet split reads it from there.
    let index = DatasetIndex::build(&ctx, dataset, Telemetry::disabled());
    for share in subnet_shares(&index, &subnets) {
        println!(
            "  {:<6} {:>5.1}% of flows, {:>5.1}% of non-preferred accesses (bias {:.1}x)",
            share.name,
            100.0 * share.share_of_all_flows,
            100.0 * share.share_of_nonpreferred_flows,
            share.bias()
        );
    }
    println!("\nNet-3's local DNS is mapped to a different preferred data center —");
    println!("a YouTube DNS-level assignment policy, not a misconfiguration (Section VII-B).");
}

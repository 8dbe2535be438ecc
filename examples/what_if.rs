//! What-if analysis — the use case the paper's introduction promises:
//! "explore how changes in video popularity distributions, or changes to
//! the YouTube infrastructure design can impact ISP traffic patterns, as
//! well as user performance."
//!
//! Runs every counterfactual of `ytcdn_core::whatif::COUNTERFACTUALS` and
//! checks the movement each one expects.
//!
//! ```sh
//! cargo run --release --example what_if
//! ```

// Narrated output to stdout is the point of this target.
#![allow(clippy::print_stdout)]

use ytcdn_cdnsim::ScenarioConfig;
use ytcdn_core::whatif::{render, run, COUNTERFACTUALS};

fn main() {
    let base = ScenarioConfig::with_scale(0.02, 77);
    for counterfactual in COUNTERFACTUALS {
        println!("== {} ({}) ==", counterfactual.name, counterfactual.dataset);
        let outcomes = run(counterfactual, base);
        print!("{}", render(&outcomes));
        let (metric, direction) = counterfactual.expect;
        let verdict = if counterfactual.holds(&outcomes) {
            "holds"
        } else {
            "does NOT hold"
        };
        println!(
            "expected {metric:?} to go {direction:?} from the first row to the last: {verdict}\n"
        );
    }
}

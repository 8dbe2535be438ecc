//! Per-subnet DNS variation analysis (Figure 12).
//!
//! Section VII-B: within US-Campus, hosts of one internal subnet ("Net-3")
//! use a local DNS server that the authoritative YouTube DNS maps to a
//! *different* preferred data center. The subnet produces only ~4 % of the
//! network's video flows yet accounts for ~50 % of its non-preferred
//! accesses. This module computes the two bars of Figure 12 for every
//! subnet.

use std::net::Ipv4Addr;

use ytcdn_cdnsim::SubnetConfig;
use ytcdn_tstat::Dataset;

use crate::index::DatasetIndex;

/// Figure 12 bars for one subnet.
#[derive(Debug, Clone, PartialEq)]
pub struct SubnetShare {
    /// Subnet label ("Net-1" …).
    pub name: String,
    /// Share of all analysis video flows originating in this subnet.
    pub share_of_all_flows: f64,
    /// Share of the *non-preferred* video flows originating here.
    pub share_of_nonpreferred_flows: f64,
}

impl SubnetShare {
    /// How over-represented the subnet is among non-preferred accesses
    /// (Net-3's signature: ≫ 1).
    pub fn bias(&self) -> f64 {
        if self.share_of_all_flows == 0.0 {
            return 0.0;
        }
        self.share_of_nonpreferred_flows / self.share_of_all_flows
    }
}

/// Computes per-subnet shares of total and non-preferred video flows,
/// reading each flow's class and data center off `index` (built from
/// `dataset`) and its client from `dataset`. A client counts for the first
/// subnet whose block holds it.
pub fn subnet_shares(
    index: &DatasetIndex,
    dataset: &Dataset,
    subnets: &[SubnetConfig],
) -> Vec<SubnetShare> {
    debug_assert_eq!(dataset.len(), index.len(), "not the indexed dataset");
    let mut all = vec![0u64; subnets.len()];
    let mut nonpref = vec![0u64; subnets.len()];
    let mut total_all = 0u64;
    let mut total_nonpref = 0u64;
    let preferred = index.preferred_index();
    for (i, &client) in dataset.columns().clients.iter().enumerate() {
        if !index.is_video_flow(i) {
            continue;
        }
        let Some(dc) = index.dc_of_flow(i) else {
            continue;
        };
        let pref = dc == preferred;
        let client = Ipv4Addr::from(client);
        let Some(idx) = subnets.iter().position(|s| s.block.contains(client)) else {
            continue;
        };
        all[idx] += 1;
        total_all += 1;
        if !pref {
            nonpref[idx] += 1;
            total_nonpref += 1;
        }
    }
    subnets
        .iter()
        .enumerate()
        .map(|(i, s)| SubnetShare {
            name: s.name.to_owned(),
            share_of_all_flows: if total_all > 0 {
                all[i] as f64 / total_all as f64
            } else {
                0.0
            },
            share_of_nonpreferred_flows: if total_nonpref > 0 {
                nonpref[i] as f64 / total_nonpref as f64
            } else {
                0.0
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcmap::AnalysisContext;
    use ytcdn_cdnsim::{ScenarioConfig, StandardScenario};
    use ytcdn_telemetry::Telemetry;
    use ytcdn_tstat::DatasetName;

    fn shares() -> Vec<SubnetShare> {
        let s = StandardScenario::build(ScenarioConfig::with_scale(0.01, 77));
        let (ds, _) = s.run(DatasetName::UsCampus);
        let ctx = AnalysisContext::from_ground_truth(s.world(), &ds);
        let index = DatasetIndex::build(&ctx, &ds, Telemetry::disabled());
        let subnets = s.world().vantage(DatasetName::UsCampus).subnets.clone();
        subnet_shares(&index, &ds, &subnets)
    }

    #[test]
    fn shares_sum_to_one() {
        let sh = shares();
        let all: f64 = sh.iter().map(|s| s.share_of_all_flows).sum();
        let np: f64 = sh.iter().map(|s| s.share_of_nonpreferred_flows).sum();
        assert!((all - 1.0).abs() < 1e-9, "all shares sum {all}");
        assert!((np - 1.0).abs() < 1e-9, "non-preferred shares sum {np}");
    }

    #[test]
    fn net3_is_small_but_dominates_nonpreferred() {
        let sh = shares();
        let net3 = sh.iter().find(|s| s.name == "Net-3").unwrap();
        // ~4% of all flows...
        assert!(
            (0.02..0.07).contains(&net3.share_of_all_flows),
            "Net-3 all-flow share {}",
            net3.share_of_all_flows
        );
        // ...but a dominant share of non-preferred flows (paper: ~50%).
        assert!(
            net3.share_of_nonpreferred_flows > 0.25,
            "Net-3 non-preferred share {}",
            net3.share_of_nonpreferred_flows
        );
        assert!(net3.bias() > 5.0, "bias {}", net3.bias());
    }

    #[test]
    fn other_subnets_not_biased() {
        let sh = shares();
        for s in sh.iter().filter(|s| s.name != "Net-3") {
            assert!(s.bias() < 2.0, "{}: bias {}", s.name, s.bias());
        }
    }

    #[test]
    fn empty_dataset_gives_zero_shares() {
        let s = StandardScenario::build(ScenarioConfig::with_scale(0.01, 77));
        let (ds, _) = s.run(DatasetName::UsCampus);
        let ctx = AnalysisContext::from_ground_truth(s.world(), &ds);
        let subnets = s.world().vantage(DatasetName::UsCampus).subnets.clone();
        let empty = Dataset::new(DatasetName::UsCampus);
        let index = DatasetIndex::build(&ctx, &empty, Telemetry::disabled());
        let sh = subnet_shares(&index, &empty, &subnets);
        assert!(sh
            .iter()
            .all(|s| s.share_of_all_flows == 0.0 && s.bias() == 0.0));
    }
}

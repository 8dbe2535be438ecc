//! End-to-end integration: simulate the paper's five-dataset collection and
//! verify every headline observation of the paper holds in shape.
//!
//! These are the reproduction's acceptance tests: they exercise simulator,
//! flow model, session grouping, data-center mapping, and every analysis
//! module together, at a moderate scale.

use ytcdn_cdnsim::{ScenarioConfig, StandardScenario};
use ytcdn_core::index::DatasetIndex;
use ytcdn_core::preferred::closest_k_share;
use ytcdn_core::session::group_sessions;
use ytcdn_core::subnet::subnet_shares;
use ytcdn_core::timeseries::{hourly_samples, load_vs_preferred_correlation};
use ytcdn_core::videos::nonpreferred_video_stats;
use ytcdn_core::AnalysisContext;
use ytcdn_telemetry::Telemetry;
use ytcdn_tstat::{DatasetName, FlowClass};

const SCALE: f64 = 0.02;
const SEED: u64 = 20260707;

struct Harness {
    scenario: StandardScenario,
    datasets: Vec<ytcdn_tstat::Dataset>,
}

impl Harness {
    fn new() -> Self {
        let scenario = StandardScenario::build(ScenarioConfig::with_scale(SCALE, SEED));
        let datasets = scenario.run_all(2);
        Self { scenario, datasets }
    }

    fn ctx(&self, name: DatasetName) -> AnalysisContext {
        AnalysisContext::from_ground_truth(self.scenario.world(), self.dataset(name))
    }

    fn index(&self, name: DatasetName) -> DatasetIndex {
        let ds = self.dataset(name).clone();
        DatasetIndex::build(&self.ctx(name), ds, Telemetry::disabled())
    }

    fn dataset(&self, name: DatasetName) -> &ytcdn_tstat::Dataset {
        self.datasets
            .iter()
            .find(|d| d.name() == name)
            .expect("fixture simulates every dataset")
    }
}

#[test]
fn paper_headline_claims_hold() {
    let h = Harness::new();

    // — Section VI-B: "in each dataset one data center provides more than
    //   85% of the traffic" (except EU2) and it has the smallest RTT.
    for name in [
        DatasetName::UsCampus,
        DatasetName::Eu1Campus,
        DatasetName::Eu1Adsl,
        DatasetName::Eu1Ftth,
    ] {
        let ctx = h.ctx(name);
        let share = ctx.preferred_share_of_bytes();
        assert!(share > 0.80, "{name}: preferred byte share {share}");
        // Preferred is the lowest-RTT among traffic-carrying DCs. Allow
        // measurement near-ties: data centers at comparable distance can
        // flip by a couple of ms between ping runs, in the paper's
        // methodology as much as in ours.
        for d in ctx.dcs().iter().filter(|d| d.video_flows > 10) {
            assert!(
                ctx.preferred().rtt_ms <= d.rtt_ms + 3.0,
                "{name}: {} (rtt {}) beats preferred (rtt {})",
                d.city_name,
                d.rtt_ms,
                ctx.preferred().rtt_ms
            );
        }
        // "between 5% and 15% of the traffic comes from the non-preferred
        // data centers" — on flows, allow a slightly wider band.
        let np = ctx.nonpreferred_share_of_flows();
        assert!((0.03..0.20).contains(&np), "{name}: non-preferred {np}");
    }

    // — EU2: more than 55% of traffic (in the paper, bytes) from
    //   non-preferred; two data centers dominate.
    let eu2 = h.ctx(DatasetName::Eu2);
    assert!(
        eu2.preferred_share_of_bytes() < 0.60,
        "EU2 preferred byte share {}",
        eu2.preferred_share_of_bytes()
    );
    let mut bytes: Vec<u64> = eu2.dcs().iter().map(|d| d.video_bytes).collect();
    bytes.sort_unstable_by(|a, b| b.cmp(a));
    let total: u64 = bytes.iter().sum();
    assert!(
        (bytes[0] + bytes[1]) as f64 / total as f64 > 0.85,
        "EU2 top-2 DC share too low"
    );

    // — Figure 8: the US campus's geographically closest data centers are
    //   nearly idle.
    let us = h.ctx(DatasetName::UsCampus);
    assert!(
        closest_k_share(&us, 5) < 0.05,
        "US closest-5 share {}",
        closest_k_share(&us, 5)
    );
}

#[test]
fn session_structure_matches_figure6() {
    let h = Harness::new();
    for ds in &h.datasets {
        let sessions = group_sessions(ds, 1_000);
        let single =
            sessions.iter().filter(|s| s.flow_count() == 1).count() as f64 / sessions.len() as f64;
        // Paper: 72.5–80.5% single-flow sessions.
        assert!((0.68..0.88).contains(&single), "{}: {single}", ds.name());
        // Sessions never mix clients or videos.
        for s in sessions.iter().take(500) {
            for f in s.flows_iter(ds) {
                assert_eq!(f.client_ip, s.client_ip);
                assert_eq!(f.video_id, s.video_id);
            }
        }
    }
}

#[test]
fn flow_size_bimodality_matches_figure4() {
    let h = Harness::new();
    for ds in &h.datasets {
        let (video, control): (Vec<_>, Vec<_>) = ds
            .iter()
            .partition(|f| FlowClass::of_bytes(f.bytes) == FlowClass::Video);
        assert!(!control.is_empty() && !video.is_empty());
        // Control flows sit well under the kink, video flows well above:
        // the populations are separated by orders of magnitude.
        let max_ctrl = control.iter().map(|f| f.bytes).max().unwrap();
        let median_video = {
            let mut v: Vec<u64> = video.iter().map(|f| f.bytes).collect();
            v.sort_unstable();
            v[v.len() / 2]
        };
        assert!(max_ctrl < 1000);
        assert!(
            median_video > 100 * max_ctrl,
            "{}: video median {median_video} vs ctrl max {max_ctrl}",
            ds.name()
        );
    }
}

#[test]
fn dns_vs_redirection_disambiguation_matches_figure10() {
    let h = Harness::new();
    // EU1: application-layer redirection visible as (preferred,
    // non-preferred) two-flow sessions.
    let st = h.index(DatasetName::Eu1Adsl).patterns();
    assert!(st.two_flow.pn > st.two_flow.nn, "{:?}", st.two_flow);
    assert!(st.two_flow.pn > st.two_flow.np, "{:?}", st.two_flow);

    // EU2: DNS mapping (not redirection) is the primary cause — both-flows
    // non-preferred dominates among redirect-looking sessions.
    let st2 = h.index(DatasetName::Eu2).patterns();
    assert!(st2.two_flow.nn > st2.two_flow.pn, "{:?}", st2.two_flow);
    assert!(
        st2.one_flow_non_preferred_fraction() > 0.30,
        "EU2 single-flow non-preferred {}",
        st2.one_flow_non_preferred_fraction()
    );
}

#[test]
fn eu2_load_balancing_matches_figure11() {
    let h = Harness::new();
    let samples = hourly_samples(&h.index(DatasetName::Eu2));
    let corr = load_vs_preferred_correlation(&samples);
    assert!(corr < -0.6, "EU2 load/local correlation {corr}");
    // And the same analysis on EU1 shows no such mechanism.
    let samples1 = hourly_samples(&h.index(DatasetName::Eu1Adsl));
    let corr1 = load_vs_preferred_correlation(&samples1);
    assert!(corr1 > corr + 0.3, "EU1 {corr1} vs EU2 {corr}");
}

#[test]
fn net3_bias_matches_figure12() {
    let h = Harness::new();
    let index = h.index(DatasetName::UsCampus);
    let subnets = h
        .scenario
        .world()
        .vantage(DatasetName::UsCampus)
        .subnets
        .clone();
    let shares = subnet_shares(&index, &subnets);
    let net3 = shares.iter().find(|s| s.name == "Net-3").unwrap();
    let max_other_bias = shares
        .iter()
        .filter(|s| s.name != "Net-3")
        .map(|s| s.bias())
        .fold(0.0f64, f64::max);
    assert!(
        net3.bias() > 4.0 * max_other_bias,
        "Net-3 bias {} vs others {max_other_bias}",
        net3.bias()
    );
    // Net-3 is the single largest contributor of non-preferred flows.
    let max_np = shares
        .iter()
        .map(|s| s.share_of_nonpreferred_flows)
        .fold(0.0f64, f64::max);
    assert_eq!(net3.share_of_nonpreferred_flows, max_np);
}

#[test]
fn cold_tail_repair_matches_figure13() {
    let h = Harness::new();
    for name in [DatasetName::Eu1Adsl, DatasetName::UsCampus] {
        let st = nonpreferred_video_stats(&h.index(name));
        assert!(
            st.exactly_once_fraction > 0.55,
            "{name}: exactly-once {}",
            st.exactly_once_fraction
        );
        assert!(
            st.exactly_once_and_single_access_fraction > 0.75,
            "{name}: single-access {}",
            st.exactly_once_and_single_access_fraction
        );
        // Flash-crowd tail exists alongside.
        assert!(st.max_count > 10, "{name}: max {}", st.max_count);
    }
}

#[test]
fn control_flows_precede_video_flows_in_redirected_sessions() {
    let h = Harness::new();
    let ds = h.dataset(DatasetName::Eu1Campus);
    let sessions = group_sessions(ds, 1_000);
    let mut checked = 0;
    for s in sessions.iter().filter(|s| s.flow_count() >= 2) {
        // In a redirect chain every flow but the last video flow is small.
        let classes: Vec<FlowClass> = s
            .flows_iter(ds)
            .map(|f| FlowClass::of_bytes(f.bytes))
            .collect();
        if classes[0] == FlowClass::Control {
            // Control flows come first; at least one video flow follows.
            assert!(
                classes.contains(&FlowClass::Video),
                "session with only control flows"
            );
            checked += 1;
        }
    }
    assert!(
        checked > 50,
        "too few redirect sessions to check: {checked}"
    );
}

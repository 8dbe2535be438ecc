//! Session preferred/non-preferred pattern taxonomy (Figure 10).
//!
//! Section VI-C disambiguates the two mechanisms behind non-preferred
//! accesses by looking at *where each flow of a session goes*:
//!
//! * a **single-flow** session to a non-preferred data center — or a session
//!   *beginning* with a control flow there — means DNS itself mapped the
//!   request away (Figure 10a);
//! * a session whose **first flow goes to the preferred** data center but
//!   whose later flows do not means the preferred server issued an
//!   application-layer redirect (Figure 10b, pattern "preferred,
//!   non-preferred").

/// Breakdown of single-flow sessions (Figure 10a).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OneFlowBreakdown {
    /// Served directly by the preferred data center.
    pub preferred: u64,
    /// Served directly by a non-preferred data center (DNS-caused).
    pub non_preferred: u64,
}

/// Breakdown of two-flow sessions by the (first, second) flow targets
/// (Figure 10b).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TwoFlowBreakdown {
    /// (preferred, preferred): e.g. a format renegotiation, no redirect.
    pub pp: u64,
    /// (preferred, non-preferred): application-layer redirection away from
    /// the preferred data center.
    pub pn: u64,
    /// (non-preferred, preferred): redirected *back* to the preferred.
    pub np: u64,
    /// (non-preferred, non-preferred): DNS mapped away and the session
    /// stayed away.
    pub nn: u64,
}

/// Full pattern statistics for one dataset, as tallied over the default-gap
/// sessions by [`crate::index::DatasetIndex::patterns`].
///
/// Sessions touching servers outside the analysis ASes (legacy YouTube-EU,
/// third-party) are counted in `excluded`, mirroring the paper's Section IV
/// filter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PatternStats {
    /// Sessions considered (all flows inside analysis data centers).
    pub total: u64,
    /// Sessions excluded because some flow hit a non-analysis AS.
    pub excluded: u64,
    /// Single-flow sessions.
    pub one_flow: OneFlowBreakdown,
    /// Two-flow sessions.
    pub two_flow: TwoFlowBreakdown,
    /// Sessions with three or more flows.
    pub three_plus: u64,
    /// Of the three-plus sessions, those whose first flow went to the
    /// preferred data center and a later flow did not (the "similar trends
    /// to 2-flow sessions" remark).
    pub three_plus_first_preferred_then_non: u64,
}

impl PatternStats {
    /// Fraction of all (analysis) sessions that are single-flow — the
    /// Figure 6 headline number (72.5–80.5 %).
    pub fn single_flow_fraction(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        (self.one_flow.preferred + self.one_flow.non_preferred) as f64 / self.total as f64
    }

    /// Fraction of single-flow sessions served by non-preferred data
    /// centers (the DNS-caused share of Figure 10a).
    pub fn one_flow_non_preferred_fraction(&self) -> f64 {
        let n = self.one_flow.preferred + self.one_flow.non_preferred;
        if n == 0 {
            return 0.0;
        }
        self.one_flow.non_preferred as f64 / n as f64
    }

    /// Fraction of two-flow sessions that are (preferred, non-preferred) —
    /// the application-layer redirection signature.
    pub fn two_flow_pn_fraction(&self) -> f64 {
        let n = self.two_flow.pp + self.two_flow.pn + self.two_flow.np + self.two_flow.nn;
        if n == 0 {
            return 0.0;
        }
        self.two_flow.pn as f64 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcmap::AnalysisContext;
    use crate::index::DatasetIndex;
    use ytcdn_cdnsim::{ScenarioConfig, StandardScenario};
    use ytcdn_telemetry::Telemetry;
    use ytcdn_tstat::DatasetName;

    fn stats_for(name: DatasetName) -> PatternStats {
        let s = StandardScenario::build(ScenarioConfig::with_scale(0.008, 55));
        let (ds, _) = s.run(name);
        let ctx = AnalysisContext::from_ground_truth(s.world(), &ds);
        DatasetIndex::build(&ctx, ds, Telemetry::disabled()).patterns()
    }

    #[test]
    fn figure6_single_flow_share() {
        for name in [DatasetName::UsCampus, DatasetName::Eu1Adsl] {
            let st = stats_for(name);
            let f = st.single_flow_fraction();
            assert!((0.65..0.88).contains(&f), "{name}: single-flow {f}");
        }
    }

    #[test]
    fn us_campus_dns_noise_small_but_present() {
        let st = stats_for(DatasetName::UsCampus);
        let f = st.one_flow_non_preferred_fraction();
        assert!((0.01..0.20).contains(&f), "one-flow non-preferred {f}");
    }

    #[test]
    fn eu2_dns_mapping_dominates() {
        // Figure 10a: for EU2, over 40% of single-flow sessions go to the
        // non-preferred data center.
        let st = stats_for(DatasetName::Eu2);
        let f = st.one_flow_non_preferred_fraction();
        assert!(f > 0.30, "EU2 one-flow non-preferred {f}");
    }

    #[test]
    fn eu1_redirections_visible_in_two_flow() {
        // Figure 10b: EU1 has a significant (preferred, non-preferred)
        // share — application-layer redirection.
        let st = stats_for(DatasetName::Eu1Adsl);
        assert!(st.two_flow.pn > 0, "{st:?}");
        let f = st.two_flow_pn_fraction();
        assert!(f > 0.10, "pn fraction {f}");
        // And (preferred, preferred) renegotiations exist too.
        assert!(st.two_flow.pp > 0);
    }

    #[test]
    fn eu2_two_flow_sessions_often_both_non_preferred() {
        let st = stats_for(DatasetName::Eu2);
        let n = st.two_flow.pp + st.two_flow.pn + st.two_flow.np + st.two_flow.nn;
        assert!(
            st.two_flow.nn as f64 / n as f64 > 0.15,
            "EU2 nn share {}/{n}",
            st.two_flow.nn
        );
    }

    #[test]
    fn three_plus_sessions_in_paper_range() {
        let st = stats_for(DatasetName::Eu1Adsl);
        let f = st.three_plus as f64 / st.total as f64;
        // Paper: 5.18–10% of sessions have more than 2 flows.
        assert!((0.02..0.15).contains(&f), "3+ flow share {f}");
        assert!(st.three_plus_first_preferred_then_non > 0);
    }

    #[test]
    fn excluded_sessions_counted() {
        let st = stats_for(DatasetName::Eu2);
        // EU2 has a large legacy share; those sessions must be excluded, not
        // silently classified.
        assert!(st.excluded > 0);
    }

    #[test]
    fn fractions_of_empty_stats_are_zero() {
        let st = PatternStats::default();
        assert_eq!(st.single_flow_fraction(), 0.0);
        assert_eq!(st.one_flow_non_preferred_fraction(), 0.0);
        assert_eq!(st.two_flow_pn_fraction(), 0.0);
    }
}

//! User-perceived performance analysis.
//!
//! The paper's introduction motivates the study with user performance: "A
//! better understanding could enable researchers to conduct what-if
//! analysis, and explore how changes ... can impact ISP traffic patterns,
//! as well as user performance." This module quantifies the performance
//! cost of the selection mechanisms the paper uncovers: every redirect hop
//! delays video startup by control-flow round trips, and being served by a
//! far data center raises the serving RTT for the whole download.

use crate::dcmap::AnalysisContext;
use crate::index::DatasetIndex;
use crate::stats::Cdf;

/// Performance of one video session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionPerf {
    /// Time from the session's first packet to the start of the video flow,
    /// ms ("startup delay": signalling, redirects, and think-time between
    /// flows).
    pub startup_ms: u64,
    /// RTT from the vantage point to the data center that served the video,
    /// ms (drives in-stream throughput and seek latency).
    pub serving_rtt_ms: f64,
    /// Whether the video was served by the preferred data center.
    pub preferred: bool,
    /// Number of flows before the video flow (0 = direct hit).
    pub redirect_hops: usize,
}

/// Computes per-session performance over the index's default-gap
/// sessions, reading each flow's video flag and data center off the index;
/// sessions with no video flow or flows outside the analysis ASes are
/// skipped.
pub fn session_perf(ctx: &AnalysisContext, index: &DatasetIndex) -> Vec<SessionPerf> {
    let start_ms = &index.dataset().columns().start_ms;
    let sessions = index.sessions();
    let mut out = Vec::with_capacity(sessions.len());
    for s in sessions.iter() {
        // The first video flow is the start of playback.
        let flows = s.flow_indices();
        let Some(video_pos) = flows.iter().position(|&i| index.is_video_flow(i as usize)) else {
            continue;
        };
        let video = flows[video_pos] as usize;
        let Some(dc_idx) = index.dc_of_flow(video) else {
            continue;
        };
        out.push(SessionPerf {
            startup_ms: start_ms[video].saturating_sub(s.start_ms),
            serving_rtt_ms: ctx.dcs()[dc_idx].rtt_ms,
            preferred: dc_idx == index.preferred_index(),
            redirect_hops: video_pos,
        });
    }
    out
}

/// Aggregate performance comparison between direct and redirected sessions
/// — the cost of the mechanisms behind the paper's Figure 10.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Startup-delay CDF of sessions whose first flow already carried video.
    pub direct_startup: Cdf,
    /// Startup-delay CDF of sessions that went through ≥ 1 signalling flow.
    pub redirected_startup: Cdf,
    /// Serving-RTT CDF of preferred-served sessions.
    pub preferred_rtt: Cdf,
    /// Serving-RTT CDF of non-preferred-served sessions.
    pub non_preferred_rtt: Cdf,
}

impl PerfReport {
    /// Median extra startup delay a redirected session pays, ms.
    pub fn median_redirect_penalty_ms(&self) -> f64 {
        if self.direct_startup.is_empty() || self.redirected_startup.is_empty() {
            return 0.0;
        }
        self.redirected_startup.median() - self.direct_startup.median()
    }

    /// Median extra serving RTT of non-preferred sessions, ms.
    pub fn median_rtt_penalty_ms(&self) -> f64 {
        if self.preferred_rtt.is_empty() || self.non_preferred_rtt.is_empty() {
            return 0.0;
        }
        self.non_preferred_rtt.median() - self.preferred_rtt.median()
    }
}

/// Builds the aggregate report.
pub fn perf_report(ctx: &AnalysisContext, index: &DatasetIndex) -> PerfReport {
    let perfs = session_perf(ctx, index);
    PerfReport {
        direct_startup: Cdf::from_values(
            perfs
                .iter()
                .filter(|p| p.redirect_hops == 0)
                .map(|p| p.startup_ms as f64),
        ),
        redirected_startup: Cdf::from_values(
            perfs
                .iter()
                .filter(|p| p.redirect_hops > 0)
                .map(|p| p.startup_ms as f64),
        ),
        preferred_rtt: Cdf::from_values(
            perfs
                .iter()
                .filter(|p| p.preferred)
                .map(|p| p.serving_rtt_ms),
        ),
        non_preferred_rtt: Cdf::from_values(
            perfs
                .iter()
                .filter(|p| !p.preferred)
                .map(|p| p.serving_rtt_ms),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ytcdn_cdnsim::{ScenarioConfig, StandardScenario};
    use ytcdn_telemetry::Telemetry;
    use ytcdn_tstat::{Dataset, DatasetName};

    fn report_of(s: &StandardScenario, ds: Dataset) -> PerfReport {
        let ctx = AnalysisContext::from_ground_truth(s.world(), &ds);
        let index = DatasetIndex::build(&ctx, ds, Telemetry::disabled());
        perf_report(&ctx, &index)
    }

    fn report(name: DatasetName) -> PerfReport {
        let s = StandardScenario::build(ScenarioConfig::with_scale(0.01, 202));
        report_of(&s, s.run(name).0)
    }

    #[test]
    fn redirected_sessions_start_slower() {
        let r = report(DatasetName::Eu1Adsl);
        assert!(!r.direct_startup.is_empty());
        assert!(!r.redirected_startup.is_empty());
        let penalty = r.median_redirect_penalty_ms();
        // Each redirect costs at least one control exchange plus a gap:
        // well over 100 ms on ADSL.
        assert!(penalty > 100.0, "median redirect penalty {penalty} ms");
    }

    #[test]
    fn non_preferred_serving_rtt_is_higher() {
        let r = report(DatasetName::Eu1Campus);
        let penalty = r.median_rtt_penalty_ms();
        // The preferred DC is ~4 ms away; miss-redirect targets are spread
        // over the world.
        assert!(penalty > 5.0, "median RTT penalty {penalty} ms");
    }

    #[test]
    fn direct_sessions_start_fast() {
        let r = report(DatasetName::Eu1Ftth);
        // A direct session's video flow starts the session: startup 0 (the
        // preliminary-control sessions are counted as redirected-shaped).
        assert_eq!(r.direct_startup.median(), 0.0);
    }

    #[test]
    fn eu2_nonpreferred_rtt_reflects_external_dc() {
        let s = StandardScenario::build(ScenarioConfig::with_scale(0.01, 203));
        let r = report_of(&s, s.run(DatasetName::Eu2).0);
        // The spill target is a real Google DC ~1000 km away: RTT penalty
        // is tens of ms but far from intercontinental.
        let p = r.median_rtt_penalty_ms();
        assert!((5.0..120.0).contains(&p), "EU2 penalty {p}");
        // Plenty of sessions on both sides in EU2.
        assert!(r.non_preferred_rtt.len() > r.preferred_rtt.len() / 10);
    }

    #[test]
    fn empty_inputs_are_safe() {
        let s = StandardScenario::build(ScenarioConfig::with_scale(0.004, 204));
        let r = report_of(&s, Dataset::new(DatasetName::Eu1Ftth));
        assert_eq!(r.median_redirect_penalty_ms(), 0.0);
        assert_eq!(r.median_rtt_penalty_ms(), 0.0);
    }
}

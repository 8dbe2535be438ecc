//! Constellation tracking and change-point detection over a trace.
//!
//! YouLighter (Giordano et al.) watches a CDN from the edge by clustering
//! the server IPs observed in each time window into edge-cluster
//! "constellations" and flagging a reconfiguration whenever consecutive
//! constellations drift apart. This module applies that idea to the
//! reproduction's traces: per window (default 6 h, grouping the
//! [`DatasetIndex`] per-hour ranges), the constellation is the
//! per-data-center distribution of the window's analysis flows. A flow's
//! data center is [`DatasetIndex::dc_of_flow`], i.e. the server → data
//! center map of the [`AnalysisContext`] the index was built from; `ytcdn
//! watch` builds it with `AnalysisContext::from_ground_truth`, so the
//! detector reads the simulator's own map. Each window also reports the
//! observed servers grouped by /24 ([`WindowStats::clusters`]), but those
//! clusters do not enter the distance.
//!
//! Each window is one pass over its flows into counters indexed by the
//! server's rank in the dataset's address-sorted dictionary, then one fold
//! of the ranks into /24 clusters (each a contiguous run of ranks) and
//! per-data-center totals. Its sessions are the next run of the
//! start-ordered sessions, and its startup percentiles are read from them
//! by selection, not by sorting the window's samples.
//!
//! # The distance
//!
//! The change statistic for window `w` is a total-variation distance
//! against the *pooled* distribution of the current regime (every active
//! window since the last detected change):
//!
//! ```text
//! d(w) = ½ · Σ_g | share_w(g) − share_regime(g) |
//! ```
//!
//! with two deliberate robustness choices, both tuned empirically on
//! simulated traces:
//!
//! * **flow-weighted, not byte-weighted** — video bytes are heavy-tailed
//!   (one hot video can carry half a window), so byte shares of small
//!   windows are sampling noise. Flow counts are near-multinomial and an
//!   order of magnitude quieter.
//! * **minor data centers are pooled into one tail group** — the groups
//!   `g` are the data centers holding at least [`MAJOR_SHARE`] of the
//!   regime's flows, plus a single bucket for everything else. Traffic
//!   that *spills* (cache misses, overload) lands on a different minor
//!   data center every window; comparing those minors individually reads
//!   the churn as change, while the tail bucket sees only the spilled
//!   *total* — which is exactly the quantity that steps when the CDN is
//!   reconfigured.
//!
//! A [`ChangePoint`] fires when `d(w)` exceeds the configured threshold;
//! the pool then resets, so a persistent reconfiguration (a decommissioned
//! data center, a preferred-mapping flip, a cache shrink) fires exactly
//! once, at its onset window. Nearly idle windows (below
//! [`WatchConfig::min_flows`] flows) are skipped rather than compared —
//! their shares are noise — so a change landing in a quiet stretch is
//! still caught at the next active window.
//!
//! Alongside the constellation, each window carries the live SLO metrics
//! the watch workload streams to telemetry: p50/p90/p99 of the startup
//! proxy (first-flow duration per session), the non-preferred fraction of
//! video flows, and the per-data-center byte distribution.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use ytcdn_telemetry::{Event, Telemetry};
use ytcdn_tstat::{Dataset, HOUR_MS};

use crate::dcmap::AnalysisContext;
use crate::error::{AnalysisError, AnalysisResult};
use crate::index::DatasetIndex;
use crate::stats::select_quantiles;

/// Default window width, in trace hours.
pub const DEFAULT_WINDOW_HOURS: u64 = 6;

/// Default change-point threshold on the constellation distance.
///
/// Empirically, unmutated traces at scale 0.05 stay below ~0.10 while the
/// weakest scheduled mutation (a deep cache eviction) steps to ~0.25 and a
/// decommission or preferred flip to ~0.95, so 0.2 splits the regimes with
/// a factor-of-two margin on both sides.
pub const DEFAULT_THRESHOLD: f64 = 0.2;

/// A data center is a *major* constellation member when it holds at least
/// this share of the regime's flows; smaller ones are compared as one
/// pooled tail group (see the module docs for why).
pub const MAJOR_SHARE: f64 = 0.05;

/// Parameters of the constellation detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchConfig {
    /// Window width in trace hours (clamped to at least 1).
    pub window_hours: u64,
    /// Constellation distance above which a window is a change point.
    pub threshold: f64,
    /// Windows with fewer analysis flows than this are considered idle:
    /// they get distance 0 and do not join the regime pool.
    pub min_flows: u64,
}

impl Default for WatchConfig {
    fn default() -> Self {
        Self {
            window_hours: DEFAULT_WINDOW_HOURS,
            threshold: DEFAULT_THRESHOLD,
            min_flows: 50,
        }
    }
}

/// One /24 server cluster observed in a window, with its traffic mass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterMass {
    /// The /24 network address of the cluster.
    pub slash24: Ipv4Addr,
    /// Index of the data center the cluster belongs to.
    pub dc: usize,
    /// Analysis flows the cluster answered in the window.
    pub flows: u64,
    /// Bytes the cluster served in the window.
    pub bytes: u64,
}

/// One window's constellation and SLO metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowStats {
    /// Zero-based window ordinal.
    pub window: usize,
    /// First trace hour the window covers.
    pub start_hour: u64,
    /// One past the last trace hour the window covers.
    pub end_hour: u64,
    /// Flows starting in the window (analysis and other pools alike).
    pub flows: u64,
    /// Sessions starting in the window.
    pub sessions: u64,
    /// Analysis bytes served in the window.
    pub bytes: u64,
    /// Median first-flow duration of the window's sessions, in ms — the
    /// startup-RTT proxy (a redirect chain front-loads control flows, so
    /// reconfigurations surface here too).
    pub startup_ms_p50: f64,
    /// 90th-percentile first-flow duration, ms.
    pub startup_ms_p90: f64,
    /// 99th-percentile first-flow duration, ms.
    pub startup_ms_p99: f64,
    /// Fraction of the window's video flows served by a non-preferred data
    /// center.
    pub non_preferred_fraction: f64,
    /// Median of the window's per-data-center byte totals (active data
    /// centers only).
    pub dc_bytes_p50: f64,
    /// 90th percentile of the per-data-center byte totals.
    pub dc_bytes_p90: f64,
    /// 99th percentile of the per-data-center byte totals.
    pub dc_bytes_p99: f64,
    /// The constellation: observed /24 clusters, sorted by address.
    pub clusters: Vec<ClusterMass>,
    /// Constellation distance to the current regime pool; 0 for the first
    /// active window of a regime and for idle windows.
    pub distance: f64,
}

/// A data center implicated in a change point.
#[derive(Debug, Clone, PartialEq)]
pub struct AffectedDc {
    /// Index of the data center (into [`AnalysisContext::dcs`]).
    pub dc: usize,
    /// Its city name.
    pub city: String,
    /// Signed flow-share change against the regime pool (positive = the
    /// data center gained traffic).
    pub delta_share: f64,
}

/// A detected CDN reconfiguration.
#[derive(Debug, Clone, PartialEq)]
pub struct ChangePoint {
    /// The window whose constellation shifted.
    pub window: usize,
    /// First trace hour of that window — the detection timestamp.
    pub hour: u64,
    /// The distance that crossed the threshold.
    pub distance: f64,
    /// Data centers whose flow share moved the most, largest first.
    pub affected: Vec<AffectedDc>,
}

/// The full watch report over one dataset: every window's constellation
/// and metrics, plus the change points.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchReport {
    /// The dataset watched.
    pub dataset: String,
    /// The window width used, in hours.
    pub window_hours: u64,
    /// The change-point threshold used.
    pub threshold: f64,
    /// Per-window constellations and metrics, in trace order.
    pub windows: Vec<WindowStats>,
    /// Detected reconfigurations, in trace order.
    pub change_points: Vec<ChangePoint>,
}

/// The /24 network address of a server address.
fn slash24(ip: Ipv4Addr) -> Ipv4Addr {
    Ipv4Addr::from(u32::from(ip) & 0xffff_ff00)
}

/// The tail-bucketed total-variation distance between a window's per-DC
/// flow counts and the regime pool's (see the module docs).
fn regime_distance(cur: &BTreeMap<usize, u64>, pool: &BTreeMap<usize, u64>) -> f64 {
    let cur_total: u64 = cur.values().sum();
    let pool_total: u64 = pool.values().sum();
    if cur_total == 0 || pool_total == 0 {
        return 0.0;
    }
    let is_major = |dc: usize| {
        pool.get(&dc)
            .is_some_and(|&n| n as f64 / pool_total as f64 >= MAJOR_SHARE)
    };
    let mut d = 0.0;
    let mut cur_tail = 0.0;
    let mut pool_tail = 0.0;
    for (&dc, &n) in pool {
        let pool_share = n as f64 / pool_total as f64;
        let cur_share = cur.get(&dc).copied().unwrap_or(0) as f64 / cur_total as f64;
        if is_major(dc) {
            d += (cur_share - pool_share).abs();
        } else {
            pool_tail += pool_share;
            cur_tail += cur_share;
        }
    }
    for (&dc, &n) in cur {
        if !pool.contains_key(&dc) {
            cur_tail += n as f64 / cur_total as f64;
        }
    }
    d += (cur_tail - pool_tail).abs();
    d / 2.0
}

/// Signed per-DC flow-share deltas, window vs regime pool (unbucketed —
/// this is for *attributing* a detected change, not for detecting it).
fn share_deltas(cur: &BTreeMap<usize, u64>, pool: &BTreeMap<usize, u64>) -> BTreeMap<usize, f64> {
    let cur_total: u64 = cur.values().sum();
    let pool_total: u64 = pool.values().sum();
    let mut deltas = BTreeMap::new();
    if cur_total == 0 || pool_total == 0 {
        return deltas;
    }
    for (&dc, &n) in cur {
        let pool_share = pool.get(&dc).copied().unwrap_or(0) as f64 / pool_total as f64;
        deltas.insert(dc, n as f64 / cur_total as f64 - pool_share);
    }
    for (&dc, &n) in pool {
        deltas.entry(dc).or_insert(-(n as f64 / pool_total as f64));
    }
    deltas
}

/// The data centers a change point implicates: at most three whose flow
/// share moved by at least 0.01, largest move first.
fn affected_dcs(
    ctx: &AnalysisContext,
    cur: &BTreeMap<usize, u64>,
    pool: &BTreeMap<usize, u64>,
) -> Vec<AffectedDc> {
    let mut affected: Vec<AffectedDc> = share_deltas(cur, pool)
        .into_iter()
        .filter(|&(_, d)| d.abs() >= 0.01)
        .map(|(dc, delta_share)| AffectedDc {
            dc,
            city: ctx.dcs()[dc].city_name.clone(),
            delta_share,
        })
        .collect();
    affected.sort_by(|a, b| {
        b.delta_share
            .abs()
            .total_cmp(&a.delta_share.abs())
            .then(a.dc.cmp(&b.dc))
    });
    affected.truncate(3);
    affected
}

impl WatchReport {
    /// Builds the report over one indexed dataset.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::EmptyDataset`] when the dataset has no
    /// flows — there is nothing to watch.
    pub fn build(
        ctx: &AnalysisContext,
        dataset: &Dataset,
        index: &DatasetIndex,
        config: WatchConfig,
    ) -> AnalysisResult<Self> {
        if index.is_empty() {
            return Err(AnalysisError::EmptyDataset {
                dataset: index.dataset_name().to_string(),
            });
        }
        let wh = config.window_hours.max(1);
        let hours = index.hour_ranges().len() as u64;
        let num_windows = hours.div_ceil(wh) as usize;
        let c = dataset.columns();

        // Sessions come in canonical order, which ascends by start time,
        // so each window's sessions are the next run of them; `startup`
        // holds the current window's startup samples (first-flow
        // durations).
        let mut sessions = index.sessions().iter().peekable();
        let mut startup: Vec<f64> = Vec::new();

        // Per server-dictionary rank, over the current window: analysis
        // flows and bytes. Zeroed as each window is folded.
        let servers = dataset.server_ips();
        let mut rank_flows = vec![0u64; servers.len()];
        let mut rank_bytes = vec![0u64; servers.len()];

        let mut windows: Vec<WindowStats> = Vec::with_capacity(num_windows);
        let mut change_points: Vec<ChangePoint> = Vec::new();
        // Per-DC flow counts pooled over the current regime's active
        // windows; cleared when a change point fires.
        let mut pool: BTreeMap<usize, u64> = BTreeMap::new();
        for w in 0..num_windows {
            let start_hour = w as u64 * wh;
            let end_hour = (start_hour + wh).min(hours);
            let flow_start = index.hour_ranges()[start_hour as usize].start;
            let flow_end = index.hour_ranges()[end_hour as usize - 1].end;

            // Every session starts before `hours * HOUR_MS`, so bounding the
            // last window by the trace's end keeps it whole, and the product
            // stays small for any `window_hours`.
            let window_end_ms = end_hour * HOUR_MS;
            let mut sessions_in = 0u64;
            startup.clear();
            while let Some(s) = sessions.next_if(|s| s.start_ms < window_end_ms) {
                sessions_in += 1;
                if let Some(&first) = s.flow_indices().first() {
                    startup.push((c.end_ms[first as usize] - s.start_ms) as f64);
                }
            }

            let mut video_flows = 0u64;
            let mut non_preferred = 0u64;
            for i in flow_start..flow_end {
                let rank = c.server_ranks[i] as usize;
                let Some(dc) = index.dc_of_server(rank) else {
                    continue;
                };
                rank_flows[rank] += 1;
                rank_bytes[rank] += c.bytes[i];
                if index.is_video_flow(i) {
                    video_flows += 1;
                    if dc != index.preferred_index() {
                        non_preferred += 1;
                    }
                }
            }

            // Fold the ranks into /24 clusters and per-DC totals. The
            // dictionary is sorted by address, so each /24 is one run of
            // ranks. `DcMap` resolves a server by its /24, so every rank of
            // a cluster has the cluster's DC.
            let mut clusters: Vec<ClusterMass> = Vec::new();
            let mut dc_flows: BTreeMap<usize, u64> = BTreeMap::new();
            let mut dc_bytes: BTreeMap<usize, u64> = BTreeMap::new();
            for (rank, &ip) in servers.iter().enumerate() {
                let flows = std::mem::take(&mut rank_flows[rank]);
                let Some(dc) = index.dc_of_server(rank).filter(|_| flows > 0) else {
                    continue;
                };
                let bytes = std::mem::take(&mut rank_bytes[rank]);
                *dc_flows.entry(dc).or_insert(0) += flows;
                *dc_bytes.entry(dc).or_insert(0) += bytes;
                let block = slash24(ip);
                match clusters.last_mut() {
                    Some(cluster) if cluster.slash24 == block => {
                        debug_assert_eq!(cluster.dc, dc, "a /24 spans two data centers");
                        cluster.flows += flows;
                        cluster.bytes += bytes;
                    }
                    _ => clusters.push(ClusterMass {
                        slash24: block,
                        dc,
                        flows,
                        bytes,
                    }),
                }
            }

            let analysis_flows: u64 = dc_flows.values().sum();
            let bytes: u64 = clusters.iter().map(|c| c.bytes).sum();
            let active = analysis_flows >= config.min_flows;
            let distance = if active {
                regime_distance(&dc_flows, &pool)
            } else {
                0.0
            };
            if distance > config.threshold {
                change_points.push(ChangePoint {
                    window: w,
                    hour: start_hour,
                    distance,
                    affected: affected_dcs(ctx, &dc_flows, &pool),
                });
                // The change window opens the new regime.
                pool.clear();
            }
            if active {
                for (&dc, &n) in &dc_flows {
                    *pool.entry(dc).or_insert(0) += n;
                }
            }

            let quantiles = [0.50, 0.90, 0.99];
            let [startup_ms_p50, startup_ms_p90, startup_ms_p99] =
                select_quantiles(&mut startup, quantiles);
            let mut dc_totals: Vec<f64> = dc_bytes.values().map(|&b| b as f64).collect();
            let [dc_bytes_p50, dc_bytes_p90, dc_bytes_p99] =
                select_quantiles(&mut dc_totals, quantiles);

            windows.push(WindowStats {
                window: w,
                start_hour,
                end_hour,
                flows: (flow_end - flow_start) as u64,
                sessions: sessions_in,
                bytes,
                startup_ms_p50,
                startup_ms_p90,
                startup_ms_p99,
                non_preferred_fraction: if video_flows == 0 {
                    0.0
                } else {
                    non_preferred as f64 / video_flows as f64
                },
                dc_bytes_p50,
                dc_bytes_p90,
                dc_bytes_p99,
                clusters,
                distance,
            });
        }

        Ok(Self {
            dataset: index.dataset_name().to_string(),
            window_hours: wh,
            threshold: config.threshold,
            windows,
            change_points,
        })
    }

    /// Streams the report to telemetry: one `window_metrics` event per
    /// window and one `change_point_detected` event per change point, in
    /// trace order. Scope the handle to the dataset before calling.
    pub fn emit(&self, telemetry: &Telemetry) {
        for w in &self.windows {
            telemetry.emit(|| Event::WindowMetrics {
                window: w.window as u64,
                start_hour: w.start_hour,
                end_hour: w.end_hour,
                flows: w.flows,
                sessions: w.sessions,
                bytes: w.bytes,
                startup_ms_p50: w.startup_ms_p50,
                startup_ms_p90: w.startup_ms_p90,
                startup_ms_p99: w.startup_ms_p99,
                non_preferred_fraction: w.non_preferred_fraction,
                dc_bytes_p50: w.dc_bytes_p50,
                dc_bytes_p90: w.dc_bytes_p90,
                dc_bytes_p99: w.dc_bytes_p99,
                clusters: w.clusters.len() as u64,
                constellation_distance: w.distance,
            });
        }
        for cp in &self.change_points {
            telemetry.emit(|| Event::ChangePointDetected {
                window: cp.window as u64,
                hour: cp.hour,
                distance: cp.distance,
                affected: cp
                    .affected
                    .iter()
                    .map(|a| a.city.as_str())
                    .collect::<Vec<_>>()
                    .join(", "),
            });
        }
    }

    /// Renders the change-point table the `watch` subcommand prints.
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}: {} windows of {} h, threshold {:.2}",
            self.dataset,
            self.windows.len(),
            self.window_hours,
            self.threshold
        );
        let _ = writeln!(
            out,
            "{:>6}  {:>9}  {:>8}  {:>9}  {:>10}  change",
            "window", "hours", "distance", "flows", "MB"
        );
        for w in &self.windows {
            let cp = self.change_points.iter().find(|c| c.window == w.window);
            let marker = match cp {
                Some(c) if !c.affected.is_empty() => format!(
                    "CHANGE  {}",
                    c.affected
                        .iter()
                        .map(|a| format!("{} {:+.2}", a.city, a.delta_share))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
                Some(_) => "CHANGE".to_owned(),
                None => String::new(),
            };
            let _ = writeln!(
                out,
                "{:>6}  {:>4}-{:<4}  {:>8.3}  {:>9}  {:>10.1}  {}",
                w.window,
                w.start_hour,
                w.end_hour,
                w.distance,
                w.flows,
                w.bytes as f64 / 1e6,
                marker
            );
        }
        let _ = writeln!(
            out,
            "{} change point{} detected",
            self.change_points.len(),
            if self.change_points.len() == 1 {
                ""
            } else {
                "s"
            }
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ytcdn_cdnsim::{ScenarioConfig, StandardScenario};
    use ytcdn_telemetry::Telemetry;
    use ytcdn_tstat::DatasetName;

    /// Nearest-rank percentile of an ascending-sorted sample, 0.0 when
    /// empty: the oracle's sort-then-read rule.
    fn percentile(sorted: &[f64], q: f64) -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        sorted[crate::stats::nearest_rank(sorted.len(), q)]
    }

    /// The per-flow ordered-map build [`WatchReport::build`] replaced, kept
    /// as its oracle: three `BTreeMap` inserts per flow and a sort per
    /// window. The caller checks for an empty index.
    fn build_by_maps(
        ctx: &AnalysisContext,
        dataset: &Dataset,
        index: &DatasetIndex,
        config: WatchConfig,
    ) -> WatchReport {
        let wh = config.window_hours.max(1);
        let hours = index.hour_ranges().len() as u64;
        let num_windows = hours.div_ceil(wh) as usize;
        let c = dataset.columns();

        // Startup samples (first-flow duration) per window, by session
        // start time.
        let mut startup: Vec<Vec<f64>> = vec![Vec::new(); num_windows];
        let mut sessions_in: Vec<u64> = vec![0; num_windows];
        for s in index.sessions().iter() {
            let w = (s.start_ms / HOUR_MS / wh) as usize;
            if w >= num_windows {
                continue;
            }
            sessions_in[w] += 1;
            if let Some(&first) = s.flow_indices().first() {
                let first = first as usize;
                startup[w].push((c.end_ms[first] - c.start_ms[first]) as f64);
            }
        }

        let mut windows: Vec<WindowStats> = Vec::with_capacity(num_windows);
        let mut change_points: Vec<ChangePoint> = Vec::new();
        // Per-DC flow counts pooled over the current regime's active
        // windows; cleared when a change point fires.
        let mut pool: BTreeMap<usize, u64> = BTreeMap::new();
        for w in 0..num_windows {
            let start_hour = w as u64 * wh;
            let end_hour = (start_hour + wh).min(hours);
            let flow_start = index.hour_ranges()[start_hour as usize].start;
            let flow_end = index.hour_ranges()[end_hour as usize - 1].end;

            let mut by_cluster: BTreeMap<Ipv4Addr, ClusterMass> = BTreeMap::new();
            let mut dc_flows: BTreeMap<usize, u64> = BTreeMap::new();
            let mut dc_bytes: BTreeMap<usize, u64> = BTreeMap::new();
            let mut video_flows = 0u64;
            let mut non_preferred = 0u64;
            for i in flow_start..flow_end {
                let Some(dc) = index.dc_of_flow(i) else {
                    continue;
                };
                let block = slash24(dataset.server_ip(i));
                let cluster = by_cluster.entry(block).or_insert(ClusterMass {
                    slash24: block,
                    dc,
                    flows: 0,
                    bytes: 0,
                });
                cluster.flows += 1;
                cluster.bytes += c.bytes[i];
                *dc_flows.entry(dc).or_insert(0) += 1;
                *dc_bytes.entry(dc).or_insert(0) += c.bytes[i];
                if index.is_video_flow(i) {
                    video_flows += 1;
                    if dc != index.preferred_index() {
                        non_preferred += 1;
                    }
                }
            }

            let analysis_flows: u64 = dc_flows.values().sum();
            let bytes: u64 = by_cluster.values().map(|c| c.bytes).sum();
            let active = analysis_flows >= config.min_flows;
            let distance = if active {
                regime_distance(&dc_flows, &pool)
            } else {
                0.0
            };
            if distance > config.threshold {
                change_points.push(ChangePoint {
                    window: w,
                    hour: start_hour,
                    distance,
                    affected: affected_dcs(ctx, &dc_flows, &pool),
                });
                // The change window opens the new regime.
                pool.clear();
            }
            if active {
                for (&dc, &n) in &dc_flows {
                    *pool.entry(dc).or_insert(0) += n;
                }
            }

            let mut startup_sorted = std::mem::take(&mut startup[w]);
            startup_sorted.sort_by(f64::total_cmp);
            let mut dc_sorted: Vec<f64> = dc_bytes.values().map(|&b| b as f64).collect();
            dc_sorted.sort_by(f64::total_cmp);

            windows.push(WindowStats {
                window: w,
                start_hour,
                end_hour,
                flows: (flow_end - flow_start) as u64,
                sessions: sessions_in[w],
                bytes,
                startup_ms_p50: percentile(&startup_sorted, 0.50),
                startup_ms_p90: percentile(&startup_sorted, 0.90),
                startup_ms_p99: percentile(&startup_sorted, 0.99),
                non_preferred_fraction: if video_flows == 0 {
                    0.0
                } else {
                    non_preferred as f64 / video_flows as f64
                },
                dc_bytes_p50: percentile(&dc_sorted, 0.50),
                dc_bytes_p90: percentile(&dc_sorted, 0.90),
                dc_bytes_p99: percentile(&dc_sorted, 0.99),
                clusters: by_cluster.into_values().collect(),
                distance,
            });
        }

        WatchReport {
            dataset: index.dataset_name().to_string(),
            window_hours: wh,
            threshold: config.threshold,
            windows,
            change_points,
        }
    }

    fn report_for(
        scenario: &StandardScenario,
        name: DatasetName,
        config: WatchConfig,
    ) -> WatchReport {
        let (ds, _) = scenario.run(name);
        let ctx = AnalysisContext::from_ground_truth(scenario.world(), &ds);
        let index = DatasetIndex::build(&ctx, &ds, Telemetry::disabled());
        WatchReport::build(&ctx, &ds, &index, config).unwrap()
    }

    #[test]
    fn windows_tile_the_trace() {
        let s = StandardScenario::build(ScenarioConfig::with_scale(0.004, 5));
        let r = report_for(&s, DatasetName::Eu1Ftth, WatchConfig::default());
        assert_eq!(r.window_hours, DEFAULT_WINDOW_HOURS);
        assert_eq!(r.windows.len(), 168usize.div_ceil(6));
        for (i, w) in r.windows.iter().enumerate() {
            assert_eq!(w.window, i);
            assert_eq!(w.start_hour, i as u64 * 6);
        }
        let total_flows: u64 = r.windows.iter().map(|w| w.flows).sum();
        assert_eq!(total_flows, s.run(DatasetName::Eu1Ftth).0.len() as u64);
        let total_sessions: u64 = r.windows.iter().map(|w| w.sessions).sum();
        assert!(total_sessions > 0);
    }

    #[test]
    fn unmutated_trace_stays_quiet() {
        let s = StandardScenario::build(ScenarioConfig::with_scale(0.05, 5));
        let r = report_for(&s, DatasetName::Eu1Ftth, WatchConfig::default());
        assert!(
            r.change_points.is_empty(),
            "false positives: {:?}",
            r.change_points
        );
        // The windows still carry live metrics.
        assert!(r.windows.iter().any(|w| w.startup_ms_p50 > 0.0));
        assert!(r.windows.iter().any(|w| !w.clusters.is_empty()));
    }

    #[test]
    fn dc_down_fires_at_the_scheduled_hour() {
        let mut s = StandardScenario::build(ScenarioConfig::with_scale(0.05, 5));
        s.set_mutations(&["dc-down@72:milan".parse().unwrap()])
            .unwrap();
        let r = report_for(&s, DatasetName::Eu1Ftth, WatchConfig::default());
        assert_eq!(
            r.change_points.len(),
            1,
            "expected a single change point: {:?}",
            r.change_points
        );
        let cp = &r.change_points[0];
        assert_eq!(cp.hour, 72);
        assert!(cp.distance > DEFAULT_THRESHOLD);
        // The drained data center loses its share; its replacement gains.
        let milan = cp
            .affected
            .iter()
            .find(|a| a.city == "Milan")
            .unwrap_or_else(|| panic!("Milan not implicated: {:?}", cp.affected));
        assert!(milan.delta_share < -0.5, "{:?}", cp.affected);
        assert!(
            cp.affected.iter().any(|a| a.delta_share > 0.5),
            "no gainer: {:?}",
            cp.affected
        );
    }

    #[test]
    fn empty_dataset_is_a_typed_error() {
        let s = StandardScenario::build(ScenarioConfig::with_scale(0.004, 5));
        let (ds, _) = s.run(DatasetName::Eu2);
        let ctx = AnalysisContext::from_ground_truth(s.world(), &ds);
        let empty = Dataset::new(DatasetName::Eu2);
        let index = DatasetIndex::build(&ctx, &empty, Telemetry::disabled());
        let err = WatchReport::build(&ctx, &empty, &index, WatchConfig::default()).unwrap_err();
        assert_eq!(
            err,
            AnalysisError::EmptyDataset {
                dataset: "EU2".into()
            }
        );
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v = [4.0, 2.0, 1.0, 3.0];
        assert_eq!(select_quantiles(&mut v, [0.50, 0.90]), [2.0, 4.0]);
        assert_eq!(select_quantiles(&mut [], [0.5]), [0.0]);
        assert_eq!(select_quantiles(&mut [7.0], [0.99]), [7.0]);
        v.sort_by(f64::total_cmp);
        assert_eq!((percentile(&v, 0.50), percentile(&v, 0.90)), (2.0, 4.0));
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    /// `build` equals its map oracle on unmutated and mutated traces of
    /// every dataset, at two seeds, under the default windows and under
    /// one-hour windows with a low activity floor.
    #[test]
    fn build_matches_the_map_oracle() {
        let specs: [&[&str]; 4] = [
            &[],
            &["dc-down@72:Milan"],
            &["prefer-flip@96:Frankfurt"],
            &["cache-evict@48:0.3"],
        ];
        let configs = [
            WatchConfig::default(),
            WatchConfig {
                window_hours: 1,
                threshold: 0.2,
                min_flows: 5,
            },
            // Windows whose end in ms would overflow a `u64`.
            WatchConfig {
                window_hours: u64::MAX,
                ..WatchConfig::default()
            },
            WatchConfig {
                window_hours: 5_124_095_576_031,
                ..WatchConfig::default()
            },
        ];
        for seed in [7, 12] {
            for spec in specs {
                let mut s = StandardScenario::build(ScenarioConfig::with_scale(0.005, seed));
                let parsed: Vec<_> = spec.iter().map(|m| m.parse().unwrap()).collect();
                s.set_mutations(&parsed).unwrap();
                for name in DatasetName::ALL {
                    let (ds, _) = s.run(name);
                    let ctx = AnalysisContext::from_ground_truth(s.world(), &ds);
                    let index = DatasetIndex::build(&ctx, &ds, Telemetry::disabled());
                    for config in configs {
                        let report = WatchReport::build(&ctx, &ds, &index, config).unwrap();
                        let sessions: u64 = report.windows.iter().map(|w| w.sessions).sum();
                        assert_eq!(
                            sessions,
                            index.sessions().len() as u64,
                            "seed {seed}, {spec:?}, {name}, {config:?}: sessions lost"
                        );
                        assert_eq!(
                            report,
                            build_by_maps(&ctx, &ds, &index, config),
                            "seed {seed}, {spec:?}, {name}, {config:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn regime_distance_bounds_and_tail_pooling() {
        let a = BTreeMap::from([(0usize, 90u64), (1, 10)]);
        let b = BTreeMap::from([(2usize, 50u64)]);
        assert_eq!(regime_distance(&a, &a), 0.0);
        assert_eq!(regime_distance(&b, &a), 1.0, "disjoint constellations");
        assert_eq!(regime_distance(&a, &BTreeMap::new()), 0.0, "empty pool");
        // Churn among sub-MAJOR_SHARE members is invisible: 96 flows on the
        // major plus 4 spread over minors, vs the same totals with the
        // minor flows on *different* minors.
        let pool = BTreeMap::from([(0usize, 960u64), (1, 20), (2, 20)]);
        let spill_a = BTreeMap::from([(0usize, 96u64), (1, 4)]);
        let spill_b = BTreeMap::from([(0usize, 96u64), (3, 4)]);
        assert!(
            (regime_distance(&spill_a, &pool) - regime_distance(&spill_b, &pool)).abs() < 1e-12
        );
        // ...but a change in the tail's *total* is not.
        let spill_big = BTreeMap::from([(0usize, 70u64), (3, 30)]);
        assert!(regime_distance(&spill_big, &pool) > 0.2);
    }

    #[test]
    fn render_table_mentions_changes() {
        let mut s = StandardScenario::build(ScenarioConfig::with_scale(0.05, 5));
        s.set_mutations(&["prefer-flip@96:frankfurt".parse().unwrap()])
            .unwrap();
        let r = report_for(&s, DatasetName::Eu1Ftth, WatchConfig::default());
        let table = r.render_table();
        assert!(table.contains("CHANGE"), "{table}");
        assert!(table.contains("change point"), "{table}");
        assert!(table.contains("Frankfurt"), "{table}");
    }
}

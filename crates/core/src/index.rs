//! The shared columnar analysis index — built once per dataset, answering
//! every per-figure question without re-deriving state.
//!
//! A [`DatasetIndex`] resolves the [`AnalysisContext`]'s per-flow lookups
//! exactly once into flat columns (`Vec<Option<u32>>` of data-center ids,
//! `Vec<bool>` of video flags), bins the (start-time-sorted) records into
//! per-hour index ranges, aggregates per-server and per-data-center
//! traffic, and groups + classifies the default-gap sessions — in
//! parallel, with output byte-identical to the sequential path (see
//! [`crate::session::group_sessions_parallel`] for the argument). The
//! figure analyses (`timeseries`, `videos`, `hotspot`) read these columns
//! instead of probing the context.
//!
//! Other gap thresholds (the Figure 5 `T`-sweep) need only session sizes,
//! and [`DatasetIndex::flows_per_session_sweep`] reads them for every gap
//! off one walk. It orders the records once into (client, video) buckets
//! — the grouper's own order, `session::bucket_order` — and keeps
//! an open `(count, end)` run per gap. A flow joins the current run at gap `T`
//! exactly when the grouper would add it to the current session: both see
//! a bucket's flows in the same start-time order, and both test
//! `start_ms <= end + T` against the same running maximum end. So each
//! gap's run lengths are its session sizes, with no `Session` values
//! built, no regrouping, and nothing cached between calls.
//!
//! Determinism note: every collection here is a `Vec` or `BTreeMap`
//! (lint rule `DET003` applies to this module), so iteration order — and
//! therefore anything derived from the index — is reproducible.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::ops::Range;

use ytcdn_telemetry::Telemetry;
use ytcdn_tstat::{Dataset, DatasetName, FlowRecord};

use crate::dcmap::AnalysisContext;
use crate::patterns::PatternStats;
use crate::session::{bucket_order, group_sessions_parallel, Session};
use crate::stats::Cdf;

/// The paper's session gap threshold `T` = 1 s, in milliseconds — the gap
/// the index pre-groups sessions at.
pub const DEFAULT_GAP_MS: u64 = 1_000;

/// Per-server traffic aggregate over one dataset (analysis servers only),
/// rows sorted by server address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// The server address.
    pub ip: Ipv4Addr,
    /// Index of the data center the server belongs to.
    pub dc: usize,
    /// Flows the server answered (control flows included).
    pub flows: u64,
    /// Bytes the server sent.
    pub bytes: u64,
}

/// The columnar index over one dataset.
///
/// Built once (in parallel) per dataset; all accessors are cheap reads.
/// Sessions are grouped at the default gap only; other gaps are swept on
/// demand (see the module docs), so the index holds no lock and no cache.
#[derive(Debug)]
pub struct DatasetIndex {
    dataset_name: DatasetName,
    preferred: usize,
    preferred_servers_seen: usize,
    /// Per flow: the analysis data-center index, `None` outside the
    /// analysis ASes. `u32` keeps the column at 8 bytes/flow.
    flow_dc: Vec<Option<u32>>,
    /// Per flow: whether the classifier calls it a video flow.
    flow_video: Vec<bool>,
    /// Per hour since trace start: the record-index range starting in it.
    hour_ranges: Vec<Range<usize>>,
    /// Per analysis server, sorted by address.
    servers: Vec<ServerStats>,
    /// Per data center: all analysis flows answered (control included).
    dc_flows: Vec<u64>,
    /// Per data center: all analysis bytes sent.
    dc_bytes: Vec<u64>,
    sessions: Vec<Session>,
    patterns: PatternStats,
}

impl DatasetIndex {
    /// Builds the index: one pass over the records for the columns and
    /// aggregates, plus a parallel session grouping across `jobs` threads
    /// (`jobs = 1` is the sequential grouper).
    ///
    /// # Panics
    ///
    /// Panics if `dataset`'s records are not sorted by start time (the
    /// dataset invariant every producer in this workspace upholds), or if
    /// `ctx` was built from a different dataset.
    pub fn build(
        ctx: &AnalysisContext,
        dataset: &Dataset,
        jobs: usize,
        telemetry: Telemetry,
    ) -> Self {
        Self::build_with_hours(ctx, dataset, None, jobs, telemetry)
    }

    /// Builds the index from decoded `.ytc` columns, reusing the hour
    /// index that came off disk instead of re-scanning the timestamps —
    /// output-identical to [`DatasetIndex::build`] over the same records
    /// (the decoder already cross-validated the ranges against the
    /// timestamp column).
    ///
    /// # Panics
    ///
    /// Panics if `ctx` was built from a different dataset.
    pub fn from_columnar(
        ctx: &AnalysisContext,
        columnar: &crate::columnar::ColumnarDataset,
        jobs: usize,
        telemetry: Telemetry,
    ) -> Self {
        Self::build_with_hours(
            ctx,
            columnar.dataset(),
            Some(columnar.hour_ranges().to_vec()),
            jobs,
            telemetry,
        )
    }

    /// [`DatasetIndex::build`], reusing `precomputed_hours` as the hour
    /// ranges when given (they must be what the scan would derive).
    pub(crate) fn build_with_hours(
        ctx: &AnalysisContext,
        dataset: &Dataset,
        precomputed_hours: Option<Vec<Range<usize>>>,
        jobs: usize,
        telemetry: Telemetry,
    ) -> Self {
        let span = telemetry.span("index.build");
        let records = dataset.records();
        let n = records.len();

        let mut flow_dc: Vec<Option<u32>> = Vec::with_capacity(n);
        let mut flow_video: Vec<bool> = Vec::with_capacity(n);
        let mut server_rows: BTreeMap<Ipv4Addr, ServerStats> = BTreeMap::new();
        let mut dc_flows = vec![0u64; ctx.dcs().len()];
        let mut dc_bytes = vec![0u64; ctx.dcs().len()];
        for r in records {
            let dc = ctx.dc_of(r);
            flow_dc.push(dc.map(|d| d as u32));
            flow_video.push(ctx.is_video(r));
            if let Some(d) = dc {
                dc_flows[d] += 1;
                dc_bytes[d] += r.bytes;
                let row = server_rows.entry(r.server_ip).or_insert(ServerStats {
                    ip: r.server_ip,
                    dc: d,
                    flows: 0,
                    bytes: 0,
                });
                row.flows += 1;
                row.bytes += r.bytes;
            }
        }

        // Records are sorted by start time, so each hour is one contiguous
        // index range. A `.ytc` load hands the ranges in pre-validated,
        // skipping the scan.
        let hour_ranges =
            precomputed_hours.unwrap_or_else(|| crate::columnar::compute_hour_ranges(records));

        let sessions = group_sessions_parallel(dataset, DEFAULT_GAP_MS, jobs);
        telemetry.counter("index.flows").add(n as u64);
        telemetry
            .counter("index.sessions")
            .add(sessions.len() as u64);

        let mut index = Self {
            dataset_name: dataset.name(),
            preferred: ctx.preferred().index,
            preferred_servers_seen: ctx.preferred().servers_seen,
            flow_dc,
            flow_video,
            hour_ranges,
            servers: server_rows.into_values().collect(),
            dc_flows,
            dc_bytes,
            sessions,
            patterns: PatternStats::default(),
        };
        index.patterns = index.classify();
        drop(span);
        index
    }

    /// The dataset this index describes.
    pub fn dataset_name(&self) -> DatasetName {
        self.dataset_name
    }

    /// Number of flows indexed.
    pub fn len(&self) -> usize {
        self.flow_dc.len()
    }

    /// Whether the dataset was empty.
    pub fn is_empty(&self) -> bool {
        self.flow_dc.is_empty()
    }

    /// The sessions at the paper's default gap (`T` = 1 s), in canonical
    /// order.
    pub fn sessions(&self) -> &[Session] {
        &self.sessions
    }

    /// The default-gap sessions' pattern classification (Figures 6/10):
    /// each session's per-flow targets tallied into the 1-flow, 2-flow and
    /// 3+-flow classes of [`PatternStats`].
    pub fn patterns(&self) -> PatternStats {
        self.patterns
    }

    /// Index of the preferred data center.
    pub fn preferred_index(&self) -> usize {
        self.preferred
    }

    /// Distinct servers seen at the preferred data center.
    pub fn preferred_servers_seen(&self) -> usize {
        self.preferred_servers_seen
    }

    /// The data-center index serving flow `i`, `None` outside the analysis
    /// ASes — the columnar equivalent of [`AnalysisContext::dc_of`].
    pub fn dc_of_flow(&self, i: usize) -> Option<usize> {
        self.flow_dc[i].map(|d| d as usize)
    }

    /// Whether flow `i` went to the preferred data center — the columnar
    /// equivalent of [`AnalysisContext::is_preferred`].
    pub fn is_preferred_flow(&self, i: usize) -> Option<bool> {
        self.flow_dc[i].map(|d| d as usize == self.preferred)
    }

    /// Whether flow `i` is a video flow.
    pub fn is_video_flow(&self, i: usize) -> bool {
        self.flow_video[i]
    }

    /// Per-hour record-index ranges; `ranges()[h]` are the flows starting
    /// in hour `h`. Always at least one (possibly empty) range.
    pub fn hour_ranges(&self) -> &[Range<usize>] {
        &self.hour_ranges
    }

    /// Per-server traffic aggregates, sorted by server address.
    pub fn servers(&self) -> &[ServerStats] {
        &self.servers
    }

    /// Per-data-center flow counts (all analysis flows, control included),
    /// indexed like [`AnalysisContext::dcs`].
    pub fn dc_flows(&self) -> &[u64] {
        &self.dc_flows
    }

    /// Per-data-center byte totals (all analysis flows), indexed like
    /// [`AnalysisContext::dcs`].
    pub fn dc_bytes(&self) -> &[u64] {
        &self.dc_bytes
    }

    /// Classifies the default-gap sessions against the columns; the build
    /// stores the result for [`DatasetIndex::patterns`].
    fn classify(&self) -> PatternStats {
        let mut stats = PatternStats::default();
        let mut targets: Vec<bool> = Vec::new();
        for s in &self.sessions {
            targets.clear();
            let mut excluded = false;
            for &i in &s.flow_indices {
                match self.is_preferred_flow(i) {
                    Some(p) => targets.push(p),
                    None => {
                        excluded = true;
                        break;
                    }
                }
            }
            if excluded {
                stats.excluded += 1;
                continue;
            }
            stats.total += 1;
            match targets.as_slice() {
                [only] => {
                    if *only {
                        stats.one_flow.preferred += 1;
                    } else {
                        stats.one_flow.non_preferred += 1;
                    }
                }
                [first, second] => match (first, second) {
                    (true, true) => stats.two_flow.pp += 1,
                    (true, false) => stats.two_flow.pn += 1,
                    (false, true) => stats.two_flow.np += 1,
                    (false, false) => stats.two_flow.nn += 1,
                },
                longer => {
                    stats.three_plus += 1;
                    if longer[0] && longer[1..].iter().any(|p| !p) {
                        stats.three_plus_first_preferred_then_non += 1;
                    }
                }
            }
        }
        stats
    }

    /// The flows-per-session CDF at the default gap — one curve of
    /// Figure 6, read off the pre-grouped sessions.
    pub(crate) fn flows_per_session(&self) -> Cdf {
        Cdf::from_values(self.sessions.iter().map(|s| s.flow_count() as f64))
    }

    /// The flows-per-session CDF at each of `gaps_ms`, in input order —
    /// each output-identical to [`crate::session::flows_per_session`] at
    /// that gap, from one walk over the bucket order (see the module docs).
    ///
    /// `dataset` must be the dataset the index was built from.
    pub fn flows_per_session_sweep(&self, dataset: &Dataset, gaps_ms: &[u64]) -> Vec<Cdf> {
        debug_assert_eq!(dataset.len(), self.len(), "not the indexed dataset");
        let records = dataset.records();
        // Per gap: the open run's latest end, and every run's size so far
        // (the open run's is the last).
        let mut ends = vec![0u64; gaps_ms.len()];
        let mut sizes: Vec<Vec<f64>> = vec![Vec::new(); gaps_ms.len()];
        let mut prev: Option<&FlowRecord> = None;
        for i in bucket_order(dataset, 0..records.len()) {
            let r = &records[i];
            let same_bucket =
                prev.is_some_and(|p| (p.client_ip, p.video_id) == (r.client_ip, r.video_id));
            for ((gap, end), runs) in gaps_ms.iter().zip(&mut ends).zip(&mut sizes) {
                match runs.last_mut() {
                    Some(count) if same_bucket && r.start_ms <= end.saturating_add(*gap) => {
                        *count += 1.0;
                        *end = (*end).max(r.end_ms);
                    }
                    _ => {
                        runs.push(1.0);
                        *end = r.end_ms;
                    }
                }
            }
            prev = Some(r);
        }
        sizes.into_iter().map(Cdf::from_values).collect()
    }
}

/// The shared geolocation index: every /24 server block observed by *any*
/// dataset, CBG-localized exactly once.
///
/// Before this layer, `table3` and `fig3` each re-ran a full
/// [`crate::geo_analysis::geolocate_servers`] pass over all five datasets
/// — ten dataset-passes for two reports. Because a block's CBG outcome is
/// a pure function of `(world, cbg, seed, block)` (its noise comes from a
/// per-block splittable stream and its target is the block's canonical
/// endpoint), the index localizes the *union* of blocks once and
/// reassembles each dataset's view from the shared results —
/// byte-identical to what a standalone per-dataset pass computes.
///
/// Built lazily by [`crate::experiments::ExperimentSuite::geo_index`] under
/// a `geo.localize` telemetry span, with the union size on the
/// `geo.blocks` counter.
#[derive(Debug)]
pub struct GeoIndex {
    /// Per dataset, in [`DatasetName::ALL`] order: its servers' locations,
    /// exactly as `geolocate_servers` would report them.
    per_dataset: Vec<Vec<crate::geo_analysis::ServerLocation>>,
}

impl GeoIndex {
    /// Localizes the union of all datasets' server blocks (in parallel
    /// across `jobs` threads) and splits the results back per dataset.
    ///
    /// `datasets` must be the suite's five datasets in [`DatasetName::ALL`]
    /// order — the same invariant the experiment suite's own vectors
    /// uphold.
    pub fn build(
        world: &ytcdn_cdnsim::World,
        datasets: &[Dataset],
        cbg: &ytcdn_geoloc::Cbg,
        seed: u64,
        jobs: usize,
        telemetry: Telemetry,
    ) -> Self {
        use crate::geo_analysis::{dataset_blocks, localize_blocks};
        debug_assert!(datasets
            .iter()
            .zip(DatasetName::ALL)
            .all(|(ds, name)| ds.name() == name));
        let _span = telemetry.span("geo.localize");
        let per_ds_blocks: Vec<_> = datasets
            .iter()
            .map(|ds| dataset_blocks(world, ds))
            .collect();
        let union: BTreeMap<ytcdn_netsim::Ipv4Block, ytcdn_netsim::Endpoint> = per_ds_blocks
            .iter()
            .flatten()
            .map(|&(block, endpoint, _)| (block, endpoint))
            .collect();
        let targets: Vec<_> = union.into_iter().collect();
        telemetry.counter("geo.blocks").add(targets.len() as u64);
        let located = localize_blocks(cbg, seed, &targets, jobs);
        let by_block: BTreeMap<_, _> = located.iter().map(|loc| (loc.block, loc)).collect();
        let per_dataset = per_ds_blocks
            .iter()
            .map(|blocks| {
                blocks
                    .iter()
                    .filter_map(|(block, _, ips)| {
                        // Every dataset block is in the union by
                        // construction; filter_map only keeps the path
                        // panic-free.
                        by_block
                            .get(block)
                            .map(|loc| crate::geo_analysis::block_to_server_location(loc, ips))
                    })
                    .collect()
            })
            .collect();
        Self { per_dataset }
    }

    /// One dataset's server locations — what `geolocate_servers` over that
    /// dataset (same cbg/seed) returns, served from the shared pass.
    pub fn dataset(&self, name: DatasetName) -> &[crate::geo_analysis::ServerLocation] {
        let slot = match name {
            DatasetName::UsCampus => 0,
            DatasetName::Eu1Campus => 1,
            DatasetName::Eu1Adsl => 2,
            DatasetName::Eu1Ftth => 3,
            DatasetName::Eu2 => 4,
        };
        &self.per_dataset[slot]
    }

    /// All five datasets' locations concatenated in [`DatasetName::ALL`]
    /// order — the pooled view `fig3` and the CSV export consume (a block
    /// seen by several datasets appears once per dataset, mirroring the
    /// historical pooled pass).
    pub fn pooled(&self) -> Vec<crate::geo_analysis::ServerLocation> {
        self.per_dataset.iter().flatten().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ytcdn_cdnsim::{ScenarioConfig, StandardScenario};

    fn setup(name: DatasetName) -> (Dataset, AnalysisContext) {
        let s = StandardScenario::build(ScenarioConfig::with_scale(0.008, 55));
        let (ds, _) = s.run(name);
        let ctx = AnalysisContext::from_ground_truth(s.world(), &ds);
        (ds, ctx)
    }

    #[test]
    fn columns_match_context_probes() {
        let (ds, ctx) = setup(DatasetName::Eu1Adsl);
        let index = DatasetIndex::build(&ctx, &ds, 4, Telemetry::disabled());
        assert_eq!(index.len(), ds.len());
        for (i, r) in ds.iter().enumerate() {
            assert_eq!(index.dc_of_flow(i), ctx.dc_of(r));
            assert_eq!(index.is_preferred_flow(i), ctx.is_preferred(r));
            assert_eq!(index.is_video_flow(i), ctx.is_video(r));
        }
        assert_eq!(index.preferred_index(), ctx.preferred().index);
        assert_eq!(index.preferred_servers_seen(), ctx.preferred().servers_seen);
    }

    #[test]
    fn hour_ranges_partition_the_trace() {
        let (ds, ctx) = setup(DatasetName::UsCampus);
        let index = DatasetIndex::build(&ctx, &ds, 2, Telemetry::disabled());
        let mut covered = 0usize;
        for (h, range) in index.hour_ranges().iter().enumerate() {
            assert_eq!(range.start, covered, "hour {h} not contiguous");
            for i in range.clone() {
                assert_eq!(ds.records()[i].start_ms / ytcdn_tstat::HOUR_MS, h as u64);
            }
            covered = range.end;
        }
        assert_eq!(covered, ds.len());
    }

    #[test]
    fn aggregates_are_consistent() {
        let (ds, ctx) = setup(DatasetName::Eu1Ftth);
        let index = DatasetIndex::build(&ctx, &ds, 2, Telemetry::disabled());
        let analysis_flows = ds.iter().filter(|r| ctx.dc_of(r).is_some()).count() as u64;
        assert_eq!(index.dc_flows().iter().sum::<u64>(), analysis_flows);
        assert_eq!(
            index.servers().iter().map(|s| s.flows).sum::<u64>(),
            analysis_flows
        );
        assert_eq!(
            index.dc_bytes().iter().sum::<u64>(),
            index.servers().iter().map(|s| s.bytes).sum::<u64>()
        );
        // Rows sorted by address, each assigned to the DC the map gives.
        assert!(index.servers().windows(2).all(|w| w[0].ip < w[1].ip));
        for row in index.servers() {
            let rec = ds.iter().find(|r| r.server_ip == row.ip).expect("seen");
            assert_eq!(Some(row.dc), ctx.dc_of(rec));
        }
    }

    #[test]
    fn flows_per_session_matches_direct_cdf() {
        let (ds, ctx) = setup(DatasetName::UsCampus);
        let index = DatasetIndex::build(&ctx, &ds, 2, Telemetry::disabled());
        let gaps: Vec<u64> = [1u64, 5, 300].iter().map(|s| s * 1000).collect();
        let swept = index.flows_per_session_sweep(&ds, &gaps);
        assert_eq!(swept.len(), gaps.len());
        for (gap, cdf) in gaps.iter().zip(&swept) {
            assert_eq!(
                cdf,
                &crate::session::flows_per_session(&ds, *gap),
                "gap {gap}"
            );
        }
        assert_eq!(
            index.flows_per_session(),
            crate::session::flows_per_session(&ds, DEFAULT_GAP_MS)
        );
        assert!(index.flows_per_session_sweep(&ds, &[]).is_empty());
    }

    #[test]
    fn from_columnar_matches_build() {
        let (ds, ctx) = setup(DatasetName::Eu1Ftth);
        let built = DatasetIndex::build(&ctx, &ds, 2, Telemetry::disabled());
        let columnar =
            crate::columnar::ColumnarDataset::from_dataset(ds.clone()).expect("well-formed");
        let from_ytc = DatasetIndex::from_columnar(&ctx, &columnar, 2, Telemetry::disabled());
        assert_eq!(from_ytc.hour_ranges(), built.hour_ranges());
        assert_eq!(from_ytc.sessions(), built.sessions());
        assert_eq!(from_ytc.patterns(), built.patterns());
        assert_eq!(from_ytc.servers(), built.servers());
        assert_eq!(from_ytc.dc_flows(), built.dc_flows());
        assert_eq!(from_ytc.dc_bytes(), built.dc_bytes());
        for i in 0..ds.len() {
            assert_eq!(from_ytc.dc_of_flow(i), built.dc_of_flow(i));
            assert_eq!(from_ytc.is_video_flow(i), built.is_video_flow(i));
        }
    }

    #[test]
    fn empty_dataset_index() {
        let (_, ctx) = setup(DatasetName::Eu1Adsl);
        let empty = Dataset::new(DatasetName::Eu1Adsl);
        let index = DatasetIndex::build(&ctx, &empty, 4, Telemetry::disabled());
        assert!(index.is_empty());
        assert!(index.sessions().is_empty());
        assert_eq!(index.patterns(), PatternStats::default());
        assert_eq!(index.hour_ranges(), std::slice::from_ref(&(0..0)));
        assert!(index.servers().is_empty());
    }
}

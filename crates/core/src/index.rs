//! The shared columnar analysis index — built once per dataset, answering
//! every per-figure question without re-deriving state.
//!
//! A [`DatasetIndex`] owns its [`Dataset`], so no analysis can pair it
//! with another trace's columns. It resolves the [`AnalysisContext`]'s
//! data-center lookup once per server-dictionary entry, so a flow's data
//! center is a gather through that table by the dataset's own rank column
//! (the index keeps no per-flow column). It bins the (start-time-sorted)
//! records into per-hour index ranges, counts each video's analysis video
//! flows (a dense `Vec` by video rank), and groups + classifies the
//! default-gap sessions in one pass ([`crate::session::group_sessions`]).
//! It keeps no per-server or per-data-center tallies: the context already
//! holds each center's video traffic, and Figure 15's per-server load is
//! counted from the columns. One index is built per dataset on one thread;
//! the suite builds the five datasets' indexes on the shared worker pool.
//! The figure analyses (`timeseries`, `videos`, `hotspot`) read these
//! columns instead of probing the context; so does Figure 12's per-subnet
//! split ([`crate::subnet::subnet_shares`]).
//!
//! The sessions are stored as columns ([`Sessions`]): a flat `u32` column
//! of flow indices in bucket order — each (client, video) bucket one
//! contiguous run in start-time order — plus one `(offset, len, start,
//! end)` row per session in canonical order. Other gap thresholds (the
//! Figure 5 `T`-sweep) need only session sizes, and
//! [`DatasetIndex::flows_per_session_sweep`] reads them for every gap off
//! one walk over that stored column, so the bucket order is laid out once
//! per dataset, by the grouper's counting sorts. The walk keeps an open
//! `(count, end)` run per gap. A flow alone in its bucket is a run of 1 at
//! every gap, so the walk counts it once for all gaps without loading its
//! times. A flow joins the current run at gap `T` exactly when the
//! grouper would add it to the current session: both see a bucket's flows
//! in the same start-time order, and both test `start_ms <= end + T`
//! against the same running maximum end. So each gap's run lengths are
//! its session sizes, tallied into one histogram per gap and kept by
//! [`Cdf::from_counts`] as runs, with no `Session` values built, no
//! regrouping, no sort, no per-sample vector, and nothing cached between
//! calls.
//!
//! Determinism note: every collection here is a `Vec` or `BTreeMap`
//! (lint rule `DET003` applies to this module), so iteration order — and
//! therefore anything derived from the index — is reproducible.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::ops::Range;

use ytcdn_telemetry::Telemetry;
use ytcdn_tstat::{Dataset, DatasetName, FlowClass};

use crate::dcmap::AnalysisContext;
use crate::error::{AnalysisError, AnalysisResult};
use crate::patterns::PatternStats;
use crate::session::{group_sessions, tally, Sessions};
use crate::stats::Cdf;
use crate::videos::VideoCounts;

/// The paper's session gap threshold `T` = 1 s, in milliseconds — the gap
/// the index pre-groups sessions at.
pub const DEFAULT_GAP_MS: u64 = 1_000;

/// The columnar index over one dataset, and the owner of that dataset.
///
/// Built once per dataset; all accessors are cheap reads.
/// Sessions are grouped at the default gap only; other gaps are swept on
/// demand (see the module docs), so the index holds no lock and no cache.
#[derive(Debug)]
pub struct DatasetIndex {
    dataset: Dataset,
    preferred: usize,
    preferred_servers_seen: usize,
    /// Per server-dictionary entry: the analysis data-center index, `None`
    /// outside the analysis ASes.
    server_dc: Vec<Option<usize>>,
    /// Per video-dictionary entry: its analysis video flows.
    video_counts: Vec<VideoCounts>,
    /// Per hour since trace start: the record-index range starting in it.
    hour_ranges: Vec<Range<usize>>,
    sessions: Sessions,
    patterns: PatternStats,
}

impl DatasetIndex {
    /// Builds the index of `dataset`, which it keeps: one pass over the
    /// records for the per-video counts, one scan of the timestamps for the
    /// hour ranges, and one session grouping.
    ///
    /// `ctx` contributes its data-center map and its preferred data
    /// center, and nothing else: the index maps `dataset`'s own server
    /// dictionary through that map. So a context built from another
    /// dataset (say, a full capture's, paired with a degenerate slice of
    /// it) still yields an index of `dataset` under that map.
    ///
    /// # Panics
    ///
    /// Panics if `dataset`'s records are not sorted by start time (the
    /// dataset invariant every producer in this workspace upholds).
    pub fn build(ctx: &AnalysisContext, dataset: Dataset, telemetry: Telemetry) -> Self {
        let span = telemetry.span("index.build");
        let c = dataset.columns();
        let n = dataset.len();
        let preferred = ctx.preferred().index;

        // Per server-dictionary entry: the data center, resolved once; a
        // flow reads its entry by rank.
        let server_dc = ctx.server_dcs(dataset.server_ips());
        let mut video_counts = vec![VideoCounts::default(); c.videos.len()];
        for ((&server, &bytes), &video) in c.server_ranks.iter().zip(&c.bytes).zip(&c.video_ranks) {
            let is_video = FlowClass::of_bytes(bytes) == FlowClass::Video;
            if let (true, Some(dc)) = (is_video, server_dc[server as usize]) {
                let counts = &mut video_counts[video as usize];
                counts.total += 1;
                counts.non_preferred += u64::from(dc != preferred);
            }
        }
        // Records are sorted by start time, so each hour is one contiguous
        // index range.
        let hour_ranges = crate::columnar::compute_hour_ranges(&c.start_ms);

        let group_span = telemetry.span("index.group");
        let sessions = group_sessions(&dataset, DEFAULT_GAP_MS);
        drop(group_span);
        telemetry.counter("index.flows").add(n as u64);
        telemetry
            .counter("index.sessions")
            .add(sessions.len() as u64);

        let mut index = Self {
            dataset,
            preferred,
            preferred_servers_seen: ctx.preferred().servers_seen,
            server_dc,
            video_counts,
            hour_ranges,
            sessions,
            patterns: PatternStats::default(),
        };
        index.patterns = index.classify();
        drop(span);
        index
    }

    /// [`DatasetIndex::build`] over a clone of a decoded `.ytc` dataset,
    /// under the signature the pipeline benchmark (`perfbench/`) compiles
    /// against; the clone is part of what it measures as the index build.
    /// The worker count is ignored: one index is built on one thread, and
    /// [`crate::experiments::ExperimentSuite`] builds the datasets'
    /// indexes on the worker pool instead. `ctx` plays the same part as in
    /// [`DatasetIndex::build`].
    pub fn from_columnar(
        ctx: &AnalysisContext,
        columnar: &crate::columnar::ColumnarDataset,
        _jobs: usize,
        telemetry: Telemetry,
    ) -> Self {
        Self::build(ctx, columnar.dataset().clone(), telemetry)
    }

    /// The dataset this index describes.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The name of the dataset this index describes.
    pub fn dataset_name(&self) -> DatasetName {
        self.dataset.name()
    }

    /// Number of flows indexed.
    pub fn len(&self) -> usize {
        self.dataset.len()
    }

    /// Whether the dataset was empty.
    pub fn is_empty(&self) -> bool {
        self.dataset.is_empty()
    }

    /// `Err` with the typed reason the dataset's flow-derived metrics are
    /// unanswerable when no video flow reached an analysis data center:
    /// [`AnalysisError::EmptyDataset`] for an empty capture, else
    /// [`AnalysisError::NoVideoFlows`].
    pub fn require_video_flows(&self) -> AnalysisResult<()> {
        if self.video_counts.iter().any(|c| c.total > 0) {
            return Ok(());
        }
        let dataset = self.dataset_name().to_string();
        Err(if self.is_empty() {
            AnalysisError::EmptyDataset { dataset }
        } else {
            AnalysisError::NoVideoFlows { dataset }
        })
    }

    /// The sessions at the paper's default gap (`T` = 1 s), in canonical
    /// order.
    pub fn sessions(&self) -> &Sessions {
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
        self.server_dc[self.dataset.columns().server_ranks[i] as usize]
    }

    /// The data-center index of the server at `rank` in the dataset's
    /// server dictionary, `None` outside the analysis ASes.
    pub fn dc_of_server(&self, rank: usize) -> Option<usize> {
        self.server_dc[rank]
    }

    /// Whether flow `i` went to the preferred data center — the columnar
    /// equivalent of [`AnalysisContext::is_preferred`].
    pub fn is_preferred_flow(&self, i: usize) -> Option<bool> {
        self.dc_of_flow(i).map(|d| d == self.preferred)
    }

    /// Whether flow `i` is a video flow (at least
    /// [`ytcdn_tstat::VIDEO_MIN_BYTES`]).
    pub fn is_video_flow(&self, i: usize) -> bool {
        FlowClass::of_bytes(self.dataset.columns().bytes[i]) == FlowClass::Video
    }

    /// Per-hour record-index ranges; `ranges()[h]` are the flows starting
    /// in hour `h`. Always at least one (possibly empty) range.
    pub fn hour_ranges(&self) -> &[Range<usize>] {
        &self.hour_ranges
    }

    /// Per-video analysis video flows, indexed by rank in the dataset's
    /// video dictionary ([`Dataset::video_ids`]); a video with no such flow
    /// counts zero.
    pub fn video_counts(&self) -> &[VideoCounts] {
        &self.video_counts
    }

    /// Classifies the default-gap sessions against the columns; the build
    /// stores the result for [`DatasetIndex::patterns`].
    fn classify(&self) -> PatternStats {
        let mut stats = PatternStats::default();
        let mut targets: Vec<bool> = Vec::new();
        for s in self.sessions.iter() {
            targets.clear();
            let mut excluded = false;
            for &i in s.flow_indices() {
                match self.is_preferred_flow(i as usize) {
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
        Cdf::from_counts(&self.sessions.size_counts())
    }

    /// The flows-per-session CDF at each of `gaps_ms`, in input order —
    /// each output-identical to [`crate::session::flows_per_session`] at
    /// that gap, from one walk over the stored bucket-order column (see the
    /// module docs).
    pub fn flows_per_session_sweep(&self, gaps_ms: &[u64]) -> Vec<Cdf> {
        let c = self.dataset.columns();
        // Per gap: the open run's latest end and size, and the histogram of
        // the closed runs' sizes; flows alone in their bucket are counted
        // once for all gaps.
        let mut open = vec![(0u64, 0usize); gaps_ms.len()];
        let mut counts: Vec<Vec<u64>> = vec![Vec::new(); gaps_ms.len()];
        let mut alone = 0u64;
        for bucket in self.sessions.buckets() {
            let [first, rest @ ..] = bucket else {
                continue;
            };
            if rest.is_empty() {
                alone += 1;
                continue;
            }
            open.fill((c.end_ms[*first as usize], 1));
            for &i in rest {
                let (start, stop) = (c.start_ms[i as usize], c.end_ms[i as usize]);
                for ((gap, (end, size)), hist) in gaps_ms.iter().zip(&mut open).zip(&mut counts) {
                    if start <= end.saturating_add(*gap) {
                        *size += 1;
                        *end = (*end).max(stop);
                    } else {
                        tally(hist, *size, 1);
                        (*end, *size) = (stop, 1);
                    }
                }
            }
            for (&(_, size), hist) in open.iter().zip(&mut counts) {
                tally(hist, size, 1);
            }
        }
        counts
            .iter_mut()
            .map(|hist| {
                tally(hist, 1, alone);
                Cdf::from_counts(hist)
            })
            .collect()
    }
}

/// The shared geolocation index: every /24 server block observed by *any*
/// dataset, CBG-localized exactly once.
///
/// Before this layer, `table3` and `fig3` each re-ran a full
/// [`crate::geo_analysis::geolocate_servers`] pass over all five datasets
/// — ten dataset-passes for two reports. Because a block's CBG outcome is
/// a pure function of `(cbg, seed, block)` (its noise comes from a
/// per-block splittable stream and its target is the block's probe target),
/// the index localizes the *union* of blocks once and
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
    /// uphold — owned or borrowed (the pipeline benchmark passes a
    /// `&Vec<Dataset>`, the suite its indexes' `&Dataset`s). The probe
    /// targets come from an
    /// [`Observatory`](crate::observatory::Observatory), or from the
    /// `&World` it wraps, which the pipeline benchmark (`perfbench/`)
    /// passes.
    pub fn build<'w>(
        observatory: impl Into<crate::observatory::Observatory<'w>>,
        datasets: &[impl Borrow<Dataset>],
        cbg: &ytcdn_geoloc::Cbg,
        seed: u64,
        jobs: usize,
        telemetry: Telemetry,
    ) -> Self {
        use crate::geo_analysis::{dataset_blocks, localize_blocks};
        debug_assert!(datasets
            .iter()
            .zip(DatasetName::ALL)
            .all(|(ds, name)| ds.borrow().name() == name));
        let _span = telemetry.span("geo.localize");
        let observatory = observatory.into();
        let per_ds_blocks: Vec<_> = datasets
            .iter()
            .map(|ds| dataset_blocks(observatory, ds.borrow()))
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
        &self.per_dataset[name.index()]
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
        let index = DatasetIndex::build(&ctx, ds, Telemetry::disabled());
        let ds = index.dataset();
        assert_eq!(index.len(), ds.len());
        for (i, r) in ds.iter().enumerate() {
            assert_eq!(index.dc_of_flow(i), ctx.dc_of(&r));
            assert_eq!(index.is_preferred_flow(i), ctx.is_preferred(&r));
            assert_eq!(index.is_video_flow(i), ctx.is_video(&r));
        }
        assert_eq!(index.preferred_index(), ctx.preferred().index);
        assert_eq!(index.preferred_servers_seen(), ctx.preferred().servers_seen);
    }

    #[test]
    fn hour_ranges_partition_the_trace() {
        let (ds, ctx) = setup(DatasetName::UsCampus);
        let index = DatasetIndex::build(&ctx, ds, Telemetry::disabled());
        let ds = index.dataset();
        let mut covered = 0usize;
        for (h, range) in index.hour_ranges().iter().enumerate() {
            assert_eq!(range.start, covered, "hour {h} not contiguous");
            for i in range.clone() {
                assert_eq!(ds.row(i).start_ms / ytcdn_tstat::HOUR_MS, h as u64);
            }
            covered = range.end;
        }
        assert_eq!(covered, ds.len());
    }

    #[test]
    fn flows_per_session_matches_direct_cdf() {
        let (ds, ctx) = setup(DatasetName::UsCampus);
        let gaps: Vec<u64> = [1u64, 5, 300].iter().map(|s| s * 1000).collect();
        let index = DatasetIndex::build(&ctx, ds, Telemetry::disabled());
        let ds = index.dataset();
        let swept = index.flows_per_session_sweep(&gaps);
        assert_eq!(swept.len(), gaps.len());
        for (gap, cdf) in gaps.iter().zip(&swept) {
            assert_eq!(
                cdf,
                &crate::session::flows_per_session(ds, *gap),
                "gap {gap}"
            );
        }
        assert_eq!(
            index.flows_per_session(),
            crate::session::flows_per_session(ds, DEFAULT_GAP_MS)
        );
        assert!(index.flows_per_session_sweep(&[]).is_empty());
    }

    #[test]
    fn from_columnar_matches_build() {
        let (ds, ctx) = setup(DatasetName::Eu1Ftth);
        let columnar =
            crate::columnar::ColumnarDataset::from_dataset(ds.clone()).expect("well-formed");
        let built = DatasetIndex::build(&ctx, ds, Telemetry::disabled());
        let from_ytc = DatasetIndex::from_columnar(&ctx, &columnar, 2, Telemetry::disabled());
        assert_eq!(from_ytc.dataset(), built.dataset());
        assert_eq!(from_ytc.hour_ranges(), built.hour_ranges());
        assert_eq!(from_ytc.sessions(), built.sessions());
        assert_eq!(from_ytc.patterns(), built.patterns());
        for i in 0..built.len() {
            assert_eq!(from_ytc.dc_of_flow(i), built.dc_of_flow(i));
            assert_eq!(from_ytc.is_video_flow(i), built.is_video_flow(i));
        }
    }

    #[test]
    fn empty_dataset_index() {
        let (_, ctx) = setup(DatasetName::Eu1Adsl);
        let empty = Dataset::new(DatasetName::Eu1Adsl);
        let index = DatasetIndex::build(&ctx, empty, Telemetry::disabled());
        assert!(index.is_empty());
        assert!(index.sessions().is_empty());
        assert_eq!(index.patterns(), PatternStats::default());
        assert_eq!(index.hour_ranges(), std::slice::from_ref(&(0..0)));
    }
}

//! One driver per table and figure of the paper.
//!
//! [`ExperimentSuite`] simulates the five datasets once. Each experiment's
//! driver (one row of a static table: id, span name, driver) computes its
//! analyses once and returns one [`Figure`]: the plain-text report that
//! states what the paper observed next to what this reproduction measures,
//! the data series behind the plot, and the named scalar metrics the
//! scorecard checks. The suite caches each `Figure` on first request, and
//! every presentation reads that cache: [`ExperimentSuite::run`] (`ytcdn
//! repro`), the CSV export and `--plot` chart ([`crate::export`]), the
//! markdown report ([`crate::report`]) and the scorecard
//! ([`crate::scorecard`]).
//!
//! Each part of a `Figure` carries its own result, because on degenerate
//! input the parts answer differently: under a capture with no video flows
//! fig9's report errs while its series are still exported, and fig11's
//! report errs with `EmptyDataset` while its scorecard metric names
//! `NoVideoFlows`.

use std::fmt::Write as _;
use std::sync::OnceLock;

use ytcdn_cdnsim::{
    par_map, resolve_jobs, ActiveConfig, ActiveExperiment, NodeTrace, ScenarioConfig,
    StandardScenario,
};
use ytcdn_geoloc::Cbg;
use ytcdn_netsim::{
    landmarks_with_counts, planetlab_landmarks, WellKnownAs, DEFAULT_LANDMARK_COUNTS,
};
use ytcdn_telemetry::Telemetry;
use ytcdn_tstat::{Dataset, DatasetName, FlowClass, TrafficSummary};

use crate::active_analysis::{most_illustrative_node, ratio_cdf, ratio_stats};
use crate::as_analysis::{as_breakdown, WellKnownAsExt};
use crate::dcmap::AnalysisContext;
use crate::degenerate::DegenerateShape;
use crate::error::{AnalysisError, AnalysisResult};
use crate::export::Series;
use crate::geo_analysis::{continent_counts, radius_cdfs, server_rtt_cdf};
use crate::hotspot::{
    preferred_server_load, server_session_breakdown, top_nonpreferred_videos, video_timeseries,
};
use crate::index::DatasetIndex;
use crate::preferred::{bytes_by_distance, bytes_by_rtt, closest_k_share, ShareStep};
use crate::stats::{nearest_rank, values_at_ranks, Cdf};
use crate::subnet::subnet_shares;
use crate::timeseries::{hourly_samples, load_vs_preferred_correlation, nonpreferred_fraction_cdf};
use crate::videos::nonpreferred_video_stats;

/// Configuration of the experiment suite.
#[derive(Debug, Clone, Copy, Default)]
pub struct SuiteConfig {
    /// Scenario (seed + scale + placement).
    pub scenario: ScenarioConfig,
    /// Use the full 215-landmark set for CBG experiments (slow); otherwise a
    /// reduced 50-landmark set with the same continental proportions.
    pub full_landmarks: bool,
    /// Worker threads for the simulation, index building and
    /// [`ExperimentSuite::run_many`]; `0` (the default) means one per
    /// available CPU, and a larger count is capped at the CPU count
    /// ([`ytcdn_cdnsim::resolve_jobs`]). Any value produces byte-identical
    /// reports — `jobs` only changes wall-clock time.
    pub jobs: usize,
}

/// All experiment identifiers, paper order.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "table1", "table2", "table3", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
    "fig10a", "fig10b", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
];

/// The Figure 5 gap thresholds `T`, in seconds.
const FIG5_GAPS_S: [u64; 5] = [1, 5, 10, 60, 300];

/// Experiments beyond the paper's figures: the what-if and user-performance
/// analyses the paper's introduction motivates, and the workload
/// characterization calibration check.
pub const EXTENSION_EXPERIMENTS: &[&str] = &["ext-perf", "ext-characterize", "ext-feb2011"];

/// Computes one experiment's [`Figure`].
type Driver = fn(&ExperimentSuite) -> Figure;

/// Every experiment, [`ALL_EXPERIMENTS`] then [`EXTENSION_EXPERIMENTS`]:
/// its id, its phase-histogram / span name (metric keys must be
/// `&'static str`, hence the column), and its driver.
#[rustfmt::skip]
const EXPERIMENTS: [(&str, &str, Driver); 24] = [
    ("table1", "exp.table1", ExperimentSuite::table1),
    ("table2", "exp.table2", ExperimentSuite::table2),
    ("table3", "exp.table3", ExperimentSuite::table3),
    ("fig2", "exp.fig2", ExperimentSuite::fig2),
    ("fig3", "exp.fig3", ExperimentSuite::fig3),
    ("fig4", "exp.fig4", ExperimentSuite::fig4),
    ("fig5", "exp.fig5", ExperimentSuite::fig5),
    ("fig6", "exp.fig6", ExperimentSuite::fig6),
    ("fig7", "exp.fig7", ExperimentSuite::fig7),
    ("fig8", "exp.fig8", ExperimentSuite::fig8),
    ("fig9", "exp.fig9", ExperimentSuite::fig9),
    ("fig10a", "exp.fig10a", ExperimentSuite::fig10a),
    ("fig10b", "exp.fig10b", ExperimentSuite::fig10b),
    ("fig11", "exp.fig11", ExperimentSuite::fig11),
    ("fig12", "exp.fig12", ExperimentSuite::fig12),
    ("fig13", "exp.fig13", ExperimentSuite::fig13),
    ("fig14", "exp.fig14", ExperimentSuite::fig14),
    ("fig15", "exp.fig15", ExperimentSuite::fig15),
    ("fig16", "exp.fig16", ExperimentSuite::fig16),
    ("fig17", "exp.fig17", ExperimentSuite::fig17),
    ("fig18", "exp.fig18", ExperimentSuite::fig18),
    ("ext-perf", "exp.ext-perf", ExperimentSuite::ext_perf),
    ("ext-characterize", "exp.ext-characterize", ExperimentSuite::ext_characterize),
    ("ext-feb2011", "exp.ext-feb2011", ExperimentSuite::ext_feb2011),
];

/// One experiment's results, computed once per suite
/// ([`ExperimentSuite::figure`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// The plain-text report `ytcdn repro` prints.
    pub report: AnalysisResult<String>,
    /// The data series behind the plot (CSV export, `--plot`), each CDF
    /// decimated to at most 400 points. Tables and extensions have none
    /// ([`AnalysisError::NotProduced`]).
    pub series: AnalysisResult<Vec<Series>>,
    /// Named scalar metrics, in the order the scorecard lists them; an
    /// `Err` says why this input cannot answer the metric.
    pub metrics: Vec<(String, AnalysisResult<f64>)>,
}

impl Figure {
    /// A figure whose report and series both answered.
    fn new(
        report: String,
        series: Vec<Series>,
        metrics: Vec<(String, AnalysisResult<f64>)>,
    ) -> Self {
        Figure {
            report: Ok(report),
            series: Ok(series),
            metrics,
        }
    }

    /// A table: a report, and metrics but no data series.
    fn table(id: &str, report: String, metrics: Vec<(String, AnalysisResult<f64>)>) -> Self {
        Figure {
            report: Ok(report),
            series: Err(AnalysisError::NotProduced {
                experiment: id.to_owned(),
                output: "data series".into(),
            }),
            metrics,
        }
    }

    /// The named metric, `None` when the figure has no metric of that name.
    pub(crate) fn metric(&self, name: &str) -> Option<&AnalysisResult<f64>> {
        self.metrics
            .iter()
            .find(|(known, _)| known == name)
            .map(|(_, value)| value)
    }
}

/// Simulates the five datasets once and regenerates every table and figure.
pub struct ExperimentSuite {
    config: SuiteConfig,
    jobs: usize,
    scenario: StandardScenario,
    datasets: Vec<Dataset>,
    contexts: Vec<AnalysisContext>,
    indexes: Vec<DatasetIndex>,
    cbg: OnceLock<Cbg>,
    geo: OnceLock<crate::index::GeoIndex>,
    active: OnceLock<Vec<NodeTrace>>,
    /// One slot per [`EXPERIMENTS`] row.
    figures: [OnceLock<Figure>; EXPERIMENTS.len()],
    telemetry: Telemetry,
}

impl ExperimentSuite {
    /// Builds the world and simulates all five datasets.
    pub fn new(config: SuiteConfig) -> Self {
        Self::with_telemetry(config, Telemetry::disabled())
    }

    /// [`ExperimentSuite::new`] with observability attached: the build and
    /// simulation phases are profiled, the engines are instrumented, and
    /// each experiment's one computation records an `exp.<id>` wall-time
    /// histogram.
    pub fn with_telemetry(config: SuiteConfig, telemetry: Telemetry) -> Self {
        Self::build(config, telemetry, None)
    }

    /// [`ExperimentSuite::with_telemetry`], but every simulated dataset is
    /// degraded through `shape` before any context or index is built — the
    /// entry point of the degenerate-dataset robustness harness.
    pub fn with_degenerate(
        config: SuiteConfig,
        telemetry: Telemetry,
        shape: DegenerateShape,
    ) -> Self {
        Self::build(config, telemetry, Some(shape))
    }

    /// Builds the suite from datasets decoded off a `.ytc` file, skipping
    /// simulation entirely: the world is still constructed from
    /// `config.scenario` (so ground-truth contexts and the what-if
    /// experiments keep working — the caller must pass the scale and seed
    /// recorded in the file's [`crate::columnar::YtcHeader`]), but the
    /// flow logs come straight off the decoded columns. Reports are
    /// byte-identical to the simulate-in-memory path for matching
    /// scale/seed/mutations.
    ///
    /// Datasets may arrive in any order; if the same vantage point appears
    /// twice the last one wins ([`crate::columnar::YtcFile::decode`]
    /// already rejects duplicate sections).
    ///
    /// # Errors
    ///
    /// [`AnalysisError::MissingDataset`] when any of the five vantage
    /// points is absent — the per-figure drivers address all of them.
    pub fn from_columnar(
        config: SuiteConfig,
        telemetry: Telemetry,
        columnar: Vec<crate::columnar::ColumnarDataset>,
    ) -> AnalysisResult<Self> {
        let scenario = StandardScenario::build_instrumented(config.scenario, telemetry.clone());
        let mut slots: Vec<Option<Dataset>> = DatasetName::ALL.iter().map(|_| None).collect();
        for c in columnar {
            let ds = c.into_dataset();
            let slot = ds.name().index();
            slots[slot] = Some(ds);
        }
        let datasets = slots
            .into_iter()
            .zip(DatasetName::ALL)
            .map(|(slot, name)| {
                slot.ok_or_else(|| AnalysisError::MissingDataset {
                    dataset: name.to_string(),
                })
            })
            .collect::<AnalysisResult<_>>()?;
        Ok(Self::assemble(config, telemetry, scenario, datasets))
    }

    fn build(config: SuiteConfig, telemetry: Telemetry, shape: Option<DegenerateShape>) -> Self {
        let scenario = StandardScenario::build_instrumented(config.scenario, telemetry.clone());
        let datasets = scenario
            .run_all(resolve_jobs(config.jobs))
            .into_iter()
            .map(|ds| match shape {
                Some(shape) => shape.apply(scenario.world(), ds),
                None => ds,
            })
            .collect();
        Self::assemble(config, telemetry, scenario, datasets)
    }

    /// The step both constructors share: resolves the worker count, then
    /// builds each dataset's context in turn (`suite.contexts` span) and
    /// the five indexes on the worker pool, one dataset per task
    /// (`suite.indexes` span). `par_map` returns the indexes in dataset
    /// order, and each index is a function of its dataset and context
    /// alone, so the suite is the same for any worker count.
    fn assemble(
        config: SuiteConfig,
        telemetry: Telemetry,
        scenario: StandardScenario,
        datasets: Vec<Dataset>,
    ) -> Self {
        let jobs = resolve_jobs(config.jobs);
        // The accessors index by DatasetName::index, which relies on the
        // datasets arriving in DatasetName::ALL order.
        debug_assert!(datasets
            .iter()
            .zip(DatasetName::ALL)
            .all(|(ds, name)| ds.name() == name));
        let contexts: Vec<AnalysisContext> = {
            let _span = telemetry.span("suite.contexts");
            datasets
                .iter()
                .map(|ds| AnalysisContext::from_ground_truth(scenario.world(), ds))
                .collect()
        };
        let indexes = {
            let _span = telemetry.span("suite.indexes");
            let pairs: Vec<(&Dataset, &AnalysisContext)> = datasets.iter().zip(&contexts).collect();
            par_map(jobs, &pairs, |&(ds, ctx)| {
                DatasetIndex::build(ctx, ds, telemetry.clone())
            })
        };
        Self {
            config,
            jobs,
            scenario,
            datasets,
            contexts,
            indexes,
            cbg: OnceLock::new(),
            geo: OnceLock::new(),
            active: OnceLock::new(),
            figures: std::array::from_fn(|_| OnceLock::new()),
            telemetry,
        }
    }

    /// The scenario under analysis.
    pub fn scenario(&self) -> &StandardScenario {
        &self.scenario
    }

    /// The resolved worker-thread count ([`SuiteConfig::jobs`] through
    /// [`ytcdn_cdnsim::resolve_jobs`]).
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The telemetry handle the suite was built with (disabled for
    /// [`ExperimentSuite::new`]).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// A dataset by name.
    pub fn dataset(&self, name: DatasetName) -> &Dataset {
        &self.datasets[name.index()]
    }

    /// A dataset's analysis context.
    pub fn context(&self, name: DatasetName) -> &AnalysisContext {
        &self.contexts[name.index()]
    }

    /// A dataset's columnar index.
    pub fn dataset_index(&self, name: DatasetName) -> &DatasetIndex {
        &self.indexes[name.index()]
    }

    /// The suite's calibrated CBG instance (lazily built once; shared by
    /// every geolocation consumer).
    pub fn cbg(&self) -> &Cbg {
        self.cbg.get_or_init(|| {
            let landmarks = if self.config.full_landmarks {
                planetlab_landmarks(self.config.scenario.seed)
            } else {
                landmarks_with_counts(self.config.scenario.seed, &DEFAULT_LANDMARK_COUNTS)
            };
            Cbg::calibrate(
                landmarks,
                self.scenario.world().delay_model(),
                3,
                self.config.scenario.seed,
            )
        })
    }

    /// The shared geolocation index ([`crate::index::GeoIndex`]): one CBG
    /// pass over the union of all datasets' /24 blocks, computed lazily on
    /// first use and reused by `table3` and `fig3`. `geo.cache_hit` /
    /// `geo.cache_miss` count reuses vs the single build.
    pub fn geo_index(&self) -> &crate::index::GeoIndex {
        if let Some(geo) = self.geo.get() {
            self.telemetry.counter("geo.cache_hit").inc();
            return geo;
        }
        self.geo.get_or_init(|| {
            self.telemetry.counter("geo.cache_miss").inc();
            crate::index::GeoIndex::build(
                self.scenario.world(),
                &self.datasets,
                self.cbg(),
                self.config.scenario.seed ^ 0xF16,
                self.jobs,
                self.telemetry.clone(),
            )
        })
    }

    /// One experiment's [`Figure`], computed on the first request and
    /// cached for the life of the suite; that first computation records the
    /// experiment's `exp.<id>` span, and bumps `analysis.errors` if the
    /// report is an `Err`.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::UnknownExperiment`] for an unrecognised id (which
    /// also bumps `analysis.errors`).
    pub fn figure(&self, id: &str) -> AnalysisResult<&Figure> {
        let Some(slot) = EXPERIMENTS.iter().position(|(known, ..)| *known == id) else {
            self.telemetry.counter("analysis.errors").inc();
            return Err(AnalysisError::UnknownExperiment { id: id.to_owned() });
        };
        let (_, span, driver) = EXPERIMENTS[slot];
        Ok(self.figures[slot].get_or_init(|| {
            let _span = self.telemetry.span(span);
            let figure = driver(self);
            if figure.report.is_err() {
                self.telemetry.counter("analysis.errors").inc();
            }
            figure
        }))
    }

    /// Runs one experiment by id (`"table1"` … `"fig18"`) and returns its
    /// report ([`ExperimentSuite::figure`]).
    ///
    /// # Errors
    ///
    /// [`AnalysisError::UnknownExperiment`] for an unrecognised id, or the
    /// experiment's own typed error on a degenerate dataset (an empty RTT
    /// distribution, no active traces, …); callers render it as a SKIPPED
    /// row rather than unwinding.
    pub fn run(&self, id: &str) -> AnalysisResult<String> {
        self.figure(id)?.report.clone()
    }

    /// Runs many experiments on up to `jobs` workers
    /// ([`ytcdn_cdnsim::par_map`]), returning the reports in input order —
    /// byte-identical to mapping [`ExperimentSuite::run`] over `ids`, since
    /// experiments only read shared state (the lazy CBG calibration,
    /// geolocation index, active traces and figures sit behind `OnceLock`).
    /// A failed experiment occupies its slot as an `Err`; it does not
    /// unwind the pool.
    pub fn run_many(&self, ids: &[&str], jobs: usize) -> Vec<AnalysisResult<String>> {
        par_map(jobs, ids, |id| self.run(id))
    }

    /// The typed reason a dataset's flow analyses are unanswerable: an
    /// empty capture, or one without video flows.
    fn no_flows_error(&self, name: DatasetName) -> AnalysisError {
        if self.dataset(name).is_empty() {
            AnalysisError::EmptyDataset {
                dataset: name.to_string(),
            }
        } else {
            AnalysisError::NoVideoFlows {
                dataset: name.to_string(),
            }
        }
    }

    /// `Err` with [`ExperimentSuite::no_flows_error`] when the dataset's
    /// context counted no video flows — the prerequisite of every
    /// flow-derived metric.
    fn require_video_flows(&self, name: DatasetName) -> AnalysisResult<()> {
        let flows: u64 = self.context(name).dcs().iter().map(|d| d.video_flows).sum();
        if flows == 0 {
            Err(self.no_flows_error(name))
        } else {
            Ok(())
        }
    }

    /// Table I: traffic summary per dataset. Metrics: each dataset's flow
    /// count (the scorecard scales the paper's by the workload scale).
    fn table1(&self) -> Figure {
        let mut out = String::from(
            "Table I — traffic summary (paper @ scale 1.0: 874649/134789/877443/91955/513403 flows)\n",
        );
        let _ = writeln!(
            out,
            "{:<11} {:>9} {:>12} {:>8} {:>8}",
            "Dataset", "flows", "volume[GB]", "servers", "clients"
        );
        let mut metrics = Vec::new();
        for ds in &self.datasets {
            // `Dataset::summary`, with the client count the session
            // grouping already took.
            let s = TrafficSummary {
                dataset: ds.name(),
                flows: ds.len(),
                bytes: ds.total_bytes(),
                servers: ds.server_ips().len(),
                clients: self.dataset_index(ds.name()).sessions().distinct_clients(),
            };
            let _ = writeln!(
                out,
                "{:<11} {:>9} {:>12.2} {:>8} {:>8}",
                s.dataset.to_string(),
                s.flows,
                s.volume_gb(),
                s.servers,
                s.clients
            );
            let flows = if ds.is_empty() {
                Err(AnalysisError::EmptyDataset {
                    dataset: ds.name().to_string(),
                })
            } else {
                Ok(ds.len() as f64)
            };
            metrics.push((format!("{} flows (scaled)", ds.name()), flows));
        }
        Figure::table("table1", out, metrics)
    }

    /// Table II: percentage of servers and bytes per AS.
    fn table2(&self) -> Figure {
        let mut out = String::from(
            "Table II — % servers / bytes per AS (paper: Google ~63-83% servers, ~98% bytes except EU2)\n",
        );
        let _ = writeln!(
            out,
            "{:<11} {:>16} {:>16} {:>16} {:>16}",
            "Dataset", "Google(srv/byte)", "YT-EU(srv/byte)", "SameAS(srv/byte)", "Other(srv/byte)"
        );
        for ds in &self.datasets {
            let row = as_breakdown(self.scenario.world(), ds);
            let mut line = format!("{:<11}", ds.name().to_string());
            for b in WellKnownAs::buckets() {
                let s = row.share(b);
                let _ = write!(line, " {:>7.1}/{:<8.2}", s.servers_pct, s.bytes_pct);
            }
            let _ = writeln!(out, "{line}");
        }
        Figure::table("table2", out, Vec::new())
    }

    /// Table III: Google servers per continent per dataset (CBG-located).
    fn table3(&self) -> Figure {
        let mut out = String::from(
            "Table III — servers per continent via CBG (paper: each dataset sees >=10% foreign-continent servers)\n",
        );
        let _ = writeln!(
            out,
            "{:<11} {:>10} {:>8} {:>8}",
            "Dataset", "N.America", "Europe", "Others"
        );
        for ds in &self.datasets {
            let c = continent_counts(self.geo_index().dataset(ds.name()));
            let _ = writeln!(
                out,
                "{:<11} {:>10} {:>8} {:>8}",
                ds.name().to_string(),
                c.north_america,
                c.europe,
                c.others
            );
        }
        Figure::table("table3", out, Vec::new())
    }

    /// Figure 2: CDF of min RTT to all content servers per vantage point.
    /// The report errs with [`AnalysisError::EmptyDistribution`] when a
    /// dataset saw no servers to ping (e.g. an empty capture).
    fn fig2(&self) -> Figure {
        let cdfs: Vec<Cdf> = self
            .datasets
            .iter()
            .map(|ds| server_rtt_cdf(self.scenario.world(), ds, 5))
            .collect();
        let report = (|| {
            let mut out = String::from(
                "Figure 2 — RTT to content servers (paper: wide spread; EU RTTs too small for transatlantic)\n",
            );
            let _ = writeln!(
                out,
                "{:<11} {:>9} {:>9} {:>9} {:>9}",
                "Dataset", "p10[ms]", "p50[ms]", "p90[ms]", "max[ms]"
            );
            for (ds, cdf) in self.datasets.iter().zip(&cdfs) {
                if cdf.is_empty() {
                    return Err(AnalysisError::EmptyDistribution {
                        what: format!("{} server RTTs", ds.name()),
                    });
                }
                let _ = writeln!(
                    out,
                    "{:<11} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
                    ds.name().to_string(),
                    cdf.try_percentile(10.0)?,
                    cdf.try_median()?,
                    cdf.try_percentile(90.0)?,
                    cdf.try_max()?
                );
            }
            Ok(out)
        })();
        Figure {
            report,
            series: Ok(self.per_dataset_cdfs(&cdfs)),
            metrics: Vec::new(),
        }
    }

    /// One CDF series per dataset, in suite order.
    fn per_dataset_cdfs(&self, cdfs: &[Cdf]) -> Vec<Series> {
        self.datasets
            .iter()
            .zip(cdfs)
            .map(|(ds, cdf)| Series::from_cdf(ds.name().to_string(), cdf))
            .collect()
    }

    /// Figure 3: CDF of the CBG confidence-region radius, US vs Europe.
    /// Metrics: each region's median radius.
    fn fig3(&self) -> Figure {
        let (us, eu) = radius_cdfs(&self.geo_index().pooled());
        let mut out = String::from(
            "Figure 3 — CBG confidence-region radius (paper: median 41 km; p90 320 km US / 200 km EU)\n",
        );
        let mut metrics = Vec::new();
        for (label, cdf) in [("US", &us), ("Europe", &eu)] {
            let median = cdf
                .try_median()
                .map_err(|_| AnalysisError::EmptyDistribution {
                    what: format!("{label} CBG radii"),
                });
            metrics.push((format!("{label} CBG radius median [km]"), median));
            if cdf.is_empty() {
                let _ = writeln!(out, "{label:<7} (no servers)");
                continue;
            }
            let _ = writeln!(
                out,
                "{:<7} median {:>7.0} km   p90 {:>7.0} km   n={}",
                label,
                cdf.median(),
                cdf.percentile(90.0),
                cdf.len()
            );
        }
        Figure::new(
            out,
            vec![Series::from_cdf("US", &us), Series::from_cdf("Europe", &eu)],
            metrics,
        )
    }

    /// Figure 4: CDF of flow sizes (the control/video kink at 1000 B). The
    /// series is each dataset's all-flows CDF. Flows split on the
    /// [`ytcdn_tstat::VIDEO_MIN_BYTES`] threshold, so in sorted order the
    /// control sizes come first, and every number the figure shows is the
    /// size at one rank: the two medians, the maximum and the series'
    /// decimated points. Those ranks are read by [`values_at_ranks`], with
    /// no sort of the byte column.
    fn fig4(&self) -> Figure {
        let mut out =
            String::from("Figure 4 — flow-size CDF (paper: bimodal with a kink at 1000 bytes)\n");
        let _ = writeln!(
            out,
            "{:<11} {:>12} {:>14} {:>14} {:>12}",
            "Dataset", "ctrl share", "p50 ctrl [B]", "p50 video [B]", "max [B]"
        );
        let mut series = Vec::new();
        for ds in &self.datasets {
            let bytes = &ds.columns().bytes;
            let n = bytes.len();
            let control = bytes
                .iter()
                .filter(|&&b| FlowClass::of_bytes(b) == FlowClass::Control)
                .count();
            // The rank of the median of the sorted run `start..end`.
            let median = |start: usize, end: usize| {
                (start < end).then(|| start + nearest_rank(end - start, 0.5))
            };
            let (ctrl_median, video_median, max) =
                (median(0, control), median(control, n), n.checked_sub(1));
            let mut ranks: Vec<usize> = Series::cdf_ranks(n)
                .chain([ctrl_median, video_median, max].into_iter().flatten())
                .collect();
            ranks.sort_unstable();
            ranks.dedup();
            let sizes = values_at_ranks(bytes, &ranks);
            let at = |rank: Option<usize>| {
                rank.map_or(0.0, |r| sizes[ranks.partition_point(|&x| x < r)] as f64)
            };
            let _ = writeln!(
                out,
                "{:<11} {:>12.3} {:>14.0} {:>14.0} {:>12.0}",
                ds.name().to_string(),
                control as f64 / n as f64,
                at(ctrl_median),
                at(video_median),
                at(max.filter(|_| control < n)),
            );
            let points = Series::cdf_ranks(n).map(|r| at(Some(r)));
            series.push(Series::from_cdf_ranks(ds.name().to_string(), n, points));
        }
        Figure::new(out, series, Vec::new())
    }

    /// Figure 5: flows per session vs gap threshold T (US-Campus), from one
    /// sweep over the dataset.
    fn fig5(&self) -> Figure {
        let gaps_ms: Vec<u64> = FIG5_GAPS_S.iter().map(|t_s| t_s * 1000).collect();
        let cdfs = self
            .dataset_index(DatasetName::UsCampus)
            .flows_per_session_sweep(self.dataset(DatasetName::UsCampus), &gaps_ms);
        let mut out = String::from(
            "Figure 5 — flows/session vs T, US-Campus (paper: T <= 10 s similar; pick T = 1 s)\n",
        );
        let _ = writeln!(
            out,
            "{:<8} {:>10} {:>16}",
            "T[s]", "sessions", "single-flow frac"
        );
        let mut series = Vec::new();
        for (t_s, cdf) in FIG5_GAPS_S.iter().zip(&cdfs) {
            let _ = writeln!(
                out,
                "{:<8} {:>10} {:>16.3}",
                t_s,
                cdf.len(),
                cdf.fraction_at_or_below(1.0)
            );
            series.push(Series::from_cdf(format!("{t_s}sec"), cdf));
        }
        Figure::new(out, series, Vec::new())
    }

    /// Figure 6: flows per session at T = 1 s, all datasets. Metrics: each
    /// dataset's single-flow session fraction.
    fn fig6(&self) -> Figure {
        let mut out =
            String::from("Figure 6 — flows/session at T=1s (paper: 72.5-80.5% single-flow)\n");
        let _ = writeln!(
            out,
            "{:<11} {:>10} {:>9} {:>9} {:>9}",
            "Dataset", "sessions", "=1 flow", "=2 flows", ">2 flows"
        );
        let mut series = Vec::new();
        let mut metrics = Vec::new();
        for ds in &self.datasets {
            let index = self.dataset_index(ds.name());
            let cdf = index.flows_per_session();
            let one = cdf.fraction_at_or_below(1.0);
            let two = cdf.fraction_at_or_below(2.0) - one;
            let _ = writeln!(
                out,
                "{:<11} {:>10} {:>9.3} {:>9.3} {:>9.3}",
                ds.name().to_string(),
                cdf.len(),
                one,
                two,
                1.0 - one - two
            );
            series.push(Series::from_cdf(ds.name().to_string(), &cdf));
            let single = self
                .require_video_flows(ds.name())
                .map(|()| index.patterns().single_flow_fraction());
            metrics.push((
                format!("{} single-flow session fraction", ds.name()),
                single,
            ));
        }
        Figure::new(out, series, metrics)
    }

    /// Figure 7: cumulative byte fraction vs data-center RTT. Metrics:
    /// each dataset's preferred byte share.
    fn fig7(&self) -> Figure {
        let mut out = String::from(
            "Figure 7 — cumulative bytes vs DC RTT (paper: one DC > 85% except EU2; lowest-RTT DC dominates)\n",
        );
        let mut series = Vec::new();
        let mut metrics = Vec::new();
        for ctx in &self.contexts {
            let name = ctx.dataset_name();
            let steps = bytes_by_rtt(ctx);
            let first = steps.first();
            let _ = writeln!(
                out,
                "{:<11} preferred={} rtt={:.1}ms share={:.3}  first-RTT-DC {} share={:.3}",
                name.to_string(),
                ctx.preferred().city_name,
                ctx.preferred().rtt_ms,
                ctx.preferred_share_of_bytes(),
                first.map(|s| s.city.as_str()).unwrap_or("-"),
                first.map(|s| s.cumulative_fraction).unwrap_or(0.0),
            );
            series.push(step_series(name, &steps));
            let metric = if name == DatasetName::Eu2 {
                "EU2 preferred byte share (split)".into()
            } else {
                format!("{name} preferred byte share")
            };
            let share = self
                .require_video_flows(name)
                .map(|()| ctx.preferred_share_of_bytes());
            metrics.push((metric, share));
        }
        Figure::new(out, series, metrics)
    }

    /// Figure 8: cumulative byte fraction vs data-center distance. Metric:
    /// US-Campus's byte share from its five closest data centers.
    fn fig8(&self) -> Figure {
        let mut out = String::from(
            "Figure 8 — cumulative bytes vs DC distance (paper: US-Campus 5 closest DCs < 2%)\n",
        );
        let mut series = Vec::new();
        let mut metrics = Vec::new();
        for ctx in &self.contexts {
            let name = ctx.dataset_name();
            let steps = bytes_by_distance(ctx);
            let within_500: f64 = steps
                .iter()
                .take_while(|s| s.x <= 500.0)
                .last()
                .map(|s| s.cumulative_fraction)
                .unwrap_or(0.0);
            let closest_5 = closest_k_share(ctx, 5);
            let _ = writeln!(
                out,
                "{:<11} closest-5-DC share={:.4}  bytes within 500km={:.3}  preferred at {:.0} km",
                name.to_string(),
                closest_5,
                within_500,
                ctx.preferred().distance_km,
            );
            series.push(step_series(name, &steps));
            if name == DatasetName::UsCampus {
                metrics.push((
                    "US-Campus closest-5 DC byte share".to_owned(),
                    self.require_video_flows(name).map(|()| closest_5),
                ));
            }
        }
        Figure::new(out, series, metrics)
    }

    /// Figure 9: CDF over hours of the non-preferred flow fraction. The
    /// report errs with [`AnalysisError::EmptyDistribution`] when a dataset
    /// has no hour with analysis flows; the series are written regardless.
    fn fig9(&self) -> Figure {
        let cdfs: Vec<Cdf> = self.indexes.iter().map(nonpreferred_fraction_cdf).collect();
        let report = (|| {
            let mut out = String::from(
                "Figure 9 — hourly non-preferred fraction CDF (paper: EU2 median > 0.4; others low)\n",
            );
            let _ = writeln!(
                out,
                "{:<11} {:>8} {:>8} {:>8}",
                "Dataset", "p25", "p50", "p90"
            );
            for (ds, cdf) in self.datasets.iter().zip(&cdfs) {
                if cdf.is_empty() {
                    return Err(AnalysisError::EmptyDistribution {
                        what: format!("{} hourly non-preferred fractions", ds.name()),
                    });
                }
                let _ = writeln!(
                    out,
                    "{:<11} {:>8.3} {:>8.3} {:>8.3}",
                    ds.name().to_string(),
                    cdf.try_percentile(25.0)?,
                    cdf.try_median()?,
                    cdf.try_percentile(90.0)?
                );
            }
            Ok(out)
        })();
        Figure {
            report,
            series: Ok(self.per_dataset_cdfs(&cdfs)),
            metrics: Vec::new(),
        }
    }

    /// Figure 10a: single-flow session breakdown. Metric: EU2's fraction of
    /// single-flow sessions served by a non-preferred data center.
    fn fig10a(&self) -> Figure {
        let mut out = String::from(
            "Figure 10a — 1-flow sessions (paper: ~75% preferred / ~5% non-preferred; EU2 > 40% non-preferred)\n",
        );
        let _ = writeln!(
            out,
            "{:<11} {:>12} {:>14} {:>18}",
            "Dataset", "1-flow frac", "to preferred", "to non-preferred"
        );
        let mut series = named_series(&["preferred", "non-preferred"]);
        for (i, (ds, index)) in self.datasets.iter().zip(&self.indexes).enumerate() {
            let st = index.patterns();
            let single = st.one_flow.preferred + st.one_flow.non_preferred;
            let total = st.total.max(1) as f64;
            let _ = writeln!(
                out,
                "{:<11} {:>12.3} {:>14.3} {:>18.3}",
                ds.name().to_string(),
                st.single_flow_fraction(),
                st.one_flow.preferred as f64 / total,
                single as f64 / total * st.one_flow_non_preferred_fraction(),
            );
            let bars = [st.one_flow.preferred, st.one_flow.non_preferred];
            push_points(&mut series, i, bars.map(|n| n as f64 / total));
        }
        let eu2 = self.require_video_flows(DatasetName::Eu2).map(|()| {
            let st = self.dataset_index(DatasetName::Eu2).patterns();
            st.one_flow_non_preferred_fraction()
        });
        let metrics = vec![("EU2 single-flow-to-non-preferred fraction".into(), eu2)];
        Figure::new(out, series, metrics)
    }

    /// Figure 10b: two-flow session pattern breakdown.
    fn fig10b(&self) -> Figure {
        let mut out = String::from(
            "Figure 10b — 2-flow session patterns (paper: EU1 shows (pref, non-pref) redirections; EU2 shows (non, non))\n",
        );
        let _ = writeln!(
            out,
            "{:<11} {:>8} {:>8} {:>8} {:>8}",
            "Dataset", "p,p", "p,n", "n,p", "n,n"
        );
        let mut series = named_series(&[
            "preferred,preferred",
            "preferred,non-preferred",
            "non-preferred,preferred",
            "non-preferred,non-preferred",
        ]);
        for (i, (ds, index)) in self.datasets.iter().zip(&self.indexes).enumerate() {
            let t = index.patterns().two_flow;
            let n = (t.pp + t.pn + t.np + t.nn).max(1) as f64;
            let [pp, pn, np, nn] = [t.pp, t.pn, t.np, t.nn].map(|c| c as f64 / n);
            let _ = writeln!(
                out,
                "{:<11} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
                ds.name().to_string(),
                pp,
                pn,
                np,
                nn
            );
            push_points(&mut series, i, [pp, pn, np, nn]);
        }
        Figure::new(out, series, Vec::new())
    }

    /// Figure 11: EU2 hourly local fraction and load. The report errs with
    /// [`AnalysisError::EmptyDataset`] when EU2 has no analysis flows at all
    /// — there is no load/locality relationship to correlate — while the
    /// correlation metric names the finer reason
    /// ([`ExperimentSuite::no_flows_error`]).
    fn fig11(&self) -> Figure {
        let samples = hourly_samples(self.dataset_index(DatasetName::Eu2));
        let series = vec![
            Series {
                name: "local fraction".into(),
                points: samples
                    .iter()
                    .filter_map(|s| s.preferred_fraction().map(|f| (s.hour as f64, f)))
                    .collect(),
            },
            Series {
                name: "video flows".into(),
                points: samples
                    .iter()
                    .map(|s| (s.hour as f64, s.total() as f64))
                    .collect(),
            },
        ];
        let metric = "EU2 load/local-fraction correlation".to_owned();
        if samples.iter().all(|s| s.total() == 0) {
            return Figure {
                report: Err(AnalysisError::EmptyDataset {
                    dataset: DatasetName::Eu2.to_string(),
                }),
                series: Ok(series),
                metrics: vec![(metric, Err(self.no_flows_error(DatasetName::Eu2)))],
            };
        }
        let corr = load_vs_preferred_correlation(&samples);
        let mut out = String::from(
            "Figure 11 — EU2 local-DC fraction vs hourly load (paper: ~100% at night, ~30% at peak)\n",
        );
        let _ = writeln!(
            out,
            "load/local-fraction correlation: {corr:.3} (paper: strongly negative)"
        );
        let _ = writeln!(out, "{:<6} {:>8} {:>12}", "hour", "flows", "local frac");
        for s in samples.iter().take(48) {
            let _ = writeln!(
                out,
                "{:<6} {:>8} {:>12}",
                s.hour,
                s.total(),
                s.preferred_fraction()
                    .map(|f| format!("{f:.3}"))
                    .unwrap_or_else(|| "-".into())
            );
        }
        Figure::new(out, series, vec![(metric, Ok(corr))])
    }

    /// Figure 12: US-Campus per-subnet non-preferred shares. Metrics:
    /// Net-3's share of all and of non-preferred flows.
    fn fig12(&self) -> Figure {
        let ds = self.dataset(DatasetName::UsCampus);
        let index = self.dataset_index(DatasetName::UsCampus);
        let subnets = &self.scenario.world().vantage(DatasetName::UsCampus).subnets;
        let shares = subnet_shares(index, ds, subnets);
        let mut out = String::from(
            "Figure 12 — US-Campus subnets (paper: Net-3 = 4% of flows but ~50% of non-preferred)\n",
        );
        let _ = writeln!(
            out,
            "{:<8} {:>14} {:>22} {:>8}",
            "Subnet", "share of all", "share of non-preferred", "bias"
        );
        let mut series = named_series(&["non-preferred accesses", "all accesses"]);
        for (i, s) in shares.iter().enumerate() {
            let _ = writeln!(
                out,
                "{:<8} {:>14.3} {:>22.3} {:>8.1}",
                s.name,
                s.share_of_all_flows,
                s.share_of_nonpreferred_flows,
                s.bias()
            );
            let shares = [s.share_of_nonpreferred_flows, s.share_of_all_flows];
            push_points(&mut series, i, shares);
        }
        // `subnet_shares` emits a row per *configured* subnet, so Net-3's
        // row exists even when the subnet contributed nothing — require
        // actual flows before trusting its shares.
        let net3 = self
            .require_video_flows(DatasetName::UsCampus)
            .and_then(|()| {
                shares
                    .iter()
                    .find(|s| s.name == "Net-3" && s.share_of_all_flows > 0.0)
                    .ok_or_else(|| AnalysisError::MissingSubnet {
                        dataset: DatasetName::UsCampus.to_string(),
                        subnet: "Net-3".into(),
                    })
            });
        let metrics = vec![
            (
                "Net-3 share of all flows".to_owned(),
                net3.clone().map(|s| s.share_of_all_flows),
            ),
            (
                "Net-3 share of non-preferred flows".to_owned(),
                net3.map(|s| s.share_of_nonpreferred_flows),
            ),
        ];
        Figure::new(out, series, metrics)
    }

    /// Figure 13: per-video non-preferred request counts. Metric: EU1-ADSL's
    /// fraction of videos requested from a non-preferred DC exactly once.
    fn fig13(&self) -> Figure {
        let mut out = String::from(
            "Figure 13 — non-preferred requests per video (paper: ~85% exactly once; tail > 1000)\n",
        );
        let _ = writeln!(
            out,
            "{:<11} {:>10} {:>14} {:>20} {:>8}",
            "Dataset", "videos", "exactly once", "once & single-access", "max"
        );
        let mut series = Vec::new();
        let mut metrics = Vec::new();
        for ds in &self.datasets {
            let st = nonpreferred_video_stats(self.dataset_index(ds.name()));
            let _ = writeln!(
                out,
                "{:<11} {:>10} {:>14.3} {:>20.3} {:>8}",
                ds.name().to_string(),
                st.cdf.len(),
                st.exactly_once_fraction,
                st.exactly_once_and_single_access_fraction,
                st.max_count
            );
            series.push(Series::from_cdf(ds.name().to_string(), &st.cdf));
            if ds.name() == DatasetName::Eu1Adsl {
                let once = if st.cdf.is_empty() {
                    Err(AnalysisError::EmptyDistribution {
                        what: "EU1-ADSL non-preferred per-video counts".into(),
                    })
                } else {
                    Ok(st.exactly_once_fraction)
                };
                metrics.push(("EU1-ADSL exactly-once fraction".to_owned(), once));
            }
        }
        Figure::new(out, series, metrics)
    }

    /// Figure 14: the top-4 non-preferred videos' request series (EU1-ADSL).
    fn fig14(&self) -> Figure {
        let ds = self.dataset(DatasetName::Eu1Adsl);
        let index = self.dataset_index(DatasetName::Eu1Adsl);
        let top = top_nonpreferred_videos(index, ds, 4);
        let mut out = String::from(
            "Figure 14 — top-4 non-preferred videos, EU1-ADSL (paper: 24h video-of-the-day spikes)\n",
        );
        let mut series = Vec::new();
        for (rank, (video, count)) in top.iter().enumerate() {
            let hours = video_timeseries(index, ds, *video);
            let (peak_hour, peak) = hours
                .iter()
                .enumerate()
                .max_by_key(|(_, v)| v.all)
                .map(|(h, v)| (h, v.all))
                .unwrap_or((0, 0));
            let active_hours = hours.iter().filter(|v| v.all > 0).count();
            let _ = writeln!(
                out,
                "video{} {}: non-preferred={} peak={}/h at hour {} active {}h",
                rank + 1,
                video,
                count,
                peak,
                peak_hour,
                active_hours
            );
            let mut pair = named_series(&[
                &format!("video{} all", rank + 1),
                &format!("video{} non-preferred", rank + 1),
            ]);
            for (h, v) in hours.iter().enumerate() {
                push_points(&mut pair, h, [v.all as f64, v.non_preferred as f64]);
            }
            series.extend(pair);
        }
        Figure::new(out, series, Vec::new())
    }

    /// Figure 15: avg/max per-server load in EU1-ADSL's preferred DC.
    fn fig15(&self) -> Figure {
        let ds = self.dataset(DatasetName::Eu1Adsl);
        let load = preferred_server_load(self.dataset_index(DatasetName::Eu1Adsl), ds);
        let overall_avg = load.iter().map(|h| h.avg).sum::<f64>() / load.len().max(1) as f64;
        let peak = load
            .iter()
            .enumerate()
            .max_by_key(|(_, h)| h.max)
            .map(|(i, h)| (i, h.max, h.avg))
            .unwrap_or((0, 0, 0.0));
        let mut out = String::from(
            "Figure 15 — per-server load in preferred DC, EU1-ADSL (paper: avg ~50/h, peak server 650/h)\n",
        );
        let _ = writeln!(out, "mean hourly per-server load: {overall_avg:.1}");
        let _ = writeln!(
            out,
            "peak: {} req/h at hour {} (hour avg {:.1}) — peak/avg ratio {:.1}",
            peak.1,
            peak.0,
            peak.2,
            peak.1 as f64 / peak.2.max(0.01)
        );
        let mut series = named_series(&["avg", "max"]);
        for (h, l) in load.iter().enumerate() {
            push_points(&mut series, h, [l.avg, l.max as f64]);
        }
        Figure::new(out, series, Vec::new())
    }

    /// Figure 16: session breakdown at the hottest preferred-DC server.
    fn fig16(&self) -> Figure {
        let ds = self.dataset(DatasetName::Eu1Adsl);
        let index = self.dataset_index(DatasetName::Eu1Adsl);
        let load = preferred_server_load(index, ds);
        let Some(hot) = load.iter().max_by_key(|h| h.max).and_then(|h| h.max_server) else {
            return Figure::new(
                "Figure 16 — no server load observed".into(),
                Vec::new(),
                Vec::new(),
            );
        };
        let breakdown = server_session_breakdown(index, ds, hot);
        let total: u64 = breakdown.iter().map(|h| h.total()).sum();
        let redirected: u64 = breakdown.iter().map(|h| h.first_preferred_then_non).sum();
        let peak_hour = breakdown
            .iter()
            .enumerate()
            .max_by_key(|(_, h)| h.total())
            .map(|(i, _)| i)
            .unwrap_or(0);
        let mut out = String::from(
            "Figure 16 — sessions at the hot server (paper: redirections appear when load spikes)\n",
        );
        let _ = writeln!(
            out,
            "server {hot}: {total} sessions, {redirected} redirected (pref → non-pref)"
        );
        let _ = writeln!(out, "peak hour {peak_hour}:");
        let h = &breakdown[peak_hour];
        let _ = writeln!(
            out,
            "  all-preferred={} first-pref-then-non={} others={}",
            h.all_preferred, h.first_preferred_then_non, h.others
        );
        let mut series = named_series(&[
            "all preferred flows",
            "only the first flow is preferred",
            "others",
        ]);
        for (h, b) in breakdown.iter().enumerate() {
            let counts = [b.all_preferred, b.first_preferred_then_non, b.others];
            push_points(&mut series, h, counts.map(|n| n as f64));
        }
        Figure::new(out, series, Vec::new())
    }

    /// Extension: the user-performance cost of the selection mechanisms.
    fn ext_perf(&self) -> Figure {
        let mut out = String::from(
            "Extension — user-performance cost of redirections (paper intro: 'impact ... user performance')\n",
        );
        let _ = writeln!(
            out,
            "{:<11} {:>22} {:>22}",
            "Dataset", "startup penalty [ms]", "RTT penalty [ms]"
        );
        for (ds, ctx) in self.datasets.iter().zip(&self.contexts) {
            let r = crate::perf::perf_report(ctx, ds, self.dataset_index(ds.name()));
            let _ = writeln!(
                out,
                "{:<11} {:>22.0} {:>22.1}",
                ds.name().to_string(),
                r.median_redirect_penalty_ms(),
                r.median_rtt_penalty_ms()
            );
        }
        Figure::table("ext-perf", out, Vec::new())
    }

    /// Extension: workload characterization (calibration against refs [3,4]).
    fn ext_characterize(&self) -> Figure {
        let mut out = String::from(
            "Extension — workload characterization (paper refs [3,4]: Zipf popularity, heavy-tailed clients, diurnal cycle)\n",
        );
        let _ = writeln!(
            out,
            "{:<11} {:>13} {:>13} {:>15} {:>13}",
            "Dataset", "1-req videos", "top1% share", "top10% clients", "peak/trough"
        );
        for ds in &self.datasets {
            let c = crate::characterize::characterize(ds);
            let _ = writeln!(
                out,
                "{:<11} {:>13.3} {:>13.3} {:>15.3} {:>13.1}",
                ds.name().to_string(),
                c.single_request_video_fraction,
                c.top1pct_video_share,
                c.top10pct_client_share,
                c.peak_to_trough
            );
        }
        Figure::table("ext-characterize", out, Vec::new())
    }

    /// Extension: the February-2011 mapping change (paper Section VI-B).
    fn ext_feb2011(&self) -> Figure {
        let outcomes = crate::whatif::run(&crate::whatif::FEB2011, self.config.scenario);
        let mut out = String::from(
            "Extension — Feb 2011 mapping change (paper: US-Campus moved to a DC with RTT > 100 ms)\n",
        );
        for o in outcomes {
            let _ = writeln!(
                out,
                "{:<10} preferred={:<14} dist={:>5.0} km  mean serving RTT={:>6.1} ms  pref-bytes={:.3}",
                o.label,
                o.preferred_city,
                o.preferred_distance_km,
                o.mean_serving_rtt_ms,
                o.preferred_byte_share
            );
        }
        Figure::table("ext-feb2011", out, Vec::new())
    }

    /// CBG-geolocates the servers of every dataset (pooled, deduplicated by
    /// /24 per dataset), served from the one cached
    /// [`crate::index::GeoIndex`] pass that Table III and Figure 3 read.
    pub fn cbg_locations(&self) -> Vec<crate::geo_analysis::ServerLocation> {
        self.geo_index().pooled()
    }

    /// The Section VII-C active experiment's node traces, run once with
    /// this suite's seed on first use and shared by Figures 17 and 18.
    pub fn active_traces(&self) -> &[NodeTrace] {
        self.active.get_or_init(|| {
            ActiveExperiment::new(ActiveConfig {
                seed: self.config.scenario.seed ^ 0xAC71,
                ..ActiveConfig::default()
            })
            .run(&self.scenario)
        })
    }

    /// Figure 17: RTT over time for the most illustrative probing node.
    /// Report and series err with [`AnalysisError::NoActiveTraces`] when
    /// the active experiment produced no node trace to pick from.
    fn fig17(&self) -> Figure {
        let Some(node) = most_illustrative_node(self.active_traces()) else {
            return Figure {
                report: Err(AnalysisError::NoActiveTraces),
                series: Err(AnalysisError::NoActiveTraces),
                metrics: Vec::new(),
            };
        };
        let mut out = String::from(
            "Figure 17 — RTT per 30-min sample, one node (paper: first ~200 ms, later ~20 ms)\n",
        );
        let _ = writeln!(out, "node {} (preferred {}):", node.node, node.preferred);
        for (i, s) in node.samples.iter().enumerate().take(12) {
            let _ = writeln!(
                out,
                "  sample {:>2}: {:>8.1} ms  (dc {})",
                i, s.rtt_ms, s.dc
            );
        }
        let points = node
            .samples
            .iter()
            .map(|s| ((s.t_ms / (30 * 60 * 1000)) as f64, s.rtt_ms))
            .collect();
        Figure::new(
            out,
            vec![Series {
                name: node.node.clone(),
                points,
            }],
            Vec::new(),
        )
    }

    /// Figure 18: CDF of RTT1/RTT2 over the probing nodes. Metrics: the
    /// fractions of nodes with a ratio above 1 and above 10.
    fn fig18(&self) -> Figure {
        let traces = self.active_traces();
        let st = ratio_stats(traces);
        let mut out =
            String::from("Figure 18 — RTT1/RTT2 over nodes (paper: >40% above 1; ~20% above 10)\n");
        let _ = writeln!(
            out,
            "nodes={} above1={:.2} above10={:.2}",
            st.nodes, st.above_one, st.above_ten
        );
        let measured = |value: f64| {
            if traces.is_empty() {
                Err(AnalysisError::NoActiveTraces)
            } else {
                Ok(value)
            }
        };
        Figure::new(
            out,
            vec![Series::from_cdf("RTT1/RTT2", &ratio_cdf(traces))],
            vec![
                ("nodes with RTT1/RTT2 > 1".into(), measured(st.above_one)),
                ("nodes with RTT1/RTT2 > 10".into(), measured(st.above_ten)),
            ],
        )
    }
}

/// A cumulative byte-share curve (Figures 7 and 8) as one series.
fn step_series(name: DatasetName, steps: &[ShareStep]) -> Series {
    Series {
        name: name.to_string(),
        points: steps.iter().map(|s| (s.x, s.cumulative_fraction)).collect(),
    }
}

/// Empty series with the given names, in legend order.
fn named_series(names: &[&str]) -> Vec<Series> {
    names
        .iter()
        .map(|name| Series {
            name: (*name).to_owned(),
            points: Vec::new(),
        })
        .collect()
}

/// Appends the point `(x, y)` to each series, the `y`s in series order.
fn push_points(series: &mut [Series], x: usize, ys: impl IntoIterator<Item = f64>) {
    for (s, y) in series.iter_mut().zip(ys) {
        s.points.push((x as f64, y));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn suite() -> ExperimentSuite {
        ExperimentSuite::new(SuiteConfig {
            scenario: ScenarioConfig::with_scale(0.004, 2),
            full_landmarks: false,
            jobs: 0,
        })
    }

    /// Figure 4 as it was built before it read ranks: partition the byte
    /// column, sort each side as `f64`, and chain the two CDFs. The oracle
    /// of [`ExperimentSuite::fig4`].
    fn fig4_by_partition(suite: &ExperimentSuite) -> Figure {
        let mut out =
            String::from("Figure 4 — flow-size CDF (paper: bimodal with a kink at 1000 bytes)\n");
        let _ = writeln!(
            out,
            "{:<11} {:>12} {:>14} {:>14} {:>12}",
            "Dataset", "ctrl share", "p50 ctrl [B]", "p50 video [B]", "max [B]"
        );
        let mut series = Vec::new();
        for ds in &suite.datasets {
            let (video, control): (Vec<u64>, Vec<u64>) = ds
                .columns()
                .bytes
                .iter()
                .partition(|&&b| FlowClass::of_bytes(b) == FlowClass::Video);
            let ctrl_cdf = Cdf::from_values(control.iter().map(|&b| b as f64));
            let vid_cdf = Cdf::from_values(video.iter().map(|&b| b as f64));
            let or_zero = |v: AnalysisResult<f64>| v.unwrap_or(0.0);
            let _ = writeln!(
                out,
                "{:<11} {:>12.3} {:>14.0} {:>14.0} {:>12.0}",
                ds.name().to_string(),
                control.len() as f64 / ds.len() as f64,
                or_zero(ctrl_cdf.try_median()),
                or_zero(vid_cdf.try_median()),
                or_zero(vid_cdf.try_max()),
            );
            let all = Cdf::from_values(ctrl_cdf.samples().iter().chain(vid_cdf.samples()).copied());
            series.push(Series::from_cdf(ds.name().to_string(), &all));
        }
        Figure::new(out, series, Vec::new())
    }

    #[test]
    fn fig4_matches_the_partition_oracle() {
        let healthy = suite();
        let config = SuiteConfig {
            scenario: ScenarioConfig::with_scale(0.003, 9),
            full_landmarks: false,
            jobs: 1,
        };
        let no_video = ExperimentSuite::with_degenerate(
            config,
            Telemetry::disabled(),
            DegenerateShape::NoVideo,
        );
        for suite in [&healthy, &no_video] {
            assert_eq!(suite.figure("fig4").unwrap(), &fig4_by_partition(suite));
        }
    }

    #[test]
    fn indexes_built_on_the_pool_match_sequential() {
        // The five indexes come back from `par_map` in dataset order, each
        // the same as one built on the calling thread.
        let config = |jobs| SuiteConfig {
            scenario: ScenarioConfig::with_scale(0.003, 7),
            full_landmarks: false,
            jobs,
        };
        let (one, two) = (
            ExperimentSuite::new(config(1)),
            ExperimentSuite::new(config(2)),
        );
        for name in DatasetName::ALL {
            let (a, b) = (one.dataset_index(name), two.dataset_index(name));
            assert_eq!(a.dataset_name(), name);
            assert_eq!(b.dataset_name(), name);
            assert_eq!(a.sessions(), b.sessions(), "{name}: sessions");
            assert_eq!(a.patterns(), b.patterns(), "{name}: patterns");
            assert_eq!(a.hour_ranges(), b.hour_ranges(), "{name}: hour ranges");
        }
    }

    #[test]
    fn every_experiment_runs_and_reports() {
        let s = suite();
        for id in ALL_EXPERIMENTS.iter().chain(EXTENSION_EXPERIMENTS) {
            let report = s.run(id).unwrap_or_else(|e| panic!("{id}: {e}"));
            assert!(report.len() > 40, "{id} report too short: {report}");
            assert!(
                report.contains("paper"),
                "{id} report lacks the paper reference line"
            );
        }
        assert_eq!(
            s.run("fig99"),
            Err(AnalysisError::UnknownExperiment { id: "fig99".into() })
        );
        // The driver table lists exactly the public ids, in their order.
        let table: Vec<&str> = EXPERIMENTS.iter().map(|(id, ..)| *id).collect();
        let ids: Vec<&str> = ALL_EXPERIMENTS
            .iter()
            .chain(EXTENSION_EXPERIMENTS)
            .copied()
            .collect();
        assert_eq!(table, ids);
    }

    #[test]
    fn datasets_accessible_by_name() {
        let s = suite();
        for name in DatasetName::ALL {
            assert_eq!(s.dataset(name).name(), name);
            assert_eq!(s.context(name).dataset_name(), name);
            assert_eq!(s.dataset_index(name).dataset_name(), name);
        }
        assert!(s.jobs() >= 1);
    }

    #[test]
    fn run_many_matches_sequential_run() {
        let s = suite();
        // A mix of cheap experiments plus an unknown id: parallel execution
        // must reproduce the sequential reports (and the Err) in order.
        let ids = ["fig6", "fig10a", "fig99", "fig13", "fig9", "fig5"];
        let sequential: Vec<AnalysisResult<String>> = ids.iter().map(|id| s.run(id)).collect();
        for jobs in [1, 4] {
            assert_eq!(s.run_many(&ids, jobs), sequential, "jobs={jobs}");
        }
    }

    #[test]
    fn experiment_spans_are_recorded() {
        let s = ExperimentSuite::with_telemetry(
            SuiteConfig {
                scenario: ScenarioConfig::with_scale(0.004, 2),
                full_landmarks: false,
                jobs: 2,
            },
            Telemetry::metrics_only(),
        );
        s.run("table1").unwrap();
        s.run("table1").unwrap();
        let snap = s.telemetry().metrics_snapshot().unwrap();
        // The second run reads the cached figure.
        assert_eq!(snap.histograms["exp.table1"].count, 1);
        assert_eq!(snap.histograms["scenario.build"].count, 1);
        assert_eq!(snap.histograms["scenario.run_all"].count, 1);
        assert_eq!(snap.histograms["suite.indexes"].count, 1);
        assert_eq!(snap.histograms["index.build"].count, 5);
        assert_eq!(snap.histograms["index.group"].count, 5);

        // Every presentation reads the same cache: after the reports, the
        // scorecard, the markdown page and the CSV export, each experiment
        // was still computed exactly once.
        let ids: Vec<&str> = ALL_EXPERIMENTS
            .iter()
            .chain(EXTENSION_EXPERIMENTS)
            .copied()
            .collect();
        assert!(s.run_many(&ids, 2).iter().all(Result::is_ok));
        assert!(crate::scorecard::scorecard(&s).pass());
        crate::report::markdown_report(&s);
        let dir = std::env::temp_dir().join(format!("ytcdn_spans_{}", std::process::id()));
        crate::export::export_all(&s, &dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let snap = s.telemetry().metrics_snapshot().unwrap();
        for (id, span, _) in EXPERIMENTS {
            assert_eq!(snap.histograms[span].count, 1, "{id}");
        }
    }
}

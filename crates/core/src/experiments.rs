//! One driver per table and figure of the paper.
//!
//! [`ExperimentSuite`] simulates the five datasets once and exposes a
//! `table1()` … `fig18()` method per experiment, each returning a plain-text
//! report that states what the paper observed next to what this
//! reproduction measures. The `repro` binary in the bench crate and
//! `EXPERIMENTS.md` are generated from these.

use std::fmt::Write as _;
use std::ops::Range;

use ytcdn_cdnsim::{ActiveConfig, ActiveExperiment, ScenarioConfig, StandardScenario};
use ytcdn_geoloc::Cbg;
use ytcdn_geomodel::Continent;
use ytcdn_netsim::{landmarks_with_counts, planetlab_landmarks, WellKnownAs};
use ytcdn_telemetry::Telemetry;
use ytcdn_tstat::{Dataset, DatasetName, FlowClassifier, HOUR_MS};

use crate::active_analysis::{most_illustrative_node, ratio_stats};
use crate::as_analysis::{as_breakdown, WellKnownAsExt};
use crate::dcmap::AnalysisContext;
use crate::degenerate::DegenerateShape;
use crate::error::{AnalysisError, AnalysisResult};
use crate::geo_analysis::{continent_counts, radius_cdfs, server_rtt_cdf};
use crate::hotspot::{
    preferred_server_load, server_session_breakdown, top_nonpreferred_videos, video_timeseries,
};
use crate::index::DatasetIndex;
use crate::preferred::{bytes_by_distance, bytes_by_rtt, closest_k_share};
use crate::stats::Cdf;
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
    /// available CPU. Any value produces byte-identical reports — `jobs`
    /// only changes wall-clock time.
    pub jobs: usize,
}

/// [`SuiteConfig::jobs`] with `0` replaced by the available CPU count.
fn resolve_jobs(jobs: usize) -> usize {
    if jobs > 0 {
        jobs
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// All experiment identifiers, paper order.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "table1", "table2", "table3", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
    "fig10a", "fig10b", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
];

/// The Figure 5 gap thresholds `T`, in seconds.
pub(crate) const FIG5_GAPS_S: [u64; 5] = [1, 5, 10, 60, 300];

/// Experiments beyond the paper's figures: the what-if and user-performance
/// analyses the paper's introduction motivates, and the workload
/// characterization calibration check.
pub const EXTENSION_EXPERIMENTS: &[&str] = &["ext-perf", "ext-characterize", "ext-feb2011"];

/// The phase-histogram / span name for one experiment id, `None` for
/// unknown ids. Metric keys must be `&'static str`, hence the table.
pub fn experiment_span_name(id: &str) -> Option<&'static str> {
    Some(match id {
        "table1" => "exp.table1",
        "table2" => "exp.table2",
        "table3" => "exp.table3",
        "fig2" => "exp.fig2",
        "fig3" => "exp.fig3",
        "fig4" => "exp.fig4",
        "fig5" => "exp.fig5",
        "fig6" => "exp.fig6",
        "fig7" => "exp.fig7",
        "fig8" => "exp.fig8",
        "fig9" => "exp.fig9",
        "fig10a" => "exp.fig10a",
        "fig10b" => "exp.fig10b",
        "fig11" => "exp.fig11",
        "fig12" => "exp.fig12",
        "fig13" => "exp.fig13",
        "fig14" => "exp.fig14",
        "fig15" => "exp.fig15",
        "fig16" => "exp.fig16",
        "fig17" => "exp.fig17",
        "fig18" => "exp.fig18",
        "ext-perf" => "exp.ext-perf",
        "ext-characterize" => "exp.ext-characterize",
        "ext-feb2011" => "exp.ext-feb2011",
        _ => return None,
    })
}

/// Simulates the five datasets once and regenerates every table and figure.
pub struct ExperimentSuite {
    config: SuiteConfig,
    jobs: usize,
    scenario: StandardScenario,
    datasets: Vec<Dataset>,
    contexts: Vec<AnalysisContext>,
    indexes: Vec<DatasetIndex>,
    cbg: std::sync::OnceLock<Cbg>,
    geo: std::sync::OnceLock<crate::index::GeoIndex>,
    telemetry: Telemetry,
}

impl ExperimentSuite {
    /// Builds the world and simulates all five datasets.
    pub fn new(config: SuiteConfig) -> Self {
        Self::with_telemetry(config, Telemetry::disabled())
    }

    /// [`ExperimentSuite::new`] with observability attached: the build and
    /// simulation phases are profiled, the engines are instrumented, and
    /// every [`ExperimentSuite::run`] call records an `exp.<id>` wall-time
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
    /// flow logs come straight off the decoded columns, indexes included
    /// via [`DatasetIndex::from_columnar`]. Reports are byte-identical to
    /// the simulate-in-memory path for matching scale/seed/mutations.
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
        let mut slots: Vec<Option<crate::columnar::ColumnarDataset>> =
            DatasetName::ALL.iter().map(|_| None).collect();
        for c in columnar {
            let slot = Self::slot(c.dataset().name());
            slots[slot] = Some(c);
        }
        let datasets = slots
            .into_iter()
            .zip(DatasetName::ALL)
            .map(|(slot, name)| {
                let c = slot.ok_or_else(|| AnalysisError::MissingDataset {
                    dataset: name.to_string(),
                })?;
                let hours = c.hour_ranges().to_vec();
                Ok((c.into_dataset(), Some(hours)))
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
                Some(shape) => (shape.apply(scenario.world(), ds), None),
                None => (ds, None),
            })
            .collect();
        Self::assemble(config, telemetry, scenario, datasets)
    }

    /// The step both constructors share: resolves the worker count, then
    /// builds each dataset's context (`suite.contexts` span) and index
    /// (`suite.indexes` span). Each dataset may carry its precomputed hour
    /// ranges (a `.ytc` load does), which the index reuses instead of
    /// rescanning the timestamps.
    fn assemble(
        config: SuiteConfig,
        telemetry: Telemetry,
        scenario: StandardScenario,
        datasets: Vec<(Dataset, Option<Vec<Range<usize>>>)>,
    ) -> Self {
        let jobs = resolve_jobs(config.jobs);
        let (datasets, hours): (Vec<Dataset>, Vec<_>) = datasets.into_iter().unzip();
        // `slot` relies on the datasets arriving in DatasetName::ALL order.
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
            datasets
                .iter()
                .zip(&contexts)
                .zip(hours)
                .map(|((ds, ctx), hours)| {
                    DatasetIndex::build_with_hours(ctx, ds, hours, jobs, telemetry.clone())
                })
                .collect()
        };
        Self {
            config,
            jobs,
            scenario,
            datasets,
            contexts,
            indexes,
            cbg: std::sync::OnceLock::new(),
            geo: std::sync::OnceLock::new(),
            telemetry,
        }
    }

    /// The scenario under analysis.
    pub fn scenario(&self) -> &StandardScenario {
        &self.scenario
    }

    /// The resolved worker-thread count ([`SuiteConfig::jobs`], with `0`
    /// replaced by the available CPU count).
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The telemetry handle the suite was built with (disabled for
    /// [`ExperimentSuite::new`]).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The position of a dataset in the suite's vectors. The suite
    /// simulates (and keeps) the five datasets in [`DatasetName::ALL`]
    /// order, so the lookup is total — no find-and-panic needed.
    fn slot(name: DatasetName) -> usize {
        match name {
            DatasetName::UsCampus => 0,
            DatasetName::Eu1Campus => 1,
            DatasetName::Eu1Adsl => 2,
            DatasetName::Eu1Ftth => 3,
            DatasetName::Eu2 => 4,
        }
    }

    /// A dataset by name.
    pub fn dataset(&self, name: DatasetName) -> &Dataset {
        &self.datasets[Self::slot(name)]
    }

    /// A dataset's analysis context.
    pub fn context(&self, name: DatasetName) -> &AnalysisContext {
        &self.contexts[Self::slot(name)]
    }

    /// A dataset's columnar index.
    pub fn dataset_index(&self, name: DatasetName) -> &DatasetIndex {
        &self.indexes[Self::slot(name)]
    }

    /// The suite's calibrated CBG instance (lazily built once; shared by
    /// every geolocation consumer).
    pub fn cbg(&self) -> &Cbg {
        self.cbg.get_or_init(|| {
            let landmarks = if self.config.full_landmarks {
                planetlab_landmarks(self.config.scenario.seed)
            } else {
                landmarks_with_counts(
                    self.config.scenario.seed,
                    &[
                        (Continent::NorthAmerica, 22),
                        (Continent::Europe, 19),
                        (Continent::Asia, 5),
                        (Continent::SouthAmerica, 2),
                        (Continent::Oceania, 1),
                        (Continent::Africa, 1),
                    ],
                )
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
    /// first use and reused by `table3`, `fig3`, the CSV export, and the
    /// scorecard. `geo.cache_hit` / `geo.cache_miss` count reuses vs the
    /// single build.
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

    /// Runs one experiment by id (`"table1"` … `"fig18"`).
    ///
    /// # Errors
    ///
    /// [`AnalysisError::UnknownExperiment`] for an unrecognised id, or the
    /// experiment's own typed error on a degenerate dataset (an empty RTT
    /// distribution, no active traces, …). Every error increments the
    /// `analysis.errors` telemetry counter; callers render it as a SKIPPED
    /// row rather than unwinding.
    pub fn run(&self, id: &str) -> AnalysisResult<String> {
        let _span = experiment_span_name(id).map(|name| self.telemetry.span(name));
        let result = match id {
            "table1" => Ok(self.table1()),
            "table2" => Ok(self.table2()),
            "table3" => Ok(self.table3()),
            "fig2" => self.fig2(),
            "fig3" => Ok(self.fig3()),
            "fig4" => Ok(self.fig4()),
            "fig5" => Ok(self.fig5()),
            "fig6" => Ok(self.fig6()),
            "fig7" => Ok(self.fig7()),
            "fig8" => Ok(self.fig8()),
            "fig9" => self.fig9(),
            "fig10a" => Ok(self.fig10a()),
            "fig10b" => Ok(self.fig10b()),
            "fig11" => self.fig11(),
            "fig12" => Ok(self.fig12()),
            "fig13" => Ok(self.fig13()),
            "fig14" => Ok(self.fig14()),
            "fig15" => Ok(self.fig15()),
            "fig16" => Ok(self.fig16()),
            "fig17" => self.fig17(),
            "fig18" => Ok(self.fig18()),
            "ext-perf" => Ok(self.ext_perf()),
            "ext-characterize" => Ok(self.ext_characterize()),
            "ext-feb2011" => Ok(self.ext_feb2011()),
            _ => Err(AnalysisError::UnknownExperiment { id: id.to_owned() }),
        };
        if result.is_err() {
            self.telemetry.counter("analysis.errors").inc();
        }
        result
    }

    /// Runs many experiments concurrently on `jobs` threads (clamped to at
    /// least 1), returning the reports in input order — the output is
    /// byte-identical to mapping [`ExperimentSuite::run`] over `ids`
    /// sequentially, because experiments only read shared state (the lazily
    /// initialized CBG calibration and session cache are behind
    /// `OnceLock`/`RwLock`) and results are reassembled by input position.
    /// A failed experiment occupies its slot as an `Err` — one degenerate
    /// dataset degrades one report, it does not unwind the pool.
    pub fn run_many(&self, ids: &[&str], jobs: usize) -> Vec<AnalysisResult<String>> {
        let jobs = jobs.clamp(1, ids.len().max(1));
        if jobs == 1 {
            return ids.iter().map(|id| self.run(id)).collect();
        }
        let next = std::sync::atomic::AtomicUsize::new(0);
        let mut results: Vec<AnalysisResult<String>> = ids
            .iter()
            .map(|id| {
                Err(AnalysisError::UnknownExperiment {
                    id: (*id).to_owned(),
                })
            })
            .collect();
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..jobs)
                .map(|_| {
                    scope.spawn(|| {
                        let mut mine = Vec::new();
                        loop {
                            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            let Some(id) = ids.get(i) else { break };
                            mine.push((i, self.run(id)));
                        }
                        mine
                    })
                })
                .collect();
            for w in workers {
                let mine = w
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                for (i, report) in mine {
                    results[i] = report;
                }
            }
        });
        results
    }

    /// Table I: traffic summary per dataset.
    pub fn table1(&self) -> String {
        let mut out = String::from(
            "Table I — traffic summary (paper @ scale 1.0: 874649/134789/877443/91955/513403 flows)\n",
        );
        let _ = writeln!(
            out,
            "{:<11} {:>9} {:>12} {:>8} {:>8}",
            "Dataset", "flows", "volume[GB]", "servers", "clients"
        );
        for ds in &self.datasets {
            let s = ds.summary();
            let _ = writeln!(
                out,
                "{:<11} {:>9} {:>12.2} {:>8} {:>8}",
                s.dataset.to_string(),
                s.flows,
                s.volume_gb(),
                s.servers,
                s.clients
            );
        }
        out
    }

    /// Table II: percentage of servers and bytes per AS.
    pub fn table2(&self) -> String {
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
        out
    }

    /// Table III: Google servers per continent per dataset (CBG-located).
    pub fn table3(&self) -> String {
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
        out
    }

    /// Figure 2: CDF of min RTT to all content servers per vantage point.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::EmptyDistribution`] when a dataset saw no servers
    /// to ping (e.g. an empty capture).
    pub fn fig2(&self) -> AnalysisResult<String> {
        let mut out = String::from(
            "Figure 2 — RTT to content servers (paper: wide spread; EU RTTs too small for transatlantic)\n",
        );
        let _ = writeln!(
            out,
            "{:<11} {:>9} {:>9} {:>9} {:>9}",
            "Dataset", "p10[ms]", "p50[ms]", "p90[ms]", "max[ms]"
        );
        for ds in &self.datasets {
            let cdf = server_rtt_cdf(self.scenario.world(), ds, 5);
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
    }

    /// Figure 3: CDF of the CBG confidence-region radius, US vs Europe.
    pub fn fig3(&self) -> String {
        let (us, eu) = radius_cdfs(&self.geo_index().pooled());
        let mut out = String::from(
            "Figure 3 — CBG confidence-region radius (paper: median 41 km; p90 320 km US / 200 km EU)\n",
        );
        for (label, cdf) in [("US", &us), ("Europe", &eu)] {
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
        out
    }

    /// Figure 4: CDF of flow sizes (the control/video kink at 1000 B).
    pub fn fig4(&self) -> String {
        let classifier = FlowClassifier::default();
        let mut out =
            String::from("Figure 4 — flow-size CDF (paper: bimodal with a kink at 1000 bytes)\n");
        let _ = writeln!(
            out,
            "{:<11} {:>12} {:>14} {:>14} {:>12}",
            "Dataset", "ctrl share", "p50 ctrl [B]", "p50 video [B]", "max [B]"
        );
        for ds in &self.datasets {
            let (video, control): (Vec<_>, Vec<_>) = classifier.partition(ds.iter());
            let ctrl_cdf = Cdf::from_values(control.iter().map(|f| f.bytes as f64));
            let vid_cdf = Cdf::from_values(video.iter().map(|f| f.bytes as f64));
            let _ = writeln!(
                out,
                "{:<11} {:>12.3} {:>14.0} {:>14.0} {:>12.0}",
                ds.name().to_string(),
                control.len() as f64 / ds.len() as f64,
                if ctrl_cdf.is_empty() {
                    0.0
                } else {
                    ctrl_cdf.median()
                },
                if vid_cdf.is_empty() {
                    0.0
                } else {
                    vid_cdf.median()
                },
                if vid_cdf.is_empty() {
                    0.0
                } else {
                    vid_cdf.max()
                },
            );
        }
        out
    }

    /// Figure 5: flows per session vs gap threshold T (US-Campus).
    pub fn fig5(&self) -> String {
        let mut out = String::from(
            "Figure 5 — flows/session vs T, US-Campus (paper: T <= 10 s similar; pick T = 1 s)\n",
        );
        let _ = writeln!(
            out,
            "{:<8} {:>10} {:>16}",
            "T[s]", "sessions", "single-flow frac"
        );
        for (t_s, cdf) in FIG5_GAPS_S.iter().zip(self.fig5_cdfs()) {
            let _ = writeln!(
                out,
                "{:<8} {:>10} {:>16.3}",
                t_s,
                cdf.len(),
                cdf.fraction_at_or_below(1.0)
            );
        }
        out
    }

    /// The Figure 5 flows-per-session CDFs, one per [`FIG5_GAPS_S`] entry,
    /// from one sweep over US-Campus.
    pub(crate) fn fig5_cdfs(&self) -> Vec<Cdf> {
        let gaps_ms: Vec<u64> = FIG5_GAPS_S.iter().map(|t_s| t_s * 1000).collect();
        self.dataset_index(DatasetName::UsCampus)
            .flows_per_session_sweep(self.dataset(DatasetName::UsCampus), &gaps_ms)
    }

    /// Figure 6: flows per session at T = 1 s, all datasets.
    pub fn fig6(&self) -> String {
        let mut out =
            String::from("Figure 6 — flows/session at T=1s (paper: 72.5-80.5% single-flow)\n");
        let _ = writeln!(
            out,
            "{:<11} {:>10} {:>9} {:>9} {:>9}",
            "Dataset", "sessions", "=1 flow", "=2 flows", ">2 flows"
        );
        for ds in &self.datasets {
            let cdf = self.dataset_index(ds.name()).flows_per_session();
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
        }
        out
    }

    /// Figure 7: cumulative byte fraction vs data-center RTT.
    pub fn fig7(&self) -> String {
        let mut out = String::from(
            "Figure 7 — cumulative bytes vs DC RTT (paper: one DC > 85% except EU2; lowest-RTT DC dominates)\n",
        );
        for ctx in &self.contexts {
            let steps = bytes_by_rtt(ctx);
            let first = steps.first();
            let _ = writeln!(
                out,
                "{:<11} preferred={} rtt={:.1}ms share={:.3}  first-RTT-DC {} share={:.3}",
                ctx.dataset_name().to_string(),
                ctx.preferred().city_name,
                ctx.preferred().rtt_ms,
                ctx.preferred_share_of_bytes(),
                first.map(|s| s.city.as_str()).unwrap_or("-"),
                first.map(|s| s.cumulative_fraction).unwrap_or(0.0),
            );
        }
        out
    }

    /// Figure 8: cumulative byte fraction vs data-center distance.
    pub fn fig8(&self) -> String {
        let mut out = String::from(
            "Figure 8 — cumulative bytes vs DC distance (paper: US-Campus 5 closest DCs < 2%)\n",
        );
        for ctx in &self.contexts {
            let steps = bytes_by_distance(ctx);
            let within_500: f64 = steps
                .iter()
                .take_while(|s| s.x <= 500.0)
                .last()
                .map(|s| s.cumulative_fraction)
                .unwrap_or(0.0);
            let _ = writeln!(
                out,
                "{:<11} closest-5-DC share={:.4}  bytes within 500km={:.3}  preferred at {:.0} km",
                ctx.dataset_name().to_string(),
                closest_k_share(ctx, 5),
                within_500,
                ctx.preferred().distance_km,
            );
        }
        out
    }

    /// Figure 9: CDF over hours of the non-preferred flow fraction.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::EmptyDistribution`] when a dataset has no hour
    /// with analysis flows to compute a fraction over.
    pub fn fig9(&self) -> AnalysisResult<String> {
        let mut out = String::from(
            "Figure 9 — hourly non-preferred fraction CDF (paper: EU2 median > 0.4; others low)\n",
        );
        let _ = writeln!(
            out,
            "{:<11} {:>8} {:>8} {:>8}",
            "Dataset", "p25", "p50", "p90"
        );
        for ds in &self.datasets {
            let cdf = nonpreferred_fraction_cdf(self.dataset_index(ds.name()));
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
    }

    /// Figure 10a: single-flow session breakdown.
    pub fn fig10a(&self) -> String {
        let mut out = String::from(
            "Figure 10a — 1-flow sessions (paper: ~75% preferred / ~5% non-preferred; EU2 > 40% non-preferred)\n",
        );
        let _ = writeln!(
            out,
            "{:<11} {:>12} {:>14} {:>18}",
            "Dataset", "1-flow frac", "to preferred", "to non-preferred"
        );
        for ds in &self.datasets {
            let st = self.dataset_index(ds.name()).patterns();
            let single = st.one_flow.preferred + st.one_flow.non_preferred;
            let _ = writeln!(
                out,
                "{:<11} {:>12.3} {:>14.3} {:>18.3}",
                ds.name().to_string(),
                st.single_flow_fraction(),
                st.one_flow.preferred as f64 / st.total.max(1) as f64,
                single as f64 / st.total.max(1) as f64 * st.one_flow_non_preferred_fraction(),
            );
        }
        out
    }

    /// Figure 10b: two-flow session pattern breakdown.
    pub fn fig10b(&self) -> String {
        let mut out = String::from(
            "Figure 10b — 2-flow session patterns (paper: EU1 shows (pref, non-pref) redirections; EU2 shows (non, non))\n",
        );
        let _ = writeln!(
            out,
            "{:<11} {:>8} {:>8} {:>8} {:>8}",
            "Dataset", "p,p", "p,n", "n,p", "n,n"
        );
        for ds in &self.datasets {
            let st = self.dataset_index(ds.name()).patterns();
            let n = (st.two_flow.pp + st.two_flow.pn + st.two_flow.np + st.two_flow.nn).max(1);
            let _ = writeln!(
                out,
                "{:<11} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
                ds.name().to_string(),
                st.two_flow.pp as f64 / n as f64,
                st.two_flow.pn as f64 / n as f64,
                st.two_flow.np as f64 / n as f64,
                st.two_flow.nn as f64 / n as f64
            );
        }
        out
    }

    /// Figure 11: EU2 hourly local fraction and load.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::EmptyDataset`] when EU2 has no analysis flows at
    /// all — there is no load/locality relationship to correlate.
    pub fn fig11(&self) -> AnalysisResult<String> {
        let samples = hourly_samples(self.dataset_index(DatasetName::Eu2));
        if samples.iter().all(|s| s.total() == 0) {
            return Err(AnalysisError::EmptyDataset {
                dataset: DatasetName::Eu2.to_string(),
            });
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
        Ok(out)
    }

    /// Figure 12: US-Campus per-subnet non-preferred shares.
    pub fn fig12(&self) -> String {
        let ds = self.dataset(DatasetName::UsCampus);
        let ctx = self.context(DatasetName::UsCampus);
        let subnets = self
            .scenario
            .world()
            .vantage(DatasetName::UsCampus)
            .subnets
            .clone();
        let shares = subnet_shares(ctx, ds, &subnets);
        let mut out = String::from(
            "Figure 12 — US-Campus subnets (paper: Net-3 = 4% of flows but ~50% of non-preferred)\n",
        );
        let _ = writeln!(
            out,
            "{:<8} {:>14} {:>22} {:>8}",
            "Subnet", "share of all", "share of non-preferred", "bias"
        );
        for s in shares {
            let _ = writeln!(
                out,
                "{:<8} {:>14.3} {:>22.3} {:>8.1}",
                s.name,
                s.share_of_all_flows,
                s.share_of_nonpreferred_flows,
                s.bias()
            );
        }
        out
    }

    /// Figure 13: per-video non-preferred request counts.
    pub fn fig13(&self) -> String {
        let mut out = String::from(
            "Figure 13 — non-preferred requests per video (paper: ~85% exactly once; tail > 1000)\n",
        );
        let _ = writeln!(
            out,
            "{:<11} {:>10} {:>14} {:>20} {:>8}",
            "Dataset", "videos", "exactly once", "once & single-access", "max"
        );
        for ds in &self.datasets {
            let st = nonpreferred_video_stats(self.dataset_index(ds.name()), ds);
            let _ = writeln!(
                out,
                "{:<11} {:>10} {:>14.3} {:>20.3} {:>8}",
                ds.name().to_string(),
                st.cdf.len(),
                st.exactly_once_fraction,
                st.exactly_once_and_single_access_fraction,
                st.max_count
            );
        }
        out
    }

    /// Figure 14: the top-4 non-preferred videos' request series (EU1-ADSL).
    pub fn fig14(&self) -> String {
        let ds = self.dataset(DatasetName::Eu1Adsl);
        let index = self.dataset_index(DatasetName::Eu1Adsl);
        let top = top_nonpreferred_videos(index, ds, 4);
        let mut out = String::from(
            "Figure 14 — top-4 non-preferred videos, EU1-ADSL (paper: 24h video-of-the-day spikes)\n",
        );
        for (rank, (video, count)) in top.iter().enumerate() {
            let series = video_timeseries(index, ds, *video);
            let (peak_hour, peak) = series
                .iter()
                .enumerate()
                .max_by_key(|(_, v)| v.all)
                .map(|(h, v)| (h, v.all))
                .unwrap_or((0, 0));
            let active_hours = series.iter().filter(|v| v.all > 0).count();
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
        }
        out
    }

    /// Figure 15: avg/max per-server load in EU1-ADSL's preferred DC.
    pub fn fig15(&self) -> String {
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
        out
    }

    /// Figure 16: session breakdown at the hottest preferred-DC server.
    pub fn fig16(&self) -> String {
        let ds = self.dataset(DatasetName::Eu1Adsl);
        let index = self.dataset_index(DatasetName::Eu1Adsl);
        let load = preferred_server_load(index, ds);
        let Some(hot) = load.iter().max_by_key(|h| h.max).and_then(|h| h.max_server) else {
            return "Figure 16 — no server load observed".into();
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
        out
    }

    /// Extension: the user-performance cost of the selection mechanisms.
    pub fn ext_perf(&self) -> String {
        let mut out = String::from(
            "Extension — user-performance cost of redirections (paper intro: 'impact ... user performance')\n",
        );
        let _ = writeln!(
            out,
            "{:<11} {:>22} {:>22}",
            "Dataset", "startup penalty [ms]", "RTT penalty [ms]"
        );
        for (ds, ctx) in self.datasets.iter().zip(&self.contexts) {
            let r = crate::perf::perf_report(ctx, ds, self.dataset_index(ds.name()).sessions());
            let _ = writeln!(
                out,
                "{:<11} {:>22.0} {:>22.1}",
                ds.name().to_string(),
                r.median_redirect_penalty_ms(),
                r.median_rtt_penalty_ms()
            );
        }
        out
    }

    /// Extension: workload characterization (calibration against refs [3,4]).
    pub fn ext_characterize(&self) -> String {
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
        out
    }

    /// Extension: the February-2011 mapping change (paper Section VI-B).
    pub fn ext_feb2011(&self) -> String {
        let (before, after) = crate::whatif::feb2011_us_campus(self.config.scenario);
        let mut out = String::from(
            "Extension — Feb 2011 mapping change (paper: US-Campus moved to a DC with RTT > 100 ms)\n",
        );
        for o in [before, after] {
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
        out
    }

    /// CBG-geolocates the servers of every dataset (pooled, deduplicated by
    /// /24 per dataset) — shared by Table III, Figure 3, and CSV export,
    /// all served from the one cached [`crate::index::GeoIndex`] pass.
    pub fn cbg_locations(&self) -> Vec<crate::geo_analysis::ServerLocation> {
        self.geo_index().pooled()
    }

    /// Runs the Section VII-C active experiment with this suite's seed.
    pub fn active_traces(&self) -> Vec<ytcdn_cdnsim::NodeTrace> {
        ActiveExperiment::new(ActiveConfig {
            seed: self.config.scenario.seed ^ 0xAC71,
            ..ActiveConfig::default()
        })
        .run(&self.scenario)
    }

    /// Figure 17: RTT over time for the most illustrative probing node.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::NoActiveTraces`] when the active experiment
    /// produced no node traces to pick an illustrative node from.
    pub fn fig17(&self) -> AnalysisResult<String> {
        let traces = self.active_traces();
        let Some(node) = most_illustrative_node(&traces) else {
            return Err(AnalysisError::NoActiveTraces);
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
        Ok(out)
    }

    /// Figure 18: CDF of RTT1/RTT2 over the probing nodes.
    pub fn fig18(&self) -> String {
        let traces = self.active_traces();
        let st = ratio_stats(&traces);
        let mut out =
            String::from("Figure 18 — RTT1/RTT2 over nodes (paper: >40% above 1; ~20% above 10)\n");
        let _ = writeln!(
            out,
            "nodes={} above1={:.2} above10={:.2}",
            st.nodes, st.above_one, st.above_ten
        );
        out
    }
}

/// Sanity helper for callers iterating hours: trace length in hours.
pub fn trace_hours(dataset: &Dataset) -> u64 {
    dataset
        .records()
        .iter()
        .map(|r| r.start_ms / HOUR_MS)
        .max()
        .map(|h| h + 1)
        .unwrap_or(0)
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
        assert_eq!(snap.histograms["exp.table1"].count, 2);
        assert_eq!(snap.histograms["scenario.build"].count, 1);
        assert_eq!(snap.histograms["scenario.run_all"].count, 1);
        assert_eq!(snap.histograms["suite.indexes"].count, 1);
        assert_eq!(snap.histograms["index.build"].count, 5);
        // Every known experiment id has a static span name.
        for id in ALL_EXPERIMENTS.iter().chain(EXTENSION_EXPERIMENTS) {
            assert!(experiment_span_name(id).is_some(), "{id}");
        }
        assert!(experiment_span_name("fig99").is_none());
    }

    #[test]
    fn trace_hours_spans_week() {
        let s = suite();
        let h = trace_hours(s.dataset(DatasetName::Eu1Adsl));
        assert!((160..=170).contains(&h), "{h}");
        assert_eq!(trace_hours(&Dataset::new(DatasetName::Eu2)), 0);
    }
}

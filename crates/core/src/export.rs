//! CSV export of every figure's data series.
//!
//! `ytcdn repro` prints human-readable summaries; this module emits
//! the underlying curves so the paper's plots can be regenerated with any
//! plotting tool. One CSV per figure, long format:
//! `series,x,y` with a header row.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use ytcdn_tstat::{DatasetName, HOUR_MS};

use crate::active_analysis::{most_illustrative_node, ratio_cdf};
use crate::error::{AnalysisError, AnalysisResult};
use crate::experiments::{ExperimentSuite, FIG5_GAPS_S};
use crate::geo_analysis::radius_cdfs;
use crate::hotspot::{
    preferred_server_load, server_session_breakdown, top_nonpreferred_videos, video_timeseries,
};
use crate::preferred::{bytes_by_distance, bytes_by_rtt};
use crate::stats::Cdf;
use crate::subnet::subnet_shares;
use crate::timeseries::{hourly_samples, nonpreferred_fraction_cdf};
use crate::videos::nonpreferred_video_stats;

/// How many points each exported CDF is decimated to.
const CDF_POINTS: usize = 400;

/// One named data series of a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label, e.g. `"US-Campus"` or `"video1 non-preferred"`.
    pub name: String,
    /// `(x, y)` samples in plot order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Builds a series from a CDF (x = value, y = cumulative fraction).
    pub fn from_cdf(name: impl Into<String>, cdf: &Cdf) -> Self {
        Series {
            name: name.into(),
            points: cdf.plot_points(CDF_POINTS),
        }
    }
}

/// Writes series in long CSV format (`series,x,y`).
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_csv<W: Write>(mut w: W, series: &[Series]) -> io::Result<()> {
    writeln!(w, "series,x,y")?;
    for s in series {
        for &(x, y) in &s.points {
            writeln!(w, "{},{},{}", csv_escape(&s.name), x, y)?;
        }
    }
    Ok(())
}

fn csv_escape(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

/// The figure identifiers this module can export.
pub const EXPORTABLE_FIGURES: &[&str] = &[
    "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10a", "fig10b", "fig11",
    "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
];

/// Computes the data series behind one figure.
///
/// # Errors
///
/// [`AnalysisError::UnknownExperiment`] for ids this module does not plot
/// (tables are textual and not exported here), and
/// [`AnalysisError::NoActiveTraces`] for `fig17` when no active trace
/// recorded a usable node.
pub fn figure_series(suite: &ExperimentSuite, id: &str) -> AnalysisResult<Vec<Series>> {
    let per_dataset = |f: &dyn Fn(DatasetName) -> Series| -> Vec<Series> {
        DatasetName::ALL.iter().map(|&n| f(n)).collect()
    };
    Ok(match id {
        "fig2" => per_dataset(&|n| {
            let cdf =
                crate::geo_analysis::server_rtt_cdf(suite.scenario().world(), suite.dataset(n), 5);
            Series::from_cdf(n.to_string(), &cdf)
        }),
        "fig3" => {
            let (us, eu) = radius_cdfs(&suite.cbg_locations());
            vec![Series::from_cdf("US", &us), Series::from_cdf("Europe", &eu)]
        }
        "fig4" => per_dataset(&|n| {
            let cdf = Cdf::from_values(suite.dataset(n).iter().map(|r| r.bytes as f64));
            Series::from_cdf(n.to_string(), &cdf)
        }),
        "fig5" => FIG5_GAPS_S
            .iter()
            .zip(suite.fig5_cdfs())
            .map(|(t, cdf)| Series::from_cdf(format!("{t}sec"), &cdf))
            .collect(),
        "fig6" => per_dataset(&|n| {
            Series::from_cdf(n.to_string(), &suite.dataset_index(n).flows_per_session())
        }),
        "fig7" => per_dataset(&|n| Series {
            name: n.to_string(),
            points: bytes_by_rtt(suite.context(n))
                .iter()
                .map(|s| (s.x, s.cumulative_fraction))
                .collect(),
        }),
        "fig8" => per_dataset(&|n| Series {
            name: n.to_string(),
            points: bytes_by_distance(suite.context(n))
                .iter()
                .map(|s| (s.x, s.cumulative_fraction))
                .collect(),
        }),
        "fig9" => per_dataset(&|n| {
            let cdf = nonpreferred_fraction_cdf(suite.dataset_index(n));
            Series::from_cdf(n.to_string(), &cdf)
        }),
        "fig10a" | "fig10b" => {
            let mut out = Vec::new();
            for (i, &n) in DatasetName::ALL.iter().enumerate() {
                let st = suite.dataset_index(n).patterns();
                let x = i as f64;
                if id == "fig10a" {
                    let tot = st.total.max(1) as f64;
                    push_bar(&mut out, "preferred", x, st.one_flow.preferred as f64 / tot);
                    push_bar(
                        &mut out,
                        "non-preferred",
                        x,
                        st.one_flow.non_preferred as f64 / tot,
                    );
                } else {
                    let n2 = (st.two_flow.pp + st.two_flow.pn + st.two_flow.np + st.two_flow.nn)
                        .max(1) as f64;
                    push_bar(
                        &mut out,
                        "preferred,preferred",
                        x,
                        st.two_flow.pp as f64 / n2,
                    );
                    push_bar(
                        &mut out,
                        "preferred,non-preferred",
                        x,
                        st.two_flow.pn as f64 / n2,
                    );
                    push_bar(
                        &mut out,
                        "non-preferred,preferred",
                        x,
                        st.two_flow.np as f64 / n2,
                    );
                    push_bar(
                        &mut out,
                        "non-preferred,non-preferred",
                        x,
                        st.two_flow.nn as f64 / n2,
                    );
                }
            }
            out
        }
        "fig11" => {
            let samples = hourly_samples(suite.dataset_index(DatasetName::Eu2));
            vec![
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
            ]
        }
        "fig12" => {
            let subnets = suite
                .scenario()
                .world()
                .vantage(DatasetName::UsCampus)
                .subnets
                .clone();
            let shares = subnet_shares(
                suite.context(DatasetName::UsCampus),
                suite.dataset(DatasetName::UsCampus),
                &subnets,
            );
            let mut all = Series {
                name: "all accesses".into(),
                points: Vec::new(),
            };
            let mut np = Series {
                name: "non-preferred accesses".into(),
                points: Vec::new(),
            };
            for (i, s) in shares.iter().enumerate() {
                all.points.push((i as f64, s.share_of_all_flows));
                np.points.push((i as f64, s.share_of_nonpreferred_flows));
            }
            vec![np, all]
        }
        "fig13" => per_dataset(&|n| {
            let st = nonpreferred_video_stats(suite.dataset_index(n), suite.dataset(n));
            Series::from_cdf(n.to_string(), &st.cdf)
        }),
        "fig14" => {
            let n = DatasetName::Eu1Adsl;
            let top = top_nonpreferred_videos(suite.dataset_index(n), suite.dataset(n), 4);
            let mut out = Vec::new();
            for (rank, (video, _)) in top.iter().enumerate() {
                let series = video_timeseries(suite.dataset_index(n), suite.dataset(n), *video);
                out.push(Series {
                    name: format!("video{} all", rank + 1),
                    points: series
                        .iter()
                        .enumerate()
                        .map(|(h, v)| (h as f64, v.all as f64))
                        .collect(),
                });
                out.push(Series {
                    name: format!("video{} non-preferred", rank + 1),
                    points: series
                        .iter()
                        .enumerate()
                        .map(|(h, v)| (h as f64, v.non_preferred as f64))
                        .collect(),
                });
            }
            out
        }
        "fig15" => {
            let n = DatasetName::Eu1Adsl;
            let load = preferred_server_load(suite.dataset_index(n), suite.dataset(n));
            vec![
                Series {
                    name: "avg".into(),
                    points: load
                        .iter()
                        .enumerate()
                        .map(|(h, l)| (h as f64, l.avg))
                        .collect(),
                },
                Series {
                    name: "max".into(),
                    points: load
                        .iter()
                        .enumerate()
                        .map(|(h, l)| (h as f64, l.max as f64))
                        .collect(),
                },
            ]
        }
        "fig16" => {
            let n = DatasetName::Eu1Adsl;
            let ds = suite.dataset(n);
            let index = suite.dataset_index(n);
            let load = preferred_server_load(index, ds);
            let Some(hot) = load.iter().max_by_key(|h| h.max).and_then(|h| h.max_server) else {
                return Ok(Vec::new());
            };
            let breakdown = server_session_breakdown(index, ds, hot);
            let series =
                |name: &str, f: &dyn Fn(&crate::hotspot::ServerSessionHour) -> u64| Series {
                    name: name.into(),
                    points: breakdown
                        .iter()
                        .enumerate()
                        .map(|(h, b)| (h as f64, f(b) as f64))
                        .collect(),
                };
            vec![
                series("all preferred flows", &|b| b.all_preferred),
                series("only the first flow is preferred", &|b| {
                    b.first_preferred_then_non
                }),
                series("others", &|b| b.others),
            ]
        }
        "fig17" => {
            let traces = suite.active_traces();
            let Some(node) = most_illustrative_node(&traces) else {
                return Err(AnalysisError::NoActiveTraces);
            };
            vec![Series {
                name: node.node.clone(),
                points: node
                    .samples
                    .iter()
                    .map(|s| ((s.t_ms / (30 * 60 * 1000)) as f64, s.rtt_ms))
                    .collect(),
            }]
        }
        "fig18" => {
            let traces = suite.active_traces();
            vec![Series::from_cdf("RTT1/RTT2", &ratio_cdf(&traces))]
        }
        _ => {
            return Err(AnalysisError::UnknownExperiment { id: id.to_owned() });
        }
    })
}

fn push_bar(out: &mut Vec<Series>, name: &str, x: f64, y: f64) {
    if let Some(s) = out.iter_mut().find(|s| s.name == name) {
        s.points.push((x, y));
    } else {
        out.push(Series {
            name: name.to_owned(),
            points: vec![(x, y)],
        });
    }
}

/// Exports every figure's series as `<dir>/<figN>.csv`; returns the paths
/// written. Figures whose data is unanswerable on this input (e.g. `fig17`
/// without active traces) are skipped rather than failing the export.
///
/// # Errors
///
/// Propagates filesystem errors (directory creation, file writes).
pub fn export_all(suite: &ExperimentSuite, dir: &Path) -> io::Result<Vec<PathBuf>> {
    fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    for id in EXPORTABLE_FIGURES {
        let Ok(series) = figure_series(suite, id) else {
            continue;
        };
        let path = dir.join(format!("{id}.csv"));
        let file = fs::File::create(&path)?;
        write_csv(io::BufWriter::new(file), &series)?;
        written.push(path);
    }
    Ok(written)
}

/// Glyphs used for the chart's series, in legend order.
const CHART_GLYPHS: &[char] = &['*', '+', 'o', 'x', '#', '@', '%', '&'];

/// Renders series as a terminal scatter/line chart, with axis ranges in the
/// footer and one glyph per series in the legend.
///
/// Intended for the `ytcdn repro --plot` mode; the CSV export remains the
/// machine-readable path.
pub fn ascii_chart(series: &[Series], width: usize, height: usize) -> String {
    let width = width.max(16);
    let height = height.max(4);
    let points: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|s| s.points.iter().copied())
        .collect();
    if points.is_empty() {
        return String::from("(no data)\n");
    }
    let (mut x0, mut x1) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y0, mut y1) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in &points {
        x0 = x0.min(x);
        x1 = x1.max(x);
        y0 = y0.min(y);
        y1 = y1.max(y);
    }
    if x1 <= x0 {
        x1 = x0 + 1.0;
    }
    if y1 <= y0 {
        y1 = y0 + 1.0;
    }
    let mut canvas = vec![vec![' '; width]; height];
    for (si, s) in series.iter().enumerate() {
        let glyph = CHART_GLYPHS[si % CHART_GLYPHS.len()];
        for &(x, y) in &s.points {
            let cx = ((x - x0) / (x1 - x0) * (width - 1) as f64).round() as usize;
            let cy = ((y - y0) / (y1 - y0) * (height - 1) as f64).round() as usize;
            canvas[height - 1 - cy.min(height - 1)][cx.min(width - 1)] = glyph;
        }
    }
    let mut out = String::new();
    for row in canvas {
        out.push('|');
        out.extend(row);
        out.push('\n');
    }
    out.push('+');
    out.extend(std::iter::repeat_n('-', width));
    out.push('\n');
    out.push_str(&format!("x: {x0:.3} .. {x1:.3}   y: {y0:.3} .. {y1:.3}\n"));
    for (si, s) in series.iter().enumerate() {
        out.push_str(&format!(
            "  {} {}\n",
            CHART_GLYPHS[si % CHART_GLYPHS.len()],
            s.name
        ));
    }
    out
}

/// Sanity helper used by tests: the trace length in hours a figure's hourly
/// series should span.
pub fn expected_hours(suite: &ExperimentSuite, name: DatasetName) -> u64 {
    suite
        .dataset(name)
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
    use crate::experiments::SuiteConfig;
    use ytcdn_cdnsim::ScenarioConfig;

    fn suite() -> ExperimentSuite {
        ExperimentSuite::new(SuiteConfig {
            scenario: ScenarioConfig::with_scale(0.003, 88),
            full_landmarks: false,
            jobs: 0,
        })
    }

    #[test]
    fn every_exportable_figure_has_series() {
        let s = suite();
        for id in EXPORTABLE_FIGURES {
            let series = figure_series(&s, id).unwrap_or_else(|e| panic!("{id}: {e}"));
            assert!(!series.is_empty(), "{id} produced no series");
            for sr in &series {
                assert!(!sr.points.is_empty(), "{id}/{} empty", sr.name);
                assert!(
                    sr.points.iter().all(|p| p.0.is_finite() && p.1.is_finite()),
                    "{id}/{} has non-finite points",
                    sr.name
                );
            }
        }
        assert_eq!(
            figure_series(&s, "table1").unwrap_err(),
            crate::AnalysisError::UnknownExperiment {
                id: "table1".into()
            }
        );
    }

    #[test]
    fn cdf_series_are_monotone() {
        let s = suite();
        for id in ["fig2", "fig4", "fig6", "fig9", "fig13", "fig18"] {
            for sr in figure_series(&s, id).unwrap() {
                assert!(
                    sr.points.windows(2).all(|w| w[0].1 <= w[1].1),
                    "{id}/{} not monotone",
                    sr.name
                );
            }
        }
    }

    #[test]
    fn csv_format_and_escaping() {
        let series = vec![Series {
            name: "has,comma \"q\"".into(),
            points: vec![(1.0, 2.0)],
        }];
        let mut buf = Vec::new();
        write_csv(&mut buf, &series).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("series,x,y\n"));
        assert!(text.contains("\"has,comma \"\"q\"\"\",1,2"));
    }

    #[test]
    fn export_all_writes_files() {
        let s = suite();
        let dir = std::env::temp_dir().join(format!("ytcdn_export_{}", std::process::id()));
        let written = export_all(&s, &dir).unwrap();
        assert_eq!(written.len(), EXPORTABLE_FIGURES.len());
        for p in &written {
            let content = std::fs::read_to_string(p).unwrap();
            assert!(content.lines().count() > 1, "{} nearly empty", p.display());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hourly_series_span_the_week() {
        let s = suite();
        let hours = expected_hours(&s, DatasetName::Eu2);
        let fig11 = figure_series(&s, "fig11").unwrap();
        let flows = fig11.iter().find(|x| x.name == "video flows").unwrap();
        assert_eq!(flows.points.len() as u64, hours);
    }

    #[test]
    fn ascii_chart_renders_with_axes_and_legend() {
        let series = vec![
            Series {
                name: "up".into(),
                points: (0..50).map(|i| (i as f64, i as f64)).collect(),
            },
            Series {
                name: "down".into(),
                points: (0..50).map(|i| (i as f64, 49.0 - i as f64)).collect(),
            },
        ];
        let chart = ascii_chart(&series, 60, 12);
        let lines: Vec<&str> = chart.lines().collect();
        // 12 canvas rows + axis + ranges + 2 legend lines.
        assert_eq!(lines.len(), 16, "{chart}");
        assert!(lines[..12].iter().all(|l| l.starts_with('|')));
        assert!(chart.contains("x: 0.000 .. 49.000"));
        assert!(chart.contains("* up"));
        assert!(chart.contains("+ down"));
        // Both glyphs appear on the canvas.
        assert!(lines[..12].iter().any(|l| l.contains('*')));
        assert!(lines[..12].iter().any(|l| l.contains('+')));
        // Rising series: '*' appears in the top row at the right edge.
        assert!(lines[0].trim_end().ends_with('*') || lines[0].contains('*'));
    }

    #[test]
    fn ascii_chart_degenerate_inputs() {
        assert_eq!(ascii_chart(&[], 40, 10), "(no data)\n");
        // Single constant point: no division by zero.
        let s = vec![Series {
            name: "dot".into(),
            points: vec![(5.0, 5.0)],
        }];
        let chart = ascii_chart(&s, 3, 2); // clamped up to minimums
        assert!(chart.contains("dot"));
    }

    #[test]
    fn classifier_threshold_visible_in_fig4_export() {
        // The exported flow-size CDF must show the control/video split:
        // a visible fraction of mass below 1000 bytes, then a jump region.
        let s = suite();
        let fig4 = figure_series(&s, "fig4").unwrap();
        let thr = ytcdn_tstat::FlowClassifier::default().threshold_bytes() as f64;
        for sr in fig4 {
            let below = sr
                .points
                .iter()
                .filter(|p| p.0 < thr)
                .map(|p| p.1)
                .fold(0.0f64, f64::max);
            assert!((0.05..0.5).contains(&below), "{}: {below}", sr.name);
        }
    }
}

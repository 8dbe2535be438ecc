//! CSV export and terminal charts of every figure's data series.
//!
//! `ytcdn repro` prints human-readable summaries; this module emits
//! the underlying curves so the paper's plots can be regenerated with any
//! plotting tool. One CSV per figure, long format:
//! `series,x,y` with a header row. The series come from each experiment's
//! cached [`Figure`]; nothing here runs an analysis.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::experiments::{ExperimentSuite, Figure, ALL_EXPERIMENTS};
use crate::stats::{plot_ranks, Cdf};

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

    /// The ranks of `n` sorted samples that [`Series::from_cdf`] reads.
    pub(crate) fn cdf_ranks(n: usize) -> impl Iterator<Item = usize> {
        plot_ranks(n, CDF_POINTS).map(|(i, _)| i)
    }

    /// The series [`Series::from_cdf`] builds from the CDF of `n` samples,
    /// given only the samples at [`Series::cdf_ranks`], in that order.
    pub(crate) fn from_cdf_ranks(
        name: impl Into<String>,
        n: usize,
        values: impl IntoIterator<Item = f64>,
    ) -> Self {
        Series {
            name: name.into(),
            points: plot_ranks(n, CDF_POINTS)
                .zip(values)
                .map(|((_, y), x)| (x, y))
                .collect(),
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

/// Exports the series of every paper experiment that has them as
/// `<dir>/<id>.csv`, read off each experiment's cached [`Figure`]; returns
/// the paths written. Tables have no series, and figures whose series are
/// unanswerable on this input (e.g. `fig17` without active traces) are
/// skipped rather than failing the export.
///
/// # Errors
///
/// Propagates filesystem errors (directory creation, file writes).
pub fn export_all(suite: &ExperimentSuite, dir: &Path) -> io::Result<Vec<PathBuf>> {
    fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    for id in ALL_EXPERIMENTS {
        let Ok(Figure {
            series: Ok(series), ..
        }) = suite.figure(id)
        else {
            continue;
        };
        let path = dir.join(format!("{id}.csv"));
        let file = fs::File::create(&path)?;
        write_csv(io::BufWriter::new(file), series)?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::SuiteConfig;
    use ytcdn_cdnsim::ScenarioConfig;
    use ytcdn_tstat::{DatasetName, HOUR_MS};

    fn suite() -> ExperimentSuite {
        ExperimentSuite::new(SuiteConfig {
            scenario: ScenarioConfig::with_scale(0.003, 88),
            full_landmarks: false,
            jobs: 0,
        })
    }

    /// One experiment's cached series.
    fn series(s: &ExperimentSuite, id: &str) -> Vec<Series> {
        let figure = s.figure(id).unwrap_or_else(|e| panic!("{id}: {e}"));
        figure
            .series
            .clone()
            .unwrap_or_else(|e| panic!("{id}: {e}"))
    }

    #[test]
    fn every_exportable_figure_has_series() {
        let s = suite();
        for id in ALL_EXPERIMENTS.iter().filter(|id| !id.starts_with("table")) {
            let series = series(&s, id);
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
        for id in ["table1", "table2", "table3", "ext-perf"] {
            assert_eq!(
                s.figure(id).unwrap().series,
                Err(crate::AnalysisError::NotProduced {
                    experiment: id.into(),
                    output: "data series".into()
                })
            );
        }
    }

    #[test]
    fn cdf_series_are_monotone() {
        let s = suite();
        for id in ["fig2", "fig4", "fig6", "fig9", "fig13", "fig18"] {
            for sr in series(&s, id) {
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
        // Every paper experiment but the three tables.
        assert_eq!(written.len(), ALL_EXPERIMENTS.len() - 3);
        for p in &written {
            let content = std::fs::read_to_string(p).unwrap();
            assert!(content.lines().count() > 1, "{} nearly empty", p.display());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hourly_series_span_the_week() {
        let s = suite();
        let hours = s
            .dataset(DatasetName::Eu2)
            .columns()
            .start_ms
            .last()
            .map_or(0, |&start| start / HOUR_MS + 1);
        let fig11 = series(&s, "fig11");
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
        let fig4 = series(&s, "fig4");
        let thr = ytcdn_tstat::VIDEO_MIN_BYTES as f64;
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

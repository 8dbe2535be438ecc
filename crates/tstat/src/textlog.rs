//! The Tstat-style column-oriented text log format.
//!
//! Real Tstat writes flow logs as whitespace-separated columns with a `#`
//! header line — the format the paper's week-long datasets were stored in.
//! This module reads and writes that representation:
//!
//! ```text
//! #client_ip server_ip t_start_ms t_end_ms bytes video_id resolution
//! 128.210.12.7 74.125.0.33 18744 19411 612 dQw4w9WgXcQ 360p
//! ```
//!
//! It is the human-auditable trace format and the one other tools can
//! produce: `ytcdn analyze`, `characterize` and `anonymize` read it, and
//! awk/gnuplot-style tooling can consume it directly. (The compact binary
//! form is the `.ytc` columnar file of `ytcdn-core`.)

use std::fmt;
use std::io::{BufRead, Write};

use crate::dataset::{Dataset, DatasetName};
use crate::flow::{FlowRecord, Resolution, VideoId};
use crate::{HOUR_MS, MAX_TRACE_HOURS};

/// The header line written before the columns.
pub const HEADER: &str = "#client_ip server_ip t_start_ms t_end_ms bytes video_id resolution";

/// Writes a dataset in Tstat text-log form.
///
/// The dataset name is recorded in a leading comment so
/// [`read_textlog`] can restore it.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_textlog<W: Write>(dataset: &Dataset, mut w: W) -> std::io::Result<()> {
    writeln!(w, "#dataset {}", dataset.name())?;
    writeln!(w, "{HEADER}")?;
    for r in dataset.iter() {
        writeln!(
            w,
            "{} {} {} {} {} {} {}",
            r.client_ip, r.server_ip, r.start_ms, r.end_ms, r.bytes, r.video_id, r.resolution
        )?;
    }
    Ok(())
}

/// Parses a Tstat text log produced by [`write_textlog`].
///
/// Comment lines (starting with `#`) other than the `#dataset` header and
/// blank lines are skipped, so hand-annotated logs parse fine.
///
/// # Errors
///
/// Returns [`TextLogError`] on a missing `#dataset` header or any
/// malformed record line (with its line number).
pub fn read_textlog<R: BufRead>(r: R) -> Result<Dataset, TextLogError> {
    let mut name: Option<DatasetName> = None;
    let mut records = Vec::new();
    for (lineno, line) in r.lines().enumerate() {
        let line = line.map_err(TextLogError::Io)?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix("#dataset") {
            let parsed = rest
                .trim()
                .parse()
                .map_err(|_| TextLogError::bad(lineno, "dataset name", rest))?;
            name = Some(parsed);
            continue;
        }
        if trimmed.starts_with('#') {
            continue;
        }
        records.push(parse_record(lineno, trimmed)?);
    }
    let name = name.ok_or(TextLogError::MissingDatasetHeader)?;
    Ok(Dataset::from_records(name, records))
}

fn parse_record(lineno: usize, line: &str) -> Result<FlowRecord, TextLogError> {
    let mut cols = line.split_whitespace();
    let mut next = |what| {
        cols.next()
            .ok_or(TextLogError::MissingColumn { lineno, what })
    };
    let client_ip = next("client_ip")?
        .parse()
        .map_err(|_| TextLogError::bad(lineno, "client_ip", line))?;
    let server_ip = next("server_ip")?
        .parse()
        .map_err(|_| TextLogError::bad(lineno, "server_ip", line))?;
    let start_ms = next("t_start_ms")?
        .parse()
        .map_err(|_| TextLogError::bad(lineno, "t_start_ms", line))?;
    let end_ms = next("t_end_ms")?
        .parse()
        .map_err(|_| TextLogError::bad(lineno, "t_end_ms", line))?;
    let bytes = next("bytes")?
        .parse()
        .map_err(|_| TextLogError::bad(lineno, "bytes", line))?;
    let video_id: VideoId = next("video_id")?
        .parse()
        .map_err(|_| TextLogError::bad(lineno, "video_id", line))?;
    let resolution = parse_resolution(next("resolution")?)
        .ok_or_else(|| TextLogError::bad(lineno, "resolution", line))?;
    if end_ms < start_ms {
        return Err(TextLogError::bad(lineno, "time ordering", line));
    }
    if start_ms / HOUR_MS >= MAX_TRACE_HOURS {
        return Err(TextLogError::StartOutOfRange { lineno, start_ms });
    }
    Ok(FlowRecord {
        client_ip,
        server_ip,
        start_ms,
        end_ms,
        bytes,
        video_id,
        resolution,
    })
}

fn parse_resolution(s: &str) -> Option<Resolution> {
    Resolution::ALL.into_iter().find(|r| r.to_string() == s)
}

/// Errors from text-log parsing.
#[derive(Debug)]
pub enum TextLogError {
    /// The log has no `#dataset <name>` header.
    MissingDatasetHeader,
    /// A record line ended before all columns were read.
    MissingColumn {
        /// Zero-based line number.
        lineno: usize,
        /// Which column was missing.
        what: &'static str,
    },
    /// A column failed to parse.
    BadColumn {
        /// Zero-based line number.
        lineno: usize,
        /// Which column.
        what: &'static str,
        /// The offending line (truncated).
        line: String,
    },
    /// A flow starts past the longest time axis a trace may span
    /// ([`MAX_TRACE_HOURS`]).
    StartOutOfRange {
        /// Zero-based line number.
        lineno: usize,
        /// The flow's start, ms.
        start_ms: u64,
    },
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl TextLogError {
    fn bad(lineno: usize, what: &'static str, line: &str) -> Self {
        TextLogError::BadColumn {
            lineno,
            what,
            line: line.chars().take(80).collect(),
        }
    }
}

impl fmt::Display for TextLogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TextLogError::MissingDatasetHeader => {
                f.write_str("text log has no '#dataset <name>' header")
            }
            TextLogError::MissingColumn { lineno, what } => {
                write!(f, "line {}: missing column {what}", lineno + 1)
            }
            TextLogError::BadColumn { lineno, what, line } => {
                write!(f, "line {}: bad {what} in {line:?}", lineno + 1)
            }
            TextLogError::StartOutOfRange { lineno, start_ms } => write!(
                f,
                "line {}: t_start_ms {start_ms} is past hour {MAX_TRACE_HOURS}, the \
                 longest time axis a trace may span",
                lineno + 1
            ),
            TextLogError::Io(e) => write!(f, "text log I/O error: {e}"),
        }
    }
}

impl std::error::Error for TextLogError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TextLogError::Io(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(start: u64, bytes: u64) -> FlowRecord {
        FlowRecord {
            client_ip: "128.210.1.2".parse().unwrap(),
            server_ip: "74.125.3.4".parse().unwrap(),
            start_ms: start,
            end_ms: start + 500,
            bytes,
            video_id: VideoId::from_index(start * 7),
            resolution: Resolution::R480,
        }
    }

    #[test]
    fn roundtrip() {
        let ds = Dataset::from_records(
            DatasetName::Eu1Adsl,
            vec![flow(0, 600), flow(100, 9_000_000), flow(5000, 777)],
        );
        let mut buf = Vec::new();
        write_textlog(&ds, &mut buf).unwrap();
        let back = read_textlog(&buf[..]).unwrap();
        assert_eq!(back, ds);
    }

    #[test]
    fn header_format() {
        let ds = Dataset::from_records(DatasetName::Eu2, vec![flow(0, 1)]);
        let mut buf = Vec::new();
        write_textlog(&ds, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("#dataset EU2"));
        assert_eq!(lines.next(), Some(HEADER));
    }

    #[test]
    fn skips_comments_and_blanks() {
        let input = "\n#dataset EU1-FTTH\n# a manual note\n\n128.210.1.2 74.125.3.4 5 10 900 AAAAAAAAAAA 240p\n";
        let ds = read_textlog(input.as_bytes()).unwrap();
        assert_eq!(ds.name(), DatasetName::Eu1Ftth);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds.row(0).bytes, 900);
    }

    #[test]
    fn missing_header_is_error() {
        let input = "128.210.1.2 74.125.3.4 5 10 900 AAAAAAAAAAA 240p\n";
        assert!(matches!(
            read_textlog(input.as_bytes()).unwrap_err(),
            TextLogError::MissingDatasetHeader
        ));
    }

    #[test]
    fn truncated_line_reports_column_and_lineno() {
        let input = "#dataset EU2\n1.2.3.4 5.6.7.8 5 10\n";
        let err = read_textlog(input.as_bytes()).unwrap_err();
        match err {
            TextLogError::MissingColumn { lineno, what } => {
                assert_eq!(lineno, 1);
                assert_eq!(what, "bytes");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bad_values_rejected() {
        for bad in [
            "#dataset EU2\nnot_an_ip 5.6.7.8 5 10 1 AAAAAAAAAAA 240p\n",
            "#dataset EU2\n1.2.3.4 5.6.7.8 x 10 1 AAAAAAAAAAA 240p\n",
            "#dataset EU2\n1.2.3.4 5.6.7.8 5 10 1 short 240p\n",
            "#dataset EU2\n1.2.3.4 5.6.7.8 5 10 1 AAAAAAAAAAA 999p\n",
            // end before start
            "#dataset EU2\n1.2.3.4 5.6.7.8 10 5 1 AAAAAAAAAAA 240p\n",
            "#dataset Mars\n",
        ] {
            assert!(read_textlog(bad.as_bytes()).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn start_past_the_time_axis_is_a_typed_error() {
        let last_ms = MAX_TRACE_HOURS * HOUR_MS - 1;
        let line = |start: u64| {
            format!("#dataset EU2\n1.2.3.4 5.6.7.8 {start} {start} 1 AAAAAAAAAAA 240p\n")
        };
        assert_eq!(read_textlog(line(last_ms).as_bytes()).unwrap().len(), 1);
        for start in [last_ms + 1, 18_446_744_073_709_000_000, u64::MAX] {
            match read_textlog(line(start).as_bytes()).unwrap_err() {
                TextLogError::StartOutOfRange { lineno, start_ms } => {
                    assert_eq!((lineno, start_ms), (1, start));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        let msg = read_textlog(line(u64::MAX).as_bytes())
            .unwrap_err()
            .to_string();
        assert!(
            msg.contains("line 2") && msg.contains("t_start_ms"),
            "{msg}"
        );
    }

    #[test]
    fn error_display_is_informative() {
        let input = "#dataset EU2\n1.2.3.4 5.6.7.8 x 10 1 AAAAAAAAAAA 240p\n";
        let err = read_textlog(input.as_bytes()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 2"), "{msg}");
        assert!(msg.contains("t_start_ms"), "{msg}");
    }
}

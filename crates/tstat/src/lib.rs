//! Tstat-style flow-level data model.
//!
//! The paper's datasets are "flow-level logs where each line reports a set of
//! statistics related to each YouTube video flow": source and destination IP,
//! total bytes, start and end time, the 11-character `VideoID`, and the
//! requested resolution. This crate is the synthetic Tstat: it defines those
//! records, classifies them into *video* vs *control* flows using the
//! paper's 1000-byte heuristic (the "kink" in Figure 4), and assembles them
//! into named per-vantage-point [`Dataset`]s with Table I-style summaries.
//!
//! What Tstat does with DPI on live packets — recognizing which flows carry
//! YouTube video — is already decided at generation time here, so the crate's
//! classification layer focuses on the part the paper had to solve on top of
//! Tstat: telling apart successful video transfers and short signalling
//! exchanges by size alone.
//!
//! # Examples
//!
//! ```
//! use ytcdn_tstat::{FlowClass, VIDEO_MIN_BYTES};
//!
//! assert_eq!(VIDEO_MIN_BYTES, 1000);
//! assert_eq!(FlowClass::of_bytes(400), FlowClass::Control);
//! assert_eq!(FlowClass::of_bytes(5_000_000), FlowClass::Video);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod anonymize;
mod classify;
mod dataset;
mod flow;
mod summary;
pub mod textlog;

pub use anonymize::Anonymizer;
pub use classify::{FlowClass, VIDEO_MIN_BYTES};
pub use dataset::{flow_order, ColumnError, Dataset, DatasetColumns, DatasetError, DatasetName};
pub use flow::{FlowRecord, ParseVideoIdError, Resolution, VideoId, VideoIdStr};
pub use summary::TrafficSummary;
pub use textlog::{read_textlog, write_textlog};

/// Milliseconds in one hour.
pub const HOUR_MS: u64 = 3_600_000;

/// The longest time axis a text trace may span, in hours: 2^20, about
/// 120 years. An analysis index keeps one entry per hour from hour 0 to the
/// last flow's start, so a later start is rejected when the trace is
/// parsed instead of sizing that table.
pub const MAX_TRACE_HOURS: u64 = 1 << 20;

/// Milliseconds in one day.
pub const DAY_MS: u64 = 24 * HOUR_MS;

/// Milliseconds in the paper's one-week collection window.
pub const WEEK_MS: u64 = 7 * DAY_MS;

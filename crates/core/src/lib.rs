//! Reproduction of *Dissecting Video Server Selection Strategies in the
//! YouTube CDN* (Torres, Finamore, Kim, Mellia, Munafò, Rao — ICDCS 2011).
//!
//! The paper's contribution is a *methodology*: from passive flow logs
//! collected at the edge of five networks, plus delay-based geolocation of
//! every content server, infer how the YouTube CDN maps video requests to
//! data centers — and why a tenth or more of the traffic is served by
//! *non-preferred* data centers. This crate is that methodology as a
//! library, layered over the substrates in the sibling crates:
//!
//! | paper concept | module |
//! |---|---|
//! | video sessions (flow groups, gap threshold `T`) | [`session`] |
//! | video vs control flows (the fixed 1000-byte rule) | `ytcdn_tstat::FlowClass::of_bytes`, over the bytes column in [`index`] |
//! | server → data-center mapping | [`dcmap`] |
//! | preferred data center, RTT/distance byte profiles | [`preferred`] |
//! | session preferred/non-preferred patterns (Fig. 10) | [`patterns`] |
//! | hourly time series (Figs. 9, 11) | [`timeseries`] |
//! | per-subnet DNS variation (Fig. 12) | [`subnet`] |
//! | per-video non-preferred accesses (Fig. 13) | [`videos`] |
//! | hot-spot / per-server load (Figs. 14–16) | [`hotspot`] |
//! | AS breakdown (Table II) | [`as_analysis`] |
//! | geolocation results (Table III, Figs. 2–3) | [`geo_analysis`] |
//! | active cold-video experiment (Figs. 17–18) | [`active_analysis`] |
//! | empirical CDFs and binning | [`stats`] |
//! | shared per-dataset columnar index, the owner of its dataset | [`index`] |
//! | compact `.ytc` on-disk columnar format | [`columnar`] |
//! | constellation tracking / change-point detection | [`constellation`] |
//! | one driver per table/figure | [`experiments`] |
//! | CSV export of every figure's curves | [`export`] |
//! | user-performance cost of redirections | [`perf`] |
//! | what-if analysis (popularity, peering, capacity) | [`whatif`] |
//! | what the analysis may measure vs the simulator's ground truth | [`observatory`] |
//!
//! # Quickstart
//!
//! ```
//! use ytcdn_cdnsim::{ScenarioConfig, StandardScenario};
//! use ytcdn_core::as_analysis::as_breakdown;
//! use ytcdn_core::observatory::GroundTruth;
//! use ytcdn_core::{AnalysisContext, DatasetIndex, Observatory};
//! use ytcdn_netsim::WellKnownAs;
//! use ytcdn_telemetry::Telemetry;
//! use ytcdn_tstat::DatasetName;
//!
//! // Simulate a small week at one vantage point...
//! let scenario = StandardScenario::build(ScenarioConfig::with_scale(0.004, 1));
//! let (dataset, _) = scenario.run(DatasetName::Eu1Campus);
//! // ...and run the paper's analysis on the flow log. It measures the
//! // world only through an observatory: here whois, for Table II.
//! let observatory = Observatory::new(scenario.world());
//! let google = as_breakdown(observatory, &dataset).share(WellKnownAs::Google);
//! assert!(google.bytes_pct > 50.0, "Google AS byte share {}", google.bytes_pct);
//! // The data-center map is still the simulator's own, a ground-truth read.
//! let ctx = AnalysisContext::from_ground_truth(GroundTruth::new(scenario.world()), &dataset);
//! assert!(ctx.preferred_share_of_bytes() > 0.5);
//! // The index takes the dataset and groups its sessions at T = 1 s;
//! // later analyses read the dataset through it (`index.dataset()`).
//! let index = DatasetIndex::build(&ctx, dataset, Telemetry::disabled());
//! // Figure 6: 72.5–80.5% of sessions consist of a single flow.
//! let frac = index.patterns().single_flow_fraction();
//! assert!(frac > 0.6 && frac < 0.9, "single-flow share {frac}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod active_analysis;
pub mod as_analysis;
pub mod characterize;
pub mod columnar;
pub mod constellation;
pub mod dcmap;
pub mod degenerate;
pub mod error;
pub mod experiments;
pub mod export;
pub mod geo_analysis;
pub mod hotspot;
pub mod index;
pub mod observatory;
pub mod patterns;
pub mod perf;
pub mod preferred;
pub mod report;
pub mod scorecard;
pub mod session;
pub mod sha256;
pub mod stats;
pub mod subnet;
pub mod timeseries;
pub mod videos;
pub mod whatif;

pub use columnar::{ColumnarDataset, FormatError, FormatResult, YtcFile, YtcHeader};
pub use constellation::{ChangePoint, WatchConfig, WatchReport};
pub use dcmap::{AnalysisContext, DcInfo, DcMap};
pub use error::{AnalysisError, AnalysisResult};
pub use index::{DatasetIndex, GeoIndex};
pub use observatory::Observatory;
pub use session::{group_sessions, Session, Sessions};
pub use stats::Cdf;

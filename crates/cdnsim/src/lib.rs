//! A simulator of the (2010) YouTube CDN.
//!
//! The paper this workspace reproduces infers, from passive traces, the
//! policies by which YouTube maps video requests to data centers. Those
//! policies — and the infrastructure they run on — are proprietary and long
//! gone, so this crate *implements* the policy set the paper reverse-
//! engineered and generates the traces the analysis layer then studies:
//!
//! * a worldwide topology of 33 data centers ([`topology`]), most in the
//!   Google AS, one inside the EU2 ISP, plus legacy YouTube-EU and
//!   third-party server pools;
//! * a video catalog with Zipf popularity, heavy one-hit tail, and
//!   "video of the day" flash crowds ([`catalog`]);
//! * content placement with pull-through replication: popular videos
//!   everywhere, tail videos spottily, misses repaired on first access
//!   ([`placement`]);
//! * DNS-based server selection: a preferred data center per network
//!   (lowest RTT), per-LDNS variation inside a network, and adaptive
//!   DNS-level load balancing when a data center saturates ([`dns`]);
//! * application-layer redirection away from overloaded servers and from
//!   data centers that lack the requested content ([`engine`]);
//! * per-vantage-point diurnal workloads scaled from the paper's Table I
//!   ([`workload`], [`vantage`]);
//! * the standard five-dataset scenario and the controlled active
//!   experiment of Section VII-C ([`scenario`], [`active`]);
//! * deterministic simulation streams: splittable per-dataset, per-hour and
//!   per-session RNG streams ([`rng`]), so the datasets can be simulated
//!   concurrently with byte-identical output for any worker count;
//! * scheduled mid-trace CDN mutations (data-center decommission,
//!   preferred-mapping flip, cache eviction) giving the change-detection
//!   workload its ground truth ([`mutation`]).
//!
//! The output is a set of [`ytcdn_tstat::Dataset`]s — exactly what a Tstat
//! probe at the network edge would have recorded — plus a [`World`] handle
//! giving the analysis layer the same abilities the authors had (pinging
//! servers, whois lookups) *and*, for validation only, the ground truth.
//!
//! # Examples
//!
//! ```
//! use ytcdn_cdnsim::{ScenarioConfig, StandardScenario};
//!
//! // A tiny, fast world: 0.5% of the paper's traffic volume, simulated on
//! // two worker threads (any worker count gives the same datasets).
//! let scenario = StandardScenario::build(ScenarioConfig::with_scale(0.005, 42));
//! let datasets = scenario.run_all(2);
//! assert_eq!(datasets.len(), 5);
//! assert!(datasets.iter().all(|d| !d.is_empty()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod active;
pub mod catalog;
pub mod dns;
pub mod engine;
pub mod mutation;
pub mod placement;
pub mod rng;
pub mod scenario;
pub mod topology;
pub mod vantage;
pub mod workload;

pub use active::{ActiveConfig, ActiveExperiment, ActiveProbeSample, NodeTrace};
pub use catalog::{VideoCatalog, VideoMeta, VotdSchedule};
pub use dns::{DnsDecision, DnsResolver, LdnsId};
pub use engine::{Engine, SessionOutcome};
pub use mutation::{InvalidMutation, MutationSchedule, MutationSpec, MutationSpecKind};
pub use placement::ContentStore;
pub use rng::SimRng;
pub use scenario::{run_span_name, ScenarioConfig, StandardScenario, World};
pub use topology::{DataCenter, DataCenterId, ServerPool, Topology};
pub use vantage::{SubnetConfig, VantagePoint};
pub use workload::{diurnal_factor, WorkloadModel, WEEK_HOURS};

//! Network substrate for the YouTube CDN reproduction.
//!
//! The paper measures a real network; this crate provides the synthetic
//! equivalent every other layer runs on:
//!
//! * [`ip`] — IPv4 prefix arithmetic and address allocation ([`Ipv4Block`],
//!   [`BlockAllocator`]). The paper aggregates servers by /24 and the CDN
//!   simulator hands out server addresses from per-data-center /24s.
//! * [`asn`] — autonomous-system numbers and a whois-like longest-prefix
//!   registry ([`AsRegistry`]), with the well-known ASes of the paper's
//!   Table II (Google AS15169, YouTube-EU AS43515, transit ASes).
//! * [`delay`] — the physics-based [`DelayModel`]: great-circle propagation
//!   at fiber speed, a deterministic per-path inflation ("path stretch"),
//!   per-access-technology last-mile latency, and random queueing noise.
//! * [`ping`] — [`Pinger`], a k-probe active measurement returning min/avg
//!   RTT, the primitive both CBG and the paper's Figure 2 use.
//! * [`rng`] — the workspace's one random-number family, SplitMix64:
//!   [`SimRng`], the splittable generator the simulator draws from, and
//!   [`splitmix64`], the stateless hash the placement, video-id and
//!   anonymization code use;
//! * [`noise`] — [`NoiseRng`], the seeded source of measurement noise (a
//!   [`SimRng`] under its own type, so lint rule DET004 can follow noise
//!   into output sinks); no crate draws from an external RNG crate
//!   (enforced statically by `ytcdn-lint` rule DET001).
//! * [`landmark`] — the 215-node PlanetLab-like landmark set with the
//!   paper's continental distribution.
//!
//! # Examples
//!
//! ```
//! use ytcdn_geomodel::CityDb;
//! use ytcdn_netsim::{AccessKind, DelayModel, Endpoint, Pinger};
//!
//! let db = CityDb::builtin();
//! let model = DelayModel::default();
//! let campus = Endpoint::new(db.named("West Lafayette").coord, AccessKind::Campus);
//! let dc = Endpoint::new(db.named("Washington DC").coord, AccessKind::DataCenter);
//! let mut pinger = Pinger::new(model, 7);
//! let m = pinger.ping_seeded(&campus, &dc, 42);
//! assert!(m.min_ms > 5.0 && m.min_ms < 60.0, "got {}", m.min_ms);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asn;
pub mod delay;
pub mod ip;
pub mod landmark;
pub mod noise;
pub mod ping;
pub mod rng;

pub use asn::{AsRegistry, Asn, WellKnownAs};
pub use delay::{AccessKind, DelayModel, Endpoint};
pub use ip::{BlockAllocator, Ipv4Block};
pub use landmark::{
    landmarks_with_counts, planetlab_landmarks, Landmark, DEFAULT_LANDMARK_COUNTS,
    PAPER_LANDMARK_COUNTS,
};
pub use noise::NoiseRng;
pub use ping::{Pinger, RttMeasurement};
pub use rng::{splitmix64, SimRng};

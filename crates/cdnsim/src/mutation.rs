//! Scheduled CDN mutations — deterministic mid-trace reconfigurations.
//!
//! The degenerate-dataset harness (`ytcdn-core::degenerate`) corrupts a
//! dataset *after* simulation; this module mutates the CDN *during* the
//! simulated week, so the change-detection pipeline has ground-truth
//! reconfiguration hours to fire at. Three mutation kinds cover the
//! reconfigurations YouLighter-style constellation tracking is meant to
//! catch:
//!
//! * **`dc-down@H:City`** — from week-hour `H`, the data center in `City`
//!   is drained from DNS: every resolution that would point at it is
//!   remapped to the first alternate that is still up, and it stops being
//!   an overflow / miss-bounce target. (Content retrieval for redirect
//!   chains keeps working — decommissioning drains *new* sessions first.)
//! * **`prefer-flip@H:City`** — from week-hour `H`, the authoritative DNS
//!   hands every network `City` as its preferred data center: resolutions
//!   whose cause is the preferred mapping are remapped there.
//! * **`cache-evict@H:F`** — at week-hour `H`, the warm-tail cache
//!   presence probability is multiplied by `F` ∈ (0, 1]: a deterministic
//!   share of the warm tail vanishes from every data center (a cache
//!   resize), producing a miss storm the analysis layer can observe.
//!   Replicas pulled during the run are never evicted.
//!
//! Every mutation is a *pure function of the week-hour* (no RNG, no
//! wall clock), and DNS remaps are applied after the session prelude's
//! draws, so a mutated run consumes exactly the random streams of the
//! plain run and stays byte-identical for any worker count.

use std::str::FromStr;

use crate::dns::{DnsCause, DnsDecision, LdnsPolicy};
use crate::topology::{DataCenterId, Topology};
use crate::workload::WEEK_HOURS;

/// One parsed (not yet topology-resolved) mutation, the `--mutate` CLI
/// argument form.
#[derive(Debug, Clone, PartialEq)]
pub struct MutationSpec {
    /// Week-hour the mutation takes effect (0..168).
    pub hour: u64,
    /// What changes.
    pub kind: MutationSpecKind,
}

/// The kind half of a [`MutationSpec`].
#[derive(Debug, Clone, PartialEq)]
pub enum MutationSpecKind {
    /// Decommission the data center in this city.
    DcDown {
        /// City name, matched case-insensitively (`-`/`_` read as spaces).
        city: String,
    },
    /// Make this city every network's preferred data center.
    PreferFlip {
        /// City name, matched like [`MutationSpecKind::DcDown`].
        city: String,
    },
    /// Multiply the warm-tail presence probability by this factor.
    CacheEvict {
        /// Surviving fraction of the warm-tail threshold, in (0, 1].
        factor: f64,
    },
}

/// The error returned when a mutation spec cannot be parsed or resolved
/// against the topology.
#[derive(Debug, Clone, PartialEq)]
pub struct InvalidMutation {
    /// The offending spec as given.
    pub spec: String,
    /// Why it was rejected.
    pub reason: String,
}

impl std::fmt::Display for InvalidMutation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid mutation {:?}: {} (expected kind@hour:arg with kind one of \
             dc-down, prefer-flip, cache-evict — e.g. dc-down@72:milan)",
            self.spec, self.reason
        )
    }
}

impl std::error::Error for InvalidMutation {}

fn invalid(spec: &str, reason: impl Into<String>) -> InvalidMutation {
    InvalidMutation {
        spec: spec.to_owned(),
        reason: reason.into(),
    }
}

impl FromStr for MutationSpec {
    type Err = InvalidMutation;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (kind, rest) = s
            .split_once('@')
            .ok_or_else(|| invalid(s, "missing '@hour'"))?;
        let (hour, arg) = rest
            .split_once(':')
            .ok_or_else(|| invalid(s, "missing ':arg' after the hour"))?;
        let hour: u64 = hour
            .parse()
            .map_err(|_| invalid(s, format!("hour {hour:?} is not a number")))?;
        if hour >= WEEK_HOURS {
            return Err(invalid(
                s,
                format!("hour {hour} outside the simulated week (0..{WEEK_HOURS})"),
            ));
        }
        let kind = match kind {
            "dc-down" => MutationSpecKind::DcDown {
                city: arg.to_owned(),
            },
            "prefer-flip" => MutationSpecKind::PreferFlip {
                city: arg.to_owned(),
            },
            "cache-evict" => {
                let factor: f64 = arg
                    .parse()
                    .map_err(|_| invalid(s, format!("factor {arg:?} is not a number")))?;
                if !(factor > 0.0 && factor <= 1.0) {
                    return Err(invalid(s, format!("factor {factor} outside (0, 1]")));
                }
                MutationSpecKind::CacheEvict { factor }
            }
            other => return Err(invalid(s, format!("unknown kind {other:?}"))),
        };
        Ok(MutationSpec { hour, kind })
    }
}

/// Case-insensitive city comparison with `-`/`_` read as spaces, so the CLI
/// accepts `st-ghislain` for "St Ghislain".
fn city_matches(arg: &str, city: &str) -> bool {
    let norm = |s: &str| {
        s.chars()
            .map(|c| match c {
                '-' | '_' => ' ',
                c => c.to_ascii_lowercase(),
            })
            .collect::<String>()
    };
    norm(arg) == norm(city)
}

/// The compiled, topology-resolved mutation timetable attached to a run.
///
/// All queries are pure functions of `(entity, week-hour)`; an empty
/// schedule (the default everywhere) answers every query with "no change"
/// after a single branch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MutationSchedule {
    /// (effective hour, decommissioned data center).
    down: Vec<(u64, DataCenterId)>,
    /// (effective hour, new preferred data center), sorted by hour.
    flips: Vec<(u64, DataCenterId)>,
    /// (effective hour, surviving warm-tail factor).
    evictions: Vec<(u64, f64)>,
}

impl MutationSchedule {
    /// Resolves parsed specs against a topology's analysis data centers.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidMutation`] when a city names no analysis data
    /// center.
    pub fn compile(specs: &[MutationSpec], topology: &Topology) -> Result<Self, InvalidMutation> {
        let resolve = |city: &str| -> Result<DataCenterId, InvalidMutation> {
            topology
                .analysis_dcs()
                .find(|d| city_matches(city, d.city.name))
                .map(|d| d.id)
                .ok_or_else(|| invalid(city, "no analysis data center in this city"))
        };
        let mut schedule = MutationSchedule::default();
        for spec in specs {
            match &spec.kind {
                MutationSpecKind::DcDown { city } => {
                    schedule.down.push((spec.hour, resolve(city)?));
                }
                MutationSpecKind::PreferFlip { city } => {
                    schedule.flips.push((spec.hour, resolve(city)?));
                }
                MutationSpecKind::CacheEvict { factor } => {
                    schedule.evictions.push((spec.hour, *factor));
                }
            }
        }
        schedule.flips.sort_by_key(|&(hour, _)| hour);
        schedule.evictions.sort_by_key(|&(hour, _)| hour);
        Ok(schedule)
    }

    /// Whether the schedule mutates nothing (the default).
    pub fn is_empty(&self) -> bool {
        self.down.is_empty() && self.flips.is_empty() && self.evictions.is_empty()
    }

    /// The hours at which some mutation takes effect, sorted and deduped
    /// (ground truth for the change-detection harness).
    pub fn effective_hours(&self) -> Vec<u64> {
        let mut hours: Vec<u64> = self
            .down
            .iter()
            .map(|&(h, _)| h)
            .chain(self.flips.iter().map(|&(h, _)| h))
            .chain(self.evictions.iter().map(|&(h, _)| h))
            .collect();
        hours.sort_unstable();
        hours.dedup();
        hours
    }

    /// Whether `dc` is decommissioned at week-hour `hour`.
    pub fn is_down(&self, dc: DataCenterId, hour: u64) -> bool {
        self.down.iter().any(|&(h, d)| d == dc && hour >= h)
    }

    /// The preferred-mapping override active at `hour`, if any (the latest
    /// flip whose hour has passed).
    pub fn preferred_override(&self, hour: u64) -> Option<DataCenterId> {
        self.flips
            .iter()
            .rev()
            .find(|&&(h, _)| hour >= h)
            .map(|&(_, dc)| dc)
    }

    /// The cache-eviction timetable, for seeding a
    /// [`ContentStore`](crate::placement::ContentStore).
    pub fn evictions(&self) -> &[(u64, f64)] {
        &self.evictions
    }

    /// Applies the DNS-level mutations to a resolution made at week-hour
    /// `hour` under `policy`. Pure — no RNG, no clock — so a remap never
    /// shifts a session's random stream.
    pub fn remap(&self, decision: DnsDecision, hour: u64, policy: &LdnsPolicy) -> DnsDecision {
        if self.is_empty() {
            return decision;
        }
        let mut decision = decision;
        if decision.cause == DnsCause::Preferred {
            if let Some(to) = self.preferred_override(hour) {
                if !self.is_down(to, hour) {
                    decision.dc = to;
                }
            }
        }
        if self.is_down(decision.dc, hour) {
            if let Some(&up) = policy
                .alternates
                .iter()
                .find(|&&d| d != decision.dc && !self.is_down(d, hour))
            {
                decision.dc = up;
            }
        }
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::{ContentStore, PlacementConfig};

    fn topo() -> Topology {
        Topology::standard()
    }

    fn dc_named(topo: &Topology, city: &str) -> DataCenterId {
        topo.analysis_dcs()
            .find(|d| d.city.name == city)
            .map(|d| d.id)
            .unwrap()
    }

    fn parse(s: &str) -> MutationSpec {
        s.parse().unwrap()
    }

    /// A content store with `schedule`'s evictions installed.
    fn store(topo: &Topology, schedule: &MutationSchedule) -> ContentStore {
        let mut store = ContentStore::new(PlacementConfig::default(), topo);
        store.set_evictions(schedule.evictions().to_vec());
        store
    }

    #[test]
    fn specs_parse() {
        assert_eq!(
            parse("dc-down@72:milan"),
            MutationSpec {
                hour: 72,
                kind: MutationSpecKind::DcDown {
                    city: "milan".into()
                }
            }
        );
        assert_eq!(
            parse("prefer-flip@0:Frankfurt"),
            MutationSpec {
                hour: 0,
                kind: MutationSpecKind::PreferFlip {
                    city: "Frankfurt".into()
                }
            }
        );
        assert_eq!(
            parse("cache-evict@84:0.25"),
            MutationSpec {
                hour: 84,
                kind: MutationSpecKind::CacheEvict { factor: 0.25 }
            }
        );
    }

    #[test]
    fn bad_specs_rejected() {
        for bad in [
            "dc-down",
            "dc-down@72",
            "dc-down@xx:milan",
            "dc-down@200:milan",
            "cache-evict@10:zero",
            "cache-evict@10:0.0",
            "cache-evict@10:1.5",
            "teleport@10:milan",
        ] {
            let err = bad.parse::<MutationSpec>().unwrap_err();
            assert_eq!(err.spec, bad, "{bad}");
            assert!(err.to_string().contains("invalid mutation"), "{bad}");
        }
    }

    #[test]
    fn compile_resolves_cities_loosely() {
        let topo = topo();
        let schedule = MutationSchedule::compile(
            &[
                parse("dc-down@72:MILAN"),
                parse("prefer-flip@96:st_ghislain"),
            ],
            &topo,
        )
        .unwrap();
        let milan = dc_named(&topo, "Milan");
        let ghislain = dc_named(&topo, "St Ghislain");
        assert!(schedule.is_down(milan, 72));
        assert_eq!(schedule.preferred_override(96), Some(ghislain));
    }

    #[test]
    fn compile_rejects_unknown_city() {
        let err = MutationSchedule::compile(&[parse("dc-down@72:atlantis")], &topo()).unwrap_err();
        assert!(err.to_string().contains("no analysis data center"));
    }

    #[test]
    fn mutations_inactive_before_their_hour() {
        let topo = topo();
        let schedule = MutationSchedule::compile(
            &[
                parse("dc-down@72:milan"),
                parse("prefer-flip@96:frankfurt"),
                parse("cache-evict@120:0.5"),
            ],
            &topo,
        )
        .unwrap();
        let milan = dc_named(&topo, "Milan");
        assert!(!schedule.is_down(milan, 71));
        assert!(schedule.is_down(milan, 72));
        assert_eq!(schedule.preferred_override(95), None);
        assert_eq!(
            schedule.preferred_override(100),
            Some(dc_named(&topo, "Frankfurt"))
        );
        let store = store(&topo, &schedule);
        assert_eq!(store.evict_factor(119), 1.0);
        assert_eq!(store.evict_factor(120), 0.5);
        assert_eq!(schedule.effective_hours(), vec![72, 96, 120]);
    }

    #[test]
    fn remap_drains_down_dc_to_first_up_alternate() {
        let topo = topo();
        let milan = dc_named(&topo, "Milan");
        let paris = dc_named(&topo, "Paris");
        let schedule = MutationSchedule::compile(&[parse("dc-down@72:milan")], &topo).unwrap();
        let policy = LdnsPolicy {
            preferred: milan,
            alternates: vec![paris],
            noise_prob: 0.0,
            hourly_capacity: None,
        };
        let to_milan = DnsDecision {
            dc: milan,
            cause: DnsCause::Preferred,
        };
        assert_eq!(schedule.remap(to_milan, 71, &policy).dc, milan);
        assert_eq!(schedule.remap(to_milan, 72, &policy).dc, paris);
        // A decision already pointing elsewhere is untouched.
        let to_paris = DnsDecision {
            dc: paris,
            cause: DnsCause::Noise,
        };
        assert_eq!(schedule.remap(to_paris, 100, &policy), to_paris);
    }

    #[test]
    fn remap_flips_preferred_decisions_only() {
        let topo = topo();
        let milan = dc_named(&topo, "Milan");
        let frankfurt = dc_named(&topo, "Frankfurt");
        let paris = dc_named(&topo, "Paris");
        let schedule =
            MutationSchedule::compile(&[parse("prefer-flip@72:frankfurt")], &topo).unwrap();
        let policy = LdnsPolicy {
            preferred: milan,
            alternates: vec![paris],
            noise_prob: 0.0,
            hourly_capacity: None,
        };
        let preferred = DnsDecision {
            dc: milan,
            cause: DnsCause::Preferred,
        };
        let noise = DnsDecision {
            dc: paris,
            cause: DnsCause::Noise,
        };
        assert_eq!(schedule.remap(preferred, 80, &policy).dc, frankfurt);
        assert_eq!(schedule.remap(preferred, 71, &policy).dc, milan);
        assert_eq!(schedule.remap(noise, 80, &policy).dc, paris);
    }

    #[test]
    fn empty_schedule_is_identity() {
        let topo = topo();
        let milan = dc_named(&topo, "Milan");
        let schedule = MutationSchedule::default();
        assert!(schedule.is_empty());
        assert_eq!(store(&topo, &schedule).evict_factor(100), 1.0);
        assert!(schedule.effective_hours().is_empty());
        let policy = LdnsPolicy {
            preferred: milan,
            alternates: vec![],
            noise_prob: 0.0,
            hourly_capacity: None,
        };
        let d = DnsDecision {
            dc: milan,
            cause: DnsCause::Preferred,
        };
        assert_eq!(schedule.remap(d, 72, &policy), d);
    }
}

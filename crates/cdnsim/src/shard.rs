//! Deterministic sharded execution of the session engine.
//!
//! [`Engine::run`](crate::Engine::run) simulates a vantage point's week
//! strictly sequentially. This module splits that week into K contiguous
//! hour slices and simulates them on K threads while producing output
//! **byte-identical** to the sequential engine — the differential harness
//! in `tests/sharding_differential.rs` asserts exactly that for
//! K ∈ {2, 4, 7, 16}, and `scenario::tests` pins K = 1 (which
//! [`StandardScenario::run_with_outcome_sharded`](crate::StandardScenario::run_with_outcome_sharded)
//! never takes: one shard has no boundary, so it runs the live engine).
//!
//! # Why exact sharding is possible
//!
//! The engine's mutable state decomposes by *lifetime*:
//!
//! * **Per-session**: every RNG draw comes from a stream keyed by the
//!   session's global ordinal ([`crate::rng`]), so no draw leaks between
//!   sessions.
//! * **Per-hour**: the DNS capacity counters (`dns.rs`) and the server
//!   arrival counters (`engine.rs`) are keyed by `(entity, hour)` where
//!   `hour` is derived from the session start time. Hour-aligned shards
//!   therefore own this state outright: a fresh, empty map per shard
//!   evolves exactly as the sequential one does within those hours.
//! * **Cross-hour**: only content replication (`ContentStore::replicate`)
//!   survives hour boundaries. But pull-through replication is *monotone*
//!   (availability is only ever added) and is triggered on **every** miss,
//!   so whether session N misses at data center D depends only on the
//!   initial placement and on whether any earlier session was routed to D
//!   for the same video — not on flows, arrivals, or overload handling.
//!
//! That last fact yields the three-pass algorithm:
//!
//! 1. **Prepass** (parallel): each shard replays only the session
//!    *preludes* of its hours — cheap draws, no flow emission — logging
//!    each Google-routed session's `(ordinal, data center, video)`.
//! 2. **Merge** (sequential, O(Google sessions)): walk the access logs in
//!    global order against the initial placement, assigning each
//!    first-missing `(data center, video)` pair the ordinal that pulls it.
//!    The result is the [`ReplicationSchedule`] — the store's entire
//!    evolution as a timeline.
//! 3. **Simulate** (parallel): each shard runs the full engine over its
//!    hours with a copy-on-advance store view: content is present iff the
//!    initial placement has it or the schedule pulled it at an ordinal
//!    before the session being simulated.
//!
//! Concatenating the shards' flow buffers in shard order reproduces the
//! sequential record order, so the final `Dataset` (and every outcome
//! counter, which is a plain per-session sum) is identical.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use ytcdn_telemetry::Telemetry;
use ytcdn_tstat::{FlowRecord, VideoId, HOUR_MS};

use crate::engine::{Engine, SessionOutcome};
use crate::placement::ContentStore;
use crate::topology::DataCenterId;
use crate::workload::{WorkloadModel, WEEK_HOURS};

/// One Google-routed session's first store contact, logged by the prepass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StoreAccess {
    /// Global session ordinal (position in the week's session order).
    pub ordinal: u64,
    /// Session start time, ms since trace start.
    pub t_ms: u64,
    /// The data center DNS mapped the session to.
    pub dc: DataCenterId,
    /// The requested video.
    pub video: VideoId,
}

/// The merged replication timeline of one dataset's week: for every
/// `(data center, video)` pair pulled during the run, the global ordinal of
/// the session whose miss pulled it.
///
/// Shard workers read this instead of mutating a shared [`ContentStore`]:
/// content is available to session `n` exactly when its pull ordinal is
/// less than `n`.
#[derive(Debug, Default)]
pub struct ReplicationSchedule {
    pulls: HashMap<(DataCenterId, VideoId), u64>,
    boundary_fills: u64,
}

impl ReplicationSchedule {
    /// The ordinal whose session pulled `video` into `dc`, if any.
    pub(crate) fn pulled_at(&self, dc: DataCenterId, video: VideoId) -> Option<u64> {
        self.pulls.get(&(dc, video)).copied()
    }

    /// Number of pull-through replications over the week.
    pub fn len(&self) -> usize {
        self.pulls.len()
    }

    /// Whether the week pulled nothing (e.g. the replication ablation).
    pub fn is_empty(&self) -> bool {
        self.pulls.is_empty()
    }

    /// Accesses served by a replica that an *earlier shard's* session
    /// pulled — the boundary-crossing cache fills the merge pass exists to
    /// reconcile. Everything else is shard-local.
    pub fn boundary_fills(&self) -> u64 {
        self.boundary_fills
    }
}

/// Splits the simulated week into `shards` contiguous, non-empty hour
/// ranges with approximately equal *expected session counts* (weighting
/// hours by the diurnal profile), so shard wall-clock stays balanced even
/// though nights are nearly idle.
///
/// `shards` is clamped to `[1, 168]`; the ranges always partition
/// `0..WEEK_HOURS`.
///
/// # Examples
///
/// ```
/// use ytcdn_cdnsim::{shard_hour_ranges, WorkloadModel, WEEK_HOURS};
///
/// let model = WorkloadModel::new(100_000, 0.0);
/// let ranges = shard_hour_ranges(&model, 4);
/// assert_eq!(ranges.len(), 4);
/// assert_eq!(ranges[0].start, 0);
/// assert_eq!(ranges[3].end, WEEK_HOURS);
/// ```
pub fn shard_hour_ranges(model: &WorkloadModel, shards: usize) -> Vec<Range<u64>> {
    let k = shards.clamp(1, WEEK_HOURS as usize) as u64;
    let weights: Vec<f64> = (0..WEEK_HOURS).map(|h| model.hour_weight(h)).collect();
    let total: f64 = weights.iter().sum();
    let mut ranges = Vec::with_capacity(k as usize);
    let mut hour = 0u64;
    let mut cum = 0.0;
    for i in 0..k {
        let start = hour;
        let target = total * (i + 1) as f64 / k as f64;
        // Leave at least one hour for each remaining shard, and take at
        // least one ourselves.
        let max_end = WEEK_HOURS - (k - i - 1);
        while hour < max_end && (hour == start || cum < target) {
            cum += weights[hour as usize];
            hour += 1;
        }
        ranges.push(start..hour);
    }
    debug_assert_eq!(hour, WEEK_HOURS);
    ranges
}

/// Pass 2: replays the prepass access logs in global session order against
/// the initial placement, assigning each first-missing pair its pull
/// ordinal. `shards` must hold the per-shard logs in shard (= global)
/// order.
pub(crate) fn merge_replication_schedule(
    base: &ContentStore,
    disable_replication: bool,
    shards: &[Vec<StoreAccess>],
) -> ReplicationSchedule {
    let mut schedule = ReplicationSchedule::default();
    for accesses in shards {
        let shard_first = accesses.first().map_or(0, |a| a.ordinal);
        for a in accesses {
            if let Some(pulled) = schedule.pulls.get(&(a.dc, a.video)) {
                debug_assert!(*pulled < a.ordinal);
                if *pulled < shard_first {
                    schedule.boundary_fills += 1;
                }
                continue;
            }
            // Presence is evaluated at the access's week-hour: a scheduled
            // cache eviction can turn a pair that hit early in the week
            // into a miss (and thus a pull) later — exactly as the live
            // store would, since pulled replicas are exempt from eviction.
            if base.has_at(a.dc, a.video, a.t_ms / HOUR_MS) {
                continue;
            }
            // First miss of this (data center, video) pair: in the full
            // run this session pulls the video through, whatever redirect
            // chain it takes to find it.
            if !disable_replication {
                schedule.pulls.insert((a.dc, a.video), a.ordinal);
            }
        }
    }
    schedule
}

/// Runs one dataset's week sharded across `shards` worker threads,
/// byte-identical to the sequential engine at the same seed.
///
/// `make_engine(instrumented)` must build a fresh engine for the same
/// (world, vantage point, seed) each call; it is invoked once per shard
/// without telemetry for the prepass and once per shard with telemetry for
/// the simulation pass, so metrics are recorded exactly once per session.
/// `base_store` must equal the store `make_engine` hands its engines.
pub(crate) fn run_sharded<'w, F>(
    shards: usize,
    model: &WorkloadModel,
    base_store: &ContentStore,
    disable_replication: bool,
    tel: &Telemetry,
    make_engine: F,
) -> (Vec<FlowRecord>, SessionOutcome)
where
    F: Fn(bool) -> Engine<'w> + Sync,
{
    let ranges = shard_hour_ranges(model, shards);

    // Pass 1: parallel prelude replay.
    let accesses: Vec<Vec<StoreAccess>> = std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .iter()
            .cloned()
            .map(|range| {
                let make_engine = &make_engine;
                scope.spawn(move || {
                    let _span = tel.span("scenario.shard.prepass");
                    make_engine(false).prepass_hours(range)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });

    // Pass 2: sequential merge into the replication timeline.
    let schedule = {
        let _span = tel.span("scenario.shard.merge");
        let schedule = merge_replication_schedule(base_store, disable_replication, &accesses);
        tel.counter("shard.pulls_scheduled")
            .add(schedule.len() as u64);
        tel.counter("shard.boundary_fills")
            .add(schedule.boundary_fills());
        Arc::new(schedule)
    };

    // Pass 3: parallel full simulation against the timeline view.
    let outputs: Vec<(Vec<FlowRecord>, SessionOutcome)> = std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .iter()
            .cloned()
            .map(|range| {
                let make_engine = &make_engine;
                let schedule = Arc::clone(&schedule);
                scope.spawn(move || {
                    let _span = tel.span("scenario.shard.sim");
                    make_engine(true)
                        .with_replication_timeline(schedule)
                        .run_hours(range)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });

    // Deterministic merge: shard order is global session order, and every
    // outcome field is a per-session sum.
    let mut records = Vec::with_capacity(outputs.iter().map(|(r, _)| r.len()).sum());
    let mut outcome = SessionOutcome::default();
    for (shard_records, shard_outcome) in outputs {
        records.extend(shard_records);
        outcome.absorb(shard_outcome);
    }
    debug_assert_eq!(outcome.replications as usize, schedule.len());
    (records, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> WorkloadModel {
        WorkloadModel::new(100_000, 0.0)
    }

    #[test]
    fn ranges_partition_the_week() {
        for k in [1, 2, 4, 7, 16, 168] {
            let ranges = shard_hour_ranges(&model(), k);
            assert_eq!(ranges.len(), k, "k={k}");
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges.last().unwrap().end, WEEK_HOURS);
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start, "k={k}: gap or overlap");
            }
            assert!(ranges.iter().all(|r| r.start < r.end), "k={k}: empty range");
        }
    }

    #[test]
    fn shard_count_is_clamped() {
        assert_eq!(shard_hour_ranges(&model(), 0).len(), 1);
        assert_eq!(
            shard_hour_ranges(&model(), 9_999).len(),
            WEEK_HOURS as usize
        );
    }

    #[test]
    fn ranges_balance_expected_load() {
        let m = model();
        let ranges = shard_hour_ranges(&m, 8);
        let loads: Vec<f64> = ranges
            .iter()
            .map(|r| r.clone().map(|h| m.hour_weight(h)).sum())
            .collect();
        let mean = loads.iter().sum::<f64>() / loads.len() as f64;
        for (i, l) in loads.iter().enumerate() {
            assert!(
                (0.5..2.0).contains(&(l / mean)),
                "shard {i} load {l} vs mean {mean}"
            );
        }
        // And an equal-hours split would NOT be balanced: the diurnal
        // trough-to-peak ratio guarantees that.
        let naive: Vec<f64> = (0..8)
            .map(|i| (i * 21..(i + 1) * 21).map(|h| m.hour_weight(h)).sum())
            .collect();
        let naive_spread = naive.iter().cloned().fold(f64::MIN, f64::max)
            / naive.iter().cloned().fold(f64::MAX, f64::min);
        let ours_spread = loads.iter().cloned().fold(f64::MIN, f64::max)
            / loads.iter().cloned().fold(f64::MAX, f64::min);
        assert!(ours_spread <= naive_spread + 1e-9);
    }

    #[test]
    fn merge_assigns_first_miss_and_counts_boundary_fills() {
        use crate::topology::Topology;

        let topo = Topology::standard();
        let store = ContentStore::new(Default::default(), &topo);
        // Find a (dc, video) pair the initial placement does not hold.
        let dcs = store.dcs().to_vec();
        let (dc, video) = dcs
            .iter()
            .flat_map(|&d| (900_000..900_050).map(move |i| (d, VideoId::from_index(i))))
            .find(|&(d, v)| !store.has(d, v))
            .expect("some cold pair exists");
        let access = |ordinal| StoreAccess {
            ordinal,
            t_ms: 0,
            dc,
            video,
        };
        // Shard 0 misses at ordinal 3 (pull), re-hits at 5 (local fill);
        // shard 1 hits at 10 (boundary fill).
        let shards = vec![vec![access(3), access(5)], vec![access(10)]];
        let schedule = merge_replication_schedule(&store, false, &shards);
        assert_eq!(schedule.pulled_at(dc, video), Some(3));
        assert_eq!(schedule.len(), 1);
        assert_eq!(schedule.boundary_fills(), 1);

        // The ablation never replicates.
        let disabled = merge_replication_schedule(&store, true, &shards);
        assert!(disabled.is_empty());
        assert_eq!(disabled.pulled_at(dc, video), None);
    }
}

//! Content placement and pull-through replication.
//!
//! Section VII-C of the paper hypothesizes (and confirms with PlanetLab
//! experiments) that "videos that are rarely accessed may be unavailable at
//! the preferred data center, causing the user requests to be redirected to
//! non-preferred data centers until the video is found", and that after the
//! first access the video becomes available locally ("subsequent accesses
//! are typically handled from the preferred data center").
//!
//! [`ContentStore`] models that: popular videos are replicated everywhere,
//! the warm tail is present at each data center with some probability
//! (demand before the trace week already pulled most of it), the cold tail
//! (recent uploads) exists only at its origin data center, and every miss
//! repairs itself by replicating the video into the missing data center.

use std::collections::HashSet;

use ytcdn_netsim::splitmix64;
use ytcdn_tstat::VideoId;

use crate::topology::{DataCenterId, Topology};

/// Videos with rank below this are replicated at every data center.
pub(crate) const POPULAR_BELOW_RANK: u64 = 20_000;

/// Videos with rank at or above this are "recent uploads": present only at
/// their origin until pulled.
const FRESH_ABOVE_RANK: u64 = 850_000;

/// Seed for the deterministic origin and presence draws.
const PRESENCE_SEED: u64 = 0xCDC5_11AD;

/// Parameters of the placement model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementConfig {
    /// Probability that a warm-tail video (ranked between the popular head
    /// and the recent uploads) is already present at a given data center
    /// when the trace starts.
    pub warm_presence_prob: f64,
}

impl Default for PlacementConfig {
    fn default() -> Self {
        Self {
            warm_presence_prob: 0.97,
        }
    }
}

/// Which data centers hold which videos, including replication performed
/// during the simulated week.
#[derive(Debug, Clone)]
pub struct ContentStore {
    config: PlacementConfig,
    /// The analysis data centers (content is only tracked for those; legacy
    /// pools serve whatever they serve).
    dcs: Vec<DataCenterId>,
    /// Videos pulled into a data center during the run.
    replicated: HashSet<(DataCenterId, VideoId)>,
    /// Videos with a pinned origin (uploaded via [`ContentStore::upload`]),
    /// used by the controlled active experiment.
    uploads: Vec<(VideoId, DataCenterId)>,
    /// Scheduled warm-tail evictions: (effective week-hour, surviving
    /// fraction of the presence threshold), sorted by hour. Empty unless a
    /// `cache-evict` mutation is scheduled.
    evictions: Vec<(u64, f64)>,
}

impl ContentStore {
    /// Creates a store over the analysis data centers of `topology`.
    pub fn new(config: PlacementConfig, topology: &Topology) -> Self {
        let dcs = topology.analysis_dcs().map(|d| d.id).collect();
        Self {
            config,
            dcs,
            replicated: HashSet::new(),
            uploads: Vec::new(),
            evictions: Vec::new(),
        }
    }

    /// Installs a warm-tail eviction timetable (from a
    /// [`MutationSchedule`](crate::mutation::MutationSchedule)): at each
    /// `(hour, factor)` entry the presence threshold becomes
    /// `warm_presence_prob * factor`. Because every presence draw is a fixed
    /// hash of `(video, dc)`, shrinking the threshold evicts a deterministic
    /// subset of the warm tail — and the set present at a smaller factor is
    /// always a subset of the set present at a larger one.
    pub fn set_evictions(&mut self, evictions: Vec<(u64, f64)>) {
        self.evictions = evictions;
        self.evictions.sort_by_key(|&(hour, _)| hour);
    }

    /// Registers a brand-new upload stored only at `origin` (and at data
    /// centers that later pull it). Mirrors the paper's test video upload.
    pub fn upload(&mut self, video: VideoId, origin: DataCenterId) {
        self.uploads.push((video, origin));
    }

    /// The origin data center of a video: the one replica every video is
    /// guaranteed to have.
    pub fn origin_of(&self, video: VideoId) -> DataCenterId {
        if let Some(&(_, origin)) = self.uploads.iter().find(|(v, _)| *v == video) {
            return origin;
        }
        let h = splitmix64(video.index() ^ PRESENCE_SEED);
        self.dcs[(h % self.dcs.len() as u64) as usize]
    }

    /// Whether `dc` holds `video` at the trace start (week-hour 0). With no
    /// evictions scheduled — the default — presence never varies over the
    /// week, and this is the presence predicate outright.
    pub fn has(&self, dc: DataCenterId, video: VideoId) -> bool {
        self.has_at(dc, video, 0)
    }

    /// Whether `dc` holds `video` at week-hour `hour`. Replicas pulled
    /// during the run and pinned uploads are exempt from eviction; only the
    /// warm-tail presence threshold shrinks when a scheduled eviction is in
    /// effect.
    ///
    /// The rank tests come before the replica lookup: a popular video that
    /// is not a pinned upload is present everywhere, replica or not.
    pub fn has_at(&self, dc: DataCenterId, video: VideoId, hour: u64) -> bool {
        if let Some(&(_, origin)) = self.uploads.iter().find(|(v, _)| *v == video) {
            return dc == origin || self.replicated.contains(&(dc, video));
        }
        let rank = video.index();
        if rank < POPULAR_BELOW_RANK || self.replicated.contains(&(dc, video)) {
            return true;
        }
        if self.origin_of(video) == dc {
            return true;
        }
        if rank >= FRESH_ABOVE_RANK {
            return false;
        }
        // Warm tail: deterministic presence draw per (video, dc).
        let h = splitmix64(splitmix64(video.index() ^ PRESENCE_SEED).wrapping_add(dc.0 as u64));
        let threshold = self.config.warm_presence_prob * self.evict_factor(hour);
        (h >> 11) as f64 / (1u64 << 53) as f64 <= threshold
    }

    /// The surviving warm-tail factor at `hour`: the smallest factor among
    /// evictions already in effect, 1.0 before any.
    pub(crate) fn evict_factor(&self, hour: u64) -> f64 {
        self.evictions
            .iter()
            .filter(|&&(h, _)| hour >= h)
            .map(|&(_, f)| f)
            .fold(1.0, f64::min)
    }

    /// Pulls `video` into `dc` (pull-through replication after a miss).
    /// Idempotent; returns whether the replica is new (used by telemetry to
    /// count replications the same way [`ContentStore::replications`] does).
    pub fn replicate(&mut self, dc: DataCenterId, video: VideoId) -> bool {
        self.replicated.insert((dc, video))
    }

    /// Number of replications performed during the run.
    pub fn replications(&self) -> usize {
        self.replicated.len()
    }

    /// A deterministic "guess" data center distinct from `not` — where a
    /// redirecting server *believes* the content is. The guess can be wrong,
    /// which produces the paper's 3-flow redirect chains.
    pub fn guess_holder(&self, video: VideoId, not: DataCenterId) -> DataCenterId {
        let h = splitmix64(video.index().wrapping_mul(0x5851_f42d_4c95_7f2d) ^ 0xABCD);
        let mut idx = (h % self.dcs.len() as u64) as usize;
        if self.dcs[idx] == not {
            idx = (idx + 1) % self.dcs.len();
        }
        self.dcs[idx]
    }

    /// The analysis data centers this store tracks.
    pub fn dcs(&self) -> &[DataCenterId] {
        &self.dcs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    fn store() -> ContentStore {
        ContentStore::new(PlacementConfig::default(), &Topology::standard())
    }

    #[test]
    fn popular_videos_everywhere() {
        let s = store();
        let v = VideoId::from_index(5);
        for &dc in s.dcs() {
            assert!(s.has(dc, v));
        }
    }

    #[test]
    fn fresh_videos_only_at_origin() {
        let s = store();
        let v = VideoId::from_index(900_000);
        let origin = s.origin_of(v);
        for &dc in s.dcs() {
            assert_eq!(s.has(dc, v), dc == origin, "{dc}");
        }
    }

    #[test]
    fn warm_tail_mostly_but_not_always_present() {
        let s = store();
        let mut present = 0usize;
        let mut total = 0usize;
        for i in 0..2_000u64 {
            let v = VideoId::from_index(100_000 + i);
            for &dc in s.dcs() {
                total += 1;
                if s.has(dc, v) {
                    present += 1;
                }
            }
        }
        let frac = present as f64 / total as f64;
        assert!((0.93..0.98).contains(&frac), "warm presence {frac}");
    }

    #[test]
    fn origin_always_has_content() {
        let s = store();
        for i in [0u64, 50_000, 300_000, 700_000, 999_999] {
            let v = VideoId::from_index(i);
            assert!(s.has(s.origin_of(v), v), "rank {i}");
        }
    }

    #[test]
    fn replication_repairs_miss() {
        let mut s = store();
        let v = VideoId::from_index(950_000);
        let origin = s.origin_of(v);
        let other = s.dcs().iter().copied().find(|&d| d != origin).unwrap();
        assert!(!s.has(other, v));
        s.replicate(other, v);
        assert!(s.has(other, v));
        assert_eq!(s.replications(), 1);
        // Idempotent.
        s.replicate(other, v);
        assert_eq!(s.replications(), 1);
    }

    #[test]
    fn upload_pins_origin() {
        let mut s = store();
        let v = VideoId::from_index(u64::MAX - 7);
        let origin = s.dcs()[3];
        s.upload(v, origin);
        assert_eq!(s.origin_of(v), origin);
        for &dc in s.dcs() {
            assert_eq!(s.has(dc, v), dc == origin);
        }
    }

    #[test]
    fn guess_holder_never_equals_excluded() {
        let s = store();
        for i in 0..500u64 {
            let v = VideoId::from_index(i * 37);
            for &dc in s.dcs().iter().take(5) {
                assert_ne!(s.guess_holder(v, dc), dc);
            }
        }
    }

    #[test]
    fn presence_is_deterministic() {
        let a = store();
        let b = store();
        for i in (0..1_000u64).map(|i| i * 991) {
            let v = VideoId::from_index(i);
            for &dc in a.dcs() {
                assert_eq!(a.has(dc, v), b.has(dc, v));
            }
        }
    }

    #[test]
    fn eviction_shrinks_warm_tail_monotonically() {
        let mut s = store();
        s.set_evictions(vec![(72, 0.5)]);
        let mut before = 0usize;
        let mut after = 0usize;
        for i in 0..2_000u64 {
            let v = VideoId::from_index(100_000 + i);
            for &dc in s.dcs() {
                let b = s.has_at(dc, v, 71);
                let a = s.has_at(dc, v, 72);
                assert!(!a || b, "evicted set must be a subset of the warm set");
                before += usize::from(b);
                after += usize::from(a);
            }
        }
        assert!(
            after < before,
            "eviction removed nothing ({before} -> {after})"
        );
        assert!(
            after > before / 3,
            "eviction removed nearly everything ({before} -> {after})"
        );
        // Pulled replicas and uploads are exempt.
        let v = VideoId::from_index(950_000);
        let origin = s.origin_of(v);
        let other = s.dcs().iter().copied().find(|&d| d != origin).unwrap();
        s.replicate(other, v);
        assert!(s.has_at(other, v, 100));
        assert!(s.has_at(origin, v, 100));
    }

    /// `has_at` with the replica lookup first, as it was written before
    /// the rank tests moved ahead of it.
    fn has_at_replica_first(s: &ContentStore, dc: DataCenterId, video: VideoId, hour: u64) -> bool {
        if s.replicated.contains(&(dc, video)) {
            return true;
        }
        if let Some(&(_, origin)) = s.uploads.iter().find(|(v, _)| *v == video) {
            return dc == origin;
        }
        let rank = video.index();
        if rank < POPULAR_BELOW_RANK {
            return true;
        }
        if s.origin_of(video) == dc {
            return true;
        }
        if rank >= FRESH_ABOVE_RANK {
            return false;
        }
        let h = splitmix64(splitmix64(video.index() ^ PRESENCE_SEED).wrapping_add(dc.0 as u64));
        let threshold = s.config.warm_presence_prob * s.evict_factor(hour);
        (h >> 11) as f64 / (1u64 << 53) as f64 <= threshold
    }

    #[test]
    fn has_at_agrees_with_the_replica_first_order() {
        let mut s = store();
        s.set_evictions(vec![(72, 0.5), (120, 0.8)]);
        let dcs = s.dcs().to_vec();
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let mut next = |bound: u64| {
            x = splitmix64(x);
            x % bound
        };
        // Every rank band: popular, warm tail and fresh uploads, each
        // threshold's neighbours, and ids far outside the catalog.
        let bands = [
            0,
            19_999,
            20_000,
            500_000,
            849_999,
            850_000,
            999_999,
            u64::MAX - 64,
        ];
        let video = |next: &mut dyn FnMut(u64) -> u64| {
            VideoId::from_index(bands[next(bands.len() as u64) as usize].saturating_add(next(40)))
        };
        // Pinned uploads, popular and not, and replicas of every kind.
        for k in 0..12 {
            s.upload(video(&mut next), dcs[k % dcs.len()]);
        }
        for _ in 0..400 {
            let (dc, v) = (dcs[next(dcs.len() as u64) as usize], video(&mut next));
            s.replicate(dc, v);
        }
        for _ in 0..20_000 {
            let (dc, v, hour) = (
                dcs[next(dcs.len() as u64) as usize],
                video(&mut next),
                next(168),
            );
            assert_eq!(
                s.has_at(dc, v, hour),
                has_at_replica_first(&s, dc, v, hour),
                "{dc} {v:?} {hour}"
            );
        }
    }

    #[test]
    fn origins_are_spread_across_dcs() {
        let s = store();
        let mut hit: HashSet<DataCenterId> = HashSet::new();
        for i in 0..3_000u64 {
            hit.insert(s.origin_of(VideoId::from_index(600_000 + i)));
        }
        assert!(hit.len() > 25, "origins hit only {} DCs", hit.len());
    }
}

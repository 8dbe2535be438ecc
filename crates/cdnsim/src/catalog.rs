//! The video catalog: Zipf popularity, durations, resolutions, and
//! "video of the day" flash crowds.
//!
//! Section VII-C of the paper traces the four videos with the most
//! non-preferred accesses and finds they "were played by default when
//! accessing the www.youtube.com web page for exactly 24 hours, i.e., they
//! are the 'video of the day'" — short-lived flash crowds that overload the
//! one server holding the video. The catalog therefore has two parts: a
//! static Zipf-popularity body with the heavy one-hit tail characteristic of
//! user-generated content, and a schedule of 24-hour promotion windows that
//! multiply a chosen video's request rate.

use crate::rng::SimRng;
use ytcdn_tstat::{Resolution, VideoId, DAY_MS};

/// Static per-video metadata.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VideoMeta {
    /// The video's identifier.
    pub id: VideoId,
    /// Popularity rank (0 = most popular).
    pub rank: u64,
    /// Playback duration in seconds.
    pub duration_s: u32,
}

/// One 24-hour front-page promotion window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VotdWindow {
    /// The promoted video.
    pub video: VideoId,
    /// Window start, ms since trace start.
    pub start_ms: u64,
    /// Window end (exclusive), ms since trace start.
    pub end_ms: u64,
}

/// The week's worth of "video of the day" promotions.
///
/// # Examples
///
/// ```
/// use ytcdn_cdnsim::VotdSchedule;
///
/// let sched = VotdSchedule::daily_for_week(1000);
/// assert_eq!(sched.windows().len(), 7);
/// assert!(sched.active_at(0).is_some());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VotdSchedule {
    windows: Vec<VotdWindow>,
}

impl VotdSchedule {
    /// No promotions at all (for ablations).
    pub fn none() -> Self {
        Self {
            windows: Vec::new(),
        }
    }

    /// One promotion per day of the simulated week. The promoted videos are
    /// `base_index, base_index + 1, …, base_index + 6`: fresh, previously
    /// cold catalog entries, exactly like a newly-featured upload.
    pub fn daily_for_week(base_index: u64) -> Self {
        let windows = (0..7)
            .map(|day| VotdWindow {
                video: VideoId::from_index(base_index + day),
                start_ms: day * DAY_MS,
                end_ms: (day + 1) * DAY_MS,
            })
            .collect();
        Self { windows }
    }

    /// All windows in schedule order.
    pub fn windows(&self) -> &[VotdWindow] {
        &self.windows
    }

    /// The window active at time `t_ms`, if any.
    pub fn active_at(&self, t_ms: u64) -> Option<&VotdWindow> {
        self.windows
            .iter()
            .find(|w| w.start_ms <= t_ms && t_ms < w.end_ms)
    }
}

/// Parameters of the catalog's popularity model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CatalogConfig {
    /// Number of videos in the catalog body.
    pub num_videos: u64,
    /// Zipf exponent of the body popularity distribution.
    pub zipf_exponent: f64,
    /// Probability that a request during a promotion window goes to the
    /// promoted video instead of the catalog body.
    pub votd_share: f64,
}

impl Default for CatalogConfig {
    fn default() -> Self {
        Self {
            num_videos: 1_000_000,
            zipf_exponent: 0.9,
            votd_share: 0.06,
        }
    }
}

/// The video catalog: samples which video a request is for.
///
/// Durations are derived deterministically from the video index (median
/// around 3.5 minutes, long-tailed), so every part of the simulation agrees
/// on a video's size without a shared table.
#[derive(Debug, Clone)]
pub struct VideoCatalog {
    config: CatalogConfig,
    votd: VotdSchedule,
    /// Normalization constant of the truncated zeta distribution.
    harmonic: f64,
    /// `n^(1 - s) - 1`, the span of the inverse-transform Zipf draw
    /// (unused when `s` = 1).
    zipf_span: f64,
}

impl VideoCatalog {
    /// Creates a catalog.
    ///
    /// # Panics
    ///
    /// Panics if `config.num_videos == 0`, if the exponent is not positive,
    /// or if `votd_share` is outside `[0, 1)`.
    pub fn new(config: CatalogConfig, votd: VotdSchedule) -> Self {
        assert!(config.num_videos > 0, "catalog cannot be empty");
        assert!(config.zipf_exponent > 0.0, "zipf exponent must be positive");
        assert!(
            (0.0..1.0).contains(&config.votd_share),
            "votd share must be in [0, 1)"
        );
        // Approximate the generalized harmonic number H_{n,s} analytically:
        // exact summation over 10^6 ranks is wasteful and this constant only
        // normalizes a sampling weight.
        let n = config.num_videos as f64;
        let s = config.zipf_exponent;
        let zipf_span = n.powf(1.0 - s) - 1.0;
        let harmonic = if (s - 1.0).abs() < 1e-9 {
            n.ln() + 0.577_215_664_9
        } else {
            zipf_span / (1.0 - s) + 0.5 * (1.0 + n.powf(-s))
        };
        Self {
            config,
            votd,
            harmonic,
            zipf_span,
        }
    }

    /// Creates the default million-video catalog with one promotion per day
    /// starting right after the most popular `num_videos / 2` indices, i.e.
    /// cold entries.
    pub fn standard() -> Self {
        let config = CatalogConfig::default();
        // Promoted videos sit in the cold tail: freshly uploaded content.
        let votd = VotdSchedule::daily_for_week(config.num_videos / 2);
        Self::new(config, votd)
    }

    /// The configuration.
    pub fn config(&self) -> &CatalogConfig {
        &self.config
    }

    /// The promotion schedule.
    pub fn votd(&self) -> &VotdSchedule {
        &self.votd
    }

    /// Number of videos in the catalog body.
    pub fn len(&self) -> u64 {
        self.config.num_videos
    }

    /// Whether the catalog is empty (never; see [`VideoCatalog::new`]).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The static (un-promoted) request probability of rank `rank`.
    pub fn weight_of_rank(&self, rank: u64) -> f64 {
        ((rank + 1) as f64).powf(-self.config.zipf_exponent) / self.harmonic
    }

    /// Samples the video requested at time `t_ms`.
    ///
    /// With probability `votd_share` during a promotion window the promoted
    /// video is returned; otherwise a body video is drawn from the Zipf
    /// distribution by inverse-transform sampling.
    pub fn sample(&self, t_ms: u64, rng: &mut SimRng) -> VideoMeta {
        if let Some(w) = self.votd.active_at(t_ms) {
            if rng.gen_bool(self.config.votd_share) {
                return self.meta_of(w.video);
            }
        }
        let rank = self.sample_rank(rng);
        self.meta_of(VideoId::from_index(rank))
    }

    /// Draws a rank from the truncated Zipf body.
    fn sample_rank(&self, rng: &mut SimRng) -> u64 {
        // Inverse-transform on the continuous approximation of the zeta CDF,
        // then clamp. Accurate enough for workload generation and O(1).
        let s = self.config.zipf_exponent;
        let n = self.config.num_videos as f64;
        let u: f64 = rng.gen_range(0.0..1.0);
        let rank = if (s - 1.0).abs() < 1e-9 {
            n.powf(u) - 1.0
        } else {
            ((u * self.zipf_span) + 1.0).powf(1.0 / (1.0 - s)) - 1.0
        };
        (rank.max(0.0) as u64).min(self.config.num_videos - 1)
    }

    /// The full metadata for a video id.
    pub fn meta_of(&self, id: VideoId) -> VideoMeta {
        VideoMeta {
            id,
            rank: id.index(),
            duration_s: duration_of(id),
        }
    }
}

/// Deterministic long-tailed duration for a video: log-normal-ish with a
/// median of ~210 s, clamped to [15 s, 3600 s]. Matches 2010-era YouTube
/// duration statistics closely enough for flow-size modelling.
fn duration_of(id: VideoId) -> u32 {
    // Two independent-ish uniform draws from the id bits.
    let h = id.index().wrapping_mul(0x2545_f491_4f6c_dd1d);
    let u1 = ((h >> 11) as f64 / (1u64 << 53) as f64).clamp(1e-12, 1.0 - 1e-12);
    let u2 = ((h.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 11) as f64 / (1u64 << 53) as f64)
        .clamp(1e-12, 1.0 - 1e-12);
    // Box-Muller normal.
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    let secs = (210.0 * (0.75 * z).exp()).clamp(15.0, 3600.0);
    secs as u32
}

/// Samples a 2010-era resolution mix (mostly 360p, rare HD).
pub fn sample_resolution(rng: &mut SimRng) -> Resolution {
    let u: f64 = rng.gen_range(0.0..1.0);
    match u {
        x if x < 0.15 => Resolution::R240,
        x if x < 0.70 => Resolution::R360,
        x if x < 0.90 => Resolution::R480,
        x if x < 0.98 => Resolution::R720,
        _ => Resolution::R1080,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn votd_schedule_covers_week() {
        let s = VotdSchedule::daily_for_week(0);
        for day in 0..7u64 {
            let mid = day * DAY_MS + DAY_MS / 2;
            let w = s.active_at(mid).expect("active window");
            assert_eq!(w.video.index(), day);
        }
        assert!(s.active_at(7 * DAY_MS).is_none());
    }

    #[test]
    fn votd_none_is_empty() {
        assert!(VotdSchedule::none().active_at(0).is_none());
    }

    #[test]
    fn zipf_rank_distribution_is_skewed() {
        let cat = VideoCatalog::new(
            CatalogConfig {
                num_videos: 100_000,
                zipf_exponent: 0.9,
                votd_share: 0.0,
            },
            VotdSchedule::none(),
        );
        let mut rng = SimRng::seed_from_u64(1);
        let n = 50_000;
        let mut top10 = 0usize;
        let mut seen: HashMap<u64, u32> = HashMap::new();
        for _ in 0..n {
            let m = cat.sample(0, &mut rng);
            if m.rank < 10 {
                top10 += 1;
            }
            *seen.entry(m.rank).or_default() += 1;
        }
        // Top-10 videos should take a disproportionate share...
        assert!(top10 as f64 / n as f64 > 0.02, "top10 {top10}");
        // ...while most requested videos are requested very few times.
        let singletons = seen.values().filter(|&&c| c == 1).count();
        assert!(
            singletons as f64 / seen.len() as f64 > 0.5,
            "singletons {singletons} of {}",
            seen.len()
        );
    }

    #[test]
    fn ranks_within_catalog() {
        let cat = VideoCatalog::new(
            CatalogConfig {
                num_videos: 100,
                zipf_exponent: 1.1,
                votd_share: 0.0,
            },
            VotdSchedule::none(),
        );
        let mut rng = SimRng::seed_from_u64(2);
        for _ in 0..10_000 {
            assert!(cat.sample(0, &mut rng).rank < 100);
        }
    }

    #[test]
    fn votd_share_respected() {
        let cat = VideoCatalog::new(
            CatalogConfig {
                num_videos: 10_000,
                zipf_exponent: 0.9,
                votd_share: 0.2,
            },
            VotdSchedule::daily_for_week(5_000),
        );
        let mut rng = SimRng::seed_from_u64(3);
        let n = 20_000;
        let hits = (0..n)
            .filter(|_| cat.sample(1000, &mut rng).id.index() == 5_000)
            .count();
        let frac = hits as f64 / n as f64;
        assert!((0.17..0.23).contains(&frac), "got {frac}");
    }

    #[test]
    fn no_votd_outside_window() {
        let cat = VideoCatalog::new(
            CatalogConfig {
                num_videos: 10_000,
                zipf_exponent: 0.9,
                votd_share: 0.5,
            },
            VotdSchedule::daily_for_week(5_000),
        );
        let mut rng = SimRng::seed_from_u64(4);
        // Day 3's video must not be boosted on day 0.
        let hits = (0..20_000)
            .filter(|_| cat.sample(0, &mut rng).id.index() == 5_003)
            .count();
        assert!(hits < 5, "day-3 video boosted on day 0: {hits}");
    }

    #[test]
    fn durations_plausible() {
        let cat = VideoCatalog::standard();
        let mut rng = SimRng::seed_from_u64(5);
        let mut sum = 0u64;
        let n = 5_000;
        for _ in 0..n {
            let d = cat.sample(0, &mut rng).duration_s;
            assert!((15..=3600).contains(&d));
            sum += u64::from(d);
        }
        let mean = sum as f64 / n as f64;
        assert!((120.0..600.0).contains(&mean), "mean duration {mean}");
    }

    #[test]
    fn duration_is_deterministic() {
        let cat = VideoCatalog::standard();
        let id = VideoId::from_index(123);
        assert_eq!(cat.meta_of(id).duration_s, cat.meta_of(id).duration_s);
    }

    #[test]
    fn resolution_mix_mostly_360p() {
        let mut rng = SimRng::seed_from_u64(6);
        let n = 20_000;
        let r360 = (0..n)
            .filter(|_| sample_resolution(&mut rng) == Resolution::R360)
            .count();
        let frac = r360 as f64 / n as f64;
        assert!((0.5..0.6).contains(&frac), "got {frac}");
    }

    #[test]
    #[should_panic(expected = "catalog cannot be empty")]
    fn empty_catalog_rejected() {
        let _ = VideoCatalog::new(
            CatalogConfig {
                num_videos: 0,
                zipf_exponent: 1.0,
                votd_share: 0.0,
            },
            VotdSchedule::none(),
        );
    }

    #[test]
    fn weights_decreasing_in_rank() {
        let cat = VideoCatalog::standard();
        assert!(cat.weight_of_rank(0) > cat.weight_of_rank(10));
        assert!(cat.weight_of_rank(10) > cat.weight_of_rank(10_000));
    }
}

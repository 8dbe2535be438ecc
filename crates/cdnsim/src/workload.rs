//! Diurnal request-arrival modelling.
//!
//! Every dataset in the paper "exhibit\[s\] a clear day/night pattern in the
//! number of requests" (Figure 11, bottom): a deep trough before dawn and an
//! evening peak. [`diurnal_factor`] is that profile; [`WorkloadModel`] turns
//! it into per-hour session counts for a simulated week.

use crate::rng::{stream, SimRng};
use ytcdn_tstat::HOUR_MS;

/// Hours in a simulated week.
pub const WEEK_HOURS: u64 = 168;

/// The relative request rate at local hour-of-day `h` (fractional hours in
/// `[0, 24)`): 1.0 at the evening peak (21:00), ~0.08 in the pre-dawn trough
/// (04:30).
///
/// # Examples
///
/// ```
/// use ytcdn_cdnsim::diurnal_factor;
///
/// assert!(diurnal_factor(21.0) > 0.99);
/// assert!(diurnal_factor(4.5) < 0.1);
/// ```
pub fn diurnal_factor(h: f64) -> f64 {
    const MIN_FACTOR: f64 = 0.08;
    const TROUGH: f64 = 4.5;
    const PEAK: f64 = 21.0;
    let h = h.rem_euclid(24.0);
    // Two half-cosine arcs: rise from the trough to the peak, fall from the
    // peak back to the next trough.
    let phase = if (TROUGH..PEAK).contains(&h) {
        0.5 - 0.5 * (std::f64::consts::PI * (h - TROUGH) / (PEAK - TROUGH)).cos()
    } else {
        // Falling arc spans PEAK..TROUGH+24 (wrapping midnight).
        let x = if h >= PEAK { h - PEAK } else { h + 24.0 - PEAK };
        0.5 + 0.5 * (std::f64::consts::PI * x / (TROUGH + 24.0 - PEAK)).cos()
    };
    MIN_FACTOR + (1.0 - MIN_FACTOR) * phase
}

/// Generates session start times for one vantage point over one week.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadModel {
    /// Expected total sessions over the week.
    pub total_sessions: u64,
    /// Offset of the vantage point's local time from trace time, in hours.
    /// The paper's collections all start at local midnight, so this is 0 for
    /// every standard dataset; it is kept for what-if experiments across
    /// time zones.
    pub local_offset_h: f64,
}

impl WorkloadModel {
    /// Creates a model.
    pub fn new(total_sessions: u64, local_offset_h: f64) -> Self {
        Self {
            total_sessions,
            local_offset_h,
        }
    }

    /// The relative weight of week-hour `hour` (0..168).
    pub fn hour_weight(&self, hour: u64) -> f64 {
        diurnal_factor((hour % 24) as f64 + 0.5 + self.local_offset_h)
    }

    /// Expected sessions in week-hour `hour`.
    pub fn expected_in_hour(&self, hour: u64) -> f64 {
        let total_weight: f64 = (0..WEEK_HOURS).map(|h| self.hour_weight(h)).sum();
        self.total_sessions as f64 * self.hour_weight(hour) / total_weight
    }

    /// The generator for week-hour `hour`'s arrivals under `seed`.
    ///
    /// Each hour gets its own derived stream, so an hour's arrivals never
    /// depend on how many draws the hours before it made.
    fn hour_rng(seed: u64, hour: u64) -> SimRng {
        SimRng::for_stream(seed, &[stream::WORKLOAD, hour])
    }

    /// Generates week-hour `hour`'s session start times (ms since trace
    /// start), sorted. The count is the hour's expectation with stochastic
    /// rounding (the stream's first draw), so the weekly total concentrates
    /// tightly around `total_sessions`.
    pub fn hour_times(&self, seed: u64, hour: u64) -> Vec<u64> {
        let expect = self.expected_in_hour(hour);
        let mut rng = Self::hour_rng(seed, hour);
        let mut n = expect.floor() as u64;
        if rng.gen_bool((expect - expect.floor()).clamp(0.0, 1.0)) {
            n += 1;
        }
        let base = hour * HOUR_MS;
        let mut times: Vec<u64> = (0..n).map(|_| base + rng.gen_range(0..HOUR_MS)).collect();
        times.sort_unstable();
        times
    }

    /// Generates all session start times (ms since trace start), sorted.
    pub fn session_times(&self, seed: u64) -> Vec<u64> {
        let mut times = Vec::with_capacity(self.total_sessions as usize + WEEK_HOURS as usize);
        for hour in 0..WEEK_HOURS {
            times.extend(self.hour_times(seed, hour));
        }
        times
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_bounds() {
        for i in 0..2400 {
            let f = diurnal_factor(i as f64 / 100.0);
            assert!((0.0..=1.0).contains(&f), "h {} -> {f}", i as f64 / 100.0);
        }
    }

    #[test]
    fn peak_and_trough_placement() {
        assert!((diurnal_factor(21.0) - 1.0).abs() < 1e-9);
        assert!((diurnal_factor(4.5) - 0.08).abs() < 1e-9);
        // Evening busier than early morning.
        assert!(diurnal_factor(20.0) > diurnal_factor(6.0));
    }

    #[test]
    fn factor_is_periodic() {
        for h in [0.0, 3.7, 12.0, 23.9] {
            assert!((diurnal_factor(h) - diurnal_factor(h + 24.0)).abs() < 1e-9);
            assert!((diurnal_factor(h) - diurnal_factor(h - 24.0)).abs() < 1e-9);
        }
    }

    #[test]
    fn factor_is_continuous_at_seams() {
        for seam in [4.5, 21.0, 24.0] {
            let before = diurnal_factor(seam - 1e-6);
            let after = diurnal_factor(seam + 1e-6);
            assert!((before - after).abs() < 1e-3, "seam {seam}");
        }
    }

    #[test]
    fn session_total_close_to_target() {
        let wm = WorkloadModel::new(50_000, 0.0);
        let times = wm.session_times(0);
        let n = times.len() as f64;
        assert!((49_000.0..51_000.0).contains(&n), "got {n}");
    }

    #[test]
    fn times_sorted_and_within_week() {
        let wm = WorkloadModel::new(10_000, 0.0);
        let times = wm.session_times(1);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert!(times.iter().all(|&t| t < WEEK_HOURS * HOUR_MS));
    }

    #[test]
    fn hour_views_agree_with_full_generation() {
        let wm = WorkloadModel::new(5_000, 0.0);
        let seed = 0xAB;
        let mut concat = Vec::new();
        for hour in 0..WEEK_HOURS {
            let times = wm.hour_times(seed, hour);
            assert!(times.iter().all(|&t| t / HOUR_MS == hour));
            concat.extend(times);
        }
        assert_eq!(concat, wm.session_times(seed));
    }

    #[test]
    fn day_night_ratio_visible() {
        let wm = WorkloadModel::new(100_000, 0.0);
        let times = wm.session_times(2);
        let mut hourly = [0u64; 24];
        for t in times {
            hourly[((t / HOUR_MS) % 24) as usize] += 1;
        }
        let night = hourly[4] as f64; // 04:00-05:00
        let evening = hourly[21] as f64; // 21:00-22:00
        assert!(evening > 5.0 * night, "evening {evening} vs night {night}");
    }

    #[test]
    fn expected_in_hour_sums_to_total() {
        let wm = WorkloadModel::new(7_000, 0.0);
        let sum: f64 = (0..WEEK_HOURS).map(|h| wm.expected_in_hour(h)).sum();
        assert!((sum - 7_000.0).abs() < 1e-6);
    }

    #[test]
    fn local_offset_shifts_profile() {
        let a = WorkloadModel::new(1000, 0.0);
        let b = WorkloadModel::new(1000, 6.0);
        assert!((a.hour_weight(21) - b.hour_weight(15)).abs() < 1e-9);
    }
}

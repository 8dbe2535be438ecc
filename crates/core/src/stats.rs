//! Empirical statistics used throughout the analysis: CDFs and binning.

use crate::error::{AnalysisError, AnalysisResult};

/// An empirical cumulative distribution function.
///
/// Every figure in the paper that plots a CDF (Figures 2–6, 9, 13, 18) is
/// produced from this type. It stores runs, not samples: the distinct
/// finite values in [`f64::total_cmp`] order, each with the number of
/// samples at or below it. So a histogram of small counts (flows per
/// session, requests per video) costs one entry per distinct value, and
/// every query reads the runs.
///
/// # Examples
///
/// ```
/// use ytcdn_core::Cdf;
///
/// let cdf = Cdf::from_values([4.0, 1.0, 2.0, 3.0]);
/// assert_eq!(cdf.fraction_at_or_below(2.0), 0.5);
/// assert_eq!(cdf.percentile(50.0), 2.0);
/// assert_eq!(cdf.len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    /// `(value, samples at or below it)`, one run per distinct value (by
    /// bits, so `-0.0` and `0.0` are two runs), ascending in both.
    runs: Vec<(f64, usize)>,
}

impl Cdf {
    /// Builds a CDF from any collection of values. Non-finite values are
    /// dropped.
    pub fn from_values<I: IntoIterator<Item = f64>>(values: I) -> Self {
        let mut sorted: Vec<f64> = values.into_iter().filter(|v| v.is_finite()).collect();
        sorted.sort_by(f64::total_cmp);
        let mut seen = 0;
        let runs = sorted
            .chunk_by(|a, b| a.to_bits() == b.to_bits())
            .map(|run| {
                seen += run.len();
                (run[0], seen)
            })
            .collect();
        Self { runs }
    }

    /// The CDF of small non-negative integer samples given as a histogram:
    /// `counts[v]` samples of value `v`. Equal to [`Cdf::from_values`] over
    /// the expanded samples, with no sort and no per-sample storage.
    pub fn from_counts(counts: &[u64]) -> Self {
        let mut seen = 0;
        let runs = counts
            .iter()
            .enumerate()
            .filter(|&(_, &count)| count > 0)
            .map(|(v, &count)| {
                seen += count as usize;
                (v as f64, seen)
            })
            .collect();
        Self { runs }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.runs.last().map_or(0, |&(_, seen)| seen)
    }

    /// Whether the CDF has no samples.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Fraction of samples `<= x` (0.0 for an empty CDF).
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        match self.runs.partition_point(|&(v, _)| v <= x) {
            0 => 0.0,
            i => self.runs[i - 1].1 as f64 / self.len() as f64,
        }
    }

    /// The sample at 0-based sorted-order `rank` (below [`Cdf::len`]).
    fn value_at_rank(&self, rank: usize) -> f64 {
        self.runs[self.runs.partition_point(|&(_, seen)| seen <= rank)].0
    }

    /// Fallible `p`-th percentile (nearest-rank), `p` in `[0, 100]`.
    ///
    /// Returns [`AnalysisError::EmptyDistribution`] on an empty CDF, which
    /// is how every analysis path reports a degenerate dataset instead of
    /// panicking.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]` — a caller bug, not a data
    /// condition.
    pub fn try_percentile(&self, p: f64) -> AnalysisResult<f64> {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        if self.is_empty() {
            return Err(AnalysisError::EmptyDistribution {
                what: format!("p{p} of empty CDF"),
            });
        }
        Ok(self.value_at_rank(nearest_rank(self.len(), p / 100.0)))
    }

    /// The `p`-th percentile (nearest-rank), `p` in `[0, 100]`.
    ///
    /// # Panics
    ///
    /// Panics on an empty CDF or `p` outside `[0, 100]`. Analysis code
    /// should use [`Cdf::try_percentile`]; this asserting wrapper is kept
    /// for tests and call sites that have already proven non-emptiness.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!(!self.is_empty(), "percentile of empty CDF");
        match self.try_percentile(p) {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible median shorthand.
    pub fn try_median(&self) -> AnalysisResult<f64> {
        self.try_percentile(50.0)
    }

    /// Median shorthand.
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Fallible smallest sample ([`AnalysisError::EmptyDistribution`] when
    /// empty).
    pub fn try_min(&self) -> AnalysisResult<f64> {
        self.runs
            .first()
            .map(|&(v, _)| v)
            .ok_or_else(|| AnalysisError::EmptyDistribution {
                what: "min of empty CDF".into(),
            })
    }

    /// Smallest sample.
    ///
    /// # Panics
    ///
    /// Panics on an empty CDF; analysis code should use [`Cdf::try_min`].
    pub fn min(&self) -> f64 {
        match self.try_min() {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible largest sample ([`AnalysisError::EmptyDistribution`] when
    /// empty).
    pub fn try_max(&self) -> AnalysisResult<f64> {
        self.runs
            .last()
            .map(|&(v, _)| v)
            .ok_or_else(|| AnalysisError::EmptyDistribution {
                what: "max of empty CDF".into(),
            })
    }

    /// Largest sample.
    ///
    /// # Panics
    ///
    /// Panics on an empty CDF; analysis code should use [`Cdf::try_max`].
    pub fn max(&self) -> f64 {
        match self.try_max() {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// `(x, F(x))` plot points, decimated to at most `max_points`.
    ///
    /// Emits exactly `min(len, max_points)` points: the `j/k`-quantile
    /// ranks for `j = 1..=k`, so the last point is always `(max, 1.0)`.
    /// (A naive `step = n / max_points` decimation emits up to ~2×
    /// `max_points` points — e.g. n=10, max_points=4 → 6 points — which
    /// violated this method's "at most" contract.)
    pub fn plot_points(&self, max_points: usize) -> Vec<(f64, f64)> {
        plot_ranks(self.len(), max_points)
            .map(|(i, y)| (self.value_at_rank(i), y))
            .collect()
    }

    /// Two-sample Kolmogorov–Smirnov distance: the maximum absolute gap
    /// between the two empirical CDFs. 0 = identical distributions,
    /// 1 = disjoint supports. Used to compare trace *shapes* across seeds
    /// and scales.
    ///
    /// Returns 1.0 when exactly one CDF is empty, 0.0 when both are.
    pub fn ks_distance(&self, other: &Cdf) -> f64 {
        match (self.is_empty(), other.is_empty()) {
            (true, true) => return 0.0,
            (true, false) | (false, true) => return 1.0,
            _ => {}
        }
        let mut max_gap = 0.0f64;
        // Evaluate at every jump point of either CDF.
        for &(x, _) in self.runs.iter().chain(&other.runs) {
            let gap = (self.fraction_at_or_below(x) - other.fraction_at_or_below(x)).abs();
            max_gap = max_gap.max(gap);
        }
        max_gap
    }
}

/// The 0-based index of the nearest-rank `q`-quantile (`q` in `[0, 1]`) of
/// `n >= 1` ascending samples: rank `⌈q·n⌉`, clamped to `1..=n`. The one
/// rank rule of every percentile in the analyses.
pub(crate) fn nearest_rank(n: usize, q: f64) -> usize {
    debug_assert!(n > 0, "nearest rank of no samples");
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The sorted-order ranks [`Cdf::plot_points`] reads from `n` samples,
/// each with its cumulative fraction: the highest rank covered by the
/// `j`-th of `k = min(n, max_points)` evenly spaced quantiles, for
/// `j = 1..=k`. Strictly increasing, because `n >= k`.
pub(crate) fn plot_ranks(n: usize, max_points: usize) -> impl Iterator<Item = (usize, f64)> {
    let k = max_points.min(n);
    (1..=k).map(move |j| {
        let i = j * n / k - 1;
        (i, (i + 1) as f64 / n as f64)
    })
}

/// The values at the sorted-order positions `ranks` (ascending, each below
/// `values.len()`) of `values`: what indexing a sorted copy would read,
/// without sorting it. One pass counts the values per [`rank_bucket`], a
/// prefix sum locates each rank's bucket, and a second pass gathers only
/// the values of those buckets to sort. A bucket below 2^13 holds one
/// value, so its ranks are read off the key.
pub(crate) fn values_at_ranks(values: &[u64], ranks: &[usize]) -> Vec<u64> {
    debug_assert!(ranks.is_sorted() && ranks.last().is_none_or(|&r| r < values.len()));
    const EXACT: usize = 1 << 13;
    let Some(&max) = values.iter().max() else {
        return Vec::new();
    };
    // `start[k]`: how many values lie in the buckets below `k`.
    let mut start = vec![0usize; rank_bucket(max) + 2];
    for &v in values {
        start[rank_bucket(v) + 1] += 1;
    }
    for k in 1..start.len() {
        start[k] += start[k - 1];
    }
    let buckets: Vec<usize> = ranks
        .iter()
        .map(|&r| start.partition_point(|&s| s <= r) - 1)
        .collect();
    let mut wanted = vec![false; start.len()];
    for &k in buckets.iter().filter(|&&k| k >= EXACT) {
        wanted[k] = true;
    }
    let mut gathered: Vec<u64> = values
        .iter()
        .copied()
        .filter(|&v| wanted[rank_bucket(v)])
        .collect();
    gathered.sort_unstable();
    // The wanted buckets sit in `gathered` one after another, in order.
    let mut base = 0;
    let mut prev: Option<usize> = None;
    ranks
        .iter()
        .zip(&buckets)
        .map(|(&r, &k)| {
            if k < EXACT {
                return k as u64;
            }
            if let Some(p) = prev.filter(|&p| p != k) {
                base += start[p + 1] - start[p];
            }
            prev = Some(k);
            gathered[base + (r - start[k])]
        })
        .collect()
}

/// A bucket key of a `u64` that never decreases as the value grows: the
/// value itself below 2^13; above, its octave and the 12 bits below its
/// leading one, so a bucket spans at most 1/4096 of its values. The key
/// stays under 2^18. Branch-free: `e` is the octave, at least 12.
fn rank_bucket(v: u64) -> usize {
    let e = 63 - (v | 1 << 12).leading_zeros() as usize;
    4096 * (e - 12) + (v >> (e - 12)) as usize
}

/// The nearest-rank values at the ascending quantiles `qs` of `values`, in
/// any order, found by selection instead of a sort; all 0.0 when `values`
/// is empty. Each selection runs on the prefix the previous (higher) one
/// left below it. Reorders `values`.
pub(crate) fn select_quantiles<const N: usize>(values: &mut [f64], qs: [f64; N]) -> [f64; N] {
    debug_assert!(qs.is_sorted(), "quantiles not ascending");
    let mut out = [0.0; N];
    let n = values.len();
    if n == 0 {
        return out;
    }
    let mut end = n;
    for (slot, &q) in out.iter_mut().zip(&qs).rev() {
        let k = nearest_rank(n, q);
        let (_, &mut v, _) = values[..end].select_nth_unstable_by(k, f64::total_cmp);
        *slot = v;
        end = k + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_boundaries() {
        let cdf = Cdf::from_values([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(cdf.fraction_at_or_below(0.5), 0.0);
        assert_eq!(cdf.fraction_at_or_below(1.0), 0.25);
        assert_eq!(cdf.fraction_at_or_below(4.0), 1.0);
        assert_eq!(cdf.fraction_at_or_below(100.0), 1.0);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let cdf = Cdf::from_values((1..=100).map(f64::from));
        assert_eq!(cdf.percentile(50.0), 50.0);
        assert_eq!(cdf.percentile(90.0), 90.0);
        assert_eq!(cdf.percentile(100.0), 100.0);
        assert_eq!(cdf.percentile(0.0), 1.0);
        assert_eq!(cdf.median(), 50.0);
    }

    #[test]
    fn drops_non_finite() {
        let cdf = Cdf::from_values([1.0, f64::NAN, f64::INFINITY, 2.0]);
        assert_eq!(cdf.len(), 2);
    }

    #[test]
    fn empty_behaviour() {
        let cdf = Cdf::from_values(std::iter::empty());
        assert!(cdf.is_empty());
        assert_eq!(cdf.fraction_at_or_below(1.0), 0.0);
        assert!(cdf.plot_points(10).is_empty());
    }

    #[test]
    #[should_panic(expected = "percentile of empty")]
    fn empty_percentile_panics() {
        Cdf::from_values(std::iter::empty()).percentile(50.0);
    }

    #[test]
    fn plot_points_end_at_one() {
        let cdf = Cdf::from_values((0..1000).map(f64::from));
        let pts = cdf.plot_points(50);
        assert!(pts.len() <= 52);
        assert_eq!(pts.last().unwrap().1, 1.0);
        // Monotone in both coordinates.
        assert!(pts.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1));
    }

    #[test]
    fn plot_points_respects_max_points_exactly() {
        // Sweep (n, max_points) pairs, including the shapes the old
        // `step = n / max_points` decimation over-emitted for
        // (n=10, max_points=4 used to yield 6 points).
        for n in [1usize, 2, 3, 4, 5, 7, 10, 11, 13, 50, 52, 100, 1000] {
            let cdf = Cdf::from_values((0..n).map(|v| v as f64));
            for max_points in [1usize, 2, 3, 4, 5, 7, 10, 52, 400] {
                let pts = cdf.plot_points(max_points);
                assert_eq!(
                    pts.len(),
                    max_points.min(n),
                    "n={n} max_points={max_points}"
                );
                let last = pts.last().unwrap();
                assert_eq!(last.1, 1.0, "n={n} max_points={max_points}");
                assert_eq!(last.0, cdf.max(), "n={n} max_points={max_points}");
                assert!(
                    pts.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1),
                    "n={n} max_points={max_points}: not strictly increasing"
                );
            }
        }
    }

    #[test]
    fn percentile_edge_cases() {
        // p=0 and p=100 on a single-sample CDF collapse to that sample.
        let single = Cdf::from_values([42.0]);
        assert_eq!(single.percentile(0.0), 42.0);
        assert_eq!(single.percentile(100.0), 42.0);
        assert_eq!(single.median(), 42.0);
        assert_eq!(single.min(), 42.0);
        assert_eq!(single.max(), 42.0);
        assert_eq!(single.fraction_at_or_below(41.9), 0.0);
        assert_eq!(single.fraction_at_or_below(42.0), 1.0);
        assert_eq!(single.plot_points(10), vec![(42.0, 1.0)]);

        // NaN-heavy input: non-finite values are dropped before ranking.
        let noisy = Cdf::from_values([
            f64::NAN,
            3.0,
            f64::NEG_INFINITY,
            f64::NAN,
            1.0,
            f64::INFINITY,
            2.0,
            f64::NAN,
        ]);
        assert_eq!(noisy.len(), 3);
        assert_eq!(noisy.percentile(0.0), 1.0);
        assert_eq!(noisy.percentile(100.0), 3.0);
        assert_eq!(noisy.fraction_at_or_below(f64::INFINITY), 1.0);

        // All-NaN input behaves exactly like an empty CDF.
        let all_nan = Cdf::from_values([f64::NAN, f64::NAN]);
        assert!(all_nan.is_empty());
    }

    #[test]
    fn try_variants_report_empty_distribution() {
        let empty = Cdf::from_values(std::iter::empty());
        assert!(matches!(
            empty.try_percentile(50.0),
            Err(AnalysisError::EmptyDistribution { .. })
        ));
        assert!(matches!(
            empty.try_median(),
            Err(AnalysisError::EmptyDistribution { .. })
        ));
        assert!(matches!(
            empty.try_min(),
            Err(AnalysisError::EmptyDistribution { .. })
        ));
        assert!(matches!(
            empty.try_max(),
            Err(AnalysisError::EmptyDistribution { .. })
        ));

        // On non-empty input the try_* variants agree with the asserting
        // wrappers.
        let cdf = Cdf::from_values((1..=100).map(f64::from));
        assert_eq!(cdf.try_percentile(90.0).unwrap(), cdf.percentile(90.0));
        assert_eq!(cdf.try_median().unwrap(), cdf.median());
        assert_eq!(cdf.try_min().unwrap(), cdf.min());
        assert_eq!(cdf.try_max().unwrap(), cdf.max());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn try_percentile_rejects_out_of_range_p() {
        let _ = Cdf::from_values([1.0]).try_percentile(101.0);
    }

    #[test]
    fn from_counts_matches_from_values_of_the_expanded_samples() {
        let cases: [&[u64]; 6] = [
            &[],
            &[0, 0],
            &[3],
            &[0, 5, 2, 0, 1],
            &[1, 0, 0, 0, 0, 7],
            &[2; 40],
        ];
        for counts in cases {
            let expanded = counts
                .iter()
                .enumerate()
                .flat_map(|(v, &c)| std::iter::repeat_n(v as f64, c as usize));
            assert_eq!(
                Cdf::from_counts(counts),
                Cdf::from_values(expanded),
                "{counts:?}"
            );
        }
        assert!(Cdf::from_counts(&[]).is_empty());
        assert!(Cdf::from_counts(&[0, 0, 0]).is_empty());
    }

    #[test]
    fn values_at_ranks_match_a_sorted_copy() {
        let mut x = 0x2545_f491_u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut inputs: Vec<Vec<u64>> = vec![
            vec![],
            vec![0],
            vec![u64::MAX, 0, u64::MAX, 1 << 13, (1 << 13) - 1, 4096, 4095],
            vec![7; 50],
        ];
        // Wide, heavy-tailed and tied values, as flow sizes are.
        for len in [1usize, 10, 999, 5000] {
            inputs.push((0..len).map(|_| next() >> (next() % 64)).collect());
            inputs.push((0..len).map(|_| 8_000 + next() % 400).collect());
        }
        for values in inputs {
            let mut sorted = values.clone();
            sorted.sort_unstable();
            let n = values.len();
            let all: Vec<usize> = (0..n).collect();
            assert_eq!(values_at_ranks(&values, &all), sorted, "every rank of {n}");
            let some: Vec<usize> = plot_ranks(n, 7).map(|(i, _)| i).collect();
            let want: Vec<u64> = some.iter().map(|&i| sorted[i]).collect();
            assert_eq!(values_at_ranks(&values, &some), want, "plot ranks of {n}");
        }
    }

    #[test]
    fn rank_buckets_never_decrease() {
        let mut probes: Vec<u64> = (0..20_000).collect();
        for e in 12..64 {
            let p = 1u64 << e;
            probes.extend([p - 2, p - 1, p, p + 1, p + (p >> 12), p | (p - 1)]);
        }
        probes.push(u64::MAX);
        probes.sort_unstable();
        assert!(probes
            .windows(2)
            .all(|w| rank_bucket(w[0]) <= rank_bucket(w[1])));
        assert!((0..1 << 13).all(|v| rank_bucket(v) == v as usize));
        assert!(rank_bucket(u64::MAX) < 1 << 18);
    }

    #[test]
    fn select_quantiles_matches_the_sorted_ranks() {
        // Pseudo-random samples with ties, against the ranks of a sort.
        let mut x = 0x9e37_79b9_u64;
        for n in [1usize, 2, 3, 7, 10, 99, 100, 101, 1000] {
            let values: Vec<f64> = (0..n)
                .map(|_| {
                    x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    ((x >> 33) % 50) as f64
                })
                .collect();
            let cdf = Cdf::from_values(values.iter().copied());
            let mut scratch = values.clone();
            let got = select_quantiles(&mut scratch, [0.0, 0.5, 0.9, 0.99, 1.0]);
            let want = [0.0, 50.0, 90.0, 99.0, 100.0].map(|p| cdf.percentile(p));
            assert_eq!(got, want, "n={n}");
        }
        assert_eq!(select_quantiles(&mut [], [0.5, 0.9]), [0.0, 0.0]);
    }

    #[test]
    fn ks_distance_basics() {
        let a = Cdf::from_values((0..100).map(f64::from));
        let b = Cdf::from_values((0..100).map(f64::from));
        assert_eq!(a.ks_distance(&b), 0.0);
        // Disjoint supports → distance 1.
        let c = Cdf::from_values((200..300).map(f64::from));
        assert_eq!(a.ks_distance(&c), 1.0);
        // Shifted by half the range → distance ~0.5.
        let d = Cdf::from_values((50..150).map(f64::from));
        let ks = a.ks_distance(&d);
        assert!((0.45..0.55).contains(&ks), "{ks}");
        // Symmetry.
        assert_eq!(a.ks_distance(&d), d.ks_distance(&a));
        // Empty handling.
        let e = Cdf::from_values(std::iter::empty());
        assert_eq!(e.ks_distance(&e), 0.0);
        assert_eq!(a.ks_distance(&e), 1.0);
    }
}

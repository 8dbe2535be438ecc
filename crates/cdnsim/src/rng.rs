//! In-tree deterministic random-number generation for the simulator.
//!
//! The session engine once drew from an external crate's `StdRng`, which
//! tied the simulated datasets to that crate's exact value stream *and* to
//! the order in which a single shared generator is consumed. Neither is
//! acceptable for a simulator whose datasets must be byte-identical for
//! any worker count: each dataset, each hour's arrivals and each session
//! must own its draws, whatever else ran before them or beside them.
//!
//! [`SimRng`] solves this with *splittable streams*: a generator is derived
//! from a root seed plus a path of stream tags (e.g. `(seed, SESSION,
//! ordinal)`), so the generator for session `ordinal` is reached in O(1)
//! without consuming any other stream. The core is SplitMix64 (Steele, Lea & Flood, OOPSLA
//! 2014): a Weyl sequence on the golden gamma passed through an avalanching
//! finalizer. It is tiny, fast, passes BigCrush, and its output is defined
//! by this file alone, so golden-snapshot tests hold on
//! every platform and toolchain.
//!
//! Two distinct streams start at independently mixed states on the same
//! Weyl sequence; with 64-bit states and ≲2^30 draws per stream, the
//! probability of any overlap across a simulation is negligible (birthday
//! bound over 2^64).

use std::ops::Range;

/// The golden-ratio increment of the SplitMix64 Weyl sequence.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 finalizer: avalanches all 64 input bits (variant 13 constants
/// from Stafford's mix experiments, as used in `placement::splitmix`).
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash-combines a stream tag into a derived seed. The tag is offset by the
/// golden gamma before mixing so that `combine(s, 0)` differs from `mix(s)`.
#[inline]
fn combine(seed: u64, tag: u64) -> u64 {
    mix(seed ^ mix(tag.wrapping_add(GOLDEN_GAMMA)))
}

/// Well-known stream tags. Each independent consumer of randomness in the
/// simulator derives its generators under its own tag so that adding draws
/// to one subsystem never shifts another's stream.
pub mod stream {
    /// Per-dataset seed derivation in `StandardScenario`.
    pub const SCENARIO: u64 = 0x5CE7;
    /// Per-hour workload (arrival-count and start-time) streams.
    pub const WORKLOAD: u64 = 0x3013;
    /// Per-session simulation streams, keyed by global session ordinal.
    pub const SESSION: u64 = 0x5E55;
}

/// A deterministic, splittable pseudo-random generator (SplitMix64).
///
/// The value stream is part of the simulator's observable behaviour: golden
/// tests pin dataset bytes derived from it. Do not change the algorithm
/// without re-baselining `tests/golden_tables.rs`.
///
/// # Examples
///
/// ```
/// use ytcdn_cdnsim::SimRng;
///
/// let mut a = SimRng::seed_from_u64(7);
/// let mut b = SimRng::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64());
///
/// // Derived streams are independent of how many values the parent drew.
/// let fork = SimRng::for_stream(7, &[1, 42]);
/// assert_eq!(fork.clone().next_u64(), SimRng::for_stream(7, &[1, 42]).next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// Creates a generator from a root seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        Self { state: mix(seed) }
    }

    /// Creates the generator for the stream addressed by `tags` under
    /// `seed`. Distinct tag paths yield statistically independent streams;
    /// the same path always yields the same stream.
    pub fn for_stream(seed: u64, tags: &[u64]) -> Self {
        let mut s = seed;
        for &t in tags {
            s = combine(s, t);
        }
        Self { state: mix(s) }
    }

    /// The next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        mix(self.state)
    }

    /// A uniform draw from `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// A uniform draw from a half-open range.
    ///
    /// Integer ranges use the widening-multiply reduction
    /// (`(x * span) >> 64`): the bias is at most `span / 2^64`, far below
    /// anything observable, and unlike rejection sampling it consumes
    /// exactly one `next_u64`, so where a draw sits in its stream never
    /// depends on the values drawn before it.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn gen_range<T: UniformRange>(&mut self, range: Range<T>) -> T {
        T::sample(self, range)
    }
}

/// Types drawable uniformly from a `Range` by [`SimRng::gen_range`].
pub trait UniformRange: Sized {
    /// Draws a uniform value in `range` from `rng`.
    fn sample(rng: &mut SimRng, range: Range<Self>) -> Self;
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl UniformRange for $t {
            #[inline]
            fn sample(rng: &mut SimRng, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "gen_range: empty range");
                let span = (range.end as u64).wrapping_sub(range.start as u64);
                let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                range.start + hi as $t
            }
        }
    )*};
}

impl_uniform_int!(u8, u16, u32, u64, usize);

impl UniformRange for f64 {
    #[inline]
    fn sample(rng: &mut SimRng, range: Range<Self>) -> Self {
        assert!(range.start < range.end, "gen_range: empty range");
        let u = rng.gen_f64();
        // Clamp so rounding in the affine map can never yield `end`.
        (range.start + u * (range.end - range.start)).min(f64::from_bits(range.end.to_bits() - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SimRng::seed_from_u64(0xDEAD_BEEF);
        let mut b = SimRng::seed_from_u64(0xDEAD_BEEF);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn streams_are_independent_of_parent_consumption() {
        // Deriving a stream never depends on draws made from other streams.
        let fresh = SimRng::for_stream(9, &[stream::SESSION, 17]);
        let mut sibling = SimRng::for_stream(9, &[stream::SESSION, 16]);
        for _ in 0..50 {
            sibling.next_u64();
        }
        assert_eq!(fresh, SimRng::for_stream(9, &[stream::SESSION, 17]));
    }

    #[test]
    fn distinct_tag_paths_do_not_collide() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..4u64 {
            for tag in 0..64u64 {
                assert!(seen.insert(SimRng::for_stream(seed, &[stream::SESSION, tag]).next_u64()));
                assert!(seen.insert(SimRng::for_stream(seed, &[stream::WORKLOAD, tag]).next_u64()));
            }
        }
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = SimRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_f64_is_roughly_uniform() {
        let mut rng = SimRng::seed_from_u64(4);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.gen_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn gen_bool_matches_probability() {
        let mut rng = SimRng::seed_from_u64(5);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((24_000..26_000).contains(&hits), "hits {hits}");
        let mut rng = SimRng::seed_from_u64(6);
        assert!((0..1000).filter(|_| rng.gen_bool(0.0)).count() == 0);
        assert!((0..1000).filter(|_| rng.gen_bool(1.0)).count() == 1000);
    }

    #[test]
    fn int_ranges_stay_in_bounds_and_cover() {
        let mut rng = SimRng::seed_from_u64(7);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            let v = rng.gen_range(3u64..10);
            assert!((3..10).contains(&v));
            seen[(v - 3) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "some values never drawn");
        for _ in 0..1000 {
            let v = rng.gen_range(0usize..1);
            assert_eq!(v, 0);
        }
    }

    #[test]
    fn float_ranges_stay_in_bounds() {
        let mut rng = SimRng::seed_from_u64(8);
        for _ in 0..10_000 {
            let v = rng.gen_range(0.9f64..1.1);
            assert!((0.9..1.1).contains(&v), "{v}");
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        SimRng::seed_from_u64(0).gen_range(5u64..5);
    }

    #[test]
    fn draws_consume_exactly_one_word() {
        // One word per draw, whatever the value: a stream's layout is fixed
        // by the sequence of calls alone. Pin that contract.
        let mut a = SimRng::seed_from_u64(11);
        let mut b = SimRng::seed_from_u64(11);
        a.gen_range(0u64..1000);
        b.next_u64();
        assert_eq!(a, b);
        a.gen_bool(0.5);
        b.next_u64();
        assert_eq!(a, b);
    }
}

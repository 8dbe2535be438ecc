//! Measurement-noise randomness.
//!
//! Every *measurement* in the reproduction — RTT probes, CBG calibration,
//! localization — draws its queueing noise through [`NoiseRng`], a
//! seeded generator owned by this crate. The *simulation* path (session
//! arrivals, DNS decisions, redirections, replication) draws from
//! [`SimRng`] and never from here.
//!
//! Both are the same SplitMix64 family ([`crate::rng`]); keeping noise in
//! its own type makes the boundary statically checkable: `ytcdn-lint`
//! rule DET004 follows values drawn from a `NoiseRng` into output sinks,
//! and DET001 rejects any mention of an external RNG crate inside the
//! simulation crates.

use crate::rng::SimRng;

/// An opaque, seeded source of measurement noise.
///
/// A [`SimRng`] under its own type. The value stream is pinned by
/// `tests::pinned_streams`, so seeds reproduce the measurements they
/// always did (CBG regions, landmark jogs, RTT samples).
///
/// # Examples
///
/// ```
/// use ytcdn_geomodel::CityDb;
/// use ytcdn_netsim::{AccessKind, DelayModel, Endpoint, NoiseRng, Pinger};
///
/// let db = CityDb::builtin();
/// let a = Endpoint::new(db.named("Turin").coord, AccessKind::Campus);
/// let b = Endpoint::new(db.named("Paris").coord, AccessKind::DataCenter);
/// let pinger = Pinger::new(DelayModel::default(), 3);
/// // Same seed, same noise stream, same measurement.
/// let m1 = pinger.ping(&a, &b, &mut NoiseRng::seed_from_u64(7));
/// let m2 = pinger.ping(&a, &b, &mut NoiseRng::seed_from_u64(7));
/// assert_eq!(m1, m2);
/// ```
#[derive(Debug, Clone)]
pub struct NoiseRng(SimRng);

impl NoiseRng {
    /// Creates a noise source from a seed. The same seed always yields the
    /// same noise stream.
    pub fn seed_from_u64(seed: u64) -> Self {
        Self(SimRng::seed_from_u64(seed))
    }

    /// A generator for an independent *stream* under `seed`, keyed by `tag`
    /// ([`SimRng::for_stream`] with the one-tag path `[tag]`): any worker
    /// can jump straight to the generator for one unit of work (e.g. a /24
    /// server block in CBG geolocation) without replaying the draws before
    /// it, so parallel schedules reproduce the sequential value stream
    /// exactly.
    pub fn for_stream(seed: u64, tag: u64) -> Self {
        Self(SimRng::for_stream(seed, &[tag]))
    }

    /// A uniform draw from `[lo, hi)` with 53 bits of precision
    /// (crate-internal: the delay model's queueing-noise primitive and the
    /// landmark jog). Clamped with `min(hi)`, unlike
    /// [`SimRng::gen_range`]'s clamp to the value below `hi`; the pinned
    /// streams depend on it.
    pub(crate) fn gen_range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        (lo + self.0.gen_f64() * (hi - lo)).min(hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = NoiseRng::seed_from_u64(42);
        let mut b = NoiseRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen_range_f64(0.0, 1.0), b.gen_range_f64(0.0, 1.0));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = NoiseRng::seed_from_u64(1);
        let mut b = NoiseRng::seed_from_u64(2);
        let va: Vec<f64> = (0..8).map(|_| a.gen_range_f64(0.0, 1.0)).collect();
        let vb: Vec<f64> = (0..8).map(|_| b.gen_range_f64(0.0, 1.0)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn for_stream_is_deterministic() {
        let mut a = NoiseRng::for_stream(42, 7);
        let mut b = NoiseRng::for_stream(42, 7);
        for _ in 0..100 {
            assert_eq!(a.gen_range_f64(0.0, 1.0), b.gen_range_f64(0.0, 1.0));
        }
    }

    #[test]
    fn for_stream_separates_tags_seeds_and_plain_streams() {
        let draws = |mut rng: NoiseRng| -> Vec<f64> {
            (0..8).map(|_| rng.gen_range_f64(0.0, 1.0)).collect()
        };
        let base = draws(NoiseRng::for_stream(42, 7));
        assert_ne!(base, draws(NoiseRng::for_stream(42, 8)), "adjacent tags");
        assert_ne!(base, draws(NoiseRng::for_stream(43, 7)), "adjacent seeds");
        assert_ne!(base, draws(NoiseRng::seed_from_u64(42)), "plain stream");
        assert_ne!(
            base,
            draws(NoiseRng::seed_from_u64(42 ^ 7)),
            "naive xor keying"
        );
    }

    #[test]
    fn draws_stay_in_range() {
        let mut rng = NoiseRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let v = rng.gen_range_f64(1e-12, 1.0);
            assert!((1e-12..1.0).contains(&v), "{v}");
        }
    }

    /// The first draws of two streams and a landmark-set digest, captured
    /// from the generator every committed measurement was made with. A
    /// change here moves CBG regions, landmarks, fig2/fig3/table3 and every
    /// report digest built on them.
    #[test]
    fn pinned_streams() {
        let bits = |mut rng: NoiseRng| -> Vec<u64> {
            (0..8)
                .map(|_| rng.gen_range_f64(1e-12, 1.0).to_bits())
                .collect()
        };
        assert_eq!(
            bits(NoiseRng::seed_from_u64(99)),
            [
                0x3fcc_fae0_d3a0_8840,
                0x3fba_a616_1b35_95fd,
                0x3fe4_b9f0_c689_b495,
                0x3feb_0508_96b0_a8d3,
                0x3fb7_392a_1722_9ad1,
                0x3fce_0712_8988_12e9,
                0x3fe8_1599_faa0_fba4,
                0x3fde_8470_ae08_fa82,
            ]
        );
        assert_eq!(
            bits(NoiseRng::for_stream(42, 7)),
            [
                0x3fec_2d3f_eb21_2160,
                0x3fe9_7c09_3810_2296,
                0x3fde_ed3d_f609_21cf,
                0x3fdc_668a_2891_98e2,
                0x3fc4_b51f_9492_4000,
                0x3fe1_f801_12e2_5cdc,
                0x3fe7_4133_6c8a_007e,
                0x3f38_e965_fdbe_9634,
            ]
        );
        // FNV-1a over every landmark's (lat, lon) bit patterns.
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        for lm in crate::planetlab_landmarks(42) {
            for word in [lm.coord.lat.to_bits(), lm.coord.lon.to_bits()] {
                for byte in word.to_le_bytes() {
                    digest ^= u64::from(byte);
                    digest = digest.wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        assert_eq!(digest, 0xdc4c_7c6a_5156_646a);
    }
}

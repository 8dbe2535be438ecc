//! Landmark sets for delay-based geolocation.
//!
//! The paper used 215 PlanetLab nodes as CBG landmarks: 97 in North America,
//! 82 in Europe, 24 in Asia, 8 in South America, 3 in Oceania and 1 in
//! Africa. PlanetLab no longer exists, so [`planetlab_landmarks`] synthesizes
//! a set with the same continental distribution by distributing nodes over
//! the built-in city database (several landmarks around one city are offset
//! by a few tens of km, like multiple PlanetLab sites in one metro area).

use ytcdn_geomodel::{CityDb, Continent, Coord};

use crate::delay::{AccessKind, Endpoint};
use crate::noise::NoiseRng;

/// A geolocation landmark: a host with a *known* position.
#[derive(Debug, Clone, PartialEq)]
pub struct Landmark {
    /// Identifier, e.g. `"planetlab-03.Chicago"`.
    pub name: String,
    /// Known location of the landmark.
    pub coord: Coord,
    /// Continent, used for reporting.
    pub continent: Continent,
}

impl Landmark {
    /// The landmark as a network endpoint (landmarks sit on well-connected
    /// research networks, modeled as [`AccessKind::Campus`]).
    pub fn endpoint(&self) -> Endpoint {
        Endpoint::new(self.coord, AccessKind::Campus)
    }
}

/// Number of landmarks per continent in the paper's PlanetLab set.
pub const PAPER_LANDMARK_COUNTS: [(Continent, usize); 6] = [
    (Continent::NorthAmerica, 97),
    (Continent::Europe, 82),
    (Continent::Asia, 24),
    (Continent::SouthAmerica, 8),
    (Continent::Oceania, 3),
    (Continent::Africa, 1),
];

/// The 50-landmark set CBG calibrates on unless the paper's full 215 are
/// asked for: [`PAPER_LANDMARK_COUNTS`] scaled to 50 and rounded per
/// continent, Africa raised to one landmark, then one landmark taken off
/// each of North America and Asia so the counts sum to exactly 50.
pub const DEFAULT_LANDMARK_COUNTS: [(Continent, usize); 6] = [
    (Continent::NorthAmerica, 22),
    (Continent::Europe, 19),
    (Continent::Asia, 5),
    (Continent::SouthAmerica, 2),
    (Continent::Oceania, 1),
    (Continent::Africa, 1),
];

/// Builds the 215-landmark set with the paper's continental distribution.
///
/// Deterministic for a given `seed`. Landmarks cycle through the continent's
/// cities; when a city is used more than once, later copies are offset by a
/// pseudorandom 5–60 km jog (distinct sites in the same metro area).
///
/// # Examples
///
/// ```
/// use ytcdn_netsim::planetlab_landmarks;
///
/// let landmarks = planetlab_landmarks(42);
/// assert_eq!(landmarks.len(), 215);
/// ```
pub fn planetlab_landmarks(seed: u64) -> Vec<Landmark> {
    landmarks_with_counts(seed, &PAPER_LANDMARK_COUNTS)
}

/// Builds a landmark set with an arbitrary per-continent distribution.
///
/// Useful for the landmark-count ablation bench (accuracy vs number of
/// landmarks).
pub fn landmarks_with_counts(seed: u64, counts: &[(Continent, usize)]) -> Vec<Landmark> {
    let db = CityDb::builtin();
    let mut rng = NoiseRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut out = Vec::new();
    for &(continent, n) in counts {
        let cities: Vec<_> = db.in_continent(continent).collect();
        assert!(
            !cities.is_empty() || n == 0,
            "no cities available in {continent}"
        );
        for i in 0..n {
            let city = cities[i % cities.len()];
            let coord = if i < cities.len() {
                city.coord
            } else {
                let bearing = rng.gen_range_f64(0.0, 360.0);
                let km = rng.gen_range_f64(5.0, 60.0);
                city.coord.offset_km(bearing, km)
            };
            out.push(Landmark {
                name: format!("planetlab-{:03}.{}", i, city.name.replace(' ', "-")),
                coord,
                continent,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn paper_distribution_totals_215() {
        let total: usize = PAPER_LANDMARK_COUNTS.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 215);
    }

    #[test]
    fn default_distribution_totals_50_on_every_continent() {
        let total: usize = DEFAULT_LANDMARK_COUNTS.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 50);
        for ((cont, n), (paper_cont, _)) in
            DEFAULT_LANDMARK_COUNTS.iter().zip(PAPER_LANDMARK_COUNTS)
        {
            assert_eq!(*cont, paper_cont);
            assert!(*n >= 1, "{cont}");
        }
    }

    #[test]
    fn builds_paper_distribution() {
        let lms = planetlab_landmarks(1);
        assert_eq!(lms.len(), 215);
        let mut per: HashMap<Continent, usize> = HashMap::new();
        for lm in &lms {
            *per.entry(lm.continent).or_default() += 1;
        }
        for (cont, n) in PAPER_LANDMARK_COUNTS {
            assert_eq!(per.get(&cont).copied().unwrap_or(0), n, "{cont}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(planetlab_landmarks(7), planetlab_landmarks(7));
        assert_ne!(planetlab_landmarks(7), planetlab_landmarks(8));
    }

    #[test]
    fn names_are_unique() {
        let lms = planetlab_landmarks(3);
        let mut names: Vec<_> = lms.iter().map(|l| &l.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), lms.len());
    }

    #[test]
    fn landmarks_have_valid_coords() {
        for lm in planetlab_landmarks(2) {
            assert!(
                Coord::new(lm.coord.lat, lm.coord.lon).is_ok(),
                "{} at {}",
                lm.name,
                lm.coord
            );
        }
    }

    #[test]
    fn custom_counts() {
        let lms = landmarks_with_counts(0, &[(Continent::Europe, 10)]);
        assert_eq!(lms.len(), 10);
        assert!(lms.iter().all(|l| l.continent == Continent::Europe));
    }

    #[test]
    fn endpoint_is_campus() {
        let lm = &planetlab_landmarks(0)[0];
        assert_eq!(lm.endpoint().access, AccessKind::Campus);
    }
}

//! A built-in database of world cities.
//!
//! Vantage points, CBG landmarks, and data centers are all placed at cities
//! from this table. Coordinates are approximate city centers; the delay model
//! adds far more noise than the coordinate error.

use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

use crate::{Continent, Coord};

/// A named city with its coordinates and continent.
#[derive(Debug, Clone, PartialEq)]
pub struct City {
    /// Human-readable city name, unique within the database.
    pub name: &'static str,
    /// ISO-3166-ish two letter country code.
    pub country: &'static str,
    /// City-center coordinates.
    pub coord: Coord,
    /// Continent the city belongs to.
    pub continent: Continent,
}

macro_rules! city {
    ($name:literal, $country:literal, $lat:literal, $lon:literal, $cont:ident) => {
        City {
            name: $name,
            country: $country,
            coord: Coord::new_unchecked($lat, $lon),
            continent: Continent::$cont,
        }
    };
}

/// The raw city table backing [`CityDb::builtin`].
///
/// North America is deliberately dense (the paper finds 13 US data centers
/// and uses 97 North-American landmarks), Europe next (14 data centers,
/// 82 landmarks), with enough coverage elsewhere for the remaining landmarks
/// and data centers.
pub const WORLD_CITIES: &[City] = &[
    // --- North America (US) ---
    city!("New York", "US", 40.7128, -74.0060, NorthAmerica),
    city!("Los Angeles", "US", 34.0522, -118.2437, NorthAmerica),
    city!("Chicago", "US", 41.8781, -87.6298, NorthAmerica),
    city!("Houston", "US", 29.7604, -95.3698, NorthAmerica),
    city!("Phoenix", "US", 33.4484, -112.0740, NorthAmerica),
    city!("Philadelphia", "US", 39.9526, -75.1652, NorthAmerica),
    city!("San Antonio", "US", 29.4241, -98.4936, NorthAmerica),
    city!("San Diego", "US", 32.7157, -117.1611, NorthAmerica),
    city!("Dallas", "US", 32.7767, -96.7970, NorthAmerica),
    city!("San Jose", "US", 37.3382, -121.8863, NorthAmerica),
    city!("Mountain View", "US", 37.3861, -122.0839, NorthAmerica),
    city!("Austin", "US", 30.2672, -97.7431, NorthAmerica),
    city!("Columbus", "US", 39.9612, -82.9988, NorthAmerica),
    city!("Indianapolis", "US", 39.7684, -86.1581, NorthAmerica),
    city!("West Lafayette", "US", 40.4259, -86.9081, NorthAmerica),
    city!("Charlotte", "US", 35.2271, -80.8431, NorthAmerica),
    city!("Seattle", "US", 47.6062, -122.3321, NorthAmerica),
    city!("Denver", "US", 39.7392, -104.9903, NorthAmerica),
    city!("Washington DC", "US", 38.9072, -77.0369, NorthAmerica),
    city!("Boston", "US", 42.3601, -71.0589, NorthAmerica),
    city!("Nashville", "US", 36.1627, -86.7816, NorthAmerica),
    city!("Portland", "US", 45.5152, -122.6784, NorthAmerica),
    city!("Las Vegas", "US", 36.1699, -115.1398, NorthAmerica),
    city!("Detroit", "US", 42.3314, -83.0458, NorthAmerica),
    city!("Memphis", "US", 35.1495, -90.0490, NorthAmerica),
    city!("Atlanta", "US", 33.7490, -84.3880, NorthAmerica),
    city!("Miami", "US", 25.7617, -80.1918, NorthAmerica),
    city!("Minneapolis", "US", 44.9778, -93.2650, NorthAmerica),
    city!("Tulsa", "US", 36.1540, -95.9928, NorthAmerica),
    city!("Kansas City", "US", 39.0997, -94.5786, NorthAmerica),
    city!("St Louis", "US", 38.6270, -90.1994, NorthAmerica),
    city!("Pittsburgh", "US", 40.4406, -79.9959, NorthAmerica),
    city!("Salt Lake City", "US", 40.7608, -111.8910, NorthAmerica),
    city!("Council Bluffs", "US", 41.2619, -95.8608, NorthAmerica),
    city!("The Dalles", "US", 45.5946, -121.1787, NorthAmerica),
    city!("Lenoir", "US", 35.9140, -81.5390, NorthAmerica),
    city!("Moncks Corner", "US", 33.1960, -80.0131, NorthAmerica),
    city!("Ashburn", "US", 39.0438, -77.4874, NorthAmerica),
    // --- North America (CA / MX) ---
    city!("Toronto", "CA", 43.6532, -79.3832, NorthAmerica),
    city!("Montreal", "CA", 45.5017, -73.5673, NorthAmerica),
    city!("Vancouver", "CA", 49.2827, -123.1207, NorthAmerica),
    city!("Calgary", "CA", 51.0447, -114.0719, NorthAmerica),
    city!("Mexico City", "MX", 19.4326, -99.1332, NorthAmerica),
    // --- Europe ---
    city!("London", "GB", 51.5074, -0.1278, Europe),
    city!("Paris", "FR", 48.8566, 2.3522, Europe),
    city!("Berlin", "DE", 52.5200, 13.4050, Europe),
    city!("Frankfurt", "DE", 50.1109, 8.6821, Europe),
    city!("Munich", "DE", 48.1351, 11.5820, Europe),
    city!("Hamburg", "DE", 53.5511, 9.9937, Europe),
    city!("Madrid", "ES", 40.4168, -3.7038, Europe),
    city!("Barcelona", "ES", 41.3851, 2.1734, Europe),
    city!("Rome", "IT", 41.9028, 12.4964, Europe),
    city!("Milan", "IT", 45.4642, 9.1900, Europe),
    city!("Turin", "IT", 45.0703, 7.6869, Europe),
    city!("Amsterdam", "NL", 52.3676, 4.9041, Europe),
    city!("Groningen", "NL", 53.2194, 6.5665, Europe),
    city!("Brussels", "BE", 50.8503, 4.3517, Europe),
    city!("St Ghislain", "BE", 50.4549, 3.8182, Europe),
    city!("Vienna", "AT", 48.2082, 16.3738, Europe),
    city!("Zurich", "CH", 47.3769, 8.5417, Europe),
    city!("Geneva", "CH", 46.2044, 6.1432, Europe),
    city!("Stockholm", "SE", 59.3293, 18.0686, Europe),
    city!("Oslo", "NO", 59.9139, 10.7522, Europe),
    city!("Copenhagen", "DK", 55.6761, 12.5683, Europe),
    city!("Helsinki", "FI", 60.1699, 24.9384, Europe),
    city!("Hamina", "FI", 60.5693, 27.1878, Europe),
    city!("Dublin", "IE", 53.3498, -6.2603, Europe),
    city!("Lisbon", "PT", 38.7223, -9.1393, Europe),
    city!("Warsaw", "PL", 52.2297, 21.0122, Europe),
    city!("Prague", "CZ", 50.0755, 14.4378, Europe),
    city!("Budapest", "HU", 47.4979, 19.0402, Europe),
    city!("Athens", "GR", 37.9838, 23.7275, Europe),
    city!("Bucharest", "RO", 44.4268, 26.1025, Europe),
    city!("Sofia", "BG", 42.6977, 23.3219, Europe),
    city!("Lyon", "FR", 45.7640, 4.8357, Europe),
    city!("Marseille", "FR", 43.2965, 5.3698, Europe),
    city!("Manchester", "GB", 53.4808, -2.2426, Europe),
    city!("Edinburgh", "GB", 55.9533, -3.1883, Europe),
    city!("Moscow", "RU", 55.7558, 37.6173, Europe),
    city!("Kyiv", "UA", 50.4501, 30.5234, Europe),
    city!("Zagreb", "HR", 45.8150, 15.9819, Europe),
    city!("Belgrade", "RS", 44.7866, 20.4489, Europe),
    // --- Asia ---
    city!("Tokyo", "JP", 35.6762, 139.6503, Asia),
    city!("Osaka", "JP", 34.6937, 135.5023, Asia),
    city!("Seoul", "KR", 37.5665, 126.9780, Asia),
    city!("Beijing", "CN", 39.9042, 116.4074, Asia),
    city!("Shanghai", "CN", 31.2304, 121.4737, Asia),
    city!("Hong Kong", "HK", 22.3193, 114.1694, Asia),
    city!("Taipei", "TW", 25.0330, 121.5654, Asia),
    city!("Singapore", "SG", 1.3521, 103.8198, Asia),
    city!("Bangkok", "TH", 13.7563, 100.5018, Asia),
    city!("Kuala Lumpur", "MY", 3.1390, 101.6869, Asia),
    city!("Jakarta", "ID", -6.2088, 106.8456, Asia),
    city!("Mumbai", "IN", 19.0760, 72.8777, Asia),
    city!("Delhi", "IN", 28.7041, 77.1025, Asia),
    city!("Bangalore", "IN", 12.9716, 77.5946, Asia),
    city!("Tel Aviv", "IL", 32.0853, 34.7818, Asia),
    city!("Dubai", "AE", 25.2048, 55.2708, Asia),
    city!("Manila", "PH", 14.5995, 120.9842, Asia),
    // --- South America ---
    city!("Sao Paulo", "BR", -23.5505, -46.6333, SouthAmerica),
    city!("Rio de Janeiro", "BR", -22.9068, -43.1729, SouthAmerica),
    city!("Buenos Aires", "AR", -34.6037, -58.3816, SouthAmerica),
    city!("Santiago", "CL", -33.4489, -70.6693, SouthAmerica),
    city!("Bogota", "CO", 4.7110, -74.0721, SouthAmerica),
    city!("Lima", "PE", -12.0464, -77.0428, SouthAmerica),
    city!("Quito", "EC", -0.1807, -78.4678, SouthAmerica),
    city!("Montevideo", "UY", -34.9011, -56.1645, SouthAmerica),
    // --- Africa ---
    city!("Johannesburg", "ZA", -26.2041, 28.0473, Africa),
    city!("Cape Town", "ZA", -33.9249, 18.4241, Africa),
    city!("Nairobi", "KE", -1.2921, 36.8219, Africa),
    city!("Lagos", "NG", 6.5244, 3.3792, Africa),
    city!("Cairo", "EG", 30.0444, 31.2357, Africa),
    // --- Oceania ---
    city!("Sydney", "AU", -33.8688, 151.2093, Oceania),
    city!("Melbourne", "AU", -37.8136, 144.9631, Oceania),
    city!("Brisbane", "AU", -27.4698, 153.0251, Oceania),
    city!("Auckland", "NZ", -36.8485, 174.7633, Oceania),
];

/// Lookup table over [`WORLD_CITIES`].
///
/// # Examples
///
/// ```
/// use ytcdn_geomodel::{CityDb, Continent};
///
/// let db = CityDb::builtin();
/// assert_eq!(db.get("Turin").unwrap().continent, Continent::Europe);
/// assert!(db.in_continent(Continent::NorthAmerica).count() >= 30);
/// ```
#[derive(Debug, Clone)]
pub struct CityDb {
    by_name: HashMap<&'static str, &'static City>,
}

impl CityDb {
    /// Returns the built-in world city database.
    pub fn builtin() -> Self {
        let by_name = WORLD_CITIES.iter().map(|c| (c.name, c)).collect();
        Self { by_name }
    }

    /// Looks a city up by exact name.
    pub fn get(&self, name: &str) -> Option<&'static City> {
        self.by_name.get(name).copied()
    }

    /// Like [`CityDb::get`] but panics with a clear message; for use with the
    /// crate's own well-known names. (Deliberately not called `expect` so
    /// panic-path call sites stay greppable/lintable as `unwrap`/`expect`.)
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the database.
    pub fn named(&self, name: &str) -> &'static City {
        self.get(name)
            .unwrap_or_else(|| panic!("city {name:?} not in the built-in database"))
    }

    /// Iterates over all cities.
    pub fn iter(&self) -> impl Iterator<Item = &'static City> + '_ {
        WORLD_CITIES.iter()
    }

    /// Iterates over cities in the given continent, in table order.
    pub fn in_continent(&self, continent: Continent) -> impl Iterator<Item = &'static City> + '_ {
        WORLD_CITIES
            .iter()
            .filter(move |c| c.continent == continent)
    }

    /// Number of cities in the database.
    pub fn len(&self) -> usize {
        WORLD_CITIES.len()
    }

    /// Whether the database is empty (never, for the built-in table).
    pub fn is_empty(&self) -> bool {
        WORLD_CITIES.is_empty()
    }

    /// Returns the city nearest to `coord`, together with the distance in km.
    ///
    /// Used to label CBG position estimates with a city ("servers are grouped
    /// into the same data center if they are located in the same city").
    ///
    /// Answers come from a lat/lon bucket grid whose per-cell candidate
    /// lists are proved complete by the triangle inequality (see the
    /// private `NearestGrid`), so the result — including tie-breaking, which
    /// follows [`WORLD_CITIES`] table order in both paths — is identical to
    /// a full linear scan, only without touching the whole table per query.
    pub fn nearest(&self, coord: Coord) -> (&'static City, f64) {
        NearestGrid::builtin().nearest(coord)
    }
}

/// Bucket grid over [`WORLD_CITIES`] for exact nearest-city lookup.
///
/// The globe is cut into `CELL_DEG`-degree lat/lon cells. Each cell stores,
/// in table order, every city that could possibly be the nearest to *some*
/// point of the cell. Completeness argument: let `m` be the center of a
/// cell, `rho` its circumradius (every point of the cell is within `rho`
/// of `m`; for a lat/lon-aligned cell the farthest boundary point from the
/// midpoint is a corner), and `dmin` the distance from `m` to its nearest
/// city `c0`. For a query `q` in the cell with true nearest city `c*`:
///
/// ```text
/// d(c*, m) <= d(c*, q) + rho        (triangle inequality)
///          <= d(c0, q) + rho        (c* is nearest to q)
///          <= dmin + 2 rho          (triangle inequality again)
/// ```
///
/// so keeping every city within `dmin + 2 rho` (+ a float-slack epsilon)
/// of the center keeps `c*` — and every city tied with it — making the
/// grid answer, ties included, equal to the linear scan's. The "neighbor
/// ring" a bucket grid normally probes at query time is thus baked into
/// the candidate lists at build time.
#[derive(Debug)]
struct NearestGrid {
    /// `GRID_ROWS * GRID_COLS` candidate lists, row-major from the south
    /// pole / date line corner.
    cells: Vec<Vec<&'static City>>,
}

/// Cell edge length in degrees (both axes).
const CELL_DEG: f64 = 10.0;
/// Latitude rows covering [-90, 90].
const GRID_ROWS: usize = 18;
/// Longitude columns covering [-180, 180].
const GRID_COLS: usize = 36;
/// Slack added to the candidate bound to absorb floating-point error in
/// the distance computations (km) — vastly above any haversine rounding.
const GRID_SLACK_KM: f64 = 1.0;

impl NearestGrid {
    /// The process-wide grid over the static city table, built on first use.
    fn builtin() -> &'static Self {
        static GRID: OnceLock<NearestGrid> = OnceLock::new();
        GRID.get_or_init(Self::build)
    }

    fn build() -> Self {
        let mut cells = Vec::with_capacity(GRID_ROWS * GRID_COLS);
        for row in 0..GRID_ROWS {
            for col in 0..GRID_COLS {
                let lat0 = -90.0 + row as f64 * CELL_DEG;
                let lon0 = -180.0 + col as f64 * CELL_DEG;
                let center = Coord::new_unchecked(lat0 + CELL_DEG / 2.0, lon0 + CELL_DEG / 2.0);
                let rho = [
                    (lat0, lon0),
                    (lat0, lon0 + CELL_DEG),
                    (lat0 + CELL_DEG, lon0),
                    (lat0 + CELL_DEG, lon0 + CELL_DEG),
                ]
                .into_iter()
                .map(|(lat, lon)| center.distance_km(Coord::new_unchecked(lat, lon)))
                .fold(0.0_f64, f64::max);
                let dmin = WORLD_CITIES
                    .iter()
                    .map(|c| c.coord.distance_km(center))
                    .fold(f64::INFINITY, f64::min);
                let bound = dmin + 2.0 * rho + GRID_SLACK_KM;
                cells.push(
                    WORLD_CITIES
                        .iter()
                        .filter(|c| c.coord.distance_km(center) <= bound)
                        .collect(),
                );
            }
        }
        Self { cells }
    }

    /// The cell holding `coord`; boundary values (lat 90, lon 180) clamp
    /// into the last row/column.
    fn cell_index(coord: Coord) -> usize {
        let row = (((coord.lat + 90.0) / CELL_DEG) as usize).min(GRID_ROWS - 1);
        let col = (((coord.lon + 180.0) / CELL_DEG) as usize).min(GRID_COLS - 1);
        row * GRID_COLS + col
    }

    fn nearest(&self, coord: Coord) -> (&'static City, f64) {
        self.cells[Self::cell_index(coord)]
            .iter()
            .map(|&c| (c, c.coord.distance_km(coord)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            // Every cell keeps at least the city nearest its own center
            // (dmin <= dmin + 2 rho + slack) and WORLD_CITIES is static.
            // ytcdn-lint: allow(PAN001) — non-empty by construction, see above
            .expect("grid cell candidate lists are non-empty by construction")
    }
}

impl fmt::Display for City {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}, {}", self.name, self.country)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let db = CityDb::builtin();
        assert_eq!(db.by_name.len(), WORLD_CITIES.len());
    }

    #[test]
    fn all_coords_valid() {
        for c in WORLD_CITIES {
            assert!(
                Coord::new(c.coord.lat, c.coord.lon).is_ok(),
                "{} has invalid coords",
                c.name
            );
        }
    }

    #[test]
    fn continental_coverage_supports_landmark_plan() {
        // The paper's landmark set: 97 NA, 82 EU, 24 Asia, 8 SA, 3 OC, 1 AF.
        // We synthesize landmarks by jittering around cities, so we need a
        // reasonable base count per continent, not 97 distinct cities.
        let db = CityDb::builtin();
        assert!(db.in_continent(Continent::NorthAmerica).count() >= 30);
        assert!(db.in_continent(Continent::Europe).count() >= 30);
        assert!(db.in_continent(Continent::Asia).count() >= 12);
        assert!(db.in_continent(Continent::SouthAmerica).count() >= 6);
        assert!(db.in_continent(Continent::Oceania).count() >= 3);
        assert!(db.in_continent(Continent::Africa).count() >= 1);
    }

    #[test]
    fn nearest_of_city_coord_is_city() {
        let db = CityDb::builtin();
        let turin = db.named("Turin");
        let (found, d) = db.nearest(turin.coord);
        assert_eq!(found.name, "Turin");
        assert!(d < 1e-9);
    }

    #[test]
    fn nearest_of_offset_point() {
        let db = CityDb::builtin();
        let near_chicago = db.named("Chicago").coord.offset_km(10.0, 20.0);
        let (found, d) = db.nearest(near_chicago);
        assert_eq!(found.name, "Chicago");
        assert!((d - 20.0).abs() < 0.1);
    }

    /// Reference implementation: the pre-grid full linear scan.
    fn nearest_linear(coord: Coord) -> (&'static City, f64) {
        WORLD_CITIES
            .iter()
            .map(|c| (c, c.coord.distance_km(coord)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap()
    }

    #[test]
    fn grid_matches_linear_scan_at_city_coords() {
        let db = CityDb::builtin();
        for c in WORLD_CITIES {
            let (g, gd) = db.nearest(c.coord);
            let (l, ld) = nearest_linear(c.coord);
            assert_eq!(g.name, l.name, "at {}", c.name);
            assert_eq!(gd, ld);
        }
    }

    #[test]
    fn grid_matches_linear_scan_at_offsets() {
        let db = CityDb::builtin();
        // Offsets large enough to cross into neighboring cells from any
        // city, in several bearings.
        for c in WORLD_CITIES {
            for bearing in [0.0, 95.0, 190.0, 285.0] {
                for km in [13.0, 170.0, 600.0, 1400.0] {
                    let q = c.coord.offset_km(bearing, km);
                    let (g, gd) = db.nearest(q);
                    let (l, ld) = nearest_linear(q);
                    assert_eq!(g.name, l.name, "from {} bearing {bearing} km {km}", c.name);
                    assert_eq!(gd, ld);
                }
            }
        }
    }

    #[test]
    fn grid_matches_linear_scan_on_dense_sweep() {
        let db = CityDb::builtin();
        // A 3-degree global sweep, deliberately hitting cell boundaries
        // (multiples of CELL_DEG), the poles, and the date line.
        let mut lat = -90.0;
        while lat <= 90.0 {
            let mut lon = -180.0;
            while lon <= 180.0 {
                let q = Coord::new_unchecked(lat, lon);
                let (g, gd) = db.nearest(q);
                let (l, ld) = nearest_linear(q);
                assert_eq!(g.name, l.name, "at ({lat}, {lon})");
                assert_eq!(gd, ld);
                lon += 3.0;
            }
            lat += 3.0;
        }
    }

    #[test]
    fn expect_panics_on_unknown() {
        let db = CityDb::builtin();
        let r = std::panic::catch_unwind(|| db.named("Gotham"));
        assert!(r.is_err());
    }

    #[test]
    fn display_city() {
        let db = CityDb::builtin();
        assert_eq!(db.named("Turin").to_string(), "Turin, IT");
    }
}

//! Geolocation-driven analyses (Figures 2, 3 and Table III).
//!
//! Figure 2 shows the min-RTT CDF from each vantage point to all content
//! servers — the measurement that falsifies the "everything is in Mountain
//! View" database answer. Figure 3 evaluates CBG's confidence-region radius
//! for US vs European servers. Table III counts, per dataset, the servers
//! geolocated to North America / Europe / elsewhere.
//!
//! Every measurement here goes through an [`Observatory`]: pings from the
//! vantage point, and each server `/24`'s probe target for CBG. The rows
//! hold only what CBG measured. Fig. 3 still groups its radii by each
//! server's true continent, the one [`GroundTruth`](crate::observatory::GroundTruth)
//! read in this module; ROADMAP item 1 decides whether it moves to the CBG
//! estimate, as the paper could only do.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use ytcdn_cdnsim::par_map;
use ytcdn_geoloc::{Cbg, CbgResult};
use ytcdn_geomodel::{CityDb, Continent, Table3Bucket};
use ytcdn_netsim::{Endpoint, Ipv4Block, NoiseRng};
use ytcdn_tstat::Dataset;

use crate::observatory::Observatory;

/// The Figure 2 curve: min-RTT from the vantage point to every distinct
/// server of the dataset.
pub fn server_rtt_cdf(
    observatory: Observatory<'_>,
    dataset: &Dataset,
    probes: u32,
) -> crate::stats::Cdf {
    let name = dataset.name();
    crate::stats::Cdf::from_values(
        dataset
            .server_ips()
            .iter()
            .filter_map(|&ip| observatory.ping_server(name, ip, probes, 1234))
            .map(|m| m.min_ms),
    )
}

/// One server's CBG outcome. Its error against the truth is
/// [`GroundTruth::error_km`](crate::observatory::GroundTruth::error_km).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerLocation {
    /// The server (representative of its /24).
    pub ip: Ipv4Addr,
    /// CBG result.
    pub cbg: CbgResult,
    /// Estimated continent (nearest city to the CBG estimate).
    pub continent: Continent,
    /// Number of servers in this /24 seen in the dataset (the result is
    /// shared by all of them).
    pub servers_in_block: usize,
}

/// One /24 block's CBG outcome — a pure function of `(cbg, seed, block,
/// probe target)`, independent of which member addresses a dataset observed and
/// of the order blocks are processed in. That purity is what lets
/// [`crate::index::GeoIndex`] localize the union of all datasets' blocks
/// once and hand each dataset exactly the values a standalone
/// [`geolocate_servers`] call would compute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockLocation {
    /// The /24 server block.
    pub block: Ipv4Block,
    /// CBG result for the block's probe target.
    pub cbg: CbgResult,
    /// Estimated continent (nearest city to the CBG estimate).
    pub continent: Continent,
}

/// The /24 blocks of a dataset's servers that answer probes, in block
/// order, each with its probe target and the member addresses the dataset
/// observed (ascending).
pub fn dataset_blocks(
    observatory: Observatory<'_>,
    dataset: &Dataset,
) -> Vec<(Ipv4Block, Endpoint, Vec<Ipv4Addr>)> {
    let mut by_block: BTreeMap<Ipv4Block, (Endpoint, Vec<Ipv4Addr>)> = BTreeMap::new();
    for &ip in dataset.server_ips() {
        let block = Ipv4Block::slash24_of(ip);
        // Only servers that answer probes.
        if let Some(entry) = by_block.get_mut(&block) {
            entry.1.push(ip);
        } else if let Some(endpoint) = observatory.block_target(block) {
            by_block.insert(block, (endpoint, vec![ip]));
        }
    }
    by_block
        .into_iter()
        .map(|(block, (endpoint, ips))| (block, endpoint, ips))
        .collect()
}

/// CBG-localizes a set of /24 blocks on the shared worker pool
/// ([`ytcdn_cdnsim::par_map`]) with up to `jobs` workers.
///
/// Each block draws its measurement noise from its own splittable stream,
/// [`NoiseRng::for_stream`]`(seed, block_address)` — so the result for a
/// block depends only on `(cbg, seed, block, endpoint)`, never on how the
/// work was ordered or divided, and the output is byte-identical for
/// every `jobs` value.
pub fn localize_blocks(
    cbg: &Cbg,
    seed: u64,
    targets: &[(Ipv4Block, Endpoint)],
    jobs: usize,
) -> Vec<BlockLocation> {
    let cities = CityDb::builtin();
    par_map(jobs, targets, |&(block, endpoint)| {
        let tag = u64::from(u32::from(block.network()));
        let mut rng = NoiseRng::for_stream(seed, tag);
        let cbg_result = cbg.localize(&endpoint, &mut rng);
        let (city, _) = cities.nearest(cbg_result.estimate);
        BlockLocation {
            block,
            cbg: cbg_result,
            continent: city.continent,
        }
    })
}

/// Combines a block's shared CBG outcome with one dataset's view of the
/// block (observed members) into the per-dataset row.
pub(crate) fn block_to_server_location(loc: &BlockLocation, ips: &[Ipv4Addr]) -> ServerLocation {
    ServerLocation {
        ip: ips[0],
        cbg: loc.cbg,
        continent: loc.continent,
        servers_in_block: ips.len(),
    }
}

/// Geolocates every /24 of a dataset's servers with CBG (one representative
/// per /24 — the paper's own aggregation makes block-mates share a data
/// center anyway), on up to `jobs` workers. The per-block noise streams
/// make the output byte-identical for every `jobs` value (see
/// [`localize_blocks`]).
pub fn geolocate_servers(
    observatory: Observatory<'_>,
    dataset: &Dataset,
    cbg: &Cbg,
    seed: u64,
    jobs: usize,
) -> Vec<ServerLocation> {
    let blocks = dataset_blocks(observatory, dataset);
    let targets: Vec<(Ipv4Block, Endpoint)> =
        blocks.iter().map(|&(block, ep, _)| (block, ep)).collect();
    let locs = localize_blocks(cbg, seed, &targets, jobs);
    blocks
        .iter()
        .zip(&locs)
        .map(|((_, _, ips), loc)| block_to_server_location(loc, ips))
        .collect()
}

/// One Table III row: servers per continent bucket (weighted by the number
/// of servers each geolocated /24 represents).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContinentCounts {
    /// Servers geolocated to North America.
    pub north_america: usize,
    /// Servers geolocated to Europe.
    pub europe: usize,
    /// Everywhere else.
    pub others: usize,
}

impl ContinentCounts {
    /// Total servers counted.
    pub fn total(&self) -> usize {
        self.north_america + self.europe + self.others
    }
}

/// Aggregates geolocation results into the Table III buckets.
pub fn continent_counts(locations: &[ServerLocation]) -> ContinentCounts {
    let mut c = ContinentCounts::default();
    for loc in locations {
        match loc.continent.table3_bucket() {
            Table3Bucket::NorthAmerica => c.north_america += loc.servers_in_block,
            Table3Bucket::Europe => c.europe += loc.servers_in_block,
            Table3Bucket::Others => c.others += loc.servers_in_block,
        }
    }
    c
}

/// The Figure 3 CDFs: CBG confidence-region radii for servers in the US and
/// in Europe, by the continent of the city nearest each server `/24`'s true
/// position, read from `truth`.
pub fn radius_cdfs(
    locations: &[ServerLocation],
    // ytcdn-lint: allow(OBS001) — fig. 3 groups by true continent; ROADMAP item 1 decides whether the CBG estimate replaces it
    truth: crate::observatory::GroundTruth<'_>,
) -> (crate::stats::Cdf, crate::stats::Cdf) {
    let cities = CityDb::builtin();
    let mut us = Vec::new();
    let mut eu = Vec::new();
    for loc in locations {
        let Some(coord) = truth.block_coord(loc.ip) else {
            continue;
        };
        match cities.nearest(coord).0.continent {
            Continent::NorthAmerica => us.push(loc.cbg.radius_km),
            Continent::Europe => eu.push(loc.cbg.radius_km),
            _ => {}
        }
    }
    (
        crate::stats::Cdf::from_values(us),
        crate::stats::Cdf::from_values(eu),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observatory::GroundTruth;
    use ytcdn_cdnsim::{ScenarioConfig, StandardScenario};
    use ytcdn_geomodel::Continent as C;
    use ytcdn_netsim::{landmarks_with_counts, DelayModel};
    use ytcdn_tstat::DatasetName;

    fn scenario() -> StandardScenario {
        StandardScenario::build(ScenarioConfig::with_scale(0.004, 61))
    }

    fn test_cbg() -> Cbg {
        let lms = landmarks_with_counts(
            9,
            &[
                (C::NorthAmerica, 18),
                (C::Europe, 18),
                (C::Asia, 6),
                (C::SouthAmerica, 3),
                (C::Oceania, 2),
            ],
        );
        Cbg::calibrate(lms, DelayModel::default(), 3, 19)
    }

    #[test]
    fn fig2_rtt_cdfs_differ_by_vantage() {
        let s = scenario();
        let (us, _) = s.run(DatasetName::UsCampus);
        let (eu, _) = s.run(DatasetName::Eu1Ftth);
        let us_cdf = server_rtt_cdf(Observatory::new(s.world()), &us, 3);
        let eu_cdf = server_rtt_cdf(Observatory::new(s.world()), &eu, 3);
        assert!(!us_cdf.is_empty() && !eu_cdf.is_empty());
        // Both vantage points see a wide RTT spread — incompatible with a
        // single server location (the paper's Maxmind refutation).
        assert!(us_cdf.max() - us_cdf.min() > 50.0);
        assert!(eu_cdf.max() - eu_cdf.min() > 50.0);
        // The preferred-DC mass sits at low RTT.
        assert!(eu_cdf.median() < 60.0, "EU median {}", eu_cdf.median());
    }

    #[test]
    fn geolocation_mostly_correct_continent() {
        let s = scenario();
        let (ds, _) = s.run(DatasetName::Eu1Campus);
        let locs = geolocate_servers(Observatory::new(s.world()), &ds, &test_cbg(), 5, 1);
        assert!(!locs.is_empty());
        let truth = GroundTruth::new(s.world());
        let cities = CityDb::builtin();
        let correct = locs
            .iter()
            .filter(|l| {
                let true_city = cities.nearest(truth.block_coord(l.ip).unwrap()).0;
                l.continent.table3_bucket() == true_city.continent.table3_bucket()
            })
            .count();
        let frac = correct as f64 / locs.len() as f64;
        assert!(frac > 0.9, "continent accuracy {frac}");
    }

    #[test]
    fn parallel_geolocation_is_byte_identical() {
        let s = scenario();
        let cbg = test_cbg();
        let (ds, _) = s.run(DatasetName::Eu1Campus);
        let sequential = geolocate_servers(Observatory::new(s.world()), &ds, &cbg, 5, 1);
        for jobs in [2, 3, 8] {
            let parallel = geolocate_servers(Observatory::new(s.world()), &ds, &cbg, 5, jobs);
            assert_eq!(sequential, parallel, "jobs {jobs}");
        }
    }

    #[test]
    fn table3_every_dataset_sees_other_continents() {
        // "in each of the datasets, at least 10% of the accessed servers are
        // in a different continent".
        let s = scenario();
        let cbg = test_cbg();
        let (ds, _) = s.run(DatasetName::Eu1Adsl);
        let locs = geolocate_servers(Observatory::new(s.world()), &ds, &cbg, 5, 1);
        let counts = continent_counts(&locs);
        assert!(counts.total() > 0);
        assert!(
            counts.europe > counts.north_america,
            "EU1 sees mostly European servers: {counts:?}"
        );
        assert!(
            counts.north_america + counts.others > 0,
            "EU1 must also see foreign servers: {counts:?}"
        );
    }

    #[test]
    fn fig3_radius_cdfs_plausible() {
        let s = scenario();
        let cbg = test_cbg();
        // Pool two datasets for coverage of both continents.
        let obs = Observatory::new(s.world());
        let mut locs = geolocate_servers(obs, &s.run(DatasetName::UsCampus).0, &cbg, 5, 1);
        locs.extend(geolocate_servers(
            obs,
            &s.run(DatasetName::Eu1Campus).0,
            &cbg,
            6,
            1,
        ));
        let (us, eu) = radius_cdfs(&locs, GroundTruth::new(s.world()));
        assert!(!us.is_empty() && !eu.is_empty());
        // Paper's ballpark: medians of tens of km, 90th percentiles of
        // hundreds. Our reduced landmark set is coarser; assert the order
        // of magnitude.
        for cdf in [&us, &eu] {
            assert!(cdf.median() < 1500.0, "median {}", cdf.median());
            assert!(cdf.percentile(90.0) < 3000.0);
        }
    }

    #[test]
    fn geolocation_error_bounded_by_region() {
        let s = scenario();
        let (ds, _) = s.run(DatasetName::Eu1Ftth);
        let locs = geolocate_servers(Observatory::new(s.world()), &ds, &test_cbg(), 5, 1);
        let truth = GroundTruth::new(s.world());
        // The confidence region should usually contain the truth: error
        // below ~2 radii most of the time.
        let ok = locs
            .iter()
            .filter(|l| truth.error_km(l).unwrap() <= 2.0 * l.cbg.radius_km + 50.0)
            .count();
        let frac = ok as f64 / locs.len().max(1) as f64;
        assert!(frac > 0.7, "containment fraction {frac}");
    }
}

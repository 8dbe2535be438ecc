//! Server → data-center mapping and the per-dataset analysis context.
//!
//! The paper's flow analyses all rest on three mappings established first:
//! which /24s form which data center (Section V), the RTT from the vantage
//! point to each data center (min over pings to its servers), and which data
//! center is the *preferred* one for the network (Section VI-B: the one
//! carrying the dominant share of bytes, which is also the lowest-RTT one;
//! for EU2, the lower-RTT of the two dominant ones).

use std::collections::HashMap;
use std::net::Ipv4Addr;

use crate::error::{AnalysisError, AnalysisResult};
use ytcdn_cdnsim::World;
use ytcdn_geoloc::CityCluster;
use ytcdn_geomodel::{CityDb, Coord};
use ytcdn_netsim::Ipv4Block;
use ytcdn_tstat::{Dataset, DatasetName, FlowClass, FlowRecord};

/// How many servers per data center to ping when measuring its RTT.
const RTT_PING_SERVERS: usize = 5;

/// One data center of the analysis: its city label, its RTT and distance
/// from the vantage point, and the dataset's video traffic it served.
/// Table III's continents come from the geolocated servers
/// ([`crate::geo_analysis::ServerLocation`]), not from here.
#[derive(Debug, Clone, PartialEq)]
pub struct DcInfo {
    /// Analysis-local index.
    pub index: usize,
    /// City label of the data center.
    pub city_name: String,
    /// Min RTT from the vantage point, ms.
    pub rtt_ms: f64,
    /// Great-circle distance from the vantage point, km.
    pub distance_km: f64,
    /// Bytes of *video* flows served by this data center in the dataset.
    pub video_bytes: u64,
    /// Number of video flows served.
    pub video_flows: u64,
    /// Distinct servers of this data center seen in the dataset.
    pub servers_seen: usize,
}

/// A /24 → data-center-index assignment plus each center's city label and
/// location, either taken from ground truth or inferred by CBG city
/// clustering.
#[derive(Debug, Clone, Default)]
pub struct DcMap {
    blocks: HashMap<Ipv4Block, usize>,
    metas: Vec<(String, Coord)>,
}

impl DcMap {
    /// Ground-truth map: the analysis data centers of the simulated world
    /// (what whois + perfect geolocation would give).
    pub fn from_world(world: &World) -> Self {
        let mut map = DcMap::default();
        for dc in world.topology().analysis_dcs() {
            let idx = map.metas.len();
            map.metas.push((dc.city.name.to_owned(), dc.city.coord));
            for &ip in &dc.servers {
                map.blocks.insert(Ipv4Block::slash24_of(ip), idx);
            }
        }
        map
    }

    /// Map inferred from CBG city clusters (the paper's actual pipeline).
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::UnknownCity`] when a cluster's city label
    /// does not resolve against the built-in city table.
    pub fn from_clusters(clusters: &[CityCluster], cities: &CityDb) -> AnalysisResult<Self> {
        let mut map = DcMap::default();
        for cluster in clusters {
            let idx = map.metas.len();
            let city =
                cities
                    .get(&cluster.city_name)
                    .ok_or_else(|| AnalysisError::UnknownCity {
                        city: cluster.city_name.clone(),
                    })?;
            map.metas.push((city.name.to_owned(), city.coord));
            for &ip in &cluster.servers {
                map.blocks.insert(Ipv4Block::slash24_of(ip), idx);
            }
        }
        Ok(map)
    }

    /// The data-center index of a server address, if it is an analysis
    /// server.
    pub fn dc_of(&self, ip: Ipv4Addr) -> Option<usize> {
        self.blocks.get(&Ipv4Block::slash24_of(ip)).copied()
    }

    /// Number of data centers in the map.
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }
}

/// Everything the per-figure analyses need about one dataset.
#[derive(Debug, Clone)]
pub struct AnalysisContext {
    dataset_name: DatasetName,
    dcs: Vec<DcInfo>,
    map: DcMap,
    preferred: usize,
}

impl AnalysisContext {
    /// Builds the context from the ground-truth data-center map.
    pub fn from_ground_truth(world: &World, dataset: &Dataset) -> Self {
        match Self::from_map(world, dataset, DcMap::from_world(world)) {
            Ok(ctx) => ctx,
            // Unreachable: the simulated world always defines its analysis
            // data centers, independent of what the dataset captured.
            Err(e) => panic!("{e}"),
        }
    }

    /// Builds the context from an arbitrary (e.g. CBG-inferred) map.
    ///
    /// RTT per data center is measured the way the paper does it: minimum
    /// over pings to the data center's servers seen in the dataset (falling
    /// back to the model's floor toward the city for centers with no seen
    /// server).
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::NoDataCenters`] when `map` is empty — e.g.
    /// a CBG pass over a dataset that captured no analysis servers — since
    /// no preferred data center can be picked.
    pub fn from_map(world: &World, dataset: &Dataset, map: DcMap) -> AnalysisResult<Self> {
        let name = dataset.name();
        if map.is_empty() {
            return Err(AnalysisError::NoDataCenters {
                source: format!("{name} data-center map"),
            });
        }
        let vantage_coord = world.vantage(name).city.coord;

        // Traffic per data center: each server resolves to its center once,
        // through the dataset's server dictionary, and each flow is one
        // indexed load.
        let n = map.metas.len();
        let server_dc: Vec<Option<usize>> = dataset
            .server_ips()
            .iter()
            .map(|&ip| map.dc_of(ip))
            .collect();
        let mut video_bytes = vec![0u64; n];
        let mut video_flows = vec![0u64; n];
        let c = dataset.columns();
        for (&rank, &bytes) in c.server_ranks.iter().zip(&c.bytes) {
            if let Some(idx) = server_dc[rank as usize] {
                if FlowClass::of_bytes(bytes) == FlowClass::Video {
                    video_bytes[idx] += bytes;
                    video_flows[idx] += 1;
                }
            }
        }
        // The dictionary is ascending and each of its servers is seen, so
        // each center's list comes out sorted and distinct.
        let mut servers: Vec<Vec<Ipv4Addr>> = vec![Vec::new(); n];
        for (&ip, dc) in dataset.server_ips().iter().zip(&server_dc) {
            if let Some(idx) = *dc {
                servers[idx].push(ip);
            }
        }

        // RTT and distance per data center.
        let dcs: Vec<DcInfo> = map
            .metas
            .iter()
            .enumerate()
            .map(|(idx, (city_name, coord))| {
                let rtt_ms = servers[idx]
                    .iter()
                    .take(RTT_PING_SERVERS)
                    .filter_map(|&ip| world.ping_server(name, ip, 10, 77))
                    .map(|m| m.min_ms)
                    .fold(f64::INFINITY, f64::min);
                let rtt_ms = if rtt_ms.is_finite() {
                    rtt_ms
                } else {
                    // No server of this center seen: fall back to the floor
                    // toward its city so Figure 8-style rankings still work.
                    fallback_rtt(world, name, *coord, city_name)
                };
                DcInfo {
                    index: idx,
                    city_name: city_name.clone(),
                    rtt_ms,
                    distance_km: vantage_coord.distance_km(*coord),
                    video_bytes: video_bytes[idx],
                    video_flows: video_flows[idx],
                    servers_seen: servers[idx].len(),
                }
            })
            .collect();

        let preferred = pick_preferred(&dcs);
        Ok(Self {
            dataset_name: name,
            dcs,
            map,
            preferred,
        })
    }

    /// The dataset this context describes.
    pub fn dataset_name(&self) -> DatasetName {
        self.dataset_name
    }

    /// All data centers.
    pub fn dcs(&self) -> &[DcInfo] {
        &self.dcs
    }

    /// The preferred data center.
    pub fn preferred(&self) -> &DcInfo {
        &self.dcs[self.preferred]
    }

    /// The data-center index serving a flow, if its server is an analysis
    /// server (Google AS or the EU2 internal center).
    pub fn dc_of(&self, r: &FlowRecord) -> Option<usize> {
        self.map.dc_of(r.server_ip)
    }

    /// The data-center index of each server in `servers` (a dataset's
    /// server dictionary), `None` outside the analysis ASes: the per-entry
    /// table a flow's server rank indexes.
    pub fn server_dcs(&self, servers: &[Ipv4Addr]) -> Vec<Option<usize>> {
        servers.iter().map(|&ip| self.map.dc_of(ip)).collect()
    }

    /// Whether a flow was served by the preferred data center; `None` when
    /// the server is outside the analysis ASes.
    pub fn is_preferred(&self, r: &FlowRecord) -> Option<bool> {
        self.dc_of(r).map(|idx| idx == self.preferred)
    }

    /// Whether a flow is a video flow (vs control).
    pub fn is_video(&self, r: &FlowRecord) -> bool {
        FlowClass::of_bytes(r.bytes) == FlowClass::Video
    }

    /// Fraction of analysis video bytes served by the preferred data
    /// center (the paper's ">85 % except EU2" observation).
    pub fn preferred_share_of_bytes(&self) -> f64 {
        let total: u64 = self.dcs.iter().map(|d| d.video_bytes).sum();
        if total == 0 {
            return 0.0;
        }
        self.preferred().video_bytes as f64 / total as f64
    }

    /// Fraction of analysis video *flows* served by non-preferred data
    /// centers.
    pub fn nonpreferred_share_of_flows(&self) -> f64 {
        let total: u64 = self.dcs.iter().map(|d| d.video_flows).sum();
        if total == 0 {
            return 0.0;
        }
        1.0 - self.preferred().video_flows as f64 / total as f64
    }
}

fn fallback_rtt(world: &World, name: DatasetName, coord: Coord, city_name: &str) -> f64 {
    // Find the topology data center at this city if one exists; otherwise
    // approximate with the delay model floor plus nothing.
    for dc in world.topology().analysis_dcs() {
        if dc.city.name == city_name {
            return world.rtt_to_dc(name, dc.id);
        }
    }
    let vp = world.vantage(name);
    let ep = ytcdn_netsim::Endpoint::new(coord, ytcdn_netsim::AccessKind::DataCenter);
    world.delay_model().floor_rtt_ms(&vp.endpoint(), &ep)
}

/// The paper's preferred-data-center rule: the dominant byte source — and
/// when two centers share the traffic (EU2's in-ISP + external pair), the
/// lower-RTT of the two.
fn pick_preferred(dcs: &[DcInfo]) -> usize {
    // `from_map` rejects empty maps before this runs.
    assert!(!dcs.is_empty(), "cannot pick a preferred DC from no DCs");
    let total: u64 = dcs.iter().map(|d| d.video_bytes).sum();
    let mut by_bytes: Vec<&DcInfo> = dcs.iter().collect();
    by_bytes.sort_by_key(|d| std::cmp::Reverse(d.video_bytes));
    if by_bytes.len() >= 2 && total > 0 {
        let (first, second) = (by_bytes[0], by_bytes[1]);
        if second.video_bytes as f64 / total as f64 >= 0.15 {
            return if first.rtt_ms <= second.rtt_ms {
                first.index
            } else {
                second.index
            };
        }
    }
    by_bytes[0].index
}

#[cfg(test)]
mod tests {
    use super::*;
    use ytcdn_cdnsim::{ScenarioConfig, StandardScenario};

    fn scenario() -> StandardScenario {
        StandardScenario::build(ScenarioConfig::with_scale(0.008, 21))
    }

    #[test]
    fn ground_truth_map_has_33_dcs() {
        let s = scenario();
        let map = DcMap::from_world(s.world());
        assert_eq!(map.len(), 33);
    }

    #[test]
    fn map_finds_analysis_servers_only() {
        let s = scenario();
        let map = DcMap::from_world(s.world());
        let topo = s.world().topology();
        for dc in topo.dcs() {
            let expected = dc.pool.in_analysis();
            let got = map.dc_of(dc.servers[0]).is_some();
            assert_eq!(got, expected, "{} {:?}", dc.city, dc.pool);
        }
        assert_eq!(map.dc_of("9.9.9.9".parse().unwrap()), None);
    }

    #[test]
    fn preferred_matches_ground_truth() {
        let s = scenario();
        for name in [
            DatasetName::UsCampus,
            DatasetName::Eu1Adsl,
            DatasetName::Eu2,
        ] {
            let (ds, _) = s.run(name);
            let ctx = AnalysisContext::from_ground_truth(s.world(), &ds);
            let truth = s.world().preferred_dc(name);
            let truth_city = s.world().topology().dc(truth).city.name;
            assert_eq!(ctx.preferred().city_name, truth_city, "{name}");
        }
    }

    #[test]
    fn preferred_share_high_for_eu1() {
        let s = scenario();
        let (ds, _) = s.run(DatasetName::Eu1Ftth);
        let ctx = AnalysisContext::from_ground_truth(s.world(), &ds);
        let share = ctx.preferred_share_of_bytes();
        assert!(share > 0.80, "preferred byte share {share}");
    }

    #[test]
    fn eu2_preferred_share_lower() {
        let s = scenario();
        let (eu2, _) = s.run(DatasetName::Eu2);
        let ctx = AnalysisContext::from_ground_truth(s.world(), &eu2);
        let share = ctx.preferred_share_of_bytes();
        // EU2: >55% of traffic from non-preferred (Section VI-B).
        assert!(share < 0.65, "EU2 preferred byte share {share}");
        assert!(ctx.nonpreferred_share_of_flows() > 0.35);
    }

    #[test]
    fn preferred_has_lowest_rtt_among_major_dcs() {
        let s = scenario();
        let (ds, _) = s.run(DatasetName::Eu1Campus);
        let ctx = AnalysisContext::from_ground_truth(s.world(), &ds);
        let pref = ctx.preferred();
        let total: u64 = ctx.dcs().iter().map(|d| d.video_bytes).sum();
        for d in ctx.dcs() {
            if d.video_bytes as f64 / total as f64 > 0.15 {
                assert!(pref.rtt_ms <= d.rtt_ms, "{} beats preferred", d.city_name);
            }
        }
    }

    #[test]
    fn eu2_preferred_is_internal_despite_minority_bytes() {
        // The EU2 rule: two dominant DCs, pick the lower-RTT (internal) one.
        let s = scenario();
        let (eu2, _) = s.run(DatasetName::Eu2);
        let ctx = AnalysisContext::from_ground_truth(s.world(), &eu2);
        assert_eq!(
            ctx.preferred().city_name,
            ytcdn_cdnsim::topology::EU2_INTERNAL_CITY
        );
    }

    #[test]
    fn rtt_and_distance_positive() {
        let s = scenario();
        let (ds, _) = s.run(DatasetName::UsCampus);
        let ctx = AnalysisContext::from_ground_truth(s.world(), &ds);
        for d in ctx.dcs() {
            assert!(d.rtt_ms > 0.0, "{}", d.city_name);
            assert!(d.distance_km >= 0.0);
        }
    }

    #[test]
    fn analysis_pools_match_map_coverage() {
        use ytcdn_cdnsim::ServerPool;
        assert!(ServerPool::Google.in_analysis());
        assert!(!ServerPool::LegacyYouTubeEu.in_analysis());
    }
}

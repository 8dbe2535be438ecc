//! The server-side topology: data centers, server pools, and addressing.
//!
//! The paper finds 33 data centers (14 in Europe, 13 in the USA, 6
//! elsewhere) hosting servers in the Google AS — plus legacy YouTube-EU
//! servers (AS 43515) still carrying ~1 % of bytes, a sprinkle of
//! third-party-hosted servers, and, uniquely in the EU2 ISP, a data center
//! *inside* the monitored network's own AS. [`Topology::standard`] builds
//! exactly that world.

use std::collections::HashMap;
use std::fmt;
use std::net::Ipv4Addr;

use ytcdn_geomodel::{City, CityDb, Continent, Coord};
use ytcdn_netsim::{AccessKind, AsRegistry, Asn, BlockAllocator, Endpoint, Ipv4Block};
use ytcdn_tstat::VideoId;

use crate::rng::SimRng;

/// Index of a data center within a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DataCenterId(pub usize);

impl fmt::Display for DataCenterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dc{}", self.0)
    }
}

/// Which pool a data center belongs to; determines its AS and whether it is
/// part of the "33 data centers" the paper analyzes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServerPool {
    /// Google's own CDN (AS 15169) — the main infrastructure.
    Google,
    /// The data center deployed *inside* the EU2 ISP (the ISP's own AS).
    IspInternal,
    /// Legacy YouTube-EU servers (AS 43515).
    LegacyYouTubeEu,
    /// Third-party-hosted caches (transit ASes like CW / GBLX).
    ThirdParty,
}

impl ServerPool {
    /// Whether servers of this pool count toward the paper's data-center
    /// analysis ("we only focus on accesses to video servers located in the
    /// Google AS. For the EU2 dataset, we include ... the data center
    /// located inside the corresponding ISP").
    pub fn in_analysis(self) -> bool {
        matches!(self, ServerPool::Google | ServerPool::IspInternal)
    }
}

/// A data center: a city-located group of content servers in one AS.
#[derive(Debug, Clone)]
pub struct DataCenter {
    /// Topology-wide identifier.
    pub id: DataCenterId,
    /// The city the data center sits in.
    pub city: &'static City,
    /// Pool / ownership.
    pub pool: ServerPool,
    /// Owning AS.
    pub asn: Asn,
    /// Server addresses, allocated from the pool's address space.
    pub servers: Vec<Ipv4Addr>,
}

impl DataCenter {
    /// Continent of the data center.
    pub fn continent(&self) -> Continent {
        self.city.continent
    }

    /// Number of servers.
    pub fn num_servers(&self) -> usize {
        self.servers.len()
    }

    /// The server a given video hashes to.
    ///
    /// YouTube names cache hosts per content: requests for one video land on
    /// one server of the data center, which is what turns a flash crowd into
    /// a single-server hot spot (the paper's Figure 15: max per-server load
    /// far above the average).
    pub fn server_for_video(&self, video: VideoId) -> Ipv4Addr {
        self.servers[self.server_index_for_video(video)]
    }

    /// The position in [`DataCenter::servers`] of
    /// [`DataCenter::server_for_video`].
    pub fn server_index_for_video(&self, video: VideoId) -> usize {
        let h = video
            .index()
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(self.id.0 as u64)
            .wrapping_mul(0xbf58_476d_1ce4_e5b9);
        (h >> 32) as usize % self.servers.len()
    }

    /// The position in [`DataCenter::servers`] of a uniformly random
    /// server (used by pools without per-video mapping).
    pub fn random_server_index(&self, rng: &mut SimRng) -> usize {
        rng.gen_range(0..self.servers.len())
    }
}

/// Specification of one data center for the builder.
#[derive(Debug, Clone, Copy)]
pub struct DcSpec {
    /// City name (must exist in the built-in [`CityDb`]).
    pub city: &'static str,
    /// Number of servers to allocate.
    pub servers: usize,
    /// Pool the data center belongs to.
    pub pool: ServerPool,
}

/// The Google CDN proper: 13 US + 13 EU sites (the 14th EU site is the EU2
/// in-ISP data center added separately) + 6 elsewhere. Server counts favor
/// the large well-known sites.
pub const GOOGLE_DC_SPECS: &[DcSpec] = &[
    // --- United States (13) ---
    DcSpec {
        city: "Ashburn",
        servers: 120,
        pool: ServerPool::Google,
    },
    DcSpec {
        city: "Mountain View",
        servers: 120,
        pool: ServerPool::Google,
    },
    DcSpec {
        city: "The Dalles",
        servers: 100,
        pool: ServerPool::Google,
    },
    DcSpec {
        city: "Council Bluffs",
        servers: 100,
        pool: ServerPool::Google,
    },
    DcSpec {
        city: "Lenoir",
        servers: 80,
        pool: ServerPool::Google,
    },
    DcSpec {
        city: "Moncks Corner",
        servers: 80,
        pool: ServerPool::Google,
    },
    DcSpec {
        city: "Atlanta",
        servers: 100,
        pool: ServerPool::Google,
    },
    DcSpec {
        city: "Dallas",
        servers: 80,
        pool: ServerPool::Google,
    },
    DcSpec {
        city: "Chicago",
        servers: 40,
        pool: ServerPool::Google,
    },
    DcSpec {
        city: "Indianapolis",
        servers: 24,
        pool: ServerPool::Google,
    },
    DcSpec {
        city: "Columbus",
        servers: 24,
        pool: ServerPool::Google,
    },
    DcSpec {
        city: "Detroit",
        servers: 24,
        pool: ServerPool::Google,
    },
    DcSpec {
        city: "St Louis",
        servers: 24,
        pool: ServerPool::Google,
    },
    // --- Europe (13 Google; the EU2 internal site makes 14) ---
    DcSpec {
        city: "Milan",
        servers: 110,
        pool: ServerPool::Google,
    },
    DcSpec {
        city: "Paris",
        servers: 110,
        pool: ServerPool::Google,
    },
    DcSpec {
        city: "London",
        servers: 110,
        pool: ServerPool::Google,
    },
    DcSpec {
        city: "Frankfurt",
        servers: 100,
        pool: ServerPool::Google,
    },
    DcSpec {
        city: "Amsterdam",
        servers: 90,
        pool: ServerPool::Google,
    },
    DcSpec {
        city: "Groningen",
        servers: 80,
        pool: ServerPool::Google,
    },
    DcSpec {
        city: "St Ghislain",
        servers: 100,
        pool: ServerPool::Google,
    },
    DcSpec {
        city: "Dublin",
        servers: 60,
        pool: ServerPool::Google,
    },
    DcSpec {
        city: "Hamina",
        servers: 60,
        pool: ServerPool::Google,
    },
    DcSpec {
        city: "Stockholm",
        servers: 50,
        pool: ServerPool::Google,
    },
    DcSpec {
        city: "Zurich",
        servers: 40,
        pool: ServerPool::Google,
    },
    DcSpec {
        city: "Vienna",
        servers: 40,
        pool: ServerPool::Google,
    },
    DcSpec {
        city: "Warsaw",
        servers: 40,
        pool: ServerPool::Google,
    },
    // --- Rest of the world (6) ---
    DcSpec {
        city: "Tokyo",
        servers: 60,
        pool: ServerPool::Google,
    },
    DcSpec {
        city: "Hong Kong",
        servers: 40,
        pool: ServerPool::Google,
    },
    DcSpec {
        city: "Singapore",
        servers: 40,
        pool: ServerPool::Google,
    },
    DcSpec {
        city: "Sydney",
        servers: 30,
        pool: ServerPool::Google,
    },
    DcSpec {
        city: "Sao Paulo",
        servers: 40,
        pool: ServerPool::Google,
    },
    DcSpec {
        city: "Taipei",
        servers: 30,
        pool: ServerPool::Google,
    },
];

/// Legacy YouTube-EU sites (AS 43515): many addresses, little traffic.
pub const LEGACY_DC_SPECS: &[DcSpec] = &[
    DcSpec {
        city: "London",
        servers: 250,
        pool: ServerPool::LegacyYouTubeEu,
    },
    DcSpec {
        city: "Amsterdam",
        servers: 250,
        pool: ServerPool::LegacyYouTubeEu,
    },
    DcSpec {
        city: "Mountain View",
        servers: 200,
        pool: ServerPool::LegacyYouTubeEu,
    },
];

/// Third-party-hosted caches in transit ASes.
pub const THIRD_PARTY_DC_SPECS: &[DcSpec] = &[
    DcSpec {
        city: "Frankfurt",
        servers: 60,
        pool: ServerPool::ThirdParty,
    },
    DcSpec {
        city: "New York",
        servers: 60,
        pool: ServerPool::ThirdParty,
    },
];

/// The AS of the EU2 ISP (home AS of the EU2 dataset and of its internal
/// data center).
pub const EU2_HOME_AS: Asn = Asn(3352);

/// The city of the EU2 in-ISP data center.
pub const EU2_INTERNAL_CITY: &str = "Madrid";

/// The full server-side world.
#[derive(Debug, Clone)]
pub struct Topology {
    dcs: Vec<DataCenter>,
    slash24_to_dc: HashMap<Ipv4Block, DataCenterId>,
    registry: AsRegistry,
}

impl Topology {
    /// Builds the standard topology: 33 analysis data centers (32 Google +
    /// the EU2 internal one), the legacy YouTube-EU pools and the
    /// third-party pools, with all address blocks registered in the AS
    /// registry.
    pub fn standard() -> Self {
        let db = CityDb::builtin();
        let mut dcs = Vec::new();
        let mut slash24_to_dc = HashMap::new();
        let mut registry = AsRegistry::new();

        // Address space per pool.
        let google_block: Ipv4Block = Ipv4Block::literal("74.125.0.0/16");
        let legacy_block: Ipv4Block = Ipv4Block::literal("208.117.224.0/19");
        let third_cw_block: Ipv4Block = Ipv4Block::literal("195.27.0.0/20");
        let third_gblx_block: Ipv4Block = Ipv4Block::literal("64.214.0.0/20");
        let eu2_internal_block: Ipv4Block = Ipv4Block::literal("62.42.0.0/20");
        registry.register(google_block, Asn::GOOGLE);
        registry.register(legacy_block, Asn::YOUTUBE_EU);
        registry.register(third_cw_block, Asn::CW);
        registry.register(third_gblx_block, Asn::GBLX);
        registry.register(eu2_internal_block, EU2_HOME_AS);

        let mut google_24s = google_block.slash24s();
        let mut legacy_24s = legacy_block.slash24s();
        let mut cw_24s = third_cw_block.slash24s();
        let mut gblx_24s = third_gblx_block.slash24s();
        let mut internal_24s = eu2_internal_block.slash24s();

        let add = |spec: &DcSpec,
                   asn: Asn,
                   s24s: &mut dyn Iterator<Item = Ipv4Block>,
                   dcs: &mut Vec<DataCenter>,
                   map: &mut HashMap<Ipv4Block, DataCenterId>| {
            let id = DataCenterId(dcs.len());
            let city = db.named(spec.city);
            let mut servers = Vec::with_capacity(spec.servers);
            let mut alloc: Option<BlockAllocator> = None;
            while servers.len() < spec.servers {
                match alloc.as_mut().and_then(BlockAllocator::next_addr) {
                    Some(ip) => servers.push(ip),
                    None => {
                        // ytcdn-lint: allow(PAN001) — pool blocks hold far more /24s than any DC spec requests
                        let block = s24s.next().expect("pool address space exhausted");
                        map.insert(block, id);
                        alloc = Some(BlockAllocator::new(block));
                    }
                }
            }
            dcs.push(DataCenter {
                id,
                city,
                pool: spec.pool,
                asn,
                servers,
            });
        };

        for spec in GOOGLE_DC_SPECS {
            add(
                spec,
                Asn::GOOGLE,
                &mut google_24s,
                &mut dcs,
                &mut slash24_to_dc,
            );
        }
        // The EU2 in-ISP data center: part of the paper's 33, but in the
        // ISP's own AS.
        add(
            &DcSpec {
                city: EU2_INTERNAL_CITY,
                servers: 60,
                pool: ServerPool::IspInternal,
            },
            EU2_HOME_AS,
            &mut internal_24s,
            &mut dcs,
            &mut slash24_to_dc,
        );
        for spec in LEGACY_DC_SPECS {
            add(
                spec,
                Asn::YOUTUBE_EU,
                &mut legacy_24s,
                &mut dcs,
                &mut slash24_to_dc,
            );
        }
        add(
            &THIRD_PARTY_DC_SPECS[0],
            Asn::CW,
            &mut cw_24s,
            &mut dcs,
            &mut slash24_to_dc,
        );
        add(
            &THIRD_PARTY_DC_SPECS[1],
            Asn::GBLX,
            &mut gblx_24s,
            &mut dcs,
            &mut slash24_to_dc,
        );

        Self {
            dcs,
            slash24_to_dc,
            registry,
        }
    }

    /// All data centers (analysis pools first, then legacy/third-party).
    pub fn dcs(&self) -> &[DataCenter] {
        &self.dcs
    }

    /// The data center with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this topology.
    pub fn dc(&self, id: DataCenterId) -> &DataCenter {
        &self.dcs[id.0]
    }

    /// The analysis data centers: Google AS plus the EU2 internal one — the
    /// paper's 33.
    pub fn analysis_dcs(&self) -> impl Iterator<Item = &DataCenter> {
        self.dcs.iter().filter(|d| d.pool.in_analysis())
    }

    /// Data centers of a specific pool.
    pub fn dcs_in_pool(&self, pool: ServerPool) -> impl Iterator<Item = &DataCenter> + '_ {
        self.dcs.iter().filter(move |d| d.pool == pool)
    }

    /// Maps a server IP to its data center (by /24, as the paper does).
    pub fn dc_of_ip(&self, ip: Ipv4Addr) -> Option<DataCenterId> {
        self.slash24_to_dc.get(&Ipv4Block::slash24_of(ip)).copied()
    }

    /// The AS registry covering all server pools.
    pub fn registry(&self) -> &AsRegistry {
        &self.registry
    }

    /// The physical network endpoint of a server.
    ///
    /// Server machines sit within ~15 km of their data center's city center;
    /// the offset is derived from the address so it is stable.
    pub fn server_endpoint(&self, ip: Ipv4Addr) -> Option<Endpoint> {
        let dc = self.dc(self.dc_of_ip(ip)?);
        Some(Endpoint::new(
            server_coord(dc.city.coord, ip),
            AccessKind::DataCenter,
        ))
    }

    /// Ground-truth location of a server (for CBG validation).
    pub fn server_coord(&self, ip: Ipv4Addr) -> Option<Coord> {
        self.server_endpoint(ip).map(|e| e.coord)
    }

    /// The canonical physical endpoint of a /24 server block: the endpoint
    /// of its network address.
    ///
    /// Server-to-DC mapping is /24-granular (`dc_of_ip` keys on the block),
    /// so every address in the block shares a data center; geolocating the
    /// canonical endpoint makes per-block analyses (CBG caching, sharding)
    /// a pure function of the block, independent of which member addresses
    /// a capture happened to observe.
    pub fn block_endpoint(&self, block: Ipv4Block) -> Option<Endpoint> {
        let dc = self.dc(*self.slash24_to_dc.get(&block)?);
        Some(Endpoint::new(
            server_coord(dc.city.coord, block.network()),
            AccessKind::DataCenter,
        ))
    }
}

/// Deterministic ~0–15 km metro-area offset of a server from its city
/// center.
fn server_coord(city: Coord, ip: Ipv4Addr) -> Coord {
    let h = u64::from(u32::from(ip)).wrapping_mul(0x2545_f491_4f6c_dd1d);
    let bearing = (h >> 40) as f64 % 360.0;
    let km = ((h >> 20) & 0xFFFF) as f64 / 65535.0 * 15.0;
    city.offset_km(bearing, km)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ytcdn_geomodel::Continent;
    use ytcdn_netsim::WellKnownAs;

    #[test]
    fn paper_data_center_census() {
        let topo = Topology::standard();
        let analysis: Vec<_> = topo.analysis_dcs().collect();
        assert_eq!(analysis.len(), 33, "the paper finds 33 data centers");
        let eu = analysis
            .iter()
            .filter(|d| d.continent() == Continent::Europe)
            .count();
        let na = analysis
            .iter()
            .filter(|d| d.continent() == Continent::NorthAmerica)
            .count();
        assert_eq!(eu, 14, "14 in Europe");
        assert_eq!(na, 13, "13 in USA");
        assert_eq!(analysis.len() - eu - na, 6, "6 elsewhere");
    }

    #[test]
    fn internal_dc_is_in_home_as() {
        let topo = Topology::standard();
        let internal: Vec<_> = topo.dcs_in_pool(ServerPool::IspInternal).collect();
        assert_eq!(internal.len(), 1);
        assert_eq!(internal[0].asn, EU2_HOME_AS);
        assert_eq!(internal[0].city.name, EU2_INTERNAL_CITY);
    }

    #[test]
    fn block_endpoint_is_the_network_address_endpoint() {
        let topo = Topology::standard();
        let mut checked = 0usize;
        for dc in topo.dcs() {
            for &ip in &dc.servers {
                let block = Ipv4Block::slash24_of(ip);
                let be = topo.block_endpoint(block).unwrap();
                let ne = topo.server_endpoint(block.network()).unwrap();
                assert_eq!(be.coord, ne.coord, "{block:?} of {}", dc.city);
                // Any member's endpoint stays within the metro-offset
                // envelope of the canonical one (two ~15 km offsets).
                let se = topo.server_endpoint(ip).unwrap();
                assert!(be.coord.distance_km(se.coord) <= 31.0);
                checked += 1;
            }
        }
        assert!(checked > 0);
        assert_eq!(
            topo.block_endpoint(Ipv4Block::slash24_of(Ipv4Addr::new(10, 0, 0, 1))),
            None,
            "an unknown block has no endpoint"
        );
    }

    #[test]
    fn every_server_maps_back_to_its_dc() {
        let topo = Topology::standard();
        for dc in topo.dcs() {
            for &ip in &dc.servers {
                assert_eq!(topo.dc_of_ip(ip), Some(dc.id), "{ip} of {}", dc.city);
            }
        }
    }

    #[test]
    fn server_ips_are_globally_unique() {
        let topo = Topology::standard();
        let mut all: Vec<Ipv4Addr> = topo
            .dcs()
            .iter()
            .flat_map(|d| d.servers.iter().copied())
            .collect();
        let n = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), n);
    }

    #[test]
    fn registry_classifies_pools() {
        let topo = Topology::standard();
        let home = EU2_HOME_AS;
        for dc in topo.dcs() {
            let want = match dc.pool {
                ServerPool::Google => WellKnownAs::Google,
                ServerPool::IspInternal => WellKnownAs::SameAs,
                ServerPool::LegacyYouTubeEu => WellKnownAs::YouTubeEu,
                ServerPool::ThirdParty => WellKnownAs::Other,
            };
            let got = topo.registry().classify(dc.servers[0], home);
            assert_eq!(got, want, "{} ({:?})", dc.city, dc.pool);
        }
    }

    #[test]
    fn video_to_server_mapping_is_stable_and_spread() {
        let topo = Topology::standard();
        let dc = &topo.dcs()[0];
        let v1 = VideoId::from_index(1);
        assert_eq!(dc.server_for_video(v1), dc.server_for_video(v1));
        // Many videos spread over many servers.
        let mut hit: std::collections::HashSet<Ipv4Addr> = Default::default();
        for i in 0..1000 {
            hit.insert(dc.server_for_video(VideoId::from_index(i)));
        }
        assert!(hit.len() > dc.num_servers() / 2, "only {} hit", hit.len());
    }

    #[test]
    fn different_dcs_map_video_to_different_servers() {
        let topo = Topology::standard();
        let v = VideoId::from_index(7);
        let a = topo.dcs()[0].server_for_video(v);
        let b = topo.dcs()[1].server_for_video(v);
        assert_ne!(a, b);
    }

    #[test]
    fn server_endpoints_near_city() {
        let topo = Topology::standard();
        for dc in topo.dcs().iter().take(5) {
            for &ip in dc.servers.iter().take(10) {
                let ep = topo.server_endpoint(ip).unwrap();
                let km = ep.coord.distance_km(dc.city.coord);
                assert!(km <= 15.1, "{ip} is {km} km from {}", dc.city);
                assert_eq!(ep.access, AccessKind::DataCenter);
            }
        }
    }

    #[test]
    fn unknown_ip_has_no_dc() {
        let topo = Topology::standard();
        assert_eq!(topo.dc_of_ip("8.8.8.8".parse().unwrap()), None);
        assert!(topo.server_endpoint("8.8.8.8".parse().unwrap()).is_none());
    }

    #[test]
    fn random_server_is_member() {
        let topo = Topology::standard();
        let dc = &topo.dcs()[3];
        let mut rng = SimRng::seed_from_u64(0);
        for _ in 0..50 {
            assert!(dc.random_server_index(&mut rng) < dc.num_servers());
        }
    }

    #[test]
    fn legacy_pool_size() {
        let topo = Topology::standard();
        let legacy: usize = topo
            .dcs_in_pool(ServerPool::LegacyYouTubeEu)
            .map(|d| d.num_servers())
            .sum();
        assert_eq!(legacy, 700);
    }
}

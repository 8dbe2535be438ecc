//! The one door to the simulated world: what the analysis may measure, and
//! apart from it, the simulator's ground truth.
//!
//! The paper's analysis had four inputs (PAPER.md §2): the Tstat flow
//! logs, pings from the vantage point and from PlanetLab landmarks, whois,
//! and the vantage point's own city and subnets. The flow logs are the
//! [`ytcdn_tstat::Dataset`]s; everything else the analysis reads of the
//! [`World`] goes through an [`Observatory`], a borrowed `Copy` handle that
//! exposes exactly those measurements:
//!
//! - [`Observatory::ping_server`]: pings from the vantage point;
//! - [`Observatory::calibrate_cbg`]: CBG calibration from the landmarks
//!   over the delay model;
//! - [`Observatory::block_target`]: the probe target of a server `/24`;
//! - [`Observatory::whois`]: the AS of an address, relative to the
//!   vantage point's home AS;
//! - [`Observatory::vantage_city`] and [`Observatory::subnets`]: the
//!   vantage point's city and client subnets;
//! - [`Observatory::active_traces`]: the PlanetLab active experiment of
//!   figs. 17–18.
//!
//! Everything else the simulator knows — which `/24`s form which data
//! center, the floor RTT to a data center no flow touched, where a server
//! really is — is a [`GroundTruth`] call. Outside this module and
//! [`crate::whatif`] (which compares simulated worlds by construction),
//! `ytcdn-lint`'s OBS001 denies the names `World`, `Topology` and
//! `GroundTruth` in `ytcdn-core`'s library code, so each remaining truth
//! read carries a reasoned suppression and the lint lists them.
//!
//! One caveat: the probe target ([`ytcdn_netsim::Endpoint`]) that
//! [`Observatory::block_target`] returns still carries its true `coord`,
//! because the delay model needs it to simulate a ping. CBG only pings it;
//! nothing in the analysis reads that field.

use std::net::Ipv4Addr;

use ytcdn_cdnsim::{ActiveConfig, ActiveExperiment, ContentStore, NodeTrace, SubnetConfig, World};
use ytcdn_geoloc::Cbg;
use ytcdn_geomodel::{City, Coord};
use ytcdn_netsim::{AccessKind, Endpoint, Ipv4Block, Landmark, RttMeasurement, WellKnownAs};
use ytcdn_tstat::DatasetName;

use crate::dcmap::DcMap;
use crate::geo_analysis::ServerLocation;

/// What the paper's authors could measure of the world: the analysis's
/// only view of it besides the flow logs.
#[derive(Debug, Clone, Copy)]
pub struct Observatory<'w> {
    world: &'w World,
}

impl<'w> Observatory<'w> {
    /// The measurements of `world`.
    pub fn new(world: &'w World) -> Self {
        Self { world }
    }

    /// Pings `server` from the vantage point of `name` with `probes`
    /// probes, or `None` for an address that answers no ping.
    pub fn ping_server(
        self,
        name: DatasetName,
        server: Ipv4Addr,
        probes: u32,
        seed: u64,
    ) -> Option<RttMeasurement> {
        self.world.ping_server(name, server, probes, seed)
    }

    /// Calibrates CBG on `landmarks`, each pinging the others `probes`
    /// times over the world's delay model.
    pub fn calibrate_cbg(self, landmarks: Vec<Landmark>, probes: u32, seed: u64) -> Cbg {
        Cbg::calibrate(landmarks, self.world.delay_model(), probes, seed)
    }

    /// The probe target of a server `/24`, or `None` for a block no server
    /// of the world answers from. See the module doc for its `coord`.
    pub fn block_target(self, block: Ipv4Block) -> Option<Endpoint> {
        self.world.topology().block_endpoint(block)
    }

    /// The whois answer for `addr`, bucketed relative to the home AS of
    /// the vantage point of `name` (Table II's columns).
    pub fn whois(self, name: DatasetName, addr: Ipv4Addr) -> WellKnownAs {
        let home = self.world.vantage(name).home_as;
        self.world.topology().registry().classify(addr, home)
    }

    /// The city of the vantage point of `name`.
    pub fn vantage_city(self, name: DatasetName) -> &'w City {
        self.world.vantage(name).city
    }

    /// The client subnets of the vantage point of `name`.
    pub fn subnets(self, name: DatasetName) -> &'w [SubnetConfig] {
        &self.world.vantage(name).subnets
    }

    /// Runs the active cold-video experiment (Section VII-C) over `store`,
    /// the CDN's placement state, which the experiment's uploads and
    /// pulls then change.
    pub fn active_traces(self, config: ActiveConfig, store: ContentStore) -> Vec<NodeTrace> {
        ActiveExperiment::new(config).run_in(self.world, store)
    }
}

impl<'w> From<&'w World> for Observatory<'w> {
    fn from(world: &'w World) -> Self {
        Self::new(world)
    }
}

/// The simulator's own knowledge of the world, which no measurement gives.
/// Each caller in the analysis is a truth read that OBS001 lists.
#[derive(Debug, Clone, Copy)]
pub struct GroundTruth<'w> {
    world: &'w World,
}

impl<'w> GroundTruth<'w> {
    /// The ground truth of `world`.
    pub fn new(world: &'w World) -> Self {
        Self { world }
    }

    /// Everything an [`Observatory`] measures, which the truth includes.
    pub fn observatory(self) -> Observatory<'w> {
        Observatory::new(self.world)
    }

    /// The analysis data centers of the world (what whois and perfect
    /// geolocation would give), as a data-center map.
    pub fn dc_map(self) -> DcMap {
        let mut map = DcMap::default();
        for dc in self.world.topology().analysis_dcs() {
            map.push(dc.city.name, dc.city.coord, &dc.servers);
        }
        map
    }

    /// The floor RTT from the vantage point of `name` to a data center
    /// that no seen server measures: the world's data center in
    /// `city_name` if there is one, else the delay model's floor toward
    /// `coord`.
    pub fn fallback_rtt(self, name: DatasetName, coord: Coord, city_name: &str) -> f64 {
        let world = self.world;
        if let Some(dc) = world
            .topology()
            .analysis_dcs()
            .find(|dc| dc.city.name == city_name)
        {
            return world.rtt_to_dc(name, dc.id);
        }
        let target = Endpoint::new(coord, AccessKind::DataCenter);
        world
            .delay_model()
            .floor_rtt_ms(&world.vantage(name).endpoint(), &target)
    }

    /// The true position of the probe target of `server`'s `/24`, or
    /// `None` outside the world's server blocks.
    pub fn block_coord(self, server: Ipv4Addr) -> Option<Coord> {
        self.world
            .topology()
            .block_endpoint(Ipv4Block::slash24_of(server))
            .map(|endpoint| endpoint.coord)
    }

    /// CBG's position error for `location` against the truth, km.
    pub fn error_km(self, location: &ServerLocation) -> Option<f64> {
        self.block_coord(location.ip)
            .map(|truth| location.cbg.estimate.distance_km(truth))
    }
}

impl<'w> From<&'w World> for GroundTruth<'w> {
    fn from(world: &'w World) -> Self {
        Self::new(world)
    }
}

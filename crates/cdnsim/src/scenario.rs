//! The standard five-dataset scenario and the [`World`] handle.
//!
//! [`StandardScenario::build`] assembles the full reproduction world — the
//! topology, catalog, delay model, the five vantage points, and each
//! network's DNS policies (preferred data center = lowest RTT, as the paper
//! infers) — and [`StandardScenario::run_all`] simulates the simultaneous
//! week-long collection of the paper's Section III-B.

use std::sync::Arc;

use ytcdn_geomodel::Coord;
use ytcdn_netsim::{AccessKind, DelayModel, Endpoint, Pinger, RttMeasurement};
use ytcdn_telemetry::Telemetry;
use ytcdn_tstat::{Dataset, DatasetName};

use crate::catalog::{CatalogConfig, VideoCatalog, VotdSchedule};
use crate::dns::LdnsPolicy;
use crate::engine::{Engine, EngineConfig, SessionOutcome};
use crate::mutation::{InvalidMutation, MutationSchedule, MutationSpec};
use crate::placement::{ContentStore, PlacementConfig};
use crate::rng::{stream, SimRng};
use crate::topology::{DataCenterId, Topology};
use crate::vantage::VantagePoint;

/// Scenario parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioConfig {
    /// Master seed; every dataset derives its own stream from it.
    pub seed: u64,
    /// Placement model parameters.
    pub placement: PlacementConfig,
    /// Engine tunables, including the workload scale.
    pub engine: EngineConfig,
    /// Multiplier on the EU2 in-ISP data center's DNS-level hourly capacity
    /// (ablation knob: large values make the Figure 11 load-balancing
    /// plateau disappear, small values deepen it).
    pub eu2_capacity_factor: f64,
    /// Video catalog parameters (what-if knob: popularity concentration,
    /// flash-crowd share).
    pub catalog: CatalogConfig,
    /// Schedule front-page promotions ("video of the day"); disabling them
    /// removes the paper's Figure 14–16 hot spots.
    pub votd_enabled: bool,
}

impl ScenarioConfig {
    /// A config at the given workload scale (1.0 reproduces Table I volumes)
    /// and seed.
    pub fn with_scale(scale: f64, seed: u64) -> Self {
        let mut cfg = Self::default();
        cfg.engine.scale = scale;
        cfg.seed = seed;
        cfg
    }
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            placement: PlacementConfig::default(),
            engine: EngineConfig::default(),
            eu2_capacity_factor: 1.0,
            catalog: CatalogConfig::default(),
            votd_enabled: true,
        }
    }
}

/// Everything the analysis layer may need about the simulated world: the
/// same capabilities the paper's authors had (ping servers, whois, know
/// their own vantage points) plus ground truth for validation.
#[derive(Debug)]
pub struct World {
    topology: Topology,
    catalog: VideoCatalog,
    delay: DelayModel,
    vantages: Vec<VantagePoint>,
    /// Per-vantage LDNS policy tables (index-aligned with `vantages`).
    policies: Vec<Vec<LdnsPolicy>>,
}

impl World {
    /// The server-side topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The video catalog.
    pub fn catalog(&self) -> &VideoCatalog {
        &self.catalog
    }

    /// The delay model underlying all RTTs.
    pub fn delay_model(&self) -> DelayModel {
        self.delay
    }

    /// All vantage points in Table I order.
    pub fn vantages(&self) -> &[VantagePoint] {
        &self.vantages
    }

    /// The vantage point producing `name`.
    ///
    /// # Panics
    ///
    /// Panics if the scenario does not include `name` (the standard one
    /// includes all five).
    pub fn vantage(&self, name: DatasetName) -> &VantagePoint {
        self.vantages
            .iter()
            .find(|v| v.dataset == name)
            .unwrap_or_else(|| panic!("vantage point {name} not in scenario"))
    }

    /// The LDNS policy table of a vantage network.
    pub fn policies(&self, name: DatasetName) -> &[LdnsPolicy] {
        let idx = self
            .vantages
            .iter()
            .position(|v| v.dataset == name)
            .unwrap_or_else(|| panic!("vantage point {name} not in scenario"));
        &self.policies[idx]
    }

    /// The network-wide preferred data center of a vantage network (the
    /// main LDNS's mapping — what the paper calls *the* preferred data
    /// center of the trace).
    pub fn preferred_dc(&self, name: DatasetName) -> DataCenterId {
        self.policies(name)[0].preferred
    }

    /// Deterministic floor RTT from a vantage point to a data center's
    /// city, including peering penalties — what an infinitely patient ping
    /// would converge to.
    pub fn rtt_to_dc(&self, name: DatasetName, dc: DataCenterId) -> f64 {
        let vp = self.vantage(name);
        let d = self.topology.dc(dc);
        let dc_ep = Endpoint::new(d.city.coord, AccessKind::DataCenter);
        self.delay.floor_rtt_ms(&vp.endpoint(), &dc_ep) + vp.penalty_to(d.city.name)
    }

    /// Pings a server from a vantage point (k probes, as the paper's probe
    /// PC does), or `None` for an address that is not a known server.
    pub fn ping_server(
        &self,
        name: DatasetName,
        server: std::net::Ipv4Addr,
        probes: u32,
        seed: u64,
    ) -> Option<RttMeasurement> {
        let vp = self.vantage(name);
        let dc = self.topology.dc_of_ip(server)?;
        let target = self.topology.server_endpoint(server)?;
        let mut pinger = Pinger::new(self.delay, probes);
        let mut m =
            pinger.ping_seeded(&vp.endpoint(), &target, seed ^ u64::from(u32::from(server)));
        let penalty = vp.penalty_to(self.topology.dc(dc).city.name);
        m.min_ms += penalty;
        m.avg_ms += penalty;
        m.max_ms += penalty;
        Some(m)
    }

    /// Ground-truth location of a server (CBG validation only).
    pub fn server_coord(&self, server: std::net::Ipv4Addr) -> Option<Coord> {
        self.topology.server_coord(server)
    }

    /// A human-readable description of the world as seen from one vantage
    /// point: its preferred data center, the RTT ranking, and the DNS
    /// policy table.
    pub fn describe(&self, name: DatasetName) -> String {
        use std::fmt::Write as _;
        let vp = self.vantage(name);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{name}: {} ({:?} access, {}; {} clients in {} subnets)",
            vp.city,
            vp.access,
            vp.home_as,
            vp.total_clients(),
            vp.subnets.len()
        );
        for (i, policy) in self.policies(name).iter().enumerate() {
            let pref = self.topology.dc(policy.preferred);
            let _ = writeln!(
                out,
                "  LDNS {i}: preferred {} ({:.1} ms){}{}",
                pref.city,
                self.rtt_to_dc(name, policy.preferred),
                if policy.noise_prob > 0.0 {
                    format!(", noise {:.1}%", 100.0 * policy.noise_prob)
                } else {
                    String::new()
                },
                match policy.hourly_capacity {
                    Some(c) => format!(", capacity {c}/h"),
                    None => String::new(),
                }
            );
        }
        let _ = writeln!(out, "  data centers by RTT:");
        for (dc, rtt) in self.dcs_by_rtt(name).iter().take(8) {
            let d = self.topology.dc(*dc);
            let _ = writeln!(
                out,
                "    {:>7.1} ms  {:<16} {:>5.0} km  {} servers",
                rtt,
                d.city.name,
                vp.city.coord.distance_km(d.city.coord),
                d.num_servers()
            );
        }
        out
    }

    /// Ranks the analysis data centers by floor RTT from a vantage point,
    /// best first.
    pub fn dcs_by_rtt(&self, name: DatasetName) -> Vec<(DataCenterId, f64)> {
        let mut v: Vec<_> = self
            .topology
            .analysis_dcs()
            .map(|d| (d.id, self.rtt_to_dc(name, d.id)))
            .collect();
        v.sort_by(|a, b| a.1.total_cmp(&b.1));
        v
    }
}

/// The paper's data collection, reproduced: five vantage points, one week.
#[derive(Debug)]
pub struct StandardScenario {
    world: World,
    config: ScenarioConfig,
    telemetry: Telemetry,
    /// Scheduled mid-trace CDN mutations; empty by default.
    mutations: Arc<MutationSchedule>,
}

/// The phase-histogram / span name for one dataset's simulation run.
pub fn run_span_name(name: DatasetName) -> &'static str {
    match name {
        DatasetName::UsCampus => "run.US-Campus",
        DatasetName::Eu1Campus => "run.EU1-Campus",
        DatasetName::Eu1Adsl => "run.EU1-ADSL",
        DatasetName::Eu1Ftth => "run.EU1-FTTH",
        DatasetName::Eu2 => "run.EU2",
    }
}

impl StandardScenario {
    /// Builds the world: topology, catalog, vantage points, and per-LDNS
    /// DNS policies derived from RTT ranking.
    pub fn build(config: ScenarioConfig) -> Self {
        Self::build_with_vantages(config, VantagePoint::standard_five())
    }

    /// [`StandardScenario::build`] with the build phase profiled under the
    /// `scenario.build` span and the handle attached for later runs.
    pub fn build_instrumented(config: ScenarioConfig, telemetry: Telemetry) -> Self {
        let span = telemetry.span("scenario.build");
        let mut scenario = Self::build(config);
        drop(span);
        scenario.set_telemetry(telemetry);
        scenario
    }

    /// Builds the world with caller-modified vantage points (what-if
    /// analysis: changed peering, subnet layout, traffic mix).
    ///
    /// # Panics
    ///
    /// Panics if `vantages` is empty or the catalog parameters are invalid
    /// (see [`VideoCatalog::new`]).
    pub fn build_with_vantages(config: ScenarioConfig, vantages: Vec<VantagePoint>) -> Self {
        assert!(
            !vantages.is_empty(),
            "scenario needs at least one vantage point"
        );
        let topology = Topology::standard();
        let votd = if config.votd_enabled {
            VotdSchedule::daily_for_week(config.catalog.num_videos / 2)
        } else {
            VotdSchedule::none()
        };
        let catalog = VideoCatalog::new(config.catalog, votd);
        let delay = DelayModel::default();

        let mut world = World {
            topology,
            catalog,
            delay,
            vantages,
            policies: Vec::new(),
        };

        let mut policies = Vec::new();
        for vp in &world.vantages {
            let ranked = world.dcs_by_rtt(vp.dataset);
            let preferred = match vp.preferred_city_override {
                None => ranked[0].0,
                Some(city) => {
                    world
                        .topology
                        .analysis_dcs()
                        .find(|d| d.city.name == city)
                        .unwrap_or_else(|| panic!("override city {city} has no data center"))
                        .id
                }
            };
            let alternates: Vec<DataCenterId> = ranked
                .iter()
                .map(|&(id, _)| id)
                .filter(|&id| id != preferred)
                .take(2)
                .collect();
            let capacity = vp.mix.dns_capacity_per_hour.map(|c| {
                ((c as f64 * config.engine.scale * config.eu2_capacity_factor).round() as u64)
                    .max(1)
            });
            let mut table = vec![LdnsPolicy {
                preferred,
                alternates: alternates.clone(),
                noise_prob: vp.mix.dns_noise,
                hourly_capacity: capacity,
            }];
            if vp.num_ldns() > 1 {
                // The divergent LDNS (US-Campus "Net-3"): mapped by the
                // authoritative DNS to a different data center outright.
                for _ in 1..vp.num_ldns() {
                    table.push(LdnsPolicy {
                        preferred: ranked[1].0,
                        alternates: vec![ranked[0].0, ranked[2].0],
                        noise_prob: vp.mix.dns_noise,
                        hourly_capacity: None,
                    });
                }
            }
            policies.push(table);
        }
        world.policies = policies;

        Self {
            world,
            config,
            telemetry: Telemetry::disabled(),
            mutations: Arc::new(MutationSchedule::default()),
        }
    }

    /// Schedules mid-trace CDN mutations for every subsequent run,
    /// resolving the parsed specs against this world's topology.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidMutation`] when a spec names an unknown city.
    pub fn set_mutations(&mut self, specs: &[MutationSpec]) -> Result<(), InvalidMutation> {
        self.mutations = Arc::new(MutationSchedule::compile(specs, &self.world.topology)?);
        Ok(())
    }

    /// The compiled mutation schedule (empty unless
    /// [`StandardScenario::set_mutations`] was called).
    pub fn mutations(&self) -> &MutationSchedule {
        &self.mutations
    }

    /// Attaches a telemetry handle. Every subsequent run instruments its
    /// engine (scoped to the dataset name) and records a `run.<dataset>`
    /// phase span; determinism of the produced datasets is unaffected.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The attached telemetry handle (disabled unless
    /// [`StandardScenario::set_telemetry`] was called).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The world handle.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// The configuration the scenario was built with.
    pub fn config(&self) -> &ScenarioConfig {
        &self.config
    }

    /// Creates a fresh content store (placement state) for one run, with
    /// any scheduled cache evictions installed.
    pub fn fresh_store(&self) -> ContentStore {
        let mut store = ContentStore::new(self.config.placement, &self.world.topology);
        store.set_evictions(self.mutations.evictions().to_vec());
        store
    }

    /// The vantage-point index of a dataset.
    ///
    /// # Panics
    ///
    /// Panics if the scenario does not include `name`.
    pub(crate) fn vantage_idx(&self, name: DatasetName) -> usize {
        self.world
            .vantages
            .iter()
            .position(|v| v.dataset == name)
            .unwrap_or_else(|| panic!("vantage point {name} not in scenario"))
    }

    /// The per-dataset engine seed derived from the master seed.
    fn dataset_seed(&self, idx: usize) -> u64 {
        SimRng::for_stream(self.config.seed, &[stream::SCENARIO, idx as u64]).next_u64()
    }

    /// Builds a fresh engine for one dataset, instrumented with the
    /// scenario's telemetry scoped to the dataset name.
    pub(crate) fn make_engine(&self, idx: usize) -> Engine<'_> {
        let vp = &self.world.vantages[idx];
        Engine::new(
            &self.world.topology,
            &self.world.catalog,
            self.world.delay,
            vp,
            self.world.policies[idx].clone(),
            self.fresh_store(),
            self.config.engine,
            self.dataset_seed(idx),
        )
        .with_mutations(Arc::clone(&self.mutations))
        .with_telemetry(self.telemetry.with_scope(vp.dataset.as_str()))
    }

    /// Records the per-dataset simulation throughput gauge, sessions per
    /// wall-clock second (the ROADMAP's scaling headline number).
    fn record_throughput(&self, span: ytcdn_telemetry::Span, outcome: &SessionOutcome) {
        if let Some(us) = span.elapsed_us() {
            if us > 0 {
                self.telemetry
                    .gauge("scenario.sessions_per_sec")
                    .set(outcome.sessions as f64 / (us as f64 / 1e6));
            }
        }
    }

    /// Simulates one dataset, returning the flow log and the ground truth.
    pub fn run(&self, name: DatasetName) -> (Dataset, SessionOutcome) {
        let idx = self.vantage_idx(name);
        let span = self.telemetry.span(run_span_name(name));
        let (dataset, outcome) = self.make_engine(idx).run();
        self.record_throughput(span, &outcome);
        (dataset, outcome)
    }

    /// [`StandardScenario::run`] under the name and counters the pipeline
    /// benchmark (`perfbench/`) reads; nothing else should call it. The
    /// worker count is ignored: one dataset is one engine. It adds
    /// `outcome.replications` to `shard.pulls_scheduled` and 0 to
    /// `shard.boundary_fills`, so those benchmark guard metrics keep
    /// counting the replications and the (absent) cross-worker cache fills.
    pub fn run_with_outcome_sharded(
        &self,
        name: DatasetName,
        _jobs: usize,
    ) -> (Dataset, SessionOutcome) {
        let (dataset, outcome) = self.run(name);
        self.telemetry
            .counter("shard.pulls_scheduled")
            .add(outcome.replications);
        self.telemetry.counter("shard.boundary_fills").add(0);
        (dataset, outcome)
    }

    /// Simulates all five datasets in Table I order on the shared worker
    /// pool ([`crate::par_map`]), one dataset per task. Every dataset runs
    /// on its own engine with its own seed stream, so the output is
    /// identical for any `jobs`.
    pub fn run_all(&self, jobs: usize) -> Vec<Dataset> {
        let _span = self.telemetry.span("scenario.run_all");
        crate::par_map(jobs, &DatasetName::ALL, |&name| self.run(name).0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::ServerPool;

    #[test]
    fn preferred_dc_is_lowest_rtt() {
        let s = StandardScenario::build(ScenarioConfig::with_scale(0.001, 0));
        for name in DatasetName::ALL {
            let ranked = s.world().dcs_by_rtt(name);
            assert_eq!(s.world().preferred_dc(name), ranked[0].0, "{name}");
            // Ranking is sorted.
            assert!(ranked.windows(2).all(|w| w[0].1 <= w[1].1));
        }
    }

    #[test]
    fn eu1_preferred_is_milan() {
        let s = StandardScenario::build(ScenarioConfig::with_scale(0.001, 0));
        let w = s.world();
        for name in [
            DatasetName::Eu1Campus,
            DatasetName::Eu1Adsl,
            DatasetName::Eu1Ftth,
        ] {
            let pref = w.preferred_dc(name);
            assert_eq!(w.topology().dc(pref).city.name, "Milan", "{name}");
        }
    }

    #[test]
    fn eu2_preferred_is_internal_dc() {
        let s = StandardScenario::build(ScenarioConfig::with_scale(0.001, 0));
        let w = s.world();
        let pref = w.preferred_dc(DatasetName::Eu2);
        assert_eq!(w.topology().dc(pref).pool, ServerPool::IspInternal);
        let policy = &w.policies(DatasetName::Eu2)[0];
        assert!(policy.hourly_capacity.is_some());
        // The spill target is a Google data center.
        let alt = w.topology().dc(policy.alternates[0]);
        assert_eq!(alt.pool, ServerPool::Google);
    }

    #[test]
    fn us_campus_preferred_is_not_geographically_closest() {
        let s = StandardScenario::build(ScenarioConfig::with_scale(0.001, 0));
        let w = s.world();
        let vp = w.vantage(DatasetName::UsCampus);
        let pref = w.preferred_dc(DatasetName::UsCampus);
        let pref_km = w.topology().dc(pref).city.coord.distance_km(vp.city.coord);
        // At least 3 analysis DCs are geographically closer than the
        // preferred one (the paper: the five closest provide <2% of bytes).
        let closer = w
            .topology()
            .analysis_dcs()
            .filter(|d| d.city.coord.distance_km(vp.city.coord) < pref_km)
            .count();
        assert!(closer >= 3, "only {closer} DCs closer than preferred");
    }

    #[test]
    fn net3_ldns_prefers_a_different_dc() {
        let s = StandardScenario::build(ScenarioConfig::with_scale(0.001, 0));
        let w = s.world();
        let table = w.policies(DatasetName::UsCampus);
        assert_eq!(table.len(), 2);
        assert_ne!(table[0].preferred, table[1].preferred);
    }

    #[test]
    fn ping_server_reflects_dc_rtt() {
        let s = StandardScenario::build(ScenarioConfig::with_scale(0.001, 0));
        let w = s.world();
        let pref = w.preferred_dc(DatasetName::Eu1Campus);
        let server = w.topology().dc(pref).servers[0];
        let m = w.ping_server(DatasetName::Eu1Campus, server, 5, 0).unwrap();
        let dc_rtt = w.rtt_to_dc(DatasetName::Eu1Campus, pref);
        assert!(
            (m.min_ms - dc_rtt).abs() < 15.0,
            "ping {} vs dc {dc_rtt}",
            m.min_ms
        );
    }

    #[test]
    fn ping_unknown_ip_is_none() {
        let s = StandardScenario::build(ScenarioConfig::with_scale(0.001, 0));
        assert!(s
            .world()
            .ping_server(DatasetName::Eu2, "9.9.9.9".parse().unwrap(), 3, 0)
            .is_none());
    }

    #[test]
    fn describe_names_the_preferred_dc_and_policies() {
        let s = StandardScenario::build(ScenarioConfig::with_scale(0.001, 0));
        let text = s.world().describe(DatasetName::Eu2);
        assert!(text.contains("EU2"), "{text}");
        assert!(text.contains("Madrid"), "{text}");
        assert!(
            text.contains("capacity"),
            "EU2 policy shows capacity: {text}"
        );
        let us = s.world().describe(DatasetName::UsCampus);
        assert!(
            us.contains("LDNS 1"),
            "US campus has the divergent LDNS: {us}"
        );
    }

    /// The counters an engine run records once per session, whatever the
    /// worker count.
    const ENGINE_COUNTERS: [&str; 7] = [
        "scenario.sessions",
        "scenario.flows",
        "engine.cache_miss",
        "engine.redirect.content_miss",
        "engine.redirect.wrong_guess",
        "engine.redirect.overload",
        "placement.replication",
    ];

    #[test]
    fn parallel_run_matches_sequential() {
        let specs: Vec<MutationSpec> = [
            "dc-down@72:milan",
            "prefer-flip@96:frankfurt",
            "cache-evict@48:0.5",
        ]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
        let cfg = ScenarioConfig::with_scale(0.002, 3);
        for mutations in [&specs[..0], &specs[..]] {
            let instrumented = || {
                let mut s = StandardScenario::build(cfg);
                s.set_mutations(mutations).unwrap();
                s.set_telemetry(Telemetry::metrics_only());
                s
            };
            let one = instrumented();
            assert_eq!(
                one.mutations().effective_hours(),
                [48, 72, 96][..mutations.len()]
            );
            let expected = one.run_all(1);
            for jobs in [2, 3, 5, 8] {
                assert_eq!(
                    instrumented().run_all(jobs),
                    expected,
                    "jobs={jobs} with {} mutations",
                    mutations.len()
                );
            }
            // Concurrent engines record every per-session counter exactly
            // once: the sums match the one-worker run's.
            let five = instrumented();
            five.run_all(5);
            let (snap1, snap5) = (
                one.telemetry().metrics_snapshot().unwrap(),
                five.telemetry().metrics_snapshot().unwrap(),
            );
            for counter in ENGINE_COUNTERS {
                assert_eq!(snap1.counter(counter), snap5.counter(counter), "{counter}");
            }
        }
    }

    #[test]
    fn sharded_run_matches_sequential() {
        // The benchmark's sharded entry point is the plain run plus its
        // replication and boundary-fill counters, for any worker count.
        let cfg = ScenarioConfig::with_scale(0.002, 3);
        let name = DatasetName::Eu2;
        let expected = StandardScenario::build(cfg).run(name);
        for jobs in [1, 3, 8] {
            let mut s = StandardScenario::build(cfg);
            s.set_telemetry(Telemetry::metrics_only());
            let got = s.run_with_outcome_sharded(name, jobs);
            assert_eq!(got, expected, "jobs={jobs}");
            let snap = s.telemetry().metrics_snapshot().unwrap();
            assert_eq!(
                snap.counter("shard.pulls_scheduled"),
                expected.1.replications
            );
            assert!(snap.counters.contains_key("shard.boundary_fills"));
            assert_eq!(snap.counter("shard.boundary_fills"), 0);
        }
    }

    #[test]
    fn mutated_run_is_sharded_identically() {
        let specs: Vec<MutationSpec> = [
            "dc-down@72:milan",
            "prefer-flip@96:frankfurt",
            "cache-evict@48:0.5",
        ]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
        let mut s = StandardScenario::build(ScenarioConfig::with_scale(0.002, 3));
        s.set_mutations(&specs).unwrap();
        assert_eq!(s.mutations().effective_hours(), vec![48, 72, 96]);
        let expected = s.run(DatasetName::Eu1Ftth);
        for jobs in [2, 5] {
            let got = s.run_with_outcome_sharded(DatasetName::Eu1Ftth, jobs);
            assert_eq!(got, expected, "jobs={jobs}");
        }
    }

    #[test]
    fn dc_down_mutation_drains_the_preferred_dc() {
        let cfg = ScenarioConfig::with_scale(0.002, 3);
        let plain = StandardScenario::build(cfg);
        let mut mutated = StandardScenario::build(cfg);
        mutated
            .set_mutations(&["dc-down@72:milan".parse().unwrap()])
            .unwrap();
        let w = mutated.world();
        let pref = w.preferred_dc(DatasetName::Eu1Ftth);
        assert_eq!(w.topology().dc(pref).city.name, "Milan");
        let (before, _) = plain.run(DatasetName::Eu1Ftth);
        let (after, _) = mutated.run(DatasetName::Eu1Ftth);
        // Identical up to the mutation hour, drained after it.
        let cut = 72 * ytcdn_tstat::HOUR_MS;
        let head = |ds: &Dataset| ds.iter().filter(|r| r.start_ms < cut).collect::<Vec<_>>();
        assert_eq!(head(&before), head(&after));
        let at_pref_after_cut = |ds: &Dataset| {
            ds.iter()
                .filter(|r| r.start_ms >= cut)
                .filter(|r| w.topology().dc_of_ip(r.server_ip) == Some(pref))
                .count()
        };
        let drained = at_pref_after_cut(&after);
        let baseline = at_pref_after_cut(&before);
        assert!(baseline > 0);
        assert!(
            drained < baseline / 10,
            "preferred DC kept {drained} of {baseline} post-mutation flows"
        );
    }

    #[test]
    fn unknown_mutation_city_is_rejected() {
        let mut s = StandardScenario::build(ScenarioConfig::with_scale(0.001, 0));
        let err = s
            .set_mutations(&["dc-down@72:atlantis".parse().unwrap()])
            .unwrap_err();
        assert!(err.to_string().contains("atlantis"));
        assert!(s.mutations().is_empty(), "failed set must not mutate");
    }

    #[test]
    fn run_all_variants_record_their_own_spans() {
        // One worker or three, a pooled run records one `scenario.run_all`
        // span plus one `run.<dataset>` span per dataset, whichever thread
        // ran it.
        let mut s = StandardScenario::build(ScenarioConfig::with_scale(0.001, 1));
        s.set_telemetry(Telemetry::metrics_only());
        s.run_all(1);
        s.run_all(3);
        let snap = s.telemetry().metrics_snapshot().unwrap();
        assert_eq!(snap.histograms["scenario.run_all"].count, 2);
        for name in DatasetName::ALL {
            assert_eq!(snap.histograms[run_span_name(name)].count, 2, "{name}");
        }
    }

    #[test]
    fn telemetry_counters_match_ground_truth() {
        let cfg = ScenarioConfig::with_scale(0.002, 7);
        let plain = StandardScenario::build(cfg);
        let (expected_ds, outcome) = plain.run(DatasetName::UsCampus);

        let mut instrumented = StandardScenario::build(cfg);
        instrumented.set_telemetry(Telemetry::metrics_only());
        let (ds, _) = instrumented.run(DatasetName::UsCampus);
        // Telemetry must not perturb the simulation.
        assert_eq!(ds, expected_ds);

        let snap = instrumented.telemetry().metrics_snapshot().unwrap();
        assert_eq!(snap.counter("scenario.sessions"), outcome.sessions);
        assert_eq!(snap.counter("scenario.flows"), outcome.flows);
        assert_eq!(snap.counter("engine.cache_miss"), outcome.miss_redirects);
        assert_eq!(
            snap.counter("engine.redirect.content_miss"),
            outcome.miss_redirects
        );
        assert_eq!(
            snap.counter("engine.redirect.wrong_guess"),
            outcome.double_redirects
        );
        assert_eq!(
            snap.counter("engine.redirect.overload"),
            outcome.overload_redirects
        );
        assert_eq!(snap.counter("placement.replication"), outcome.replications);
        // The run span, its two engine layers and the throughput gauge
        // were recorded, each span closed once per run.
        for span in [
            run_span_name(DatasetName::UsCampus),
            "engine.hours",
            "engine.columns",
        ] {
            assert_eq!(snap.histograms[span].count, 1, "{span}");
        }
        instrumented.run(DatasetName::Eu2);
        let snap = instrumented.telemetry().metrics_snapshot().unwrap();
        for span in ["engine.hours", "engine.columns"] {
            assert_eq!(snap.histograms[span].count, 2, "{span}");
        }
        assert!(snap.gauges["scenario.sessions_per_sec"] > 0.0);
    }

    #[test]
    fn run_all_produces_five_nonempty_datasets() {
        let s = StandardScenario::build(ScenarioConfig::with_scale(0.002, 3));
        let all = s.run_all(2);
        assert_eq!(all.len(), 5);
        for (ds, name) in all.iter().zip(DatasetName::ALL) {
            assert_eq!(ds.name(), name);
            assert!(!ds.is_empty(), "{name} empty");
        }
    }
}

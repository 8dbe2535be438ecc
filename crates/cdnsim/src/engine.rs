//! The per-vantage-point simulation engine.
//!
//! Processes one week of sessions in time order. Each session goes through
//! the exact pipeline the paper describes (Section II): DNS resolution picks
//! a data center, the client contacts a content server there, and the server
//! either delivers the video or answers with a short control flow redirecting
//! the client elsewhere — because the content is missing (Section VII-C,
//! "availability of unpopular videos") or because the server is overloaded
//! (Section VII-C, "alleviating hot-spots due to popular videos"). The
//! engine emits the [`FlowRecord`]s a Tstat probe at the network edge would
//! log.
//!
//! # Determinism
//!
//! Every session draws from its own [`SimRng`] stream keyed by the session's
//! ordinal in the week, and the arrival schedule is generated per week-hour
//! (see [`WorkloadModel`]); no draw depends on which thread runs the engine
//! or on what other engines ran before it. One engine per dataset, each
//! with its own seed, is what lets
//! [`StandardScenario::run_all`](crate::StandardScenario::run_all) simulate
//! the datasets concurrently and still produce byte-identical output.

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

use ytcdn_netsim::{AccessKind, DelayModel, Endpoint};
use ytcdn_telemetry::{Counter, Event, Histogram, RedirectKind, Telemetry};
use ytcdn_tstat::{Dataset, FlowRecord, Resolution, VideoId, HOUR_MS};

use crate::catalog::{sample_resolution, VideoCatalog, VideoMeta};
use crate::dns::{DnsCause, DnsDecision, DnsResolver, LdnsPolicy};
use crate::mutation::MutationSchedule;
use crate::placement::ContentStore;
use crate::rng::{stream, SimRng};
use crate::topology::{DataCenterId, ServerPool, Topology};
use crate::vantage::VantagePoint;
use crate::workload::{WorkloadModel, WEEK_HOURS};

/// Ground-truth counters of what happened during a run. The analysis layer
/// must *infer* these effects from the flow log alone; tests compare the
/// inference against these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionOutcome {
    /// Total sessions simulated.
    pub sessions: u64,
    /// Total flows emitted.
    pub flows: u64,
    /// Sessions redirected because the contacted data center lacked the
    /// video.
    pub miss_redirects: u64,
    /// Miss redirects that needed a second hop (wrong guess).
    pub double_redirects: u64,
    /// Sessions redirected away from an overloaded server.
    pub overload_redirects: u64,
    /// Sessions whose DNS answer was mapping noise.
    pub dns_noise: u64,
    /// Sessions spilled by DNS-level load balancing.
    pub dns_load_balanced: u64,
    /// Sessions served by the legacy YouTube-EU pool.
    pub legacy_sessions: u64,
    /// Sessions served by third-party caches.
    pub third_party_sessions: u64,
    /// Videos pulled into a data center during the run.
    pub replications: u64,
}

/// Tunables that are not per-vantage-point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Workload and capacity scale relative to the paper (1.0 = Table I).
    pub scale: f64,
    /// Probability that a miss redirect goes through a wrong first guess
    /// (producing a 3-flow chain).
    pub guess_miss_prob: f64,
    /// Disable pull-through replication (ablation: every access to a cold
    /// video redirects, so repeat accesses never move to the preferred DC).
    pub disable_replication: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            scale: 0.1,
            guess_miss_prob: 0.25,
            disable_replication: false,
        }
    }
}

/// Pre-resolved telemetry handles for the engine's per-session hot path.
/// Only constructed for an enabled [`Telemetry`]; a `None` field in the
/// engine keeps the disabled cost to one branch per decision point.
#[derive(Debug, Clone)]
struct EngineTelemetry {
    telemetry: Telemetry,
    cache_miss: Counter,
    miss_redirect: Counter,
    wrong_guess: Counter,
    overload_redirect: Counter,
    replication: Counter,
    sessions: Counter,
    flows: Counter,
    /// Servers contacted per session (1 = direct serve, 2–3 = redirects).
    chain_hops: Histogram,
}

impl EngineTelemetry {
    fn new(telemetry: Telemetry) -> Self {
        Self {
            cache_miss: telemetry.counter("engine.cache_miss"),
            miss_redirect: telemetry.counter(RedirectKind::ContentMiss.counter_name()),
            wrong_guess: telemetry.counter(RedirectKind::WrongGuess.counter_name()),
            overload_redirect: telemetry.counter(RedirectKind::Overload.counter_name()),
            replication: telemetry.counter("placement.replication"),
            sessions: telemetry.counter("scenario.sessions"),
            flows: telemetry.counter("scenario.flows"),
            chain_hops: telemetry.histogram("engine.chain_hops"),
            telemetry,
        }
    }

    fn redirect(&self, t_ms: u64, kind: RedirectKind, from: DataCenterId, to: DataCenterId) {
        match kind {
            RedirectKind::ContentMiss => self.miss_redirect.inc(),
            RedirectKind::WrongGuess => self.wrong_guess.inc(),
            RedirectKind::Overload => self.overload_redirect.inc(),
        }
        self.telemetry.emit(|| Event::Redirect {
            t_ms,
            kind,
            from_dc: from.0 as u64,
            to_dc: to.0 as u64,
        });
    }

    fn replicated(&self, t_ms: u64, dc: DataCenterId, video: VideoId) {
        self.replication.inc();
        self.telemetry.emit(|| Event::Replication {
            t_ms,
            dc: dc.0 as u64,
            video_rank: video.index(),
        });
    }
}

/// Download throughput of an access technology, in bytes per millisecond.
fn throughput_bytes_per_ms(access: AccessKind) -> f64 {
    match access {
        AccessKind::Campus => 3_000.0,
        AccessKind::Adsl => 700.0,
        AccessKind::Ftth => 2_500.0,
        AccessKind::IspPop => 1_500.0,
        AccessKind::DataCenter => 10_000.0,
    }
}

/// Which pool serves a session, decided by the prelude draws.
enum SessionRoute {
    /// Served by a non-Google pool (legacy YouTube-EU or third party).
    Pool(ServerPool),
    /// Mapped to a Google data center by DNS.
    Google(DnsDecision),
}

/// Everything decided about a session before any flow is emitted.
struct SessionPrelude {
    client_ip: Ipv4Addr,
    meta: VideoMeta,
    resolution: Resolution,
    route: SessionRoute,
}

/// Draws a session's prelude: client, video, resolution, and routing.
///
/// Scheduled DNS mutations are applied here, *after* the resolver's draws
/// and capacity accounting and with no RNG of their own, so a mutation
/// changes where a session goes but never which words its stream yields.
fn draw_session_prelude(
    vp: &VantagePoint,
    catalog: &VideoCatalog,
    dns: &mut DnsResolver,
    mutations: &MutationSchedule,
    t: u64,
    rng: &mut SimRng,
) -> SessionPrelude {
    let (subnet_idx, client_ip) = vp.sample_client(rng);
    let meta = catalog.sample(t, rng);
    let resolution = sample_resolution(rng);
    // A slice of sessions is still served by non-Google pools.
    let pool_draw: f64 = rng.gen_range(0.0..1.0);
    let route = if pool_draw < vp.mix.p_legacy {
        SessionRoute::Pool(ServerPool::LegacyYouTubeEu)
    } else if pool_draw < vp.mix.p_legacy + vp.mix.p_third {
        SessionRoute::Pool(ServerPool::ThirdParty)
    } else {
        let ldns = vp.subnets[subnet_idx].ldns;
        let decision = dns.resolve(ldns, t, rng);
        let decision = mutations.remap(decision, t / HOUR_MS, &dns.policies()[ldns.0]);
        SessionRoute::Google(decision)
    };
    SessionPrelude {
        client_ip,
        meta,
        resolution,
        route,
    }
}

/// Simulates one vantage point for one week.
pub struct Engine<'w> {
    topo: &'w Topology,
    catalog: &'w VideoCatalog,
    vp: &'w VantagePoint,
    config: EngineConfig,
    dns: DnsResolver,
    mutations: Arc<MutationSchedule>,
    store: ContentStore,
    /// Arrivals per (server, hour); the application-layer overload signal.
    arrivals: HashMap<(Ipv4Addr, u64), u32>,
    /// Floor RTT (incl. peering penalty) from the vantage point to each DC.
    rtt_to_dc: Vec<f64>,
    server_cap: u32,
    seed: u64,
    outcome: SessionOutcome,
    records: Vec<FlowRecord>,
    tel: Option<EngineTelemetry>,
}

impl<'w> Engine<'w> {
    /// Creates an engine.
    ///
    /// `policies` are the (already scale-adjusted) LDNS policies of this
    /// vantage network; `store` is the content placement to run against.
    #[allow(clippy::too_many_arguments)] // explicit dependency injection
    pub fn new(
        topo: &'w Topology,
        catalog: &'w VideoCatalog,
        delay: DelayModel,
        vp: &'w VantagePoint,
        policies: Vec<LdnsPolicy>,
        store: ContentStore,
        config: EngineConfig,
        seed: u64,
    ) -> Self {
        let vp_ep = vp.endpoint();
        let rtt_to_dc = topo
            .dcs()
            .iter()
            .map(|dc| {
                let dc_ep = Endpoint::new(dc.city.coord, AccessKind::DataCenter);
                delay.floor_rtt_ms(&vp_ep, &dc_ep) + vp.penalty_to(dc.city.name)
            })
            .collect();
        let server_cap =
            ((vp.mix.server_capacity_per_hour as f64 * config.scale).round() as u32).max(2);
        Self {
            topo,
            catalog,
            vp,
            config,
            dns: DnsResolver::new(policies),
            mutations: Arc::new(MutationSchedule::default()),
            store,
            arrivals: HashMap::new(),
            rtt_to_dc,
            server_cap,
            seed,
            outcome: SessionOutcome::default(),
            records: Vec::new(),
            tel: None,
        }
    }

    /// Attaches a telemetry handle covering the engine's decision points
    /// (DNS causes, redirect chains, cache misses, replications) — usually
    /// one scoped to this vantage point's dataset name. Observability only:
    /// the simulated decisions and the RNG streams are untouched, so the
    /// produced dataset is byte-identical with or without telemetry.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        if telemetry.is_enabled() {
            self.dns.set_telemetry(telemetry.clone());
            self.tel = Some(EngineTelemetry::new(telemetry));
        }
        self
    }

    /// Attaches a mutation schedule. Note the schedule carries the DNS-level
    /// mutations only; cache evictions must already be installed on the
    /// `store` (see [`ContentStore::set_evictions`]).
    pub fn with_mutations(mut self, mutations: Arc<MutationSchedule>) -> Self {
        self.mutations = mutations;
        self
    }

    /// The per-server hourly capacity after scaling.
    pub fn server_capacity(&self) -> u32 {
        self.server_cap
    }

    /// Floor RTT from the vantage point to a data center, in ms (including
    /// peering penalties).
    pub fn rtt_to_dc(&self, dc: DataCenterId) -> f64 {
        self.rtt_to_dc[dc.0]
    }

    /// Runs the full week and returns the dataset plus ground truth.
    pub fn run(mut self) -> (Dataset, SessionOutcome) {
        let total = (self.vp.sessions_per_week as f64 * self.config.scale).round() as u64;
        let model = WorkloadModel::new(total, 0.0);
        let mut ordinal: u64 = 0;
        for hour in 0..WEEK_HOURS {
            for t in model.hour_times(self.seed, hour) {
                let mut rng = SimRng::for_stream(self.seed, &[stream::SESSION, ordinal]);
                self.simulate_session(t, &mut rng);
                ordinal += 1;
            }
        }
        self.outcome.flows = self.records.len() as u64;
        self.outcome.replications = self.store.replications() as u64;
        if let Some(tel) = &self.tel {
            tel.sessions.add(self.outcome.sessions);
            tel.flows.add(self.outcome.flows);
        }
        (
            Dataset::from_records(self.vp.dataset, self.records),
            self.outcome,
        )
    }

    fn simulate_session(&mut self, t: u64, rng: &mut SimRng) {
        self.outcome.sessions += 1;
        let p = draw_session_prelude(
            self.vp,
            self.catalog,
            &mut self.dns,
            &self.mutations,
            t,
            rng,
        );
        let decision = match p.route {
            SessionRoute::Pool(pool) => {
                match pool {
                    ServerPool::LegacyYouTubeEu => self.outcome.legacy_sessions += 1,
                    _ => self.outcome.third_party_sessions += 1,
                }
                self.legacy_session(
                    t,
                    p.client_ip,
                    p.meta.id,
                    p.meta.duration_s,
                    p.resolution,
                    pool,
                    rng,
                );
                return;
            }
            SessionRoute::Google(decision) => decision,
        };
        match decision.cause {
            DnsCause::Noise => self.outcome.dns_noise += 1,
            DnsCause::LoadBalanced => self.outcome.dns_load_balanced += 1,
            DnsCause::Preferred => {}
        }

        let client_ip = p.client_ip;
        let meta = p.meta;
        let resolution = p.resolution;
        let hops = self.resolve_chain(decision.dc, meta.id, t, rng);
        if let Some(tel) = &self.tel {
            tel.chain_hops.record(hops.len() as f64);
        }
        let mut cursor = t;

        // Preliminary control exchanges only occur on direct serves; on a
        // redirect the first contact already is a control flow.
        if hops.len() == 1 {
            let k: f64 = rng.gen_range(0.0..1.0);
            let prelim = if k < self.vp.mix.p_ctrl2 {
                2
            } else if k < self.vp.mix.p_ctrl2 + self.vp.mix.p_ctrl1 {
                1
            } else {
                0
            };
            for _ in 0..prelim {
                cursor = self.emit_control(cursor, client_ip, hops[0], meta.id, resolution, rng);
            }
        }

        // Control flow at every intermediate hop, video at the last.
        for &hop in &hops[..hops.len() - 1] {
            cursor = self.emit_control(cursor, client_ip, hop, meta.id, resolution, rng);
        }
        // ytcdn-lint: allow(PAN001) — resolve_chain seeds `hops` with the resolved DC before any redirect
        let serving = *hops.last().expect("chain has at least one hop");
        // Watch behaviour calibrated to the paper's Table I volumes:
        // a modest fraction of views run to completion, most abandon early,
        // and datasets differ in mean consumption (watch_scale).
        let watch_frac = if rng.gen_bool(0.10) {
            1.0
        } else {
            rng.gen_range(0.02..0.45)
        } * self.vp.mix.watch_scale;
        let end = self.emit_video(
            cursor,
            client_ip,
            serving,
            meta.id,
            meta.duration_s,
            resolution,
            watch_frac,
            rng,
        );

        // Later user interaction with the same video (seek / resolution
        // change): a separate flow seconds-to-minutes later, which only
        // session grouping with a large gap threshold merges (Figure 5).
        if rng.gen_bool(self.vp.mix.p_follow) {
            let gap = rng.gen_range(2_000u64..240_000);
            let new_res = if rng.gen_bool(0.5) {
                sample_resolution(rng)
            } else {
                resolution
            };
            let frac = rng.gen_range(0.05..0.5);
            self.emit_video(
                end + gap,
                client_ip,
                serving,
                meta.id,
                meta.duration_s,
                new_res,
                frac,
                rng,
            );
        }
    }

    /// Walks the server-selection chain for a session mapped to `dc0`,
    /// returning the contacted `(data center, server)` hops. All but the
    /// last answer with a redirect.
    fn resolve_chain(
        &mut self,
        dc0: DataCenterId,
        video: VideoId,
        t: u64,
        rng: &mut SimRng,
    ) -> Vec<(DataCenterId, Ipv4Addr)> {
        let hour = t / HOUR_MS;
        let server0 = self.server_in(dc0, video, rng);
        self.note_arrival(server0, hour);

        if !self.store.has_at(dc0, video, hour) {
            // Content miss: redirect until the video is found, then pull it
            // into the contacted data center.
            self.outcome.miss_redirects += 1;
            if let Some(tel) = &self.tel {
                tel.cache_miss.inc();
                tel.telemetry.emit(|| Event::CacheMiss {
                    t_ms: t,
                    dc: dc0.0 as u64,
                    video_rank: video.index(),
                });
            }
            let mut hops = vec![(dc0, server0)];
            // A miss at a *non-preferred* data center often bounces the
            // client to the replica closest to it — which is the network's
            // preferred data center when it holds the video. This is the
            // (non-preferred, preferred) pattern of Figure 10b. A preferred
            // data center decommissioned by the mutation schedule stops
            // being a bounce target (redirectors drain it like DNS does).
            let home_pref = self.dns.policies()[0].preferred;
            if dc0 != home_pref
                && !self.mutations.is_down(home_pref, hour)
                && self.store.has_at(home_pref, video, hour)
                && rng.gen_bool(0.5)
            {
                let hs = self.server_in(home_pref, video, rng);
                self.note_arrival(hs, hour);
                hops.push((home_pref, hs));
                self.observe_redirect(t, RedirectKind::ContentMiss, dc0, home_pref);
                self.pull_through(t, dc0, video);
                return hops;
            }
            let guess_missed = rng.gen_bool(self.config.guess_miss_prob);
            if guess_missed {
                let g = self.store.guess_holder(video, dc0);
                if self.store.has_at(g, video, hour) {
                    let gs = self.server_in(g, video, rng);
                    self.note_arrival(gs, hour);
                    hops.push((g, gs));
                    self.observe_redirect(t, RedirectKind::ContentMiss, dc0, g);
                    self.pull_through(t, dc0, video);
                    return hops;
                }
                // Wrong guess: one more control hop.
                self.outcome.double_redirects += 1;
                let gs = self.server_in(g, video, rng);
                self.note_arrival(gs, hour);
                hops.push((g, gs));
                self.observe_redirect(t, RedirectKind::WrongGuess, dc0, g);
            }
            let origin = self.store.origin_of(video);
            let os = self.server_in(origin, video, rng);
            self.note_arrival(os, hour);
            // ytcdn-lint: allow(PAN001) — `hops` is seeded with the resolved DC above
            let from = hops.last().expect("chain has at least one hop").0;
            hops.push((origin, os));
            self.observe_redirect(t, RedirectKind::ContentMiss, from, origin);
            self.pull_through(t, dc0, video);
            return hops;
        }

        let pinned = video.index() >= self.store.config().popular_below_rank;
        if pinned && self.arrivals[&(server0, hour)] > self.server_cap {
            // Hot spot: a single-video cache host is past its hourly budget;
            // shed the request to another data center that has the content.
            // Popular content is replicated on every machine of the data
            // center, so it load-balances internally and never pins one
            // server — only tail content concentrated by the video→server
            // mapping can create the paper's hot spots.
            self.outcome.overload_redirects += 1;
            let target = self.overflow_target(dc0, video, hour);
            let ts = self.server_in(target, video, rng);
            self.note_arrival(ts, hour);
            self.observe_redirect(t, RedirectKind::Overload, dc0, target);
            return vec![(dc0, server0), (target, ts)];
        }

        vec![(dc0, server0)]
    }

    fn observe_redirect(&self, t: u64, kind: RedirectKind, from: DataCenterId, to: DataCenterId) {
        if let Some(tel) = &self.tel {
            tel.redirect(t, kind, from, to);
        }
    }

    /// Replicates after a miss (unless the ablation disables it) and counts
    /// the pull-through exactly when the replica is new.
    fn pull_through(&mut self, t: u64, dc: DataCenterId, video: VideoId) {
        if self.config.disable_replication {
            return;
        }
        if self.store.replicate(dc, video) {
            if let Some(tel) = &self.tel {
                tel.replicated(t, dc, video);
            }
        }
    }

    /// The server handling `video` within `dc`: popular content is on every
    /// machine (load-balanced), tail content is pinned to one cache host.
    fn server_in(&mut self, dc: DataCenterId, video: VideoId, rng: &mut SimRng) -> Ipv4Addr {
        let dc = self.topo.dc(dc);
        if video.index() < self.store.config().popular_below_rank {
            dc.random_server(rng)
        } else {
            dc.server_for_video(video)
        }
    }

    fn note_arrival(&mut self, server: Ipv4Addr, hour: u64) {
        *self.arrivals.entry((server, hour)).or_insert(0) += 1;
    }

    /// Where an overloaded server sheds load: the best alternate that has
    /// the content (and is not decommissioned), falling back to the video's
    /// origin.
    fn overflow_target(&mut self, dc0: DataCenterId, video: VideoId, hour: u64) -> DataCenterId {
        let alternates: Vec<DataCenterId> = self.dns.policies()[0]
            .alternates
            .iter()
            .copied()
            .filter(|&d| d != dc0 && !self.mutations.is_down(d, hour))
            .collect();
        for d in alternates {
            if self.store.has_at(d, video, hour) {
                return d;
            }
        }
        self.store.origin_of(video)
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_control(
        &mut self,
        t: u64,
        client_ip: Ipv4Addr,
        hop: (DataCenterId, Ipv4Addr),
        video: VideoId,
        resolution: Resolution,
        rng: &mut SimRng,
    ) -> u64 {
        let rtt = self.rtt_to_dc[hop.0 .0];
        let dur = (2.0 * rtt) as u64 + rng.gen_range(20u64..120);
        let bytes = rng.gen_range(80u64..900);
        self.records.push(FlowRecord {
            client_ip,
            server_ip: hop.1,
            start_ms: t,
            end_ms: t + dur,
            bytes,
            video_id: video,
            resolution,
        });
        // Gap before the next flow of the session: well under the paper's
        // 1-second grouping threshold.
        t + dur + rng.gen_range(50u64..500)
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_video(
        &mut self,
        t: u64,
        client_ip: Ipv4Addr,
        hop: (DataCenterId, Ipv4Addr),
        video: VideoId,
        duration_s: u32,
        resolution: Resolution,
        watch_frac: f64,
        rng: &mut SimRng,
    ) -> u64 {
        let jitter = rng.gen_range(0.9..1.1);
        let bytes = ((duration_s as f64 * resolution.bytes_per_sec() as f64 * watch_frac * jitter)
            as u64)
            .max(10_000);
        let tput = throughput_bytes_per_ms(self.vp.access) * rng.gen_range(0.6..1.3);
        let dur = ((bytes as f64 / tput) as u64).max(200);
        let end = t + dur;
        self.records.push(FlowRecord {
            client_ip,
            server_ip: hop.1,
            start_ms: t,
            end_ms: end,
            bytes,
            video_id: video,
            resolution,
        });
        end
    }

    /// A session served by the legacy YouTube-EU pool or a third-party
    /// cache: one flow, usually small, from a uniformly random server of a
    /// (continent-biased) random site.
    #[allow(clippy::too_many_arguments)]
    fn legacy_session(
        &mut self,
        t: u64,
        client_ip: Ipv4Addr,
        video: VideoId,
        duration_s: u32,
        resolution: Resolution,
        pool: ServerPool,
        rng: &mut SimRng,
    ) {
        let sites: Vec<_> = self.topo.dcs_in_pool(pool).collect();
        debug_assert!(!sites.is_empty());
        let weights: Vec<f64> = sites
            .iter()
            .map(|d| {
                if d.continent() == self.vp.city.continent {
                    3.0
                } else {
                    1.0
                }
            })
            .collect();
        let total: f64 = weights.iter().sum();
        let mut pick = rng.gen_range(0.0..total);
        let mut site = sites[sites.len() - 1];
        for (d, w) in sites.iter().zip(&weights) {
            if pick < *w {
                site = d;
                break;
            }
            pick -= w;
        }
        let (site_id, server) = (site.id, site.random_server(rng));
        let frac = rng.gen_range(0.02..0.25) * self.vp.mix.legacy_bytes_scale / 0.15
            * self.vp.mix.watch_scale;
        self.emit_video(
            t,
            client_ip,
            (site_id, server),
            video,
            duration_s,
            resolution,
            frac.min(1.0),
            rng,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::Engine;
    use crate::scenario::{ScenarioConfig, StandardScenario};
    use ytcdn_tstat::{DatasetName, FlowClass, FlowClassifier};

    fn small_scenario() -> StandardScenario {
        StandardScenario::build(ScenarioConfig::with_scale(0.01, 7))
    }

    #[test]
    fn run_produces_sorted_well_formed_flows() {
        let s = small_scenario();
        let (ds, outcome) = s.run(DatasetName::Eu1Ftth);
        assert!(outcome.flows > 0);
        assert_eq!(ds.len() as u64, outcome.flows);
        assert!(ds
            .records()
            .windows(2)
            .all(|w| w[0].start_ms <= w[1].start_ms));
        assert!(ds.iter().all(|r| r.is_well_formed()));
    }

    #[test]
    fn flows_per_session_ratio_plausible() {
        let s = small_scenario();
        let (_, outcome) = s.run(DatasetName::Eu1Adsl);
        let ratio = outcome.flows as f64 / outcome.sessions as f64;
        assert!((1.2..1.7).contains(&ratio), "flows/session {ratio}");
    }

    #[test]
    fn control_flow_share_plausible() {
        let s = small_scenario();
        let (ds, _) = s.run(DatasetName::UsCampus);
        let c = FlowClassifier::default();
        let control = ds
            .iter()
            .filter(|f| c.classify(f) == FlowClass::Control)
            .count();
        let frac = control as f64 / ds.len() as f64;
        // Roughly the multi-flow-session share of Figure 6.
        assert!((0.10..0.35).contains(&frac), "control share {frac}");
    }

    #[test]
    fn redirect_causes_all_present() {
        let s = small_scenario();
        let (_, o) = s.run(DatasetName::Eu1Adsl);
        assert!(o.miss_redirects > 0, "misses: {o:?}");
        assert!(o.dns_noise > 0);
        assert!(o.replications > 0);
        assert!(o.double_redirects > 0);
        assert!(o.double_redirects < o.miss_redirects);
    }

    #[test]
    fn eu2_load_balances_at_dns() {
        let s = small_scenario();
        let (_, o) = s.run(DatasetName::Eu2);
        assert!(
            o.dns_load_balanced > o.sessions / 20,
            "EU2 should spill a large share: {o:?}"
        );
        let (_, o_us) = s.run(DatasetName::UsCampus);
        assert_eq!(
            o_us.dns_load_balanced, 0,
            "US campus has no DNS capacity limit"
        );
    }

    #[test]
    fn most_flows_from_preferred_dc() {
        let s = small_scenario();
        let (ds, _) = s.run(DatasetName::Eu1Campus);
        let world = s.world();
        let pref = world.preferred_dc(DatasetName::Eu1Campus);
        let video_flows: Vec<_> = ds
            .iter()
            .filter(|f| f.bytes >= 1000)
            .filter(|f| {
                // Only Google-family servers count, as in the paper.
                world
                    .topology()
                    .dc_of_ip(f.server_ip)
                    .map(|d| world.topology().dc(d).pool.in_analysis())
                    .unwrap_or(false)
            })
            .collect();
        let at_pref = video_flows
            .iter()
            .filter(|f| world.topology().dc_of_ip(f.server_ip) == Some(pref))
            .count();
        let frac = at_pref as f64 / video_flows.len() as f64;
        assert!(frac > 0.80, "preferred share {frac}");
    }

    #[test]
    fn replication_ablation_removes_repair() {
        let mut cfg = ScenarioConfig::with_scale(0.01, 9);
        cfg.engine.disable_replication = true;
        let s = StandardScenario::build(cfg);
        let (_, o) = s.run(DatasetName::Eu1Ftth);
        assert_eq!(o.replications, 0);
        assert!(o.miss_redirects > 0);
    }

    #[test]
    fn rtt_ranking_reflects_peering_penalties() {
        let s = small_scenario();
        let world = s.world();
        // From the US campus, the penalized nearby DCs must rank worse than
        // the preferred one despite being geographically closer.
        let pref = world.preferred_dc(DatasetName::UsCampus);
        let pref_rtt = world.rtt_to_dc(DatasetName::UsCampus, pref);
        for dc in world.topology().analysis_dcs() {
            if ["Indianapolis", "Chicago", "Columbus", "Detroit", "St Louis"]
                .contains(&dc.city.name)
            {
                let rtt = world.rtt_to_dc(DatasetName::UsCampus, dc.id);
                assert!(rtt > pref_rtt, "{}: {rtt} vs preferred {pref_rtt}", dc.city);
                assert!(rtt > 25.0, "{}: penalty missing ({rtt})", dc.city);
            }
        }
    }

    #[test]
    fn miss_at_nonpreferred_can_bounce_back_to_preferred() {
        // The (non-preferred, preferred) pattern of Figure 10b: count
        // 2-flow sessions whose control flow hits a non-preferred DC and
        // whose video comes from the preferred one.
        let s = StandardScenario::build(ScenarioConfig::with_scale(0.02, 31));
        let (ds, _) = s.run(DatasetName::Eu2);
        let world = s.world();
        let pref = world.preferred_dc(DatasetName::Eu2);
        let mut np = 0;
        let mut by_key: std::collections::HashMap<_, Vec<&ytcdn_tstat::FlowRecord>> =
            Default::default();
        for r in ds.iter() {
            by_key.entry((r.client_ip, r.video_id)).or_default().push(r);
        }
        for flows in by_key.values() {
            if flows.len() == 2 && flows[0].bytes < 1000 && flows[1].bytes >= 1000 {
                let d0 = world.topology().dc_of_ip(flows[0].server_ip);
                let d1 = world.topology().dc_of_ip(flows[1].server_ip);
                if d0.is_some() && d0 != Some(pref) && d1 == Some(pref) {
                    np += 1;
                }
            }
        }
        assert!(np > 0, "no (non-preferred, preferred) bounce observed");
    }

    #[test]
    fn legacy_flows_are_smaller_than_google_flows() {
        let s = small_scenario();
        let (ds, _) = s.run(DatasetName::UsCampus);
        let topo = s.world().topology();
        let mut legacy = Vec::new();
        let mut google = Vec::new();
        for r in ds.iter().filter(|r| r.bytes >= 1000) {
            match topo.dc_of_ip(r.server_ip).map(|d| topo.dc(d).pool) {
                Some(crate::topology::ServerPool::LegacyYouTubeEu) => legacy.push(r.bytes),
                Some(crate::topology::ServerPool::Google) => google.push(r.bytes),
                _ => {}
            }
        }
        assert!(!legacy.is_empty() && !google.is_empty());
        let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len() as f64;
        assert!(
            mean(&legacy) < mean(&google) / 2.0,
            "legacy {} vs google {}",
            mean(&legacy),
            mean(&google)
        );
    }

    #[test]
    fn server_capacity_scales_with_workload() {
        let small = StandardScenario::build(ScenarioConfig::with_scale(0.01, 1));
        let large = StandardScenario::build(ScenarioConfig::with_scale(0.1, 1));
        let world_s = small.world();
        let vp = world_s.vantage(DatasetName::Eu1Adsl);
        let engine_small = Engine::new(
            world_s.topology(),
            world_s.catalog(),
            world_s.delay_model(),
            vp,
            world_s.policies(DatasetName::Eu1Adsl).to_vec(),
            small.fresh_store(),
            small.config().engine,
            0,
        );
        let world_l = large.world();
        let vp_l = world_l.vantage(DatasetName::Eu1Adsl);
        let engine_large = Engine::new(
            world_l.topology(),
            world_l.catalog(),
            world_l.delay_model(),
            vp_l,
            world_l.policies(DatasetName::Eu1Adsl).to_vec(),
            large.fresh_store(),
            large.config().engine,
            0,
        );
        assert!(engine_large.server_capacity() > 5 * engine_small.server_capacity());
        // RTT accessor agrees with the world's view.
        let dc = world_l.preferred_dc(DatasetName::Eu1Adsl);
        assert!(
            (engine_large.rtt_to_dc(dc) - world_l.rtt_to_dc(DatasetName::Eu1Adsl, dc)).abs() < 1e-9
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = StandardScenario::build(ScenarioConfig::with_scale(0.005, 11))
            .run(DatasetName::Eu1Ftth);
        let b = StandardScenario::build(ScenarioConfig::with_scale(0.005, 11))
            .run(DatasetName::Eu1Ftth);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a =
            StandardScenario::build(ScenarioConfig::with_scale(0.005, 1)).run(DatasetName::Eu1Ftth);
        let b =
            StandardScenario::build(ScenarioConfig::with_scale(0.005, 2)).run(DatasetName::Eu1Ftth);
        assert_ne!(a, b);
    }
}

//! The controlled active experiment of Section VII-C.
//!
//! The paper uploads a test video, then downloads it "from 45 PlanetLab
//! nodes around the world ... every 30 minutes for 12 hours", measuring the
//! RTT to the server actually used. The very first download from a node is
//! served by a far data center (the only one storing the fresh upload — in
//! the paper's run, the Netherlands), after which the video is pulled into
//! the node's preferred data center and later samples are near (Figures 17
//! and 18).

use ytcdn_geomodel::Continent;
use ytcdn_netsim::{
    landmarks_with_counts, AccessKind, Endpoint, Landmark, NoiseRng, Pinger, PAPER_LANDMARK_COUNTS,
};
use ytcdn_tstat::VideoId;

use crate::scenario::StandardScenario;
use crate::topology::DataCenterId;

/// One probe: when, which server answered, and its measured RTT.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActiveProbeSample {
    /// Probe time, ms since experiment start.
    pub t_ms: u64,
    /// The data center that served the download.
    pub dc: DataCenterId,
    /// Measured min-RTT to the serving server, ms.
    pub rtt_ms: f64,
}

/// The probe series of one node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeTrace {
    /// The probing node's name.
    pub node: String,
    /// The node's preferred data center (lowest RTT).
    pub preferred: DataCenterId,
    /// Samples in time order.
    pub samples: Vec<ActiveProbeSample>,
}

impl NodeTrace {
    /// RTT of the first sample over RTT of the second (the paper's
    /// `RTT1/RTT2`); `None` with fewer than two samples.
    pub fn first_to_second_ratio(&self) -> Option<f64> {
        match self.samples.as_slice() {
            [first, second, ..] => Some(first.rtt_ms / second.rtt_ms),
            _ => None,
        }
    }
}

/// Configuration of the active experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActiveConfig {
    /// Number of probing nodes (the paper uses 45).
    pub nodes: usize,
    /// Probe period in ms (the paper: 30 minutes).
    pub period_ms: u64,
    /// Number of samples per node (the paper: 12 h / 30 min = 25).
    pub samples: usize,
    /// Stagger between consecutive nodes' start times, ms. Nodes sharing a
    /// preferred data center warm each other's caches, which is part of why
    /// many nodes in the paper see a ratio near 1.
    pub stagger_ms: u64,
    /// City of the data center the test video is uploaded to.
    pub origin_city: &'static str,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ActiveConfig {
    fn default() -> Self {
        Self {
            nodes: 45,
            period_ms: 30 * 60 * 1000,
            samples: 25,
            stagger_ms: 137_000,
            origin_city: "Groningen",
            seed: 4242,
        }
    }
}

/// The experiment driver.
#[derive(Debug)]
pub struct ActiveExperiment {
    config: ActiveConfig,
    nodes: Vec<Landmark>,
}

impl ActiveExperiment {
    /// Creates the experiment with a worldwide node set (distribution
    /// proportional to the paper's PlanetLab footprint).
    pub fn new(config: ActiveConfig) -> Self {
        // Scale the paper's 215-landmark distribution down to `nodes`.
        let total: usize = PAPER_LANDMARK_COUNTS.iter().map(|&(_, n)| n).sum();
        let mut counts: Vec<(Continent, f64)> = PAPER_LANDMARK_COUNTS
            .iter()
            .map(|&(c, n)| {
                let share = n as f64 / total as f64 * config.nodes as f64;
                (c, share.round().max(0.0))
            })
            .collect();
        // Fix rounding drift on the largest bucket.
        let sum: f64 = counts.iter().map(|c| c.1).sum();
        counts[0].1 += config.nodes as f64 - sum;
        let spec: Vec<(Continent, usize)> =
            counts.into_iter().map(|(c, n)| (c, n as usize)).collect();
        let nodes = landmarks_with_counts(config.seed, &spec);
        Self { config, nodes }
    }

    /// The probing nodes.
    pub fn nodes(&self) -> &[Landmark] {
        &self.nodes
    }

    /// Runs the experiment against a scenario's world, with a fresh content
    /// store so only this experiment's pulls exist.
    pub fn run(&self, scenario: &StandardScenario) -> Vec<NodeTrace> {
        let world = scenario.world();
        let topo = world.topology();
        let mut store = scenario.fresh_store();

        // "Upload" the test video: present only at the origin data center.
        let video = VideoId::from_index(u64::MAX / 2 + 1);
        let origin = topo
            .analysis_dcs()
            .find(|d| d.city.name == self.config.origin_city)
            .unwrap_or_else(|| panic!("origin city {} has no data center", self.config.origin_city))
            .id;
        store.upload(video, origin);

        // Each node's preferred data center: lowest floor RTT (no vantage
        // peering penalties apply; these are independent hosts).
        let delay = world.delay_model();
        let prefs: Vec<DataCenterId> = self
            .nodes
            .iter()
            .map(|n| {
                topo.analysis_dcs()
                    .map(|d| {
                        let ep = Endpoint::new(d.city.coord, AccessKind::DataCenter);
                        (d.id, delay.floor_rtt_ms(&n.endpoint(), &ep))
                    })
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    // ytcdn-lint: allow(PAN001) — the standard topology always defines analysis DCs
                    .expect("topology has data centers")
                    .0
            })
            .collect();

        // Build the global probe timeline: (time, node); replication caused
        // by one node is visible to later probes from any node.
        let mut timeline: Vec<(u64, usize)> = Vec::new();
        for (i, _) in self.nodes.iter().enumerate() {
            let start = i as u64 * self.config.stagger_ms;
            for k in 0..self.config.samples {
                timeline.push((start + k as u64 * self.config.period_ms, i));
            }
        }
        timeline.sort_unstable();

        let mut rng = NoiseRng::seed_from_u64(self.config.seed ^ 0xACED);
        let pinger = Pinger::new(delay, 3);
        let mut traces: Vec<NodeTrace> = self
            .nodes
            .iter()
            .zip(&prefs)
            .map(|(n, &p)| NodeTrace {
                node: n.name.clone(),
                preferred: p,
                samples: Vec::with_capacity(self.config.samples),
            })
            .collect();

        for (t, i) in timeline {
            let pref = prefs[i];
            let serving = if store.has(pref, video) {
                pref
            } else {
                store.replicate(pref, video);
                origin
            };
            let server = topo.dc(serving).server_for_video(video);
            let target = topo
                .server_endpoint(server)
                // ytcdn-lint: allow(PAN001) — `server` came from this topology's own server_for_video
                .expect("topology servers have endpoints");
            let m = pinger.ping(&self.nodes[i].endpoint(), &target, &mut rng);
            traces[i].samples.push(ActiveProbeSample {
                t_ms: t,
                dc: serving,
                rtt_ms: m.min_ms,
            });
        }
        traces
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ScenarioConfig, StandardScenario};

    fn run_small() -> Vec<NodeTrace> {
        let scenario = StandardScenario::build(ScenarioConfig::with_scale(0.001, 5));
        let exp = ActiveExperiment::new(ActiveConfig {
            nodes: 20,
            samples: 6,
            ..ActiveConfig::default()
        });
        exp.run(&scenario)
    }

    #[test]
    fn node_count_respected() {
        // The paper's 97/82/24/8/3/1 rounded to 45 nodes: Africa rounds to
        // none, and the rounded counts already sum to 45.
        let exp = ActiveExperiment::new(ActiveConfig::default());
        assert_eq!(exp.nodes().len(), 45);
        let per = |c: Continent| exp.nodes().iter().filter(|n| n.continent == c).count();
        let split = [
            Continent::NorthAmerica,
            Continent::Europe,
            Continent::Asia,
            Continent::SouthAmerica,
            Continent::Oceania,
            Continent::Africa,
        ]
        .map(per);
        assert_eq!(split, [20, 17, 5, 2, 1, 0]);
    }

    #[test]
    fn each_trace_has_all_samples() {
        let traces = run_small();
        assert_eq!(traces.len(), 20);
        assert!(traces.iter().all(|t| t.samples.len() == 6));
    }

    #[test]
    fn later_samples_served_by_preferred() {
        let traces = run_small();
        for t in &traces {
            // After the first sample, the video is always local.
            for s in &t.samples[1..] {
                assert_eq!(s.dc, t.preferred, "{}", t.node);
            }
        }
    }

    #[test]
    fn a_cold_first_sample_is_slower() {
        let traces = run_small();
        // At least one node far from the origin must show a big ratio...
        let max_ratio = traces
            .iter()
            .filter_map(NodeTrace::first_to_second_ratio)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(max_ratio > 3.0, "max ratio {max_ratio}");
        // ...and some nodes (near the origin, or warmed by a same-preference
        // neighbor) sit near 1.
        let near_one = traces
            .iter()
            .filter_map(NodeTrace::first_to_second_ratio)
            .filter(|r| (0.5..2.0).contains(r))
            .count();
        assert!(near_one > 0);
    }

    #[test]
    fn ratio_requires_two_samples() {
        let t = NodeTrace {
            node: "x".into(),
            preferred: DataCenterId(0),
            samples: vec![],
        };
        assert!(t.first_to_second_ratio().is_none());
    }
}

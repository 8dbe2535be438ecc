//! Golden snapshots of the simulated paper tables.
//!
//! A refactor that silently changes the simulation — an extra RNG draw in
//! the session path, a reordered branch in the redirection engine, a tweak
//! to the workload model — shifts every downstream table. The determinism
//! tests cannot catch that: they compare runs of the same engine (across
//! worker counts, seeds and builds), and every run drifts together. These
//! tests pin absolute values instead, at a scale small enough to keep the
//! fixtures readable (`scale = 0.01`, seed 42).
//!
//! ## What is pinned, and why only this
//!
//! Per dataset: the simulated session count and Table I row (flows, distinct
//! servers, distinct clients), the data-center ranking by video bytes (top
//! three city names), and the preferred data center. Every pinned value is
//! produced exclusively by the in-tree `SimRng` — the simulation path never
//! draws measurement noise. RTT measurements *do* draw noise
//! (`World::ping_server`, through netsim's `NoiseRng`), so RTTs are
//! deliberately not pinned here; the noise stream itself is pinned by
//! `ytcdn-netsim`'s `noise::tests::pinned_streams`. The preferred-DC pick
//! falls back to an RTT comparison only when two centers both carry ≥15% of
//! bytes (EU2); that comparison is between different cities whose
//! propagation floors are far apart, so the pick does not hinge on the
//! noise.
//!
//! The Figure 5 and Figure 6 reports are pinned whole (`FIG5_FIG6`): they
//! are pure functions of the simulated flows (session grouping never draws
//! from any RNG), and any change to how sessions are grouped or swept over
//! `T` shows up byte for byte.
//!
//! The session grouping itself is pinned by digest (`SESSIONS`): per
//! dataset at the golden scale and seed, the SHA-256 of every canonical
//! session row at the index's gap `T = 1 s` (start, end, client, video and
//! its flow indices), of the bucket-order flow column, and of the distinct
//! client count. The reports above read sessions only through counts; this
//! pin sees a reordered row, a reordered bucket or a moved flow.
//!
//! The presentation layer is pinned by digest (`PRESENTATION`): the SHA-256
//! of every experiment report, the rendered scorecard, the markdown report,
//! every figure's CSV and every `--plot` chart, at scale 0.004, seed 7, on
//! the healthy datasets and under `DegenerateShape::NoVideo` — the shape on
//! which the report, the CSV and the scorecard answer differently (fig9's
//! report errs while its CSV is written; fig11's report errs with one
//! reason and its scorecard row skips with another).
//!
//! The `watch` change-point table is pinned the same way (`WATCH`): the
//! SHA-256 of `WatchReport::render_table` for each dataset at scale 0.004,
//! seed 7, plus EU1-ADSL under `dc-down@72:Milan`, the one trace of these
//! on which the detector fires. `scripts/check.sh` and CI pin the CLI's
//! `watch` output of the same six traces.
//!
//! ## Update procedure
//!
//! If your change *intentionally* alters the simulation, re-baseline:
//!
//! ```text
//! cargo test --test golden_tables -- --ignored --nocapture print_golden_values
//! ```
//!
//! then paste the printed `GOLDEN` table, `FIG5_FIG6`, `SESSIONS`,
//! `PRESENTATION` and `WATCH` text over the ones below. State in the PR
//! description why the simulation changed; an unexplained golden diff is the
//! red flag these tests exist to raise.

use std::fmt::Write as _;

use ytcdn_cdnsim::{ScenarioConfig, StandardScenario};
use ytcdn_core::degenerate::DegenerateShape;
use ytcdn_core::experiments::{
    ExperimentSuite, SuiteConfig, ALL_EXPERIMENTS, EXTENSION_EXPERIMENTS,
};
use ytcdn_core::export::{ascii_chart, write_csv};
use ytcdn_core::index::DEFAULT_GAP_MS;
use ytcdn_core::report::markdown_report;
use ytcdn_core::scorecard::{render_scorecard, scorecard};
use ytcdn_core::sha256::{sha256_hex, to_hex, Sha256};
use ytcdn_core::{group_sessions, AnalysisContext, DatasetIndex, WatchConfig, WatchReport};
use ytcdn_telemetry::Telemetry;
use ytcdn_tstat::DatasetName;

/// Scale of the golden runs: large enough that every dataset exercises DNS
/// load balancing and pull-through, small enough to stay fast and legible.
const SCALE: f64 = 0.01;
/// Master seed of the golden runs.
const SEED: u64 = 42;

/// One dataset's pinned values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Golden {
    name: DatasetName,
    /// Sessions simulated (ground-truth outcome, not a flow-side estimate).
    sessions: u64,
    /// Table I: YouTube flow count.
    flows: usize,
    /// Table I: distinct content-server IPs.
    servers: usize,
    /// Table I: distinct client IPs.
    clients: usize,
    /// Data centers ranked by video bytes served, top three city names.
    dc_ranking: [&'static str; 3],
    /// The preferred data center's city.
    preferred: &'static str,
}

const GOLDEN: [Golden; 5] = [
    Golden {
        name: DatasetName::UsCampus,
        sessions: 6628,
        flows: 8819,
        servers: 595,
        clients: 5117,
        dc_ranking: ["Atlanta", "Lenoir", "Council Bluffs"],
        preferred: "Atlanta",
    },
    Golden {
        name: DatasetName::Eu1Campus,
        sessions: 1022,
        flows: 1349,
        servers: 233,
        clients: 592,
        dc_ranking: ["Milan", "Frankfurt", "Zurich"],
        preferred: "Milan",
    },
    Golden {
        name: DatasetName::Eu1Adsl,
        sessions: 6660,
        flows: 8771,
        servers: 691,
        clients: 4000,
        dc_ranking: ["Milan", "Zurich", "Frankfurt"],
        preferred: "Milan",
    },
    Golden {
        name: DatasetName::Eu1Ftth,
        sessions: 706,
        flows: 908,
        servers: 197,
        clients: 462,
        dc_ranking: ["Milan", "Zurich", "Frankfurt"],
        preferred: "Milan",
    },
    Golden {
        name: DatasetName::Eu2,
        sessions: 3880,
        flows: 4997,
        servers: 639,
        clients: 2623,
        dc_ranking: ["Paris", "Madrid", "Milan"],
        preferred: "Madrid",
    },
];

/// Runs the golden scenario and measures one dataset.
fn measure(s: &StandardScenario, name: DatasetName) -> (u64, usize, usize, usize, Vec<String>) {
    let (dataset, outcome) = s.run(name);
    let summary = dataset.summary();
    let ctx = AnalysisContext::from_ground_truth(s.world(), &dataset);
    let mut ranked: Vec<_> = ctx.dcs().to_vec();
    ranked.sort_by_key(|d| (std::cmp::Reverse(d.video_bytes), d.index));
    let mut cities: Vec<String> = ranked.iter().take(3).map(|d| d.city_name.clone()).collect();
    cities.push(ctx.preferred().city_name.clone());
    (
        outcome.sessions,
        summary.flows,
        summary.servers,
        summary.clients,
        cities,
    )
}

#[test]
fn table1_counts_and_preferred_dcs_match_golden() {
    let s = StandardScenario::build(ScenarioConfig::with_scale(SCALE, SEED));
    for g in &GOLDEN {
        let (sessions, flows, servers, clients, cities) = measure(&s, g.name);
        let got = (sessions, flows, servers, clients);
        let want = (g.sessions, g.flows, g.servers, g.clients);
        assert_eq!(
            got, want,
            "{}: counts drifted from golden — if intentional, follow the \
             update procedure in tests/golden_tables.rs",
            g.name
        );
        let want_cities: Vec<&str> = g
            .dc_ranking
            .iter()
            .copied()
            .chain(std::iter::once(g.preferred))
            .collect();
        assert_eq!(
            cities, want_cities,
            "{}: DC ranking / preferred DC drifted from golden — if \
             intentional, follow the update procedure in tests/golden_tables.rs",
            g.name
        );
    }
}

/// The Figure 5 (`T`-sweep) and Figure 6 reports at the golden scale/seed.
const FIG5_FIG6: &str = "\
Figure 5 — flows/session vs T, US-Campus (paper: T <= 10 s similar; pick T = 1 s)
T[s]       sessions single-flow frac
1              7018            0.787
5              7014            0.786
10             7006            0.785
60             6926            0.774
300            6628            0.728
Figure 6 — flows/session at T=1s (paper: 72.5-80.5% single-flow)
Dataset       sessions   =1 flow  =2 flows  >2 flows
US-Campus         7018     0.787     0.170     0.043
EU1-Campus        1085     0.802     0.153     0.045
EU1-ADSL          7017     0.792     0.167     0.041
EU1-FTTH           744     0.823     0.134     0.043
EU2               4073     0.819     0.136     0.046
";

/// The Figure 5/6 report text at the golden scale/seed, from a suite built
/// with `jobs` workers.
fn fig5_fig6_reports(jobs: usize) -> String {
    let suite = ExperimentSuite::new(SuiteConfig {
        scenario: ScenarioConfig::with_scale(SCALE, SEED),
        full_landmarks: false,
        jobs,
    });
    ["fig5", "fig6"]
        .iter()
        .map(|id| suite.run(id).expect("fig5/fig6 run on the golden scenario"))
        .collect()
}

#[test]
fn fig5_fig6_reports_match_golden() {
    for jobs in [1, 4] {
        assert_eq!(
            fig5_fig6_reports(jobs),
            FIG5_FIG6,
            "jobs={jobs}: Figure 5/6 reports drifted from golden — if \
             intentional, follow the update procedure in tests/golden_tables.rs"
        );
    }
}

/// Per dataset at the golden scale and seed: `<dataset> <sessions>
/// <distinct clients> <digest>` of its sessions at `T = 1 s` (see the
/// module docs).
const SESSIONS: &str = "\
US-Campus 7018 5117 7f1b11df476845aaa916bdccc31fd5fb53fae967883fde8117ba4d485ecf0c1b
EU1-Campus 1085 592 da6bc46ebc3888191387bc4c8ae976292ee4e4b4fb6a88ea7ecf8cc06d751565
EU1-ADSL 7017 4000 79031088c6e8328e4ce924e1ea696a90b5ff3b48620d4be5009d746af6e4a8de
EU1-FTTH 744 462 a899ae54e9d131451fbf933457abaad670bdacaeab99d98c0d0d2465888c52c7
EU2 4073 2623 1aa0453767680a2c1eb30f81c562784d71f824cf269938c8ab4fc798ecef6982
";

/// The `SESSIONS` lines for the current build. The digest covers each
/// canonical row as `start end client video len flows...`, then the
/// bucket-order column, then the distinct client count, every integer
/// little-endian.
fn session_digests() -> String {
    let s = StandardScenario::build(ScenarioConfig::with_scale(SCALE, SEED));
    let mut out = String::new();
    for name in DatasetName::ALL {
        let (ds, _) = s.run(name);
        let sessions = group_sessions(&ds, DEFAULT_GAP_MS);
        let mut h = Sha256::new();
        for session in sessions.iter() {
            h.update(&session.start_ms.to_le_bytes());
            h.update(&session.end_ms.to_le_bytes());
            h.update(&session.client_ip.octets());
            h.update(&session.video_id.index().to_le_bytes());
            h.update(&(session.flow_count() as u32).to_le_bytes());
            for &i in session.flow_indices() {
                h.update(&i.to_le_bytes());
            }
        }
        for &i in sessions.buckets().flatten() {
            h.update(&i.to_le_bytes());
        }
        h.update(&(sessions.distinct_clients() as u64).to_le_bytes());
        let _ = writeln!(
            out,
            "{name} {} {} {}",
            sessions.len(),
            sessions.distinct_clients(),
            to_hex(&h.finalize())
        );
    }
    out
}

#[test]
fn session_grouping_matches_golden() {
    assert_eq!(
        session_digests(),
        SESSIONS,
        "session grouping drifted from golden — if intentional, follow the \
         update procedure in tests/golden_tables.rs"
    );
}

/// SHA-256 of every presentation output, one `<shape> <output> <digest>`
/// line each, at scale 0.004, seed 7 (see the module docs).
const PRESENTATION: &str = "\
healthy report/table1 7dc272241a69d7117f6586717738ff81ed0de8cd87dd6041487d97953491f799
healthy report/table2 d53ddf423388c4906af454ddc241ab81a680843ac1666488ca5f2a0af7d2b0d8
healthy report/table3 4df098b9954ace55e434d1b5eda8846af3832e0c0d67d85557e52fc8876cc1ff
healthy report/fig2 703ced4af43c11f98fece5ba1c9cefc12314b05c6ce4f5f18c6626ca8e1d19e0
healthy report/fig3 6de8508fe45e318b887b218364603432375be7a93f83eb22c603ce39f88469bd
healthy report/fig4 7f45116b2e94c7cf39aa9d71580d61964105075b362ca19c3b0ccaf4355dedeb
healthy report/fig5 3c9a6a6b21a632cd8b8c81e3915edcf2e4c373197c2ed3b94f2b2fb8c396e1fa
healthy report/fig6 ab8fed68f6b46d2f82f00ec25dcaa49c4de5477facd7e9a36a08ca42c7569f39
healthy report/fig7 ae05f48ee20ba08f68b2f8cbce4e437cf025214b8400dd689669ab9aa53a634e
healthy report/fig8 46989993af6f378f4c091b4161165c4ef22943037fa6e3dd545cdcfea68fb5ca
healthy report/fig9 8c99c612406b21df9b7e26df78f1e8c080ee2bbae5e2500d77df2f380a8ae100
healthy report/fig10a f6623d36f8b430127e7b7a92c7d6c46797637b716a867dbb2d7a8a7ff2e29911
healthy report/fig10b fdbfa7d15936e7f1115df9faebee0d0e5275dd8c11c7ef961759e6da707e299c
healthy report/fig11 872a68ec6995320790059de9f13e3f64b086a638d18061a62a4397ca4190a8dd
healthy report/fig12 0dac91fd8a3702064b59c79b184fa7cedff0b60465044afd5b582a8c229f479c
healthy report/fig13 a61d61d8511864537a174278ad612a7ee8b362572f47ce6486d746679ec1f679
healthy report/fig14 a2b4edaa967fa7c9e2ae0ff5789fb8d7e6cbd18de57e354cb66bb948153e83d3
healthy report/fig15 4595b45c3a5e23c78613b7a704fcc3a6dfbe95b93dc0c38f171eddf3a76802d0
healthy report/fig16 e66c2992bd56e69086066a72d0b5af3f41b89d28d622dcb381489d3b498b0697
healthy report/fig17 c4bb48beb360c4914867d4fc4f7c0f0d1a279918a205bfa8906c96027ef19f1a
healthy report/fig18 2c74a12227297cb591de4a7c181d6da4f14ff8df0cf41c4338c4ff21fe26a093
healthy report/ext-perf 5c8a885a597c9721e63d494c5e15a1b36c6101549f8e4409d6b3cacec1e9ee87
healthy report/ext-characterize af33bd86b2fde95f16e1b4bec29fe828ba7e51e8cf92a0a8a5fef2aec9f1c2c0
healthy report/ext-feb2011 edfe02fd649f9484cea85a59ffd5f511cb596b8329e99ecc3f67e4064a94acc4
healthy scorecard 4256c8ef1fe5d3a6391cd9a2a7ffb434a46e62de76fb55a5a8fd67817ff016e2
healthy markdown c9e2d566c328765a0df3ecfb7737e8614e5b00eaa3c2abac1373893e3b667915
healthy csv/fig2 3cac4192865cf058086c64a60ab05cfc6db3e5330094d5e950fba37785056814
healthy plot/fig2 cf5bea17147577d548c63053eb76169d4611a81ab7ee7ab93808e3787282b819
healthy csv/fig3 fdffa6a26b2ab55eb2f1524205a1e3810036a1c06d2baf50a50f0effd0d37c47
healthy plot/fig3 2fc9a4432cb63734b709e90c2e43af2a4a2dd247a40053321cfb7266fd11b49c
healthy csv/fig4 d5cc0dd4255392db88d5a76bd5636a16ead7e31b6cb8df50a51269e99561050a
healthy plot/fig4 90f39246aad16773fdbcd30399039d4d87d6b49b4b41fa456f20a2f529ea454e
healthy csv/fig5 9f5f9b0f531f2d5de9e209a2372f2ae6ceb8d4ec2671fd4229cde37fa6c68022
healthy plot/fig5 a1b9bf83bdb3c51f85f1e8bb156568cc1b1328b061605bb6934d3488da0b8880
healthy csv/fig6 55d0f0c0d15464a97b2c6a5da1a5a0534cd901f9b97811934dae8d1e0d94bfd0
healthy plot/fig6 9a2c780c03a6c62dd4d27c7ef23d7a743c33874cfe82f688d08137f74f7f7434
healthy csv/fig7 4284a9948c9bf932df66a4cab035d0b5471b04ba7a2cbea0faab59c300732515
healthy plot/fig7 b2589101e0c0d2290bf1e58dcda50bc5652f59db337ef10076d1ef812be8ab10
healthy csv/fig8 2a75cf68a9ed653883c20980e939c735a8cfd3c0089e0510a53ddb68aacae019
healthy plot/fig8 7a79517d07a80cc10bf61a8c9b99f47f4aa64b415b52281fe9913ca48c8cddb3
healthy csv/fig9 f47c601564693d408878c6c671d22008b6cd128f800053c54bb942dfa2a9b704
healthy plot/fig9 306fdb7c08ed059ba40e4e2d83655653c3fcc56c8b32e1563f8f69be17094c62
healthy csv/fig10a 2b8d05da6da9f1cbc6017f02361e472b0d36d174b48a334c737e86a1244f4678
healthy plot/fig10a 0eb0c96d2c8396d0b8a911dd56dc53232f64dd1a0055f6b5020f7fdb085ce8bc
healthy csv/fig10b fa0806ee9b146db8594c4e40a0d9d9ee7a7de1c702b9bb95013d671a853977d4
healthy plot/fig10b b2f1b5b8ba2f1f047bfffccb3acc106870b4ba037d82d12f44fea37e94b3cba6
healthy csv/fig11 0a8610f98fe647ace22319dc322d73d3d6f777af03c96b1aa671b568d597e352
healthy plot/fig11 1a497e2ac92111156ee28b2df8c759d500e602d6c6a79ddc4bcfbe2f6fb96fb4
healthy csv/fig12 01d303f5765ce86a81d9744cbca7ebd03578f1d693b64d813cef4298402b926d
healthy plot/fig12 3af973f0b863f0f855173db0bdd23be728de061714bba7081d4d2341c3c0dcd0
healthy csv/fig13 94c35b5c6a2dd83b33670b1482304d9ec72a697bc1f27478f7adfcc3895215e1
healthy plot/fig13 86299577cb2c494bb5817531bdae1addf6670b55e34d9517bff3bc953d9f203b
healthy csv/fig14 f28b8feb33c50bb7a9ba104d45a6d5a05f37edc6797bde30994b864aa868c9df
healthy plot/fig14 3af705203d7350b0438f701d813e1bbbf769baabcb970d74438d5d50dcba1288
healthy csv/fig15 b679978ebfb642f40c8e0aea59abf42e29c1b6886140ff2fc4903636e163aff9
healthy plot/fig15 83f415ffc12a43984aada0738d8581eca4fcf872fa333a467c36394dd5415813
healthy csv/fig16 10a1093bfefd7dce0d6d04257f66d5c76715333f4cdcfffd6f1a7361329c1d2c
healthy plot/fig16 a10148737109c988d0040b5bce99b2d43ea5b3dd1bda2c973f8e185ba8494045
healthy csv/fig17 7a757aaaf7ef5438bebac6cfe5fce698f5ec0c053cba59d2bf7ec5057918ecf3
healthy plot/fig17 f4bd353948398657670686f70bf1a005c53869eb5b0c155db04b181c1979431b
healthy csv/fig18 392fd2c1394e34ca023183109a3ee2ad401ff0527cb2e28da7869e9cc95d1ed9
healthy plot/fig18 20ee71042caf219c8122f7d213a249d5511d4d5be53ae7ce0b3834d3b45112f3
no-video report/table1 bcc0d673e50bc921955818823631d38c709f4dde1d2180c7858f3ce0a6b68fb9
no-video report/table2 7f6395b090b20cfa0e6c79910ce76600b003c78512417ac016eccee933663e1f
no-video report/table3 fde10d19879abe65b113bb1388fc6e4fd62c7bb872f5c1132b9f7a6bb0eb7ec6
no-video report/fig2 40f3b7c4571ebfa7f5b05e42d9ef1fa78087a18e79d9b0f3b5dbc98015f05a88
no-video report/fig3 72de332b8fea7ab06fc408e73b1cfd44c3429f0ffaea227e3d7dc71f92c6ffe9
no-video report/fig4 f885c53c8ea791f643533cfc300118f54b99870bd019229519134b9cdd12da18
no-video report/fig5 3a7b1487406ae37d6f3920d3e692f27d029cd010120f0f68fda109662d77a7f5
no-video report/fig6 ccf732933752de280c94f7165ddc8928454a63ab0d646cb80eb6f864bbbad4f5
no-video report/fig7 3ddc4ac272153f0d718cf483446dd847d41a4c279b50ddbb69309414a95ccb2f
no-video report/fig8 a9cc270999c1dbe5408495171384d91f073390f23c994774592d1076a4535e4b
no-video report/fig9 6ccc98d15bd2da44d15f6d46c412c48b99b1aa7132908989514a8f5e5cd757ff
no-video report/fig10a 7a939a14007e3a65fdae828308d5d0946037b806e7161b18482feb039f10b848
no-video report/fig10b f6384e798e35e50499f59e3e28bc4bb43166d50842164aac7a2013f1886ff157
no-video report/fig11 af81f4a694d1b6fee6df41e1a0b2fb788085b3862d2fa5c92c75ee486f8785bf
no-video report/fig12 bf608ba3097ccb7bd4f28fb031dc6e0388366c57561af6ebb36276b7ee64abc0
no-video report/fig13 1f998a767e9d3604cc34cd3736a5399e5d168c14d299a365f6e7a647047fa2eb
no-video report/fig14 8518ee65e0bc4e9b6575f4e1f3125af998cb1aa1ccbecf98ec3327e1fc807d08
no-video report/fig15 ee733cfd8c2af513f4f30d6a9696c61f5dc845b8141290c20835e628c0ecc120
no-video report/fig16 4b517fa428d6e90e333fa031928f60e3b30f79716f3b4b246aa4dfb498c1d9f7
no-video report/fig17 c4bb48beb360c4914867d4fc4f7c0f0d1a279918a205bfa8906c96027ef19f1a
no-video report/fig18 2c74a12227297cb591de4a7c181d6da4f14ff8df0cf41c4338c4ff21fe26a093
no-video report/ext-perf e23ae7e008ecf9be0bb00e2f22365113ad4e33cf70c7e912489d15df8d16ffe3
no-video report/ext-characterize 8847d9a9e9bfec983013cb0ac0a7d4b82d8c7f95f9fff07b5ab62834dbcc16c1
no-video report/ext-feb2011 edfe02fd649f9484cea85a59ffd5f511cb596b8329e99ecc3f67e4064a94acc4
no-video scorecard c3e83af0f4e374f2ac66cb63992ff381ab3bf96607e12909716d08c48a3d1255
no-video markdown 307ec6f23a1a506d4eed6cd5a638800a887872dfa7482b30cfec7da54d6a0d78
no-video csv/fig2 7fc1e647da541cb5245becbbd93742501d315ceeb1880304a9ce1924ceb05c25
no-video plot/fig2 acfdca073d9219db666fa5a263b9faa7e28663eb4c4b0de85f6170ef1dde0c62
no-video csv/fig3 f3814dc7c66a5855115accb0b4f7bd86392dfc938188c9a571a9b3fa429ce89c
no-video plot/fig3 1c794abff38cec3ed4bef165b7bd5e7dbdf36ef204029dc62e6462372e0612ea
no-video csv/fig4 490b706fb0872777ecc5d468d34b5528316d0e10bee23f351cc80ff62d079a97
no-video plot/fig4 f304c4774a44af5a59440bef718551da3713cf077a6d6ac5ebf71e6cc650a885
no-video csv/fig5 32f9e86293ca1fa9af41d553bcba08644e953d636e9422e63eeab98a1fce2588
no-video plot/fig5 e7d161e77e8ac5a7dd24fc73887de66c586785f8445dfd849ad51d0758a2847c
no-video csv/fig6 a8baa5c2d5b9278b1ac65df1f50b5598d823f8428c7fa83c3565dc87eb48f32f
no-video plot/fig6 96c9664a649113070146571a5e8c375db2b1333ceee9214a515404654ef56e16
no-video csv/fig7 91638440fd7e36932c3dbd75e02815ed29362e15f8cf04b46a26741348f2fec2
no-video plot/fig7 4348adef6b819b525426dcbab41ee2de90dadb3ce27724c75fb69ebaa12026dd
no-video csv/fig8 91638440fd7e36932c3dbd75e02815ed29362e15f8cf04b46a26741348f2fec2
no-video plot/fig8 4348adef6b819b525426dcbab41ee2de90dadb3ce27724c75fb69ebaa12026dd
no-video csv/fig9 91638440fd7e36932c3dbd75e02815ed29362e15f8cf04b46a26741348f2fec2
no-video csv/fig10a e4cd9df747773911855e66c8e24660add6cf1822fd690285e4943cb80efd4e93
no-video plot/fig10a 36525a55a6e7d9c863266bf42c3ac981a00368c398ac97015cd3fd2aabce1f66
no-video csv/fig10b 2e18e6e7ffd6723b19c30d57ed71842fb97ac8653758584acbfa6f2c234825fe
no-video plot/fig10b 8e8318e7df1bddb8038adf7709f8ca0251b877e21901ccf84c00bd49e53c3edd
no-video csv/fig11 9fe2258cadcb503f247c247782bbf2c2d783c372f85496bb684b1cbc54a42b25
no-video csv/fig12 f2c51eae791f78790fe2996716b1d4d7ebbef2b0cc69cd703662568d3fcfdb55
no-video plot/fig12 94a1e4a5f289a14fce87915766c1d40419c1be9bb8c72540b40ab953c5602264
no-video csv/fig13 91638440fd7e36932c3dbd75e02815ed29362e15f8cf04b46a26741348f2fec2
no-video plot/fig13 4348adef6b819b525426dcbab41ee2de90dadb3ce27724c75fb69ebaa12026dd
no-video csv/fig14 91638440fd7e36932c3dbd75e02815ed29362e15f8cf04b46a26741348f2fec2
no-video plot/fig14 4348adef6b819b525426dcbab41ee2de90dadb3ce27724c75fb69ebaa12026dd
no-video csv/fig15 1fb5ad07756d7ad3991e019f8dedb3d8b3dd42e892b61497a65d7ab85fe05fda
no-video plot/fig15 59f694e74f0ff16914579cd080b7b1e91f4974e70fb6429d1d3e76152ecd6104
no-video csv/fig16 91638440fd7e36932c3dbd75e02815ed29362e15f8cf04b46a26741348f2fec2
no-video plot/fig16 4348adef6b819b525426dcbab41ee2de90dadb3ce27724c75fb69ebaa12026dd
no-video csv/fig17 7a757aaaf7ef5438bebac6cfe5fce698f5ec0c053cba59d2bf7ec5057918ecf3
no-video plot/fig17 f4bd353948398657670686f70bf1a005c53869eb5b0c155db04b181c1979431b
no-video csv/fig18 392fd2c1394e34ca023183109a3ee2ad401ff0527cb2e28da7869e9cc95d1ed9
no-video plot/fig18 20ee71042caf219c8122f7d213a249d5511d4d5be53ae7ce0b3834d3b45112f3
";

/// The `PRESENTATION` lines for the current build: per shape, every
/// report (its `Debug` form, so an `Err` pins its typed reason), the
/// scorecard, the markdown report, then the CSV and the `repro --plot`
/// chart of every figure that has series (a chart only where the report
/// is `Ok`, as the CLI prints it).
fn presentation_digests() -> String {
    let config = SuiteConfig {
        scenario: ScenarioConfig::with_scale(0.004, 7),
        full_landmarks: false,
        jobs: 0,
    };
    let mut out = String::new();
    for (label, shape) in [
        ("healthy", None),
        ("no-video", Some(DegenerateShape::NoVideo)),
    ] {
        let suite = match shape {
            Some(shape) => ExperimentSuite::with_degenerate(config, Telemetry::disabled(), shape),
            None => ExperimentSuite::new(config),
        };
        let mut line = |output: &str, bytes: &[u8]| {
            let _ = writeln!(out, "{label} {output} {}", sha256_hex(bytes));
        };
        for id in ALL_EXPERIMENTS.iter().chain(EXTENSION_EXPERIMENTS) {
            line(
                &format!("report/{id}"),
                format!("{:?}", suite.run(id)).as_bytes(),
            );
        }
        line("scorecard", render_scorecard(&scorecard(&suite)).as_bytes());
        line("markdown", markdown_report(&suite).as_bytes());
        for id in ALL_EXPERIMENTS.iter().chain(EXTENSION_EXPERIMENTS) {
            let Ok(series) = &suite.figure(id).expect("a known experiment").series else {
                continue;
            };
            let mut csv = Vec::new();
            write_csv(&mut csv, series).expect("writing to a Vec cannot fail");
            line(&format!("csv/{id}"), &csv);
            if suite.run(id).is_ok() {
                line(
                    &format!("plot/{id}"),
                    ascii_chart(series, 72, 16).as_bytes(),
                );
            }
        }
    }
    out
}

#[test]
fn presentation_outputs_match_golden() {
    let got = presentation_digests();
    let drifted: Vec<String> = got
        .lines()
        .zip(PRESENTATION.lines())
        .filter(|(g, w)| g != w)
        .map(|(g, w)| format!("  want {w}\n  got  {g}"))
        .collect();
    assert!(
        drifted.is_empty() && got.lines().count() == PRESENTATION.lines().count(),
        "presentation outputs drifted from golden ({} vs {} lines) — if \
         intentional, follow the update procedure in tests/golden_tables.rs:\n{}",
        got.lines().count(),
        PRESENTATION.lines().count(),
        drifted.join("\n")
    );
}

/// SHA-256 of the `watch` table, one `<trace> <digest>` line per trace, at
/// scale 0.004, seed 7 (see the module docs).
const WATCH: &str = "\
US-Campus 442d43cda16c11b0a56834cc8494f6263bc437f6333bb362e808da4b035a6047
EU1-Campus fdfb807092140a2075151d30583e31c54c1730622361ad00280292403a94dd5f
EU1-ADSL 1d6594b150546642e364e4127d83045ef04a4b303d6a5f2998da1db3c6a3f315
EU1-FTTH ec254c774eedf3e0de671ab601669cc56b11d8be0f76eceb5633cda6449b5956
EU2 f8fac05ce1b6586203aaabff4e65803dcea53fceeae28d2253921f44b155aa26
EU1-ADSL+dc-down@72:Milan 83d5ad8cd4f2536c52a058b80ae0552203ad8771dd54eeed95c35ff59b1138d5
";

/// The `WATCH` lines for the current build: the default-config watch
/// table of every dataset, then of the mutated trace.
fn watch_digests() -> String {
    let config = ScenarioConfig::with_scale(0.004, 7);
    let mut mutated = StandardScenario::build(config);
    mutated
        .set_mutations(&["dc-down@72:Milan".parse().expect("a valid spec")])
        .expect("Milan is a data center");
    let traces = DatasetName::ALL
        .iter()
        .map(|&name| (name.to_string(), StandardScenario::build(config), name))
        .chain([(
            "EU1-ADSL+dc-down@72:Milan".to_string(),
            mutated,
            DatasetName::Eu1Adsl,
        )]);
    let mut out = String::new();
    for (label, s, name) in traces {
        let (ds, _) = s.run(name);
        let ctx = AnalysisContext::from_ground_truth(s.world(), &ds);
        let index = DatasetIndex::build(&ctx, &ds, Telemetry::disabled());
        let report = WatchReport::build(&ctx, &ds, &index, WatchConfig::default())
            .expect("every golden trace has flows");
        let _ = writeln!(
            out,
            "{label} {}",
            sha256_hex(report.render_table().as_bytes())
        );
    }
    out
}

#[test]
fn watch_tables_match_golden() {
    assert_eq!(
        watch_digests(),
        WATCH,
        "watch tables drifted from golden — if intentional, follow the \
         update procedure in tests/golden_tables.rs"
    );
}

/// Regeneration helper — see the update procedure in the module docs.
#[test]
#[ignore = "regeneration helper, run with --ignored --nocapture"]
fn print_golden_values() {
    let s = StandardScenario::build(ScenarioConfig::with_scale(SCALE, SEED));
    println!("const GOLDEN: [Golden; 5] = [");
    for name in DatasetName::ALL {
        let (sessions, flows, servers, clients, cities) = measure(&s, name);
        println!("    Golden {{");
        println!("        name: DatasetName::{name:?},");
        println!("        sessions: {sessions},");
        println!("        flows: {flows},");
        println!("        servers: {servers},");
        println!("        clients: {clients},");
        println!(
            "        dc_ranking: [\"{}\", \"{}\", \"{}\"],",
            cities[0], cities[1], cities[2]
        );
        println!("        preferred: \"{}\",", cities[3]);
        println!("    }},");
    }
    println!("];");
    println!("const FIG5_FIG6: &str = \"\\\n{}\";", fig5_fig6_reports(1));
    println!("const SESSIONS: &str = \"\\\n{}\";", session_digests());
    println!(
        "const PRESENTATION: &str = \"\\\n{}\";",
        presentation_digests()
    );
    println!("const WATCH: &str = \"\\\n{}\";", watch_digests());
}

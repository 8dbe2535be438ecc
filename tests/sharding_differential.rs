//! Differential harness: the sharded session engine vs the sequential one.
//!
//! The sharded engine's contract is *byte identity*: for any shard count K,
//! `run_with_outcome_sharded(name, K)` must produce exactly the dataset,
//! ground-truth outcome, and telemetry counters of `run_with_outcome(name)`.
//! These tests pin that contract across shard counts, seeds, and scales —
//! including scales small enough that most shards simulate zero sessions.

use ytcdn_cdnsim::{ScenarioConfig, StandardScenario};
use ytcdn_telemetry::Telemetry;
use ytcdn_tstat::DatasetName;

/// The shard counts every differential case runs: K=1, even splits, one
/// that does not divide 168 evenly, and one per day of the week. K=1 runs
/// the live engine, so its leg compares the live engine with itself
/// through the sharded entry point; the three-pass algorithm at one shard
/// is pinned by `scenario::tests::one_shard_three_pass_matches_live_engine`.
const SHARD_COUNTS: [usize; 5] = [1, 2, 4, 7, 16];

/// Runs `name` sequentially and sharded at every K, asserting identical
/// datasets and outcomes.
fn assert_differential(scale: f64, seed: u64, name: DatasetName) {
    let s = StandardScenario::build(ScenarioConfig::with_scale(scale, seed));
    let (seq, seq_outcome) = s.run_with_outcome(name);
    for k in SHARD_COUNTS {
        let (sharded, outcome) = s.run_with_outcome_sharded(name, k);
        assert_eq!(
            sharded, seq,
            "{name} K={k} scale={scale} seed={seed}: dataset differs"
        );
        assert_eq!(
            outcome, seq_outcome,
            "{name} K={k} scale={scale} seed={seed}: outcome differs"
        );
    }
}

#[test]
fn all_datasets_identical_across_shard_counts() {
    for name in DatasetName::ALL {
        assert_differential(0.002, 42, name);
    }
}

#[test]
fn identity_holds_across_seeds() {
    for seed in [0, 7, 0xDEAD_BEEF] {
        assert_differential(0.002, seed, DatasetName::UsCampus);
        assert_differential(0.002, seed, DatasetName::Eu2);
    }
}

#[test]
fn identity_holds_across_scales() {
    for scale in [0.0005, 0.004] {
        assert_differential(scale, 11, DatasetName::Eu1Adsl);
    }
}

/// At a minuscule scale the whole week has fewer sessions than shards, so
/// (by pigeonhole) some shards simulate nothing at all; the merge must still
/// reproduce the sequential output exactly.
#[test]
fn zero_session_shards_are_harmless() {
    let s = StandardScenario::build(ScenarioConfig::with_scale(0.0001, 5));
    let name = DatasetName::Eu1Ftth; // 70 000/week in Table I → ~7 sessions
    let (seq, seq_outcome) = s.run_with_outcome(name);
    assert!(
        seq_outcome.sessions < 16,
        "scale not small enough: {} sessions",
        seq_outcome.sessions
    );
    for k in SHARD_COUNTS {
        let (sharded, outcome) = s.run_with_outcome_sharded(name, k);
        assert_eq!(sharded, seq, "K={k}");
        assert_eq!(outcome, seq_outcome, "K={k}");
    }
}

/// "Byte-identical" literally: the serialized Tstat-text exports are the
/// same bytes, not merely structurally equal datasets.
#[test]
fn serialized_exports_are_byte_identical() {
    let s = StandardScenario::build(ScenarioConfig::with_scale(0.002, 42));
    let mut seq_bytes = Vec::new();
    ytcdn_tstat::write_textlog(&s.run(DatasetName::UsCampus), &mut seq_bytes).unwrap();
    for k in SHARD_COUNTS {
        let mut sharded_bytes = Vec::new();
        ytcdn_tstat::write_textlog(&s.run_sharded(DatasetName::UsCampus, k), &mut sharded_bytes)
            .unwrap();
        assert!(sharded_bytes == seq_bytes, "K={k}: serialized bytes differ");
    }
}

/// Telemetry counters sum to the sequential values: the prepass replays
/// every session prelude but must never be instrumented, and per-shard
/// engine counters must add up exactly.
#[test]
fn telemetry_counters_match_sequential() {
    let cfg = ScenarioConfig::with_scale(0.002, 3);
    let name = DatasetName::Eu1Campus;

    let snapshot = |sharded: Option<usize>| {
        let mut s = StandardScenario::build(cfg);
        s.set_telemetry(Telemetry::metrics_only());
        match sharded {
            None => s.run(name),
            Some(k) => s.run_sharded(name, k),
        };
        s.telemetry().metrics_snapshot().unwrap()
    };

    let seq = snapshot(None);
    for k in SHARD_COUNTS {
        let sh = snapshot(Some(k));
        for counter in [
            "scenario.sessions",
            "scenario.flows",
            "engine.cache_miss",
            "engine.redirect.content_miss",
            "engine.redirect.wrong_guess",
            "engine.redirect.overload",
            "placement.replication",
        ] {
            assert_eq!(
                sh.counter(counter),
                seq.counter(counter),
                "K={k}: counter {counter} diverged"
            );
        }
        assert_eq!(
            sh.histograms["engine.chain_hops"].count, seq.histograms["engine.chain_hops"].count,
            "K={k}: chain_hops count diverged"
        );
        // The merge pass schedules exactly the replications the sequential
        // engine performs.
        assert_eq!(
            sh.counter("shard.pulls_scheduled"),
            seq.counter("placement.replication"),
            "K={k}"
        );
    }
}

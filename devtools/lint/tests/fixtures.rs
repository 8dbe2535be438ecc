//! Self-test over the fixture corpus in `devtools/lint/fixtures/`: every
//! rule fires on its known-bad snippet, stays silent on strings/comments
//! containing trigger tokens, honors reasoned suppressions, and flags
//! bare/unknown/stale ones.

use std::path::Path;

use ytcdn_lint::{lint_root, Finding, Severity};

fn fixture_findings() -> (Vec<Finding>, usize) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    lint_root(&root).expect("fixture corpus must be readable")
}

fn in_file<'f>(all: &'f [Finding], suffix: &str) -> Vec<&'f Finding> {
    all.iter().filter(|f| f.file.ends_with(suffix)).collect()
}

#[test]
fn scans_the_whole_corpus() {
    let (_, scanned) = fixture_findings();
    assert_eq!(scanned, 16, "one per fixture file");
}

#[test]
fn det001_fires_in_sim_code_but_not_in_tests() {
    let (all, _) = fixture_findings();
    let f = in_file(&all, "bad_rand.rs");
    assert_eq!(f.len(), 5, "{f:#?}");
    assert!(f
        .iter()
        .all(|x| x.rule == "DET001" && x.severity == Severity::Deny));
    // The #[cfg(test)] module starts on line 12; nothing there may fire.
    assert!(f.iter().all(|x| x.line < 12), "{f:#?}");
}

#[test]
fn trigger_tokens_in_strings_and_comments_are_inert() {
    let (all, _) = fixture_findings();
    assert!(in_file(&all, "strings_ok.rs").is_empty());
}

#[test]
fn det002_fires_on_clock_reads_only() {
    let (all, _) = fixture_findings();
    let f = in_file(&all, "bad_clock.rs");
    assert_eq!(f.len(), 3, "{f:#?}");
    assert!(f.iter().all(|x| x.rule == "DET002"));
    // The `use std::time::{Instant, SystemTime}` line is inert.
    assert!(f.iter().all(|x| x.line > 4), "{f:#?}");
}

#[test]
fn det003_fires_in_output_module_and_honors_suppression() {
    let (all, _) = fixture_findings();
    let f = in_file(&all, "core/src/export.rs");
    assert_eq!(
        f.len(),
        2,
        "HashSet line is suppressed with a reason: {f:#?}"
    );
    assert!(f.iter().all(|x| x.rule == "DET003"));
    // No stale-suppression warning: the allow matched.
    assert!(f.iter().all(|x| x.rule != "LNT003"));
}

#[test]
fn saf001_fires_on_missing_forbid_only() {
    let (all, _) = fixture_findings();
    let bad = in_file(&all, "badroot/src/lib.rs");
    assert_eq!(bad.len(), 1);
    assert_eq!(bad[0].rule, "SAF001");
    assert_eq!(bad[0].line, 1);
    assert!(in_file(&all, "goodroot/src/lib.rs").is_empty());
}

#[test]
fn tel001_fires_in_guard_and_else_branch() {
    let (all, _) = fixture_findings();
    let f = in_file(&all, "bad_guard.rs");
    assert_eq!(f.len(), 2, "{f:#?}");
    assert!(f.iter().all(|x| x.rule == "TEL001"));
    // The reasoned DET002 allow on the span-like timer suppressed it.
    assert!(f.iter().all(|x| x.rule != "DET002"));
}

#[test]
fn tel002_polices_literal_names_and_format_macros() {
    let (all, _) = fixture_findings();
    let f = in_file(&all, "bad_names.rs");
    assert_eq!(f.len(), 3, "{f:#?}");
    assert!(f
        .iter()
        .all(|x| x.rule == "TEL002" && x.severity == Severity::Deny));
    // One finding is the format!-built span name.
    assert!(f.iter().any(|x| x.message.contains("format!")), "{f:#?}");
    // The good block (through line 14), the reasoned allow, and the
    // #[cfg(test)] module (line 24 on) stay silent.
    assert!(f.iter().all(|x| x.line > 14 && x.line < 24), "{f:#?}");
}

#[test]
fn pan001_denies_outside_tests_only() {
    let (all, _) = fixture_findings();
    let f = in_file(&all, "bad_panic.rs");
    assert_eq!(f.len(), 2, "{f:#?}");
    assert!(f
        .iter()
        .all(|x| x.rule == "PAN001" && x.severity == Severity::Deny));
    // The #[test] fn starts at line 12.
    assert!(f.iter().all(|x| x.line < 12));
}

#[test]
fn suppression_hygiene_rules() {
    let (all, _) = fixture_findings();
    let f = in_file(&all, "bad_suppress.rs");
    let rules: Vec<&str> = f.iter().map(|x| x.rule).collect();
    assert_eq!(rules, ["LNT001", "DET001", "LNT002", "LNT003"], "{f:#?}");
    // A bare allow is itself an error AND fails to suppress.
    assert!(f.iter().any(|x| x.rule == "DET001"));
    let stale = f.iter().find(|x| x.rule == "LNT003").expect("stale allow");
    assert_eq!(stale.severity, Severity::Deny, "LNT003 graduated to deny");
}

#[test]
fn ovf_rules_police_the_decode_side_only() {
    let (all, _) = fixture_findings();
    let f = in_file(&all, "core/src/columnar.rs");
    assert_eq!(f.len(), 4, "{f:#?}");
    let rules: Vec<&str> = f.iter().map(|x| x.rule).collect();
    assert_eq!(rules, ["OVF001", "OVF001", "OVF001", "OVF002"], "{f:#?}");
    // `+`, `*`, `<<`, `as u32` — one finding per operator, in decode_len
    // only. encode_len (same operators), decode_checked (checked_*/
    // try_from), the suppressed mix, and the #[cfg(test)] helper all pass.
    assert!(f.iter().all(|x| x.message.contains("decode_len")), "{f:#?}");
    assert!(
        f.iter().all(|x| x.rule != "LNT003"),
        "allow(OVF001) is live"
    );
}

#[test]
fn con001_flags_captured_writes_not_local_ones() {
    let (all, _) = fixture_findings();
    let f = in_file(&all, "bad_spawn.rs");
    assert_eq!(f.len(), 2, "{f:#?}");
    assert!(f
        .iter()
        .all(|x| x.rule == "CON001" && x.message.contains("`totals`")));
    // shard_good (join-and-collect), shard_atomic (fetch_add), and the
    // suppressed disjoint write are all silent.
    assert!(f.iter().all(|x| x.line < 12), "{f:#?}");
}

#[test]
fn con002_denies_locks_outside_tests_and_uses() {
    let (all, _) = fixture_findings();
    let f = in_file(&all, "bad_lock.rs");
    assert_eq!(f.len(), 2, "{f:#?}");
    assert!(f.iter().all(|x| x.rule == "CON002"));
    // The `use std::sync::{Mutex, RwLock}` line (3) is inert; the memo
    // cache is suppressed; the #[cfg(test)] Mutex is masked.
    assert!(f.iter().all(|x| x.line > 3 && x.line < 17), "{f:#?}");
}

#[test]
fn exh001_counts_variants_and_spares_open_matches() {
    let (all, _) = fixture_findings();
    let f = in_file(&all, "bad_match.rs");
    assert_eq!(f.len(), 1, "{f:#?}");
    assert_eq!(f[0].rule, "EXH001");
    // The workspace symbol pass resolved the fixture enum's arity.
    assert!(f[0].message.contains("3 variants"), "{:?}", f[0].message);
    // classify_good (exhaustive), is_io (suppressed via Self), first
    // (Option is open), and the test-mod wildcard are all silent.
    assert!(f[0].line < 17, "{f:#?}");
}

#[test]
fn det004_tracks_noise_into_sinks_only() {
    let (all, _) = fixture_findings();
    let f = in_file(&all, "bad_taint.rs");
    assert_eq!(f.len(), 3, "{f:#?}");
    assert!(f.iter().all(|x| x.rule == "DET004"));
    // One sink of each kind: an output macro with an explicit argument, a
    // telemetry value method, and a `{name}` inline format capture.
    assert!(f.iter().any(|x| x.message.contains("`writeln!`")));
    assert!(f.iter().any(|x| x.message.contains("`.record(…)`")));
    assert!(f.iter().any(|x| x.message.contains("`skew`")));
    // jittered_rtt (derived return), debug_noise (suppressed), and
    // report_plain (no noise) are all silent.
    assert!(f.iter().all(|x| x.line < 22), "{f:#?}");
}

#[test]
fn obs001_lists_truth_reads_outside_tests() {
    let (all, _) = fixture_findings();
    let f = in_file(&all, "core/src/bad_truth.rs");
    let found: Vec<(u32, &str)> = f.iter().map(|x| (x.line, x.rule)).collect();
    // `world` and `topology` in the driver, then `world` and `World` in
    // the signature; comments and strings are inert.
    assert_eq!(
        found,
        [(7, "OBS001"), (7, "OBS001"), (10, "OBS001"), (10, "OBS001")],
        "{f:#?}"
    );
    assert!(f.iter().all(|x| x.severity == Severity::Deny));
    // The reasoned allow (lines 15–16) is honoured and live, and the
    // #[cfg(test)] module (line 19 on) is masked.
    assert!(f.iter().all(|x| x.line < 15), "{f:#?}");
}

#[test]
fn findings_are_sorted_for_stable_reports() {
    let (all, _) = fixture_findings();
    let keys: Vec<_> = all
        .iter()
        .map(|f| (f.file.clone(), f.line, f.rule))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted);
}

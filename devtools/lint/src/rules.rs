//! The rule catalog — the executable form of DESIGN.md's "Determinism
//! invariants and static enforcement" section.
//!
//! Every rule is an over-approximation by design: a token-level scanner
//! cannot resolve types, so a rule fires on the *name* of a banned thing
//! rather than its resolved path. False positives are handled by the
//! inline suppression syntax (with a mandatory reason), never by weakening
//! the rule: a determinism lint that silently misses a `thread_rng` is
//! worse than one that asks a human to justify an odd token.

use crate::engine::{FileClass, FileKind};
use crate::lexer::{Tok, TokKind};
use crate::syntax::{FnInfo, MatchInfo, Symbols, Syntax};
use std::collections::BTreeSet;

/// How a finding affects the exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Fails the run (exit code 1). CI-blocking.
    Deny,
    /// Reported but non-fatal (exit code 0 unless `--deny-warnings`).
    Warn,
}

impl Severity {
    /// Lower-case label used in human and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Deny => "deny",
            Severity::Warn => "warn",
        }
    }
}

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path relative to the linted root.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule identifier (`DET001`, …).
    pub rule: &'static str,
    /// Severity of the rule at the time it fired.
    pub severity: Severity,
    /// Human-readable explanation.
    pub message: String,
}

/// Catalog entry describing one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Identifier used in output and in `allow(...)` suppressions.
    pub id: &'static str,
    /// Default severity.
    pub severity: Severity,
    /// One-line description for `--list-rules` and reports.
    pub summary: &'static str,
}

/// Every rule the engine knows, in catalog order. `LNT00x` are the lint's
/// own meta-rules (suppression hygiene) and cannot be suppressed.
pub static RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "DET001",
        severity: Severity::Deny,
        summary: "simulation crates (cdnsim, core) must draw randomness from the in-tree \
                  SimRng/NoiseRng only, never from the external `rand` crate",
    },
    RuleInfo {
        id: "DET002",
        severity: Severity::Deny,
        summary: "deterministic crates must not read wall clocks (Instant::now, \
                  SystemTime::now, chrono)",
    },
    RuleInfo {
        id: "DET003",
        severity: Severity::Deny,
        summary: "output/serialization modules must not use unordered containers \
                  (HashMap/HashSet); iteration order would leak into bytes",
    },
    RuleInfo {
        id: "SAF001",
        severity: Severity::Deny,
        summary: "every crate root must carry #![forbid(unsafe_code)]",
    },
    RuleInfo {
        id: "TEL001",
        severity: Severity::Deny,
        summary: "no RNG draw inside a telemetry `is_enabled()`-guarded block; \
                  observability must never consume or condition an RNG stream",
    },
    RuleInfo {
        id: "TEL002",
        severity: Severity::Deny,
        summary: "telemetry metric/span names must be lowercase dot-separated string \
                  literals (or named constants); no `format!` in a registry call — \
                  hot-loop names must not allocate",
    },
    RuleInfo {
        id: "PAN001",
        severity: Severity::Deny,
        summary: "unwrap()/expect() in library non-test code: return a typed error \
                  or suppress with a reasoned invariant",
    },
    RuleInfo {
        id: "OVF001",
        severity: Severity::Deny,
        summary: "unchecked `+`/`*`/`<<` arithmetic on the decode side of a \
                  wire-format module: wire-derived lengths and counts overflow; \
                  use checked_*/saturating_*/wrapping_* and surface a typed error",
    },
    RuleInfo {
        id: "OVF002",
        severity: Severity::Deny,
        summary: "lossy `as` cast on the decode side of a wire-format module: a \
                  narrowing cast silently truncates untrusted input; use \
                  try_into/try_from mapped onto the format's error taxonomy",
    },
    RuleInfo {
        id: "CON001",
        severity: Severity::Deny,
        summary: "a scoped-thread closure mutates captured state: cross-thread \
                  writes must be provably disjoint (join-and-collect, per-shard \
                  index outside the closure, atomics, or channels)",
    },
    RuleInfo {
        id: "CON002",
        severity: Severity::Deny,
        summary: "Mutex/RwLock in a deterministic crate: lock acquisition order is \
                  scheduler-dependent; share immutably or merge after join \
                  (telemetry, the sanctioned observability shell, is exempt)",
    },
    RuleInfo {
        id: "EXH001",
        severity: Severity::Deny,
        summary: "wildcard `_ =>` arm in a match on a closed taxonomy \
                  (FormatError/AnalysisError/Event): new variants must force \
                  explicit handling, not fall through silently",
    },
    RuleInfo {
        id: "DET004",
        severity: Severity::Deny,
        summary: "a value derived from a NoiseRng draw flows into a \
                  serialization/output/telemetry sink: noise is simulation input, \
                  never output, or bytes would depend on the noise stream",
    },
    RuleInfo {
        id: "LNT001",
        severity: Severity::Deny,
        summary: "a suppression comment must carry a reason: \
                  `// ytcdn-lint: allow(RULE) — why`",
    },
    RuleInfo {
        id: "LNT002",
        severity: Severity::Deny,
        summary: "a suppression comment names an unknown rule",
    },
    RuleInfo {
        id: "LNT003",
        severity: Severity::Deny,
        summary: "a suppression comment that suppressed nothing (stale allow)",
    },
];

/// Looks up a catalog entry by id.
pub fn rule(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// Crates whose non-test sources form the simulation path (DET001 scope).
const SIM_CRATES: &[&str] = &["cdnsim", "core"];

/// Crates whose output must be a pure function of their inputs (DET002
/// scope). The CLI is the impure shell around them.
const DETERMINISTIC_CRATES: &[&str] = &[
    "cdnsim",
    "core",
    "geoloc",
    "geomodel",
    "netsim",
    "telemetry",
    "tstat",
];

/// Crates exempt from PAN001: binaries and tooling may panic on bad input.
const PAN_EXEMPT_CRATES: &[&str] = &["cli", "lint"];

/// Module stems treated as output/serialization paths (DET003 scope):
/// anything that renders bytes a golden test or a user might diff.
const OUTPUT_STEMS: &[&str] = &[
    "anonymize",
    "columnar",
    "dataset",
    "event",
    "export",
    "golden",
    "index",
    "report",
    "scorecard",
    "serialization",
    "serialize",
    "sha256",
    "sink",
    "summary",
    "textlog",
];

/// Identifiers banned by DET001 (external randomness).
const DET001_IDENTS: &[&str] = &[
    "rand",
    "thread_rng",
    "StdRng",
    "SmallRng",
    "OsRng",
    "from_entropy",
    "getrandom",
];

/// Path pairs banned by DET002 (wall-clock reads).
const DET002_PATHS: &[(&str, &str)] = &[("Instant", "now"), ("SystemTime", "now")];

/// Identifiers banned by DET002 on their own.
const DET002_IDENTS: &[&str] = &["chrono"];

/// Identifiers that indicate an RNG draw for TEL001.
const TEL001_DRAWS: &[&str] = &[
    "gen_bool",
    "gen_f64",
    "gen_range",
    "gen_range_f64",
    "localize",
    "next_u64",
    "ping",
    "ping_seeded",
    "rng",
    "sample",
    "sample_rtt_ms",
];

/// Methods whose first argument is a metric/span name (TEL002 scope).
const TEL002_METHODS: &[&str] = &["counter", "gauge", "histogram", "span"];

/// Module stems that decode untrusted wire/text input (OVF001/002 scope).
/// `sha256` is listed for completeness: its compression loop is
/// `wrapping_*` by design and has no decode-named functions, so it is
/// vacuously clean today — but a future decode helper there inherits the
/// policy automatically.
const WIRE_STEMS: &[&str] = &["columnar", "flow", "sha256", "textlog"];

/// Function-name prefixes marking the decode side of a wire module. The
/// encode side builds bytes from already-validated in-memory values and is
/// deliberately out of scope (its arithmetic cannot be attacker-chosen).
const DECODE_FN_PREFIXES: &[&str] = &["decode", "parse", "read", "take"];

/// Exact decode-side function names (trait impls).
const DECODE_FN_EXACT: &[&str] = &["from_str"];

/// Impl types whose every method is decode-side (bounds-checked cursors).
const DECODE_IMPL_TYPES: &[&str] = &["Reader"];

/// `as` cast targets policed by OVF002. `u64`/`u128` targets are exempt:
/// every narrower unsigned wire field widens into them losslessly, and the
/// exemption also admits deliberate guarded truncations (a cast the author
/// has already range-checked reads `as u64`, not `as usize`).
const OVF002_TARGETS: &[&str] = &[
    "u8", "u16", "u32", "usize", "i8", "i16", "i32", "i64", "isize", "f32", "f64",
];

/// Crates where CON002 denies lock types. `telemetry` is deliberately
/// absent: it is the sanctioned interior-mutable observability shell, and
/// the determinism suite verifies dynamically that it never feeds back.
const CON002_CRATES: &[&str] = &["cdnsim", "core", "geoloc", "geomodel", "netsim", "tstat"];

/// Methods that mutate their receiver (CON001's write detector).
const MUT_METHODS: &[&str] = &[
    "append",
    "clear",
    "dedup",
    "drain",
    "extend",
    "fill",
    "insert",
    "pop",
    "push",
    "push_str",
    "remove",
    "resize",
    "retain",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "swap",
    "truncate",
];

/// Closed taxonomies guarded by EXH001: matching one of these with a
/// wildcard arm would let a new variant fall through silently.
const EXH_ENUMS: &[&str] = &["AnalysisError", "Event", "FormatError"];

/// Value sinks for DET004: methods that record a value into telemetry.
const DET004_SINK_METHODS: &[&str] = &["add", "observe", "record", "set"];

/// Value sinks for DET004: output macros.
const DET004_SINK_MACROS: &[&str] = &["eprint", "eprintln", "print", "println", "write", "writeln"];

/// Value sinks for DET004: free-function/method name prefixes that
/// serialize or emit bytes.
const DET004_SINK_PREFIXES: &[&str] = &["emit", "encode", "export", "serialize"];

/// True if the crate named `name` matches `set`.
fn crate_in(class: &FileClass, set: &[&str]) -> bool {
    class
        .crate_name
        .as_deref()
        .is_some_and(|c| set.contains(&c))
}

/// Runs every applicable rule over one lexed file. `test_mask[i]` is true
/// when token `i` sits inside `#[cfg(test)]`/`#[test]` code. `syn` is the
/// file's recovered item structure and `symbols` the workspace-wide symbol
/// table (used for diagnostics, e.g. variant counts in EXH001 messages).
pub fn apply_rules(
    class: &FileClass,
    file: &str,
    toks: &[Tok],
    test_mask: &[bool],
    syn: &Syntax,
    symbols: &Symbols,
) -> Vec<Finding> {
    let mut out = Vec::new();
    let non_test = |i: usize| !test_mask[i];

    // DET001 — external randomness in simulation code.
    if class.kind == FileKind::Src && crate_in(class, SIM_CRATES) {
        for (i, t) in toks.iter().enumerate() {
            if t.kind == TokKind::Ident && DET001_IDENTS.contains(&t.text.as_str()) && non_test(i) {
                out.push(Finding {
                    file: file.to_string(),
                    line: t.line,
                    rule: "DET001",
                    severity: Severity::Deny,
                    message: format!(
                        "`{}`: simulation code must draw from the in-tree SimRng (or \
                         netsim's NoiseRng for measurement noise), never from `rand`",
                        t.text
                    ),
                });
            }
        }
    }

    // DET002 — wall-clock reads in deterministic crates.
    if class.kind == FileKind::Src && crate_in(class, DETERMINISTIC_CRATES) {
        for (i, t) in toks.iter().enumerate() {
            if !non_test(i) || t.kind != TokKind::Ident {
                continue;
            }
            let fires = DET002_IDENTS.contains(&t.text.as_str())
                || DET002_PATHS.iter().any(|&(head, tail)| {
                    t.text == head && path_tail(toks, i).is_some_and(|n| n == tail)
                });
            if fires {
                out.push(Finding {
                    file: file.to_string(),
                    line: t.line,
                    rule: "DET002",
                    severity: Severity::Deny,
                    message: format!(
                        "wall-clock read (`{}`) in a deterministic crate; simulated time \
                         comes from the workload model, never the host",
                        t.text
                    ),
                });
            }
        }
    }

    // DET003 — unordered containers in output modules.
    if class.kind == FileKind::Src && OUTPUT_STEMS.contains(&class.stem.as_str()) {
        for (i, t) in toks.iter().enumerate() {
            if t.kind == TokKind::Ident
                && (t.text == "HashMap" || t.text == "HashSet")
                && non_test(i)
            {
                out.push(Finding {
                    file: file.to_string(),
                    line: t.line,
                    rule: "DET003",
                    severity: Severity::Deny,
                    message: format!(
                        "`{}` in an output module: iteration order is nondeterministic \
                         and would leak into serialized bytes; use BTreeMap/BTreeSet or \
                         a sorted collect",
                        t.text
                    ),
                });
            }
        }
    }

    // SAF001 — forbid(unsafe_code) at every crate root.
    if class.is_crate_root && !has_forbid_unsafe(toks) {
        out.push(Finding {
            file: file.to_string(),
            line: 1,
            rule: "SAF001",
            severity: Severity::Deny,
            message: "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        });
    }

    // TEL001 — RNG draws under telemetry guards.
    for (start, end) in is_enabled_blocks(toks) {
        for (i, t) in toks[start..end].iter().enumerate() {
            let idx = start + i;
            if t.kind == TokKind::Ident && TEL001_DRAWS.contains(&t.text.as_str()) && non_test(idx)
            {
                out.push(Finding {
                    file: file.to_string(),
                    line: t.line,
                    rule: "TEL001",
                    severity: Severity::Deny,
                    message: format!(
                        "`{}` inside an `is_enabled()`-guarded block: telemetry must \
                         never consume or condition an RNG stream (dataset bytes would \
                         depend on whether telemetry is attached)",
                        t.text
                    ),
                });
            }
        }
    }

    // TEL002 — metric/span name hygiene at registry call sites.
    if class.kind == FileKind::Src {
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident
                || !TEL002_METHODS.contains(&t.text.as_str())
                || !non_test(i)
                || i == 0
                || !toks[i - 1].is_punct('.')
                || !toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            {
                continue;
            }
            let open = i + 1;
            let close = matching_paren(toks, open).unwrap_or(toks.len());
            // Runtime formatting anywhere in the argument list: the name
            // would be rebuilt (and allocated) on every call.
            for j in open + 1..close.min(toks.len()) {
                if toks[j].is_ident("format") && toks.get(j + 1).is_some_and(|n| n.is_punct('!')) {
                    out.push(Finding {
                        file: file.to_string(),
                        line: toks[j].line,
                        rule: "TEL002",
                        severity: Severity::Deny,
                        message: format!(
                            "`format!` inside `.{}(…)`: telemetry names must be \
                             'static literals or named constants — a formatted name \
                             allocates on every call in the hot loop",
                            t.text
                        ),
                    });
                }
            }
            // A literal first argument (past an optional `&`) must be a
            // lowercase dot-separated name. Ident/path arguments (named
            // constants, helper calls) pass: they resolve to vetted names.
            let mut a = open + 1;
            if toks.get(a).is_some_and(|n| n.is_punct('&')) {
                a += 1;
            }
            if let Some(arg) = toks.get(a).filter(|n| n.kind == TokKind::Literal) {
                if !is_metric_name(&arg.text) {
                    out.push(Finding {
                        file: file.to_string(),
                        line: arg.line,
                        rule: "TEL002",
                        severity: Severity::Deny,
                        message: format!(
                            "telemetry name {:?} is not lowercase dot-separated \
                             ([a-z0-9_] segments joined by '.')",
                            arg.text
                        ),
                    });
                }
            }
        }
    }

    // PAN001 — panic paths in library non-test code.
    if class.kind == FileKind::Src && !crate_in(class, PAN_EXEMPT_CRATES) {
        for (i, t) in toks.iter().enumerate() {
            if t.kind == TokKind::Ident
                && (t.text == "unwrap" || t.text == "expect")
                && non_test(i)
                && i > 0
                && toks[i - 1].is_punct('.')
                && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            {
                out.push(Finding {
                    file: file.to_string(),
                    line: t.line,
                    rule: "PAN001",
                    severity: Severity::Deny,
                    message: format!(
                        "`.{}(...)` in library non-test code: panic path (return a \
                         Result or suppress with a reasoned invariant)",
                        t.text
                    ),
                });
            }
        }
    }

    // OVF001/OVF002 — unchecked arithmetic and lossy casts on the decode
    // side of wire-format modules.
    if class.kind == FileKind::Src && WIRE_STEMS.contains(&class.stem.as_str()) {
        for f in syn.fns.iter().filter(|f| is_decode_fn(f)) {
            let Some((b0, b1)) = f.body else { continue };
            for i in b0..b1.min(toks.len()) {
                if !non_test(i) {
                    continue;
                }
                let t = &toks[i];
                if t.kind == TokKind::Punct {
                    let op = t.text.as_bytes()[0];
                    let shl = op == b'<' && toks.get(i + 1).is_some_and(|n| n.is_punct('<'));
                    if (op == b'+' || op == b'*' || shl) && binary_prev(toks, i) {
                        let shown = if shl { "<<" } else { t.text.as_str() };
                        out.push(Finding {
                            file: file.to_string(),
                            line: t.line,
                            rule: "OVF001",
                            severity: Severity::Deny,
                            message: format!(
                                "unchecked `{shown}` in decode fn `{}`: wire-derived \
                                 operands overflow — use checked_*/saturating_* and \
                                 map the failure onto the format's error type",
                                f.name
                            ),
                        });
                    }
                } else if t.is_ident("as") && !syn.in_use(i) && binary_prev(toks, i) {
                    if let Some(target) = toks
                        .get(i + 1)
                        .filter(|n| OVF002_TARGETS.contains(&n.text.as_str()))
                    {
                        out.push(Finding {
                            file: file.to_string(),
                            line: t.line,
                            rule: "OVF002",
                            severity: Severity::Deny,
                            message: format!(
                                "lossy `as {}` in decode fn `{}`: a narrowing cast \
                                 silently truncates untrusted input — use \
                                 try_into/try_from mapped onto a typed error",
                                target.text, f.name
                            ),
                        });
                    }
                }
            }
        }
    }

    // CON001 — scoped-thread closures mutating captured state.
    if class.kind == FileKind::Src {
        for (i, t) in toks.iter().enumerate() {
            if !t.is_ident("spawn")
                || !non_test(i)
                || i == 0
                || !(toks[i - 1].is_punct('.') || toks[i - 1].is_punct(':'))
                || !toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            {
                continue;
            }
            let open = i + 1;
            let Some(close) = matching_paren(toks, open) else {
                continue;
            };
            audit_spawn_closure(file, toks, open + 1, close, &mut out);
        }
    }

    // CON002 — lock types in deterministic crates.
    if class.kind == FileKind::Src && crate_in(class, CON002_CRATES) {
        for (i, t) in toks.iter().enumerate() {
            if t.kind == TokKind::Ident
                && (t.text == "Mutex" || t.text == "RwLock")
                && non_test(i)
                && !syn.in_use(i)
            {
                out.push(Finding {
                    file: file.to_string(),
                    line: t.line,
                    rule: "CON002",
                    severity: Severity::Deny,
                    message: format!(
                        "`{}` in a deterministic crate: lock acquisition order is \
                         scheduler-dependent — share immutably, merge after join, \
                         or suppress with a proof the contents are order-free",
                        t.text
                    ),
                });
            }
        }
    }

    // EXH001 — wildcard arms on closed taxonomies.
    if class.kind == FileKind::Src {
        for m in &syn.matches {
            if test_mask.get(m.kw).copied().unwrap_or(false) {
                continue;
            }
            let Some(enum_name) = guarded_enum(m, toks) else {
                continue;
            };
            for arm in &m.arms {
                let (ps, pe) = arm.pat;
                let is_wildcard = toks.get(ps).is_some_and(|t| t.is_ident("_"))
                    && (pe == ps + 1 || toks.get(ps + 1).is_some_and(|t| t.is_ident("if")));
                if !is_wildcard {
                    continue;
                }
                let detail = match symbols.enums.get(enum_name) {
                    Some(vs) => format!(
                        "`{enum_name}` currently has {} variants — a new one would \
                         fall through here silently",
                        vs.len()
                    ),
                    None => format!("a new `{enum_name}` variant would fall through silently"),
                };
                out.push(Finding {
                    file: file.to_string(),
                    line: arm.line,
                    rule: "EXH001",
                    severity: Severity::Deny,
                    message: format!(
                        "wildcard `_` arm in a match involving `{enum_name}`: {detail}; \
                         enumerate the variants (the compiler then flags additions)"
                    ),
                });
            }
        }
    }

    // DET004 — NoiseRng-derived values flowing into output sinks.
    if class.kind == FileKind::Src && crate_in(class, DETERMINISTIC_CRATES) {
        for f in &syn.fns {
            let Some((b0, b1)) = f.body else { continue };
            if test_mask.get(b0).copied().unwrap_or(false) {
                continue;
            }
            taint_check(file, toks, f, b0, b1.min(toks.len()), &mut out);
        }
    }

    out
}

/// True if `f` sits on the decode side of a wire module: named like a
/// decoder, or any method of a decode-cursor type.
fn is_decode_fn(f: &FnInfo) -> bool {
    DECODE_FN_PREFIXES.iter().any(|p| f.name.starts_with(p))
        || DECODE_FN_EXACT.contains(&f.name.as_str())
        || f.impl_type
            .as_deref()
            .is_some_and(|t| DECODE_IMPL_TYPES.contains(&t))
}

/// True if the token before `i` ends an expression, making the operator at
/// `i` binary (`a + b`) rather than unary/type-position (`&*x`, `-n`,
/// `Vec<u8>`). Keywords that can directly precede a unary operator
/// (`return *x`, `&mut *y`, `match *z`) are excluded.
fn binary_prev(toks: &[Tok], i: usize) -> bool {
    let Some(p) = i.checked_sub(1).and_then(|j| toks.get(j)) else {
        return false;
    };
    match p.kind {
        TokKind::Number | TokKind::Literal => true,
        TokKind::Ident => !matches!(
            p.text.as_str(),
            "as" | "break"
                | "else"
                | "if"
                | "in"
                | "let"
                | "match"
                | "move"
                | "mut"
                | "ref"
                | "return"
                | "where"
        ),
        TokKind::Punct => matches!(p.text.as_bytes(), [b')'] | [b']'] | [b'?']),
    }
}

/// CON001's closure audit: inside the spawn argument span `s..e`, collect
/// the closure's local bindings (params, `let`, `for`), then flag writes
/// (`=` assignments and mutating method calls) whose base identifier is
/// not local. Atomics (`fetch_add`, `store`) and channel `send` are not in
/// [`MUT_METHODS`], so the blessed cross-thread patterns pass by
/// construction. Locals are collected over-broadly (every ident between
/// pipe pairs, in `let` patterns, in `for` bindings): the failure mode of
/// the over-approximation is a missed local-write finding, never a false
/// fire on real shared state, because captured names are by definition
/// declared nowhere inside the closure.
fn audit_spawn_closure(file: &str, toks: &[Tok], s: usize, e: usize, out: &mut Vec<Finding>) {
    let mut locals: BTreeSet<&str> = BTreeSet::new();
    let mut let_eq: BTreeSet<usize> = BTreeSet::new();

    // Pass 1: bindings.
    let mut k = s;
    while k < e {
        let t = &toks[k];
        if t.is_punct('|') {
            // A closure parameter list (or, over-broadly, a bitwise-or
            // within one statement — see the doc comment).
            let limit =
                (k + 1..e.min(k + 40)).find(|&j| toks[j].is_punct('|') || toks[j].is_punct(';'));
            if let Some(p1) = limit.filter(|&j| toks[j].is_punct('|')) {
                for p in &toks[k + 1..p1] {
                    if p.kind == TokKind::Ident {
                        locals.insert(p.text.as_str());
                    }
                }
                k = p1 + 1;
                continue;
            }
        } else if t.is_ident("let") {
            k += 1;
            while k < e && !toks[k].is_punct('=') && !toks[k].is_punct(';') {
                if toks[k].kind == TokKind::Ident {
                    locals.insert(toks[k].text.as_str());
                }
                k += 1;
            }
            if k < e && toks[k].is_punct('=') {
                let_eq.insert(k);
                k += 1;
            }
            continue;
        } else if t.is_ident("for") {
            k += 1;
            while k < e && !toks[k].is_ident("in") && !toks[k].is_punct('{') {
                if toks[k].kind == TokKind::Ident {
                    locals.insert(toks[k].text.as_str());
                }
                k += 1;
            }
            continue;
        }
        k += 1;
    }

    // Pass 2: writes.
    for k in s..e {
        let t = &toks[k];
        let write_base = if t.is_punct('=') && !let_eq.contains(&k) {
            // Skip `==`, `=>`, `<=`, `>=`, `!=` — but `+=`, `<<=`, … are
            // compound assignments and count.
            if toks
                .get(k + 1)
                .is_some_and(|n| n.is_punct('=') || n.is_punct('>'))
            {
                continue;
            }
            let Some(prev) = k.checked_sub(1).and_then(|j| toks.get(j)) else {
                continue;
            };
            if prev.is_punct('=') || prev.is_punct('!') {
                continue;
            }
            if prev.is_punct('<') || prev.is_punct('>') {
                // `<<=`/`>>=` are writes; `<=`/`>=` are comparisons.
                let double =
                    k >= 2 && toks[k - 2].text == prev.text && toks[k - 2].kind == prev.kind;
                if !double {
                    continue;
                }
                base_of_place(toks, s, k.saturating_sub(3))
            } else if matches!(
                prev.text.as_bytes(),
                [b'+'] | [b'-'] | [b'*'] | [b'/'] | [b'%'] | [b'&'] | [b'|'] | [b'^']
            ) && prev.kind == TokKind::Punct
            {
                base_of_place(toks, s, k.saturating_sub(2))
            } else {
                base_of_place(toks, s, k.saturating_sub(1))
            }
        } else if t.kind == TokKind::Ident
            && MUT_METHODS.contains(&t.text.as_str())
            && k > s
            && toks[k - 1].is_punct('.')
            && toks.get(k + 1).is_some_and(|n| n.is_punct('('))
        {
            base_of_place(toks, s, k.saturating_sub(2))
        } else {
            continue;
        };
        if let Some((base, line)) = write_base {
            if !locals.contains(base) && base != "_" {
                out.push(Finding {
                    file: file.to_string(),
                    line,
                    rule: "CON001",
                    severity: Severity::Deny,
                    message: format!(
                        "scoped-thread closure mutates captured `{base}`: cross-thread \
                         writes must be provably disjoint — collect per-thread results \
                         and merge after join, index per shard outside the closure, or \
                         use atomics/channels"
                    ),
                });
            }
        }
    }
}

/// Walks left from token `j` over a place expression (`a.b[i].c`) to its
/// base identifier. Returns the base's text and the line of the write.
fn base_of_place(toks: &[Tok], floor: usize, mut j: usize) -> Option<(&str, u32)> {
    loop {
        if j < floor {
            return None;
        }
        let t = &toks[j];
        if t.is_punct(']') {
            j = matching_open(toks, floor, j, '[', ']')?.checked_sub(1)?;
        } else if t.is_punct(')') {
            j = matching_open(toks, floor, j, '(', ')')?.checked_sub(1)?;
        } else if t.kind == TokKind::Ident {
            if j > floor && toks[j - 1].is_punct('.') {
                j = j.checked_sub(2)?;
            } else {
                return Some((&t.text, t.line));
            }
        } else if t.is_punct('*') {
            // Deref write `*x = …`: keep walking left.
            j = j.checked_sub(1)?;
        } else {
            return None;
        }
    }
}

/// Index of the opening delimiter matching the closer at `close_at`,
/// scanning backward but not before `floor`.
fn matching_open(
    toks: &[Tok],
    floor: usize,
    close_at: usize,
    open: char,
    close: char,
) -> Option<usize> {
    let mut depth = 0i32;
    let mut j = close_at;
    loop {
        let t = &toks[j];
        if t.is_punct(close) {
            depth += 1;
        } else if t.is_punct(open) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
        if j == floor {
            return None;
        }
        j -= 1;
    }
}

/// The guarded taxonomy a match touches, if any: an [`EXH_ENUMS`] name in
/// the scrutinee or any arm pattern, or `Self` in a pattern when the
/// enclosing impl type is guarded.
fn guarded_enum(m: &MatchInfo, toks: &[Tok]) -> Option<&'static str> {
    let mentions = |range: (usize, usize), name: &str| {
        toks.get(range.0..range.1)
            .is_some_and(|w| w.iter().any(|t| t.is_ident(name)))
    };
    for &name in EXH_ENUMS {
        if mentions(m.scrutinee, name) || m.arms.iter().any(|a| mentions(a.pat, name)) {
            return Some(name);
        }
    }
    if let Some(self_ty) = m.impl_type.as_deref() {
        if let Some(&name) = EXH_ENUMS.iter().find(|&&n| n == self_ty) {
            if m.arms.iter().any(|a| mentions(a.pat, "Self")) {
                return Some(name);
            }
        }
    }
    None
}

/// DET004's intraprocedural taint pass over one fn body.
///
/// Handles: parameters typed `NoiseRng` and locals bound from a
/// `NoiseRng::…` constructor. Taint: a `let`/assignment whose right-hand
/// side calls a draw method on a handle, or mentions an already-tainted
/// identifier, taints the bound names (iterated to a fixpoint so taint
/// flows through chains regardless of statement order quirks). Sinks:
/// output macros, telemetry value methods, and serialize/emit-prefixed
/// calls whose arguments mention a tainted identifier — including
/// `{name}` inline format captures inside literal arguments.
///
/// The analysis is intraprocedural by design: a helper that draws noise
/// internally is audited where *it* draws, and its callers treat the
/// return value as ordinary data. Function boundaries are the audit
/// points; DESIGN.md §14 records the policy.
fn taint_check(file: &str, toks: &[Tok], f: &FnInfo, b0: usize, b1: usize, out: &mut Vec<Finding>) {
    let mut handles: BTreeSet<&str> = BTreeSet::new();

    // Parameters: `…, rng: &mut NoiseRng, …`.
    let (p0, p1) = f.params;
    for i in p0..p1.min(toks.len()) {
        if !toks[i].is_ident("NoiseRng") {
            continue;
        }
        if let Some(colon) = (p0..i).rev().find(|&j| toks[j].is_punct(':')) {
            if colon > p0 && toks[colon - 1].kind == TokKind::Ident {
                handles.insert(toks[colon - 1].text.as_str());
            }
        }
    }

    let rhs_end = |mut j: usize| {
        let mut depth = 0usize;
        while j < b1 {
            let t = &toks[j];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            } else if depth == 0 && t.is_punct(';') {
                break;
            }
            j += 1;
        }
        j
    };
    let is_draw_on = |handles: &BTreeSet<&str>, lo: usize, hi: usize| {
        (lo..hi.saturating_sub(3)).any(|j| {
            toks[j].kind == TokKind::Ident
                && handles.contains(toks[j].text.as_str())
                && toks[j + 1].is_punct('.')
                && TEL001_DRAWS.contains(&toks[j + 2].text.as_str())
                && toks[j + 3].is_punct('(')
        })
    };

    let mut tainted: BTreeSet<&str> = BTreeSet::new();
    // Fixpoint over `let`/assignment statements; bounded by the number of
    // distinct identifiers, in practice 2–3 rounds.
    loop {
        let before = (tainted.len(), handles.len());
        let mut i = b0;
        while i < b1 {
            if toks[i].is_ident("let") {
                let mut lhs: Vec<&str> = Vec::new();
                let mut j = i + 1;
                while j < b1 && !toks[j].is_punct('=') && !toks[j].is_punct(';') {
                    if toks[j].kind == TokKind::Ident && toks[j].text != "mut" {
                        lhs.push(toks[j].text.as_str());
                    }
                    j += 1;
                }
                if j < b1 && toks[j].is_punct('=') {
                    let (r0, r1) = (j + 1, rhs_end(j + 1));
                    let from_ctor = (r0..r1).any(|k| toks[k].is_ident("NoiseRng"));
                    let from_taint = is_draw_on(&handles, r0, r1)
                        || (r0..r1).any(|k| {
                            toks[k].kind == TokKind::Ident
                                && tainted.contains(toks[k].text.as_str())
                        });
                    if from_ctor {
                        handles.extend(lhs.iter().copied());
                    }
                    if from_taint {
                        tainted.extend(lhs.iter().copied());
                    }
                    i = r1;
                    continue;
                }
                i = j;
            } else if toks[i].kind == TokKind::Ident
                && toks.get(i + 1).is_some_and(|n| n.is_punct('='))
                && !toks
                    .get(i + 2)
                    .is_some_and(|n| n.is_punct('=') || n.is_punct('>'))
                && (i == 0 || !toks[i - 1].is_punct('.'))
            {
                // Plain re-assignment `x = …;`.
                let (r0, r1) = (i + 2, rhs_end(i + 2));
                if is_draw_on(&handles, r0, r1)
                    || (r0..r1).any(|k| {
                        toks[k].kind == TokKind::Ident && tainted.contains(toks[k].text.as_str())
                    })
                {
                    tainted.insert(toks[i].text.as_str());
                }
                i = r1;
            } else {
                i += 1;
            }
        }
        if (tainted.len(), handles.len()) == before {
            break;
        }
    }
    if tainted.is_empty() && handles.is_empty() {
        return;
    }

    // Sinks.
    let arg_hit = |lo: usize, hi: usize| -> Option<&str> {
        for t in &toks[lo..hi.min(b1)] {
            if t.kind == TokKind::Ident && tainted.contains(t.text.as_str()) {
                return Some(t.text.as_str());
            }
            if t.kind == TokKind::Literal && !t.text.is_empty() {
                // `{name}` inline format captures inside the literal.
                for name in &tainted {
                    if t.text.contains(&format!("{{{name}")) {
                        return Some(*name);
                    }
                }
            }
        }
        is_draw_on(&handles, lo, hi.min(b1)).then_some("<draw>")
    };
    for i in b0..b1 {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let (open, what) = if DET004_SINK_MACROS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
            && toks.get(i + 2).is_some_and(|n| n.is_punct('('))
        {
            (i + 2, format!("`{}!`", t.text))
        } else if DET004_SINK_METHODS.contains(&t.text.as_str())
            && i > b0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            (i + 1, format!("`.{}(…)`", t.text))
        } else if DET004_SINK_PREFIXES.iter().any(|p| t.text.starts_with(p))
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            (i + 1, format!("`{}(…)`", t.text))
        } else {
            continue;
        };
        let close = matching_paren(toks, open).unwrap_or(b1);
        if let Some(name) = arg_hit(open + 1, close) {
            let shown = if name == "<draw>" {
                "a direct NoiseRng draw".to_string()
            } else {
                format!("noise-derived `{name}`")
            };
            out.push(Finding {
                file: file.to_string(),
                line: t.line,
                rule: "DET004",
                severity: Severity::Deny,
                message: format!(
                    "{shown} flows into {what} in fn `{}`: noise is simulation \
                     input, never output — derive observable values from the \
                     simulation state instead",
                    f.name
                ),
            });
        }
    }
}

/// TEL002's shape for a metric/span name: non-empty `[a-z0-9_]` segments
/// joined by single dots, starting with a letter.
fn is_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.starts_with(|c: char| c.is_ascii_lowercase())
        && name.split('.').all(|seg| {
            !seg.is_empty()
                && seg
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
}

/// Index of the `)` matching the `(` at `open`.
fn matching_paren(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// If `toks[i]` is followed by `::ident`, returns that identifier's text.
fn path_tail(toks: &[Tok], i: usize) -> Option<&str> {
    match toks.get(i + 1..i + 4) {
        Some([a, b, c]) if a.is_punct(':') && b.is_punct(':') && c.kind == TokKind::Ident => {
            Some(&c.text)
        }
        _ => None,
    }
}

/// True if the token stream carries `#![forbid(unsafe_code)]`.
fn has_forbid_unsafe(toks: &[Tok]) -> bool {
    toks.windows(8).any(|w| {
        w[0].is_punct('#')
            && w[1].is_punct('!')
            && w[2].is_punct('[')
            && w[3].is_ident("forbid")
            && w[4].is_punct('(')
            && w[5].is_ident("unsafe_code")
            && w[6].is_punct(')')
            && w[7].is_punct(']')
    })
}

/// Token index ranges of blocks guarded by an `is_enabled()` condition —
/// the `{ … }` after the call (an `if` body or a `.then(|| { … })`
/// closure), plus a directly attached `else { … }` (the negative branch is
/// conditioned on telemetry state just the same).
fn is_enabled_blocks(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("is_enabled") {
            continue;
        }
        // Find the block opener before the statement ends. A `;` first
        // means the call's value was stored, not used as a guard here.
        let mut j = i + 1;
        let mut opener = None;
        while j < toks.len() && j < i + 40 {
            if toks[j].is_punct(';') {
                break;
            }
            if toks[j].is_punct('{') {
                opener = Some(j);
                break;
            }
            j += 1;
        }
        let Some(open) = opener else { continue };
        let close = match matching_brace(toks, open) {
            Some(c) => c,
            None => toks.len(),
        };
        regions.push((open + 1, close));
        // An attached `else { … }` is guarded by the same condition.
        if toks.get(close + 1).is_some_and(|t| t.is_ident("else"))
            && toks.get(close + 2).is_some_and(|t| t.is_punct('{'))
        {
            let else_open = close + 2;
            let else_close = matching_brace(toks, else_open).unwrap_or(toks.len());
            regions.push((else_open + 1, else_close));
        }
    }
    regions
}

/// Index of the `}` matching the `{` at `open`.
pub(crate) fn matching_brace(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::is_metric_name;

    #[test]
    fn metric_name_shapes() {
        for good in ["engine.cache_miss", "x", "index.build", "run2.a_b", "a.b.c"] {
            assert!(is_metric_name(good), "{good}");
        }
        for bad in [
            "",
            "Engine.CacheMiss",
            "bytes per dc",
            ".leading",
            "trailing.",
            "a..b",
            "2fast",
            "_private",
            "run.EU2",
            "dash-ed",
        ] {
            assert!(!is_metric_name(bad), "{bad}");
        }
    }
}

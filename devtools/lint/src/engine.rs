//! File classification, test-region masking, suppression handling, and the
//! workspace walker.
//!
//! The engine decides *where* each rule applies: which crate a file belongs
//! to, whether it is library source or test/bench/example code, and which
//! token spans sit inside `#[cfg(test)]`/`#[test]` regions (rules about
//! library behavior don't police tests). It then reconciles raw findings
//! against inline suppressions and reports on the suppressions themselves
//! (bare allows, unknown rules, stale allows).

use std::fs;
use std::io;
use std::path::Path;

use crate::lexer::{lex, Comment, Lexed, Tok};
use crate::rules::{apply_rules, matching_brace, rule, Finding, Severity};
use crate::syntax::{parse, Symbols, Syntax};

/// What kind of compilation unit a file belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library/binary source under `src/`.
    Src,
    /// Integration tests under the workspace `tests/`.
    Test,
    /// Examples under `examples/`.
    Example,
    /// Benchmarks under a crate's `benches/`.
    Bench,
}

/// Everything the rules need to know about a file's place in the tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileClass {
    /// Crate directory name (`cdnsim`, `lint`, …); `None` for workspace
    /// `tests/` and `examples/`.
    pub crate_name: Option<String>,
    /// Compilation-unit kind.
    pub kind: FileKind,
    /// True for `src/lib.rs`, `src/main.rs`, and `src/bin/*.rs` — the files
    /// where `#![forbid(unsafe_code)]` must live.
    pub is_crate_root: bool,
    /// File stem (`export`, `mod`, …) used for module-scoped rules.
    pub stem: String,
}

/// Classifies a path (relative to the workspace root, `/`-separated).
/// Returns `None` for files the lint does not police (target output,
/// non-Rust files, unrecognized layouts).
pub fn classify(rel: &str) -> Option<FileClass> {
    if !rel.ends_with(".rs") {
        return None;
    }
    let parts: Vec<&str> = rel.split('/').collect();
    let stem_of = |p: &str| p.trim_end_matches(".rs").to_string();
    match parts.as_slice() {
        ["crates", name, "src", rest @ ..] if !rest.is_empty() => {
            let is_root = matches!(rest, ["lib.rs"] | ["main.rs"]) || matches!(rest, ["bin", _]);
            Some(FileClass {
                crate_name: Some((*name).to_string()),
                kind: FileKind::Src,
                is_crate_root: is_root,
                stem: stem_of(rest.last().expect("match guard: !rest.is_empty()")),
            })
        }
        ["crates", name, "benches", rest @ ..] if !rest.is_empty() => Some(FileClass {
            crate_name: Some((*name).to_string()),
            kind: FileKind::Bench,
            is_crate_root: false,
            stem: stem_of(rest.last().expect("match guard: !rest.is_empty()")),
        }),
        // devtools/* source is linted like any crate.
        ["devtools", name, "src", rest @ ..] if !rest.is_empty() => {
            let is_root = matches!(rest, ["lib.rs"] | ["main.rs"]) || matches!(rest, ["bin", _]);
            Some(FileClass {
                crate_name: Some((*name).to_string()),
                kind: FileKind::Src,
                is_crate_root: is_root,
                stem: stem_of(rest.last().expect("match guard: !rest.is_empty()")),
            })
        }
        ["tests", rest @ ..] if !rest.is_empty() => Some(FileClass {
            crate_name: None,
            kind: FileKind::Test,
            is_crate_root: false,
            stem: stem_of(rest.last().expect("match guard: !rest.is_empty()")),
        }),
        ["examples", rest @ ..] if !rest.is_empty() => Some(FileClass {
            crate_name: None,
            kind: FileKind::Example,
            is_crate_root: false,
            stem: stem_of(rest.last().expect("match guard: !rest.is_empty()")),
        }),
        _ => None,
    }
}

/// Marks token indices that sit inside `#[cfg(test)]` items or `#[test]`
/// functions. Over-approximation note: `#[cfg(not(test))]` is recognized
/// and *not* masked; other `cfg` combinations containing `test` are masked.
fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            // Find the matching `]` of this attribute.
            let mut depth = 0i32;
            let mut end = None;
            for (k, t) in toks.iter().enumerate().skip(i + 1) {
                if t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        end = Some(k);
                        break;
                    }
                }
            }
            let Some(end) = end else { break };
            let inner = &toks[i + 2..end];
            let has = |name: &str| inner.iter().any(|t| t.is_ident(name));
            let is_test_attr =
                (has("test") && !has("not")) || (inner.len() == 1 && inner[0].is_ident("test"));
            if is_test_attr {
                // Skip any further attributes on the same item.
                let mut j = end + 1;
                while toks.get(j).is_some_and(|t| t.is_punct('#'))
                    && toks.get(j + 1).is_some_and(|t| t.is_punct('['))
                {
                    let mut d = 0i32;
                    let mut k = j + 1;
                    while k < toks.len() {
                        if toks[k].is_punct('[') {
                            d += 1;
                        } else if toks[k].is_punct(']') {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        k += 1;
                    }
                    j = k + 1;
                }
                // The item's block: first `{` before a `;` (a `mod x;`
                // points at another file — nothing to mask here).
                let mut open = None;
                while j < toks.len() {
                    if toks[j].is_punct(';') {
                        break;
                    }
                    if toks[j].is_punct('{') {
                        open = Some(j);
                        break;
                    }
                    j += 1;
                }
                if let Some(open) = open {
                    let close = matching_brace(toks, open).unwrap_or(toks.len() - 1);
                    for m in mask.iter_mut().take(close + 1).skip(i) {
                        *m = true;
                    }
                    i = close + 1;
                    continue;
                }
            }
            i = end + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// One parsed `ytcdn-lint:` suppression comment.
#[derive(Debug)]
struct Suppression {
    line: u32,
    rules: Vec<String>,
    /// The mandatory free-text justification, if present and non-trivial.
    has_reason: bool,
    /// `allow(` was malformed beyond repair.
    malformed: bool,
}

/// Parses suppression directives out of the comment list. A directive must
/// be a plain `//` comment that *starts* with `ytcdn-lint:` — doc comments
/// (whose text begins with `/` or `!`) and prose that merely mentions the
/// syntax are never directives.
fn parse_suppressions(comments: &[Comment]) -> Vec<Suppression> {
    let mut out = Vec::new();
    for c in comments {
        let trimmed = c.text.trim_start();
        let Some(rest) = trimmed.strip_prefix("ytcdn-lint:") else {
            continue;
        };
        let rest = rest.trim_start();
        let Some(body) = rest.strip_prefix("allow(") else {
            out.push(Suppression {
                line: c.line,
                rules: Vec::new(),
                has_reason: false,
                malformed: true,
            });
            continue;
        };
        let Some(close) = body.find(')') else {
            out.push(Suppression {
                line: c.line,
                rules: Vec::new(),
                has_reason: false,
                malformed: true,
            });
            continue;
        };
        let rules: Vec<String> = body[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        // After the `)`, a separator (em/en dash, `--`, `-`, or `:`) then
        // the reason. The separator is tolerated but the reason is not
        // optional: three meaningful characters minimum.
        let mut tail = body[close + 1..].trim_start();
        for sep in ["—", "–", "--", "-", ":"] {
            if let Some(stripped) = tail.strip_prefix(sep) {
                tail = stripped;
                break;
            }
        }
        let reason = tail.trim();
        out.push(Suppression {
            line: c.line,
            rules,
            has_reason: reason.len() >= 3,
            malformed: false,
        });
    }
    out
}

/// Lints one file's source text given its classification, resolving
/// symbols from the file itself only. This is the fixture-test entry
/// point; [`lint_root`] drives the two-phase variant (workspace-wide
/// symbol table) over a real tree.
pub fn lint_source(class: &FileClass, file: &str, src: &str) -> Vec<Finding> {
    let lexed = lex(src);
    let syn = parse(&lexed.tokens);
    let mut symbols = Symbols::default();
    symbols.absorb(&syn);
    lint_lexed(class, file, &lexed, &syn, &symbols)
}

/// Lints one already-lexed and parsed file against a (possibly
/// workspace-wide) symbol table.
fn lint_lexed(
    class: &FileClass,
    file: &str,
    lexed: &Lexed,
    syn: &Syntax,
    symbols: &Symbols,
) -> Vec<Finding> {
    let mask = test_mask(&lexed.tokens);
    let raw = apply_rules(class, file, &lexed.tokens, &mask, syn, symbols);
    let sups = parse_suppressions(&lexed.comments);

    let mut used = vec![false; sups.len()];
    let mut findings: Vec<Finding> = Vec::new();
    for f in raw {
        let mut suppressed = false;
        for (si, s) in sups.iter().enumerate() {
            // A suppression covers its own line and the line below it
            // (comment-above-the-statement style).
            let covers_line = s.line == f.line || s.line + 1 == f.line;
            if covers_line && !s.malformed && s.has_reason && s.rules.iter().any(|r| r == f.rule) {
                used[si] = true;
                suppressed = true;
                break;
            }
        }
        if !suppressed {
            findings.push(f);
        }
    }

    // Meta-rules over the suppressions themselves.
    for (si, s) in sups.iter().enumerate() {
        if s.malformed || !s.has_reason {
            findings.push(Finding {
                file: file.to_string(),
                line: s.line,
                rule: "LNT001",
                severity: Severity::Deny,
                message: "suppression without a reason: write \
                          `// ytcdn-lint: allow(RULE) — why this is safe`"
                    .to_string(),
            });
            continue;
        }
        for r in &s.rules {
            if rule(r).is_none() || r.starts_with("LNT") {
                findings.push(Finding {
                    file: file.to_string(),
                    line: s.line,
                    rule: "LNT002",
                    severity: Severity::Deny,
                    message: format!("suppression names unknown or unsuppressable rule `{r}`"),
                });
            }
        }
        if !used[si]
            && s.rules
                .iter()
                .all(|r| rule(r).is_some() && !r.starts_with("LNT"))
        {
            findings.push(Finding {
                file: file.to_string(),
                line: s.line,
                rule: "LNT003",
                severity: Severity::Deny,
                message: format!(
                    "stale suppression: allow({}) matched no finding on this or the next line",
                    s.rules.join(", ")
                ),
            });
        }
    }

    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

/// Recursively collects `.rs` files under `dir`, sorted for deterministic
/// output, as root-relative `/`-separated paths.
fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for e in entries {
        let path = e.path();
        if path.is_dir() {
            collect_rs(root, &path, out)?;
        } else if path.extension().is_some_and(|x| x == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Lints every classified file under a workspace root. Two-phase: the
/// first pass lexes, parses, and folds every file's definitions into one
/// workspace symbol table; the second applies the rules with that table in
/// scope (so, e.g., EXH001 can report how many variants a wildcard arm
/// hides even when the enum lives in another crate). Returns the sorted
/// findings and the number of files scanned.
pub fn lint_root(root: &Path) -> io::Result<(Vec<Finding>, usize)> {
    let mut files = Vec::new();
    for top in ["crates", "devtools", "tests", "examples"] {
        collect_rs(root, &root.join(top), &mut files)?;
    }
    files.sort();

    let mut prepared = Vec::new();
    let mut symbols = Symbols::default();
    for rel in &files {
        let Some(class) = classify(rel) else { continue };
        let src = fs::read_to_string(root.join(rel))?;
        let lexed = lex(&src);
        let syn = parse(&lexed.tokens);
        symbols.absorb(&syn);
        prepared.push((class, rel, lexed, syn));
    }

    let scanned = prepared.len();
    let mut findings = Vec::new();
    for (class, rel, lexed, syn) in &prepared {
        findings.extend(lint_lexed(class, rel, lexed, syn, &symbols));
    }
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok((findings, scanned))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_src_and_roots() {
        let c = classify("crates/cdnsim/src/lib.rs").unwrap();
        assert_eq!(c.crate_name.as_deref(), Some("cdnsim"));
        assert_eq!(c.kind, FileKind::Src);
        assert!(c.is_crate_root);
        assert_eq!(c.stem, "lib");

        let c = classify("crates/cli/src/bin/extra.rs").unwrap();
        assert!(c.is_crate_root);

        let c = classify("crates/core/src/export.rs").unwrap();
        assert!(!c.is_crate_root);
        assert_eq!(c.stem, "export");
    }

    #[test]
    fn classify_other_kinds() {
        assert_eq!(
            classify("tests/determinism.rs").unwrap().kind,
            FileKind::Test
        );
        assert_eq!(
            classify("examples/geolocate_servers.rs").unwrap().kind,
            FileKind::Example
        );
        assert_eq!(
            classify("crates/core/benches/index.rs").unwrap().kind,
            FileKind::Bench
        );
        let c = classify("devtools/lint/src/lexer.rs").unwrap();
        assert_eq!(c.crate_name.as_deref(), Some("lint"));
    }

    #[test]
    fn classify_skips_non_rust() {
        assert!(classify("crates/cdnsim/Cargo.toml").is_none());
        assert!(classify("README.md").is_none());
    }

    #[test]
    fn test_mask_covers_cfg_test_mod() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n fn b() { thread_rng(); }\n}\nfn c() {}";
        let lexed = lex(src);
        let mask = test_mask(&lexed.tokens);
        let idx_of = |name: &str| lexed.tokens.iter().position(|t| t.is_ident(name)).unwrap();
        assert!(!mask[idx_of("a")]);
        assert!(mask[idx_of("thread_rng")]);
        assert!(!mask[idx_of("c")]);
    }

    #[test]
    fn test_mask_ignores_cfg_not_test() {
        let src = "#[cfg(not(test))]\nfn real() { thread_rng(); }";
        let lexed = lex(src);
        let mask = test_mask(&lexed.tokens);
        let idx = lexed
            .tokens
            .iter()
            .position(|t| t.is_ident("thread_rng"))
            .unwrap();
        assert!(!mask[idx], "cfg(not(test)) is live code and must be linted");
    }

    #[test]
    fn suppression_parsing_variants() {
        let lexed = lex("// ytcdn-lint: allow(DET001) — seeding the noise model\n\
             // ytcdn-lint: allow(DET001, DET002): two rules\n\
             // ytcdn-lint: allow(DET001)\n\
             // ytcdn-lint: allow(\n");
        let sups = parse_suppressions(&lexed.comments);
        assert_eq!(sups.len(), 4);
        assert!(sups[0].has_reason && !sups[0].malformed);
        assert_eq!(sups[1].rules, vec!["DET001", "DET002"]);
        assert!(sups[1].has_reason);
        assert!(!sups[2].has_reason, "bare allow must be flagged");
        assert!(sups[3].malformed);
    }
}

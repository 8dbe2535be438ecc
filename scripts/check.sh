#!/usr/bin/env bash
# The full local gate: formatting, lints, tests, CLI smokes. The workspace
# has no crates.io dependencies, so everything runs offline.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check" >&2
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings" >&2
cargo clippy --workspace --all-targets --offline -- -D warnings

# In-tree determinism lint: SimRng-only simulation, no wall clocks in
# deterministic crates, ordered containers in output paths, forbid(unsafe)
# everywhere, no RNG draws under telemetry guards, no unreasoned
# unwrap()/expect() in library code, plus the syntax-aware families —
# checked decode arithmetic (OVF001/002), scoped-thread write discipline
# (CON001), no locks in deterministic crates (CON002), no wildcard arms on
# closed taxonomies (EXH001), and no noise-to-output taint (DET004). The
# committed baseline filters known findings so only NEW ones fail; it is
# empty today and should stay that way (see scripts/lint-baseline.sh).
echo "==> ytcdn-lint --workspace" >&2
smoke="$(mktemp -d "${TMPDIR:-/tmp}/ytcdn-smoke.XXXXXX")"
trap 'rm -rf "$smoke"' EXIT
cargo run --quiet --release --offline -p ytcdn-lint -- --workspace \
    --baseline devtools/lint/baseline.txt --sarif-out "$smoke/lint-report.sarif"
grep -q '"version": "2.1.0"' "$smoke/lint-report.sarif" \
    || { echo "check.sh: lint --sarif-out wrote no SARIF document" >&2; exit 1; }

# --offline: the workspace has no crates.io dependencies; this fails if one
# comes back.
echo "==> cargo test --offline" >&2
cargo test --workspace -q --offline

# Simulation workers: `generate` runs the five datasets on a pool of one
# worker per available CPU, and each dataset on its own engine. EU2
# simulated alone must be byte-identical to EU2 out of the pooled run.
echo "==> generate smoke (one engine vs the five-dataset pool)" >&2
max="$(nproc 2>/dev/null || echo 4)"
cargo run --quiet --release -p ytcdn-cli -- generate \
    --dataset EU2 --scale 0.002 --seed 7 --format text --out "$smoke/eu2.log"
cargo run --quiet --release -p ytcdn-cli -- generate \
    --scale 0.002 --seed 7 --format text --out "$smoke/all"
cmp "$smoke/eu2.log" "$smoke/all/EU2.log" \
    || { echo "check.sh: EU2 from the pooled run differs from EU2 alone" >&2; exit 1; }

# Watchtower smoke: a trace with one scheduled mutation must produce at
# least one change point (and exit 0); the windowed-metrics JSONL must
# carry the detection event, and every line must match the golden schema.
echo "==> watch smoke (mutated trace fires the change detector)" >&2
cargo run --quiet --release -p ytcdn-cli -- watch \
    --dataset EU1-FTTH --scale 0.01 --seed 5 --mutate dc-down@72:milan \
    --telemetry "$smoke/watch-events.jsonl" > "$smoke/watch.txt" 2>/dev/null \
    || { echo "check.sh: watch exited non-zero" >&2; exit 1; }
grep -q "CHANGE" "$smoke/watch.txt" \
    || { echo "check.sh: watch found no change point on a mutated trace" >&2; exit 1; }
grep -q '"event":"change_point_detected"' "$smoke/watch-events.jsonl" \
    || { echo "check.sh: no change_point_detected event in the JSONL stream" >&2; exit 1; }
YTCDN_GOLDEN_JSONL="$smoke/watch-events.jsonl" \
    cargo test -q --offline -p ytcdn-telemetry --test golden_schema
# The same mutated trace written as .ytc: `watch --from` (skipping
# simulation, rebuilding the world from the recorded provenance) must
# reproduce the simulate-and-watch table exactly.
cargo run --quiet --release -p ytcdn-cli -- generate \
    --dataset EU1-FTTH --scale 0.01 --seed 5 --mutate dc-down@72:milan \
    --out "$smoke/watch.ytc" 2>/dev/null
cargo run --quiet --release -p ytcdn-cli -- watch \
    --dataset EU1-FTTH --from "$smoke/watch.ytc" > "$smoke/watch-from.txt" 2>/dev/null
cmp "$smoke/watch.txt" "$smoke/watch-from.txt" \
    || { echo "check.sh: watch --from differs from the simulate path" >&2; exit 1; }

# Text trace smoke: the generated text log survives anonymization, and the
# anonymized trace still characterizes.
echo "==> text trace smoke (anonymize, characterize)" >&2
cargo run --quiet --release -p ytcdn-cli -- anonymize \
    --trace "$smoke/eu2.log" --out "$smoke/eu2-anon.log" --seed 3 2>/dev/null
cargo run --quiet --release -p ytcdn-cli -- characterize \
    --trace "$smoke/eu2-anon.log" > "$smoke/characterize.txt"
grep -q "flows=" "$smoke/characterize.txt" \
    || { echo "check.sh: characterize printed no summary for the anonymized trace" >&2; exit 1; }

# Analysis pipeline: repro must print byte-identical reports at --jobs 1
# (one simulation worker, sequential index build + experiment loop) and
# --jobs <max> (the dataset pool, parallel grouping and concurrent
# experiments).
echo "==> repro --jobs differential smoke (1 vs $max)" >&2
for jobs in 1 "$max"; do
    cargo run --quiet --release -p ytcdn-bench --bin repro -- \
        --scale 0.004 --seed 7 --jobs "$jobs" > "$smoke/repro-$jobs.txt" 2>/dev/null
done
cmp "$smoke/repro-1.txt" "$smoke/repro-$max.txt" \
    || { echo "check.sh: repro --jobs $max output differs from sequential" >&2; exit 1; }

# Geolocation pipeline: the CBG pass draws per-/24 noise streams, so the
# geo-heavy experiments (fig3's pooled radius CDFs, table3's continent
# table) must also be byte-identical at any worker count.
echo "==> repro geo byte-compare smoke (fig3,table3 at --jobs 1 vs $max)" >&2
for jobs in 1 "$max"; do
    cargo run --quiet --release -p ytcdn-bench --bin repro -- \
        --scale 0.004 --seed 7 --exp fig3,table3 --jobs "$jobs" \
        > "$smoke/geo-$jobs.txt" 2>/dev/null
done
cmp "$smoke/geo-1.txt" "$smoke/geo-$max.txt" \
    || { echo "check.sh: geo experiments differ at --jobs $max vs sequential" >&2; exit 1; }

# Session pipeline: the Figure 5 T-sweep and the Figure 6 default-gap
# sizes must be byte-identical at any worker count on their own.
echo "==> repro session byte-compare smoke (fig5,fig6 at --jobs 1 vs $max)" >&2
for jobs in 1 "$max"; do
    cargo run --quiet --release -p ytcdn-bench --bin repro -- \
        --scale 0.004 --seed 7 --exp fig5,fig6 --jobs "$jobs" \
        > "$smoke/sessions-$jobs.txt" 2>/dev/null
done
cmp "$smoke/sessions-1.txt" "$smoke/sessions-$max.txt" \
    || { echo "check.sh: session experiments differ at --jobs $max vs sequential" >&2; exit 1; }

# Columnar .ytc smoke, three legs. (1) The file's sha256, so the
# transcript shows the digest. (2) Replay fidelity: `repro --from
# dataset.ytc --jobs 1` must print the report byte-identical to `repro
# --jobs 1` at the same scale/seed — a one-worker simulation against the
# pool that `generate` ran. (3) Corruption: a flipped byte must exit
# non-zero with the reason on stderr, never panic.
echo "==> .ytc columnar smoke (digest, replay, corruption)" >&2
cargo run --quiet --release -p ytcdn-cli -- generate \
    --scale 0.004 --seed 7 --out "$smoke/ds.ytc" 2>/dev/null
echo "    dataset.ytc sha256 $(sha256sum "$smoke/ds.ytc" | cut -d' ' -f1)" >&2
cargo run --quiet --release -p ytcdn-bench --bin repro -- \
    --from "$smoke/ds.ytc" --jobs 1 > "$smoke/repro-from.txt" 2>/dev/null \
    || { echo "check.sh: repro --from exited non-zero on a valid file" >&2; exit 1; }
cmp "$smoke/repro-1.txt" "$smoke/repro-from.txt" \
    || { echo "check.sh: repro --from output differs from the in-memory run" >&2; exit 1; }
# Chop the trailing byte: guaranteed damage (the whole-file digest no
# longer fits), whatever the file's contents.
bytes="$(stat -c%s "$smoke/ds.ytc" 2>/dev/null || stat -f%z "$smoke/ds.ytc")"
head -c "$((bytes - 1))" "$smoke/ds.ytc" > "$smoke/corrupt.ytc"
if cargo run --quiet --release -p ytcdn-bench --bin repro -- \
    --from "$smoke/corrupt.ytc" > /dev/null 2> "$smoke/corrupt-err.txt"; then
    echo "check.sh: repro --from accepted a corrupt .ytc" >&2; exit 1
fi
grep -qi "checksum\|truncated\|corrupt" "$smoke/corrupt-err.txt" \
    || { echo "check.sh: corrupt .ytc rejection gave no reason on stderr" >&2; exit 1; }

# Degenerate-input smoke: an empty capture must not panic anywhere in the
# analysis layer — the scorecard renders its unanswerable claims as
# SKIPPED rows and still exits 0.
echo "==> repro --degenerate empty smoke" >&2
cargo run --quiet --release -p ytcdn-bench --bin repro -- \
    --scale 0.004 --seed 7 --degenerate empty --scorecard \
    > "$smoke/degenerate.txt" 2>/dev/null \
    || { echo "check.sh: repro --degenerate empty --scorecard exited non-zero" >&2; exit 1; }
grep -q "SKIPPED:" "$smoke/degenerate.txt" \
    || { echo "check.sh: degenerate scorecard has no SKIPPED rows" >&2; exit 1; }

echo "check.sh: OK" >&2

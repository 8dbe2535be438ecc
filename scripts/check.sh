#!/usr/bin/env bash
# The full gate, run locally and by CI: formatting, lints, tests, CLI
# smokes. The workspace has no crates.io dependencies, so everything runs
# offline.
#
#   scripts/check.sh [OUT_DIR]
#
# OUT_DIR (optional) keeps the lint reports (lint-report.json and
# lint-report.sarif), the watch smoke's windowed-metrics stream
# (watch-events.jsonl) and the pinned dataset.ytc; without it they go to a
# temporary directory removed at exit.

set -euo pipefail
out_dir="${1:-}"
[ -z "$out_dir" ] || out_dir="$(mkdir -p "$out_dir" && cd "$out_dir" && pwd)"
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check" >&2
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings" >&2
cargo clippy --workspace --all-targets --offline -- -D warnings

# Every intra-doc link must resolve, and no public doc may link a private
# item.
echo "==> cargo doc -D warnings" >&2
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

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
out="${out_dir:-$smoke}"
cargo run --quiet --release --offline -p ytcdn-lint -- --workspace \
    --baseline devtools/lint/baseline.txt \
    --out "$out/lint-report.json" --sarif-out "$out/lint-report.sarif"
grep -q '"version": "2.1.0"' "$out/lint-report.sarif" \
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
    --telemetry "$out/watch-events.jsonl" > "$smoke/watch.txt" 2>/dev/null \
    || { echo "check.sh: watch exited non-zero" >&2; exit 1; }
grep -q "CHANGE" "$smoke/watch.txt" \
    || { echo "check.sh: watch found no change point on a mutated trace" >&2; exit 1; }
grep -q '"event":"window_metrics"' "$out/watch-events.jsonl" \
    || { echo "check.sh: no window_metrics event in the JSONL stream" >&2; exit 1; }
grep -q '"event":"change_point_detected"' "$out/watch-events.jsonl" \
    || { echo "check.sh: no change_point_detected event in the JSONL stream" >&2; exit 1; }
YTCDN_GOLDEN_JSONL="$out/watch-events.jsonl" \
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

# The watch table, byte for byte: the CLI's change-point table of every
# dataset at scale 0.004, seed 7, and of EU1-ADSL under dc-down@72:Milan,
# against pinned digests (tests/golden_tables.rs pins the same tables).
echo "==> watch table digest pins" >&2
while read -r digest dataset mutation; do
    cargo run --quiet --release -p ytcdn-cli -- watch --dataset "$dataset" \
        --scale 0.004 --seed 7 ${mutation:+--mutate "$mutation"} \
        > "$smoke/watch-pin.txt" 2>/dev/null
    echo "$digest  $smoke/watch-pin.txt" | sha256sum --quiet -c - \
        || { echo "check.sh: watch table of $dataset $mutation drifted from its pin" >&2; exit 1; }
done <<'PINS'
41c3ad0f08d5af58a78f7577f20e9c61933546de6c2137b6400a8c04df9affaa US-Campus
7f65d5be525ccef8aca8337533d095627141e2f788e7ae092adf8c083fe0a5a5 EU1-Campus
e508537bb9dcba64118df0bd6b4911ee6c5632daf37b65ea439eb37a47a6ffb6 EU1-ADSL
2a32da469d4aefa0903792b3cf0a424557eb6f2565940b4f2f1e6aa11571ef6c EU1-FTTH
47ad8b1b876e7bf9a66b2596b3f8b9b28b143cd3948de12820b46aee1d88c329 EU2
6791d9a5e2443631f6f435b7a50beab7dec8959aaa22bb342b5e3b2fbca4e335 EU1-ADSL dc-down@72:Milan
PINS

# A window too long for its end in ms to fit a u64 is one window over the
# whole trace, the same as a week: the release build must not wrap.
echo "==> watch window overflow" >&2
for window in 168 5124095576031; do
    cargo run --quiet --release -p ytcdn-cli -- watch --dataset EU2 \
        --scale 0.002 --seed 7 --window "$window" \
        --telemetry "$smoke/watch-window-$window.jsonl" > /dev/null 2>&1 \
        || { echo "check.sh: watch --window $window exited non-zero" >&2; exit 1; }
    grep -o '"sessions":[0-9]*' "$smoke/watch-window-$window.jsonl" \
        > "$smoke/watch-window-$window.sessions"
done
[ -s "$smoke/watch-window-168.sessions" ] \
    || { echo "check.sh: watch --window 168 reported no sessions field" >&2; exit 1; }
cmp "$smoke/watch-window-168.sessions" "$smoke/watch-window-5124095576031.sessions" \
    || { echo "check.sh: watch --window 5124095576031 counts other sessions than --window 168" >&2; exit 1; }

# The what-if table, byte for byte: every counterfactual of
# ytcdn_core::whatif::COUNTERFACTUALS at scale 0.004, seed 7.
echo "==> whatif table digest pins" >&2
while read -r digest scenario; do
    cargo run --quiet --release -p ytcdn-cli -- whatif --scenario "$scenario" \
        --scale 0.004 --seed 7 > "$smoke/whatif-pin.txt" 2>/dev/null
    echo "$digest  $smoke/whatif-pin.txt" | sha256sum --quiet -c - \
        || { echo "check.sh: whatif table of $scenario drifted from its pin" >&2; exit 1; }
done <<'PINS'
a597966d8b2e5125486e3ce4b7e2d750772adf846d9438dc50a9a86fab35abb1 feb2011
2d79fa435674e28ff361e4596047554d1566f08077e27eb510147891a6f0272f fixed-peering
17a12cadf4440232926a4e4214b64c380db65824db55bbaa064fdfe9dd7bb670 no-votd
e7a01895dcd59bfc7cae7bce89f5a433b07b8c8834d355021667bf0dfb485e62 eu2-capacity
2336ce38946ed24a1e6d5afbd2aad017df27b89c61405dded16d8a6b15fa8bd8 popularity
PINS

# Text trace smoke: the generated text log survives anonymization, and the
# anonymized trace still characterizes.
echo "==> text trace smoke (anonymize, characterize)" >&2
cargo run --quiet --release -p ytcdn-cli -- anonymize \
    --trace "$smoke/eu2.log" --out "$smoke/eu2-anon.log" --seed 3 2>/dev/null
cargo run --quiet --release -p ytcdn-cli -- characterize \
    --trace "$smoke/eu2-anon.log" > "$smoke/characterize.txt"
grep -q "flows=" "$smoke/characterize.txt" \
    || { echo "check.sh: characterize printed no summary for the anonymized trace" >&2; exit 1; }

# analyze --trace is the one CLI path where the text parser's rows feed an
# analysis context and an index: it must run on a generated text log and
# on its anonymized copy, and print the session summary for each.
echo "==> analyze --trace smoke (text log and its anonymized copy)" >&2
cargo run --quiet --release -p ytcdn-cli -- generate \
    --dataset EU2 --scale 0.004 --seed 7 --format text --out "$smoke/analyze.log" 2>/dev/null
cargo run --quiet --release -p ytcdn-cli -- anonymize \
    --trace "$smoke/analyze.log" --out "$smoke/analyze-anon.log" --seed 3 2>/dev/null
for trace in analyze analyze-anon; do
    cargo run --quiet --release -p ytcdn-cli -- analyze \
        --trace "$smoke/$trace.log" --scale 0.004 --seed 7 > "$smoke/$trace.txt" 2>/dev/null \
        || { echo "check.sh: analyze --trace $trace.log exited non-zero" >&2; exit 1; }
    grep -q "^sessions:" "$smoke/$trace.txt" \
        || { echo "check.sh: analyze --trace $trace.log printed no sessions line" >&2; exit 1; }
done

# Analysis pipeline: repro must print byte-identical reports at --jobs 1
# (one simulation worker, sequential index builds + experiment loop) and
# --jobs <max> (the dataset pool, the five index builds on the pool and
# concurrent experiments).
echo "==> repro --jobs differential smoke (1 vs $max)" >&2
for jobs in 1 "$max"; do
    cargo run --quiet --release -p ytcdn-cli -- repro \
        --scale 0.004 --seed 7 --jobs "$jobs" > "$smoke/repro-$jobs.txt" 2>/dev/null
done
cmp "$smoke/repro-1.txt" "$smoke/repro-$max.txt" \
    || { echo "check.sh: repro --jobs $max output differs from sequential" >&2; exit 1; }

# A --jobs far above the CPU count is capped there: it must neither abort
# nor change a byte of the report.
echo "==> repro --jobs cap smoke (50000 vs 1)" >&2
for jobs in 1 50000; do
    cargo run --quiet --release -p ytcdn-cli -- repro \
        --scale 0.002 --seed 7 --exp table1 --jobs "$jobs" \
        > "$smoke/cap-$jobs.txt" 2>/dev/null \
        || { echo "check.sh: repro --jobs $jobs exited non-zero" >&2; exit 1; }
done
cmp "$smoke/cap-1.txt" "$smoke/cap-50000.txt" \
    || { echo "check.sh: repro --jobs 50000 output differs from --jobs 1" >&2; exit 1; }

# Geolocation pipeline: the CBG pass draws per-/24 noise streams, so the
# geo-heavy experiments (fig3's pooled radius CDFs, table3's continent
# table) must also be byte-identical at any worker count.
echo "==> repro geo byte-compare smoke (fig3,table3 at --jobs 1 vs $max)" >&2
for jobs in 1 "$max"; do
    cargo run --quiet --release -p ytcdn-cli -- repro \
        --scale 0.004 --seed 7 --exp fig3,table3 --jobs "$jobs" \
        > "$smoke/geo-$jobs.txt" 2>/dev/null
done
cmp "$smoke/geo-1.txt" "$smoke/geo-$max.txt" \
    || { echo "check.sh: geo experiments differ at --jobs $max vs sequential" >&2; exit 1; }

# The CLI's own CBG path: `geolocate` must print the same continent
# counts and inferred data centers at any worker count, and calibrate on
# the 50 landmarks `repro` uses (its progress note counts the landmarks it
# built).
echo "==> geolocate byte-compare smoke (EU2 at --jobs 1 vs $max)" >&2
for jobs in 1 "$max"; do
    YTCDN_QUIET= cargo run --quiet --release -p ytcdn-cli -- geolocate \
        --dataset EU2 --scale 0.002 --seed 7 --jobs "$jobs" \
        > "$smoke/geolocate-$jobs.txt" 2> "$smoke/geolocate-$jobs.err"
    grep -q "calibrating CBG on 50 landmarks" "$smoke/geolocate-$jobs.err" \
        || { echo "check.sh: geolocate --jobs $jobs did not calibrate on 50 landmarks" >&2; exit 1; }
done
cmp "$smoke/geolocate-1.txt" "$smoke/geolocate-$max.txt" \
    || { echo "check.sh: geolocate --jobs $max output differs from sequential" >&2; exit 1; }

# Session pipeline: the Figure 5 T-sweep and the Figure 6 default-gap
# sizes must be byte-identical at any worker count on their own.
echo "==> repro session byte-compare smoke (fig5,fig6 at --jobs 1 vs $max)" >&2
for jobs in 1 "$max"; do
    cargo run --quiet --release -p ytcdn-cli -- repro \
        --scale 0.004 --seed 7 --exp fig5,fig6 --jobs "$jobs" \
        > "$smoke/sessions-$jobs.txt" 2>/dev/null
done
cmp "$smoke/sessions-1.txt" "$smoke/sessions-$max.txt" \
    || { echo "check.sh: session experiments differ at --jobs $max vs sequential" >&2; exit 1; }

# Renderers: every report, `--plot` chart, the markdown page and every CSV
# are read off the suite's cached per-experiment figures, which a parallel
# run_many fills concurrently. All of them must be byte-identical at
# --jobs 1 and --jobs <max>.
echo "==> repro renderer byte-compare smoke (--plot, --markdown, --csv at --jobs 1 vs $max)" >&2
all_ids=table1,table2,table3,fig2,fig3,fig4,fig5,fig6,fig7,fig8,fig9,fig10a,fig10b,fig11
all_ids=$all_ids,fig12,fig13,fig14,fig15,fig16,fig17,fig18,ext-perf,ext-characterize,ext-feb2011
for jobs in 1 "$max"; do
    cargo run --quiet --release -p ytcdn-cli -- repro \
        --scale 0.004 --seed 7 --exp "$all_ids" --plot \
        --markdown "$smoke/render-$jobs.md" --csv "$smoke/csv-$jobs" --jobs "$jobs" \
        > "$smoke/render-$jobs.txt" 2>/dev/null \
        || { echo "check.sh: repro --plot --markdown --csv --jobs $jobs exited non-zero" >&2; exit 1; }
done
cmp "$smoke/render-1.txt" "$smoke/render-$max.txt" \
    || { echo "check.sh: repro --plot output differs at --jobs $max vs sequential" >&2; exit 1; }
cmp "$smoke/render-1.md" "$smoke/render-$max.md" \
    || { echo "check.sh: markdown report differs at --jobs $max vs sequential" >&2; exit 1; }
diff -r "$smoke/csv-1" "$smoke/csv-$max" > /dev/null \
    || { echo "check.sh: CSV export differs at --jobs $max vs sequential" >&2; exit 1; }

# Columnar .ytc smoke, three legs. (1) The file's sha256 against the
# committed digests, unmutated and with one mutation of each kind: the
# CLI's write path (worker pool, the engine's own column build, encoder,
# file writer) must stay byte for byte what it was; a change that means to
# move these bytes re-pins YTC_SHA256 and YTC_MUTATED_SHA256. (2) Replay
# fidelity: `repro --from dataset.ytc` at --jobs 1 and at --jobs <max>
# (the five index builds
# over decoded columns on the pool) must each print the report
# byte-identical to `repro --jobs 1` at the same scale/seed — a
# one-worker simulation against the pool that `generate` ran. (3)
# Corruption: a flipped byte must exit non-zero with the reason on
# stderr, never panic.
echo "==> .ytc columnar smoke (digest, replay, corruption)" >&2
cargo run --quiet --release -p ytcdn-cli -- generate \
    --scale 0.004 --seed 7 --out "$out/dataset.ytc" 2>/dev/null
YTC_SHA256=1bc6dc28c4f69f9268666e10c7b97983b7c8da660c104b0d7052d9a960d50750
ytc_sha256="$(sha256sum "$out/dataset.ytc" | cut -d' ' -f1)"
echo "    dataset.ytc sha256 $ytc_sha256" >&2
[ "$ytc_sha256" = "$YTC_SHA256" ] \
    || { echo "check.sh: generate --scale 0.004 --seed 7 wrote a .ytc with sha256 $ytc_sha256, pinned $YTC_SHA256" >&2; exit 1; }
mutations=(--mutate dc-down@72:Milan --mutate prefer-flip@96:Frankfurt --mutate cache-evict@120:0.5)
cargo run --quiet --release -p ytcdn-cli -- generate \
    --scale 0.004 --seed 7 "${mutations[@]}" --out "$smoke/mutated.ytc" 2>/dev/null
YTC_MUTATED_SHA256=8b334eeddc5ed08bc4ddc2d1e8a68dd919b351745f6d6ff4a5afb13a63a2454a
ytc_sha256="$(sha256sum "$smoke/mutated.ytc" | cut -d' ' -f1)"
echo "    mutated.ytc sha256 $ytc_sha256" >&2
[ "$ytc_sha256" = "$YTC_MUTATED_SHA256" ] \
    || { echo "check.sh: generate --scale 0.004 --seed 7 ${mutations[*]} wrote a .ytc with sha256 $ytc_sha256, pinned $YTC_MUTATED_SHA256" >&2; exit 1; }
for jobs in 1 "$max"; do
    cargo run --quiet --release -p ytcdn-cli -- repro \
        --from "$out/dataset.ytc" --jobs "$jobs" > "$smoke/repro-from-$jobs.txt" 2>/dev/null \
        || { echo "check.sh: repro --from exited non-zero on a valid file" >&2; exit 1; }
    cmp "$smoke/repro-1.txt" "$smoke/repro-from-$jobs.txt" \
        || { echo "check.sh: repro --from --jobs $jobs output differs from the in-memory run" >&2; exit 1; }
done
# Chop the trailing byte: guaranteed damage (the whole-file digest no
# longer fits), whatever the file's contents.
bytes="$(stat -c%s "$out/dataset.ytc" 2>/dev/null || stat -f%z "$out/dataset.ytc")"
head -c "$((bytes - 1))" "$out/dataset.ytc" > "$smoke/corrupt.ytc"
if cargo run --quiet --release -p ytcdn-cli -- repro \
    --from "$smoke/corrupt.ytc" > /dev/null 2> "$smoke/corrupt-err.txt"; then
    echo "check.sh: repro --from accepted a corrupt .ytc" >&2; exit 1
fi
grep -qi "checksum\|truncated\|corrupt" "$smoke/corrupt-err.txt" \
    || { echo "check.sh: corrupt .ytc rejection gave no reason on stderr" >&2; exit 1; }
# A text log whose one flow starts far in the future must be rejected with
# exit 1 and a reason, not abort on sizing a per-hour table.
echo "==> analyze --trace far-future rejection" >&2
{ head -n 2 "$smoke/analyze.log"
  echo "10.0.0.1 74.125.0.1 18446744073709000000 18446744073709000100 1000 AAAAAAAAAAA 360p"
} > "$smoke/far-future.log"
status=0
cargo run --quiet --release -p ytcdn-cli -- analyze \
    --trace "$smoke/far-future.log" --scale 0.004 --seed 7 \
    > /dev/null 2> "$smoke/far-future-err.txt" || status=$?
[ "$status" -eq 1 ] \
    || { echo "check.sh: analyze --trace on a far-future log exited $status, want 1" >&2; exit 1; }
grep -q "t_start_ms" "$smoke/far-future-err.txt" \
    || { echo "check.sh: far-future log rejection gave no reason on stderr" >&2; exit 1; }

# A log with no video flow (header only, or only sub-1000-byte flows) has
# no preferred data center: analyze --trace must print the typed reason in
# place of the preferred-DC and share lines, and still exit 0.
echo "==> analyze --trace on logs without video flows" >&2
head -n 2 "$smoke/analyze.log" > "$smoke/no-flows.log"
awk '/^#/ || $5 < 1000' "$smoke/analyze.log" > "$smoke/no-video.log"
for case in "no-flows:contains no flows" "no-video:contains no video flows"; do
    trace="${case%%:*}"
    reason="${case#*:}"
    cargo run --quiet --release -p ytcdn-cli -- analyze \
        --trace "$smoke/$trace.log" --scale 0.004 --seed 7 > "$smoke/$trace.txt" 2>/dev/null \
        || { echo "check.sh: analyze --trace $trace.log exited non-zero" >&2; exit 1; }
    grep -q "^data-center shares SKIPPED: dataset EU2 $reason\$" "$smoke/$trace.txt" \
        || { echo "check.sh: analyze --trace $trace.log did not say it $reason" >&2; exit 1; }
    if grep -q "preferred data center:" "$smoke/$trace.txt"; then
        echo "check.sh: analyze --trace $trace.log named a preferred data center" >&2
        exit 1
    fi
done

# Degenerate-input smoke: an empty capture must not panic anywhere in the
# analysis layer — the scorecard renders its unanswerable claims as
# SKIPPED rows and still exits 0.
echo "==> repro --degenerate empty smoke" >&2
cargo run --quiet --release -p ytcdn-cli -- repro \
    --scale 0.004 --seed 7 --degenerate empty --scorecard \
    > "$smoke/degenerate.txt" 2>/dev/null \
    || { echo "check.sh: repro --degenerate empty --scorecard exited non-zero" >&2; exit 1; }
grep -q "SKIPPED:" "$smoke/degenerate.txt" \
    || { echo "check.sh: degenerate scorecard has no SKIPPED rows" >&2; exit 1; }

# Benchmark self-test: perfbench/ is its own Cargo package that compiles
# against the library API, and nothing else builds it. selftest.py builds
# it, runs both workloads at scale 0.02 against their pinned .ytc digest
# and the scorecard, and checks that every metric BENCHMARK.json names is
# emitted with its unit.
echo "==> perfbench selftest (build the benchmark, both workloads at scale 0.02)" >&2
python3 perfbench/selftest.py \
    || { echo "check.sh: perfbench selftest failed" >&2; exit 1; }

echo "check.sh: OK" >&2

#!/usr/bin/env bash
# Repo-wide verification: formatting, lints, build, tests, crash drill.
#
# Usage: scripts/check.sh
#
# Everything here runs offline (all dependencies are in-tree path
# crates; see README.md § Offline builds).
set -euo pipefail
cd "$(dirname "$0")/.."

# Per-step timeout: a hung cell (or wedged test binary) fails the gate
# instead of wedging CI forever. Override with CHECK_STEP_TIMEOUT
# (seconds).
STEP_TIMEOUT="${CHECK_STEP_TIMEOUT:-1800}"
step() {
  echo "==> $*"
  timeout --kill-after=30 "${STEP_TIMEOUT}" "$@"
}

# Temp dirs for the test suites' TMPDIR and the CLI drills below,
# removed on any exit.
ALL_TMP=$(mktemp -d)
BANKED_TMP=$(mktemp -d)
CORPUS_TMP=$(mktemp -d)
DRILL_TMP=$(mktemp -d)
TEST_TMP=$(mktemp -d)
TRACE_TMP=$(mktemp -d)
trap 'rm -rf "${ALL_TMP}" "${BANKED_TMP}" "${CORPUS_TMP}" "${DRILL_TMP}" "${TEST_TMP}" "${TRACE_TMP}"' EXIT

step cargo fmt --all --check

# Tests, binaries and examples may call what the root clippy.toml
# disallows (clocks, the environment, sleeps, direct simulation, hash
# iteration); the library pass below denies it.
step cargo clippy --workspace --all-targets -- \
  -D warnings -A clippy::disallowed_methods

# Library code must not unwrap/expect: every fallible path either
# returns a typed error or panics via a documented invariant assert.
# It must not print either: all human-facing output goes through the
# binaries or rendered reports, never stray println!/eprintln! in a
# library. Tests are exempt (unwrap is the right tool there).
# The root clippy.toml's disallowed methods are errors here too, and
# iter_over_hash_type catches the `for` loops over a HashMap/HashSet
# that method paths miss (EXPERIMENTS.md § Static analysis).
LIB_CLIPPY=(-D warnings -D clippy::unwrap_used -D clippy::expect_used
  -D clippy::print_stdout -D clippy::print_stderr -D clippy::iter_over_hash_type)
step cargo clippy -q --workspace --lib -- "${LIB_CLIPPY[@]}"

# The clippy canary, a workspace of its own, breaks every clippy.toml
# rule once. Clippy only warns about a path it cannot resolve, so a typo
# would switch a rule off silently: require a report for every path in
# clippy.toml (a path the canary never calls fails too) and for the
# hash-loop lint.
echo "==> clippy canary (every clippy.toml path must be reported)"
CANARY=crates/analysis/tests/fixtures/clippy/Cargo.toml
if CANARY_OUT=$(CARGO_TARGET_DIR=target timeout --kill-after=30 "${STEP_TIMEOUT}" \
  cargo clippy -q --manifest-path "${CANARY}" --lib -- "${LIB_CLIPPY[@]}" 2>&1); then
  echo "FAIL: the clippy canary linted clean" >&2
  exit 1
fi
CANARY_PATHS=$(sed -n 's/.*path = "\([^"]*\)".*/\1/p' clippy.toml)
if [[ -z "${CANARY_PATHS}" ]]; then
  echo "FAIL: no disallowed-methods path found in clippy.toml" >&2
  exit 1
fi
for path in ${CANARY_PATHS}; do
  if ! grep -qF "use of a disallowed method \`${path}\`" <<<"${CANARY_OUT}"; then
    echo "${CANARY_OUT}" >&2
    echo "FAIL: clippy did not report \`${path}\` in the canary" >&2
    exit 1
  fi
done
if ! grep -qF "iteration over unordered hash-based type" <<<"${CANARY_OUT}"; then
  echo "${CANARY_OUT}" >&2
  echo "FAIL: clippy::iter_over_hash_type did not fire in the canary" >&2
  exit 1
fi

# Rustdoc: a broken or private intra-doc link fails the gate, so a
# deletion cannot leave docs pointing at an item that is gone.
RUSTDOCFLAGS="-D warnings" step cargo doc -q --workspace --no-deps

echo "==> cargo build --release (tier-1)"
step cargo build --release

# The performance ledger (BENCHMARK.json's harness) is a workspace of
# its own, so nothing above compiles it; build and test it here against
# the shared target/ so a simulator API change cannot break it unnoticed.
echo "==> ledger tests (the one performance harness)"
CARGO_TARGET_DIR=target step cargo test -q --release --manifest-path ledger/Cargo.toml

# The ledger's tests run every workload at a tiny size only. One warm-up
# repetition of each at full size checks its inputs and cells against
# the digests pinned in ledger/golden/ (exit 0 only when all match).
echo "==> ledger golden digests (every workload at full size)"
for workload in grid_synth solo_corpus paging_switch sweep_journaled; do
  CARGO_TARGET_DIR=target step cargo run -q --release --manifest-path ledger/Cargo.toml \
    --bin ledger -- run --workload "${workload}" --seconds 0
done

# The in-tree static analyzer, every rule in one pass: panic
# discipline, error matches, raw journal writes, unit consistency and
# nondeterminism taint (EXPERIMENTS.md § Static analysis). Hard gate —
# any unwaived finding fails the build.
step ./target/release/repro lint --quiet

# Model-check every experiment preset's sweep grid against
# SystemConfig::validate(), so a bad preset fails here, not mid-sweep.
step ./target/release/repro lint --configs

# The root package's tests (observability, snapshot, corpus, resume
# and its drills…) run once in the tier-1 step; the workspace step adds
# every other crate's. Both run in a fresh TMPDIR: every scratch
# directory a test makes is named rampage-*, and a passing suite must
# leave none behind.
echo "==> cargo test -q (tier-1)"
TMPDIR="${TEST_TMP}" step cargo test -q

TMPDIR="${TEST_TMP}" step cargo test -q --workspace --exclude rampage

echo "==> no test scratch directory left behind"
LEFTOVER=$(find "${TEST_TMP}" -mindepth 1 -maxdepth 1 -name 'rampage-*')
if [[ -n "${LEFTOVER}" ]]; then
  echo "${LEFTOVER}" >&2
  echo "FAIL: the test suites left scratch entries in their TMPDIR" >&2
  exit 1
fi

# Every artifact once through the CLI: `all` next to `diag` must exit 0,
# put each JSON-producing artifact in results.json and print the diag
# table (`all` leaves diag out, so the pair also checks that naming
# both runs both).
echo "==> every artifact through the CLI (all diag)"
if ! ALL_OUT=$(timeout --kill-after=30 "${STEP_TIMEOUT}" ./target/release/repro \
  --scale 20000 --nbench 2 --jobs 2 --out "${ALL_TMP}" all diag 2>"${ALL_TMP}/stderr"); then
  tail -n 20 "${ALL_TMP}/stderr" >&2
  echo "FAIL: repro all diag exited non-zero" >&2
  exit 1
fi
for key in table1 table3 fig2 fig3 fig4 table4 table5 fig5 ablations perbench \
  anatomy timeslice dramdiff; do
  if ! grep -q "^    \"${key}\": " "${ALL_TMP}/results.json"; then
    echo "FAIL: repro all did not write ${key} to results.json" >&2
    exit 1
  fi
done
if ! grep -q "diag: per-config" <<<"${ALL_OUT}"; then
  echo "FAIL: repro all diag did not print the diag table" >&2
  exit 1
fi
# The same run on one worker: the pool must match the serial path over
# every artifact, in stdout, results.json and cells.json alike.
SERIAL_TMP="${ALL_TMP}/serial"
if ! SERIAL_OUT=$(timeout --kill-after=30 "${STEP_TIMEOUT}" ./target/release/repro \
  --scale 20000 --nbench 2 --jobs 1 --out "${SERIAL_TMP}" all diag 2>"${ALL_TMP}/serial.stderr"); then
  tail -n 20 "${ALL_TMP}/serial.stderr" >&2
  echo "FAIL: repro --jobs 1 all diag exited non-zero" >&2
  exit 1
fi
if [[ "${SERIAL_OUT}" != "${ALL_OUT}" ]]; then
  diff <(echo "${SERIAL_OUT}") <(echo "${ALL_OUT}") | head -n 20 >&2
  echo "FAIL: repro all diag stdout differs between --jobs 1 and --jobs 2" >&2
  exit 1
fi
for f in results.json cells.json; do
  if ! cmp "${SERIAL_TMP}/${f}" "${ALL_TMP}/${f}"; then
    echo "FAIL: ${f} differs between --jobs 1 and --jobs 2" >&2
    exit 1
  fi
done

# Banked-backend smoke: the same sweep at the other DRAM fidelity, plus
# the dramdiff ablation, whose divergence summary must land in
# metrics.json (the tentpole contract of the banked backend).
echo "==> banked DRAM backend smoke (--dram-backend banked + dramdiff divergence)"
step ./target/release/repro --scale 20000 --nbench 2 --dram-backend banked \
  --out "${BANKED_TMP}" table3 dramdiff >/dev/null
if ! grep -q '"dram_divergence"' "${BANKED_TMP}/metrics.json"; then
  echo "FAIL: dramdiff did not record dram_divergence in metrics.json" >&2
  exit 1
fi

# Event-trace export through the CLI: one traced run must write both the
# JSONL and the Chrome trace_event file, with one Chrome event per JSONL
# line. The huge --trace-cap checks that the ring allocates as events
# arrive instead of reserving its whole cap up front.
echo "==> event trace export smoke (--trace-events, JSONL + Chrome)"
step ./target/release/repro --scale 20000 --nbench 2 \
  --trace-events "${TRACE_TMP}/ev.jsonl" --trace-cap 1000000000000 >/dev/null
for f in "${TRACE_TMP}/ev.jsonl" "${TRACE_TMP}/ev.jsonl.chrome.json"; do
  if [[ ! -s "${f}" ]]; then
    echo "FAIL: --trace-events did not write ${f}" >&2
    exit 1
  fi
done
JSONL_EVENTS=$(wc -l <"${TRACE_TMP}/ev.jsonl")
CHROME_EVENTS=$(grep -c '"ph": "X"' "${TRACE_TMP}/ev.jsonl.chrome.json")
if [[ "${JSONL_EVENTS}" -ne "${CHROME_EVENTS}" ]]; then
  echo "FAIL: ${JSONL_EVENTS} JSONL event(s) but ${CHROME_EVENTS} Chrome traceEvents" >&2
  exit 1
fi

# End-to-end corrupt-block drill through the CLI: record a corpus,
# verify it clean, smash 8 bytes mid-file, and the verifier must fail,
# as must a sweep replaying the damaged shard; then a manifest naming a
# shard outside its directory must be refused.
echo "==> trace corpus CLI drill (record, verify, corrupt, re-verify, replay, escape)"
./target/release/repro trace record --dir "${CORPUS_TMP}" --scale 20000 --nbench 2 >/dev/null
./target/release/repro trace verify --dir "${CORPUS_TMP}" >/dev/null
SHARD=$(ls "${CORPUS_TMP}"/*.rct | head -1)
SHARD_BYTES=$(wc -c <"${SHARD}")
printf '\xff\xff\xff\xff\xff\xff\xff\xff' |
  dd of="${SHARD}" bs=1 seek=$((SHARD_BYTES / 2)) conv=notrunc status=none
if ./target/release/repro trace verify --dir "${CORPUS_TMP}" >/dev/null 2>&1; then
  echo "FAIL: trace verify did not flag a corrupted shard" >&2
  exit 1
fi
# Every table3 cell replays both recorded programs, so each one's replay
# skips the damaged block and fails: exit 1, never a short result.
set +e
timeout --kill-after=30 "${STEP_TIMEOUT}" ./target/release/repro --scale 20000 --nbench 2 \
  --trace-dir "${CORPUS_TMP}" table3 >/dev/null 2>"${CORPUS_TMP}/replay.stderr"
REPLAY_CODE=$?
set -e
if [[ "${REPLAY_CODE}" -ne 1 ]] || ! grep -q "damaged trace" "${CORPUS_TMP}/replay.stderr"; then
  tail -n 20 "${CORPUS_TMP}/replay.stderr" >&2
  echo "FAIL: a sweep over a damaged shard exited ${REPLAY_CODE}, expected 1" >&2
  exit 1
fi
# A manifest may name only files inside its own directory: point its
# entry at the shard moved one level up, and verify must reject the
# manifest (exit 1) instead of reading outside the corpus.
ESCAPE="${CORPUS_TMP}/escape"
./target/release/repro trace record --dir "${ESCAPE}/c" --scale 20000 --nbench 1 >/dev/null 2>&1
mv "${ESCAPE}"/c/*.rct "${ESCAPE}/outside.rct"
sed -i 's|"file": "[^"]*"|"file": "../outside.rct"|' "${ESCAPE}/c/manifest.json"
set +e
ESCAPE_OUT=$(./target/release/repro trace verify --dir "${ESCAPE}/c" 2>&1)
ESCAPE_CODE=$?
set -e
if [[ "${ESCAPE_CODE}" -ne 1 ]] || ! grep -q "corpus manifest" <<<"${ESCAPE_OUT}"; then
  echo "${ESCAPE_OUT}" >&2
  echo "FAIL: trace verify exited ${ESCAPE_CODE} on a manifest naming ../outside.rct" >&2
  exit 1
fi

# End-to-end crash drill through the CLI: cut a finished sweep's journal
# the way a crash mid-append does (five whole lines, then half of the
# sixth) and garble its cells.json; the resume must truncate the torn
# tail, and its artifact must be bit-identical to an uninterrupted
# --jobs 1 run. (table3 is the smallest journaled sweep — table1 is
# analytic and never touches the runner.)
echo "==> crash drill (torn journal tail → resume → diff vs clean run)"
step ./target/release/repro --scale 20000 --nbench 2 --jobs 2 \
  --out "${DRILL_TMP}/crash" table3 >/dev/null
JOURNAL="${DRILL_TMP}/crash/journal.jsonl"
SIXTH=$(sed -n 6p "${JOURNAL}")
head -n 5 "${JOURNAL}" >"${DRILL_TMP}/torn.jsonl"
printf '%s' "${SIXTH:0:${#SIXTH}/2}" >>"${DRILL_TMP}/torn.jsonl"
mv "${DRILL_TMP}/torn.jsonl" "${JOURNAL}"
# The journal is the only store a run resumes from; cells.json is a
# write-only snapshot. Garbage in it must not change the resumed output.
echo 'not a cell cache' >"${DRILL_TMP}/crash/cells.json"
if ! timeout --kill-after=30 "${STEP_TIMEOUT}" ./target/release/repro \
  --scale 20000 --nbench 2 --jobs 2 --out "${DRILL_TMP}/crash" --resume table3 \
  >/dev/null 2>"${DRILL_TMP}/resume.stderr"; then
  tail -n 20 "${DRILL_TMP}/resume.stderr" >&2
  echo "FAIL: resuming the torn journal exited non-zero" >&2
  exit 1
fi
if ! grep -q "torn tail" "${DRILL_TMP}/resume.stderr"; then
  echo "FAIL: resume did not report truncating the torn tail" >&2
  exit 1
fi
step ./target/release/repro --scale 20000 --nbench 2 --jobs 1 \
  --out "${DRILL_TMP}/clean" table3 >/dev/null
if ! cmp "${DRILL_TMP}/crash/cells.json" "${DRILL_TMP}/clean/cells.json"; then
  echo "FAIL: resumed cells.json differs from the uninterrupted run" >&2
  exit 1
fi

echo "All checks passed."

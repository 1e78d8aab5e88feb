#!/usr/bin/env bash
# Alternating A/B timing of one ledger workload: a parent revision
# against the working tree (ledger/README.md § Baselines).
#
# Usage: scripts/bench.sh <parent-rev> <workload> [pairs=10] [seconds=20] [seed=1]
#
# Exports <parent-rev> to target/bench/<commit>/ and builds the ledger
# there and in the working tree, each with its own CARGO_TARGET_DIR.
# Then runs `pairs` pairs of `ledger run`, alternating which side runs
# first (the parent in odd pairs), saves each side's concatenated output to target/bench/out/, and prints
# `ledger compare` plus, for every end-to-end metric of BENCHMARK.json,
# each side's median and quartiles and how many pairs the change won.
# The same table goes to target/bench/out/<workload>-seed<N>-summary.json
# as one JSON object on one line, with both revisions (the working tree
# as `git describe --dirty` names it), `nproc`, `rustc --version` and
# the run's shape, ready to append to results/bench/<workload>.jsonl.
# Exits 1 if any run reports `correct: false` or fails. Timing is
# never a gate here: ledger/README.md § Noise says why.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 2 || $# -gt 5 ]]; then
  echo "usage: scripts/bench.sh <parent-rev> <workload> [pairs=10] [seconds=20] [seed=1]" >&2
  exit 2
fi
REV=$(git rev-parse --verify "$1^{commit}")
WORKLOAD=$2
PAIRS=${3:-10}
SECONDS_PER_RUN=${4:-20}
SEED=${5:-1}

BENCH=target/bench
PARENT_SRC="${BENCH}/${REV}"
OUT="${BENCH}/out"
mkdir -p "${OUT}"
if [[ ! -d "${PARENT_SRC}" ]]; then
  mkdir -p "${PARENT_SRC}.tmp"
  git archive "${REV}" | tar -x -C "${PARENT_SRC}.tmp"
  mv "${PARENT_SRC}.tmp" "${PARENT_SRC}"
fi

PARENT_TARGET="$(pwd)/${PARENT_SRC}/target"
CHANGE_TARGET="$(pwd)/${BENCH}/change-target"
echo "==> building the ledger at ${REV:0:12} and at the working tree"
CARGO_TARGET_DIR="${PARENT_TARGET}" cargo build -q --release \
  --manifest-path "${PARENT_SRC}/ledger/Cargo.toml" --bin ledger
CARGO_TARGET_DIR="${CHANGE_TARGET}" cargo build -q --release \
  --manifest-path ledger/Cargo.toml --bin ledger

TAG="${WORKLOAD}-seed${SEED}"
PARENT_OUT="${OUT}/${TAG}-parent.txt"
CHANGE_OUT="${OUT}/${TAG}-change.txt"
: >"${PARENT_OUT}"
: >"${CHANGE_OUT}"
bad=0
# One `ledger run` of one side, appended to that side's output file.
run_side() {
  local target=$1 out=$2 run
  if ! run=$(CARGO_TARGET_DIR="${target}" "${target}/release/ledger" run \
    --workload "${WORKLOAD}" --seed "${SEED}" --seconds "${SECONDS_PER_RUN}"); then
    bad=1
  fi
  grep -q '"correct":true' <<<"${run}" || bad=1
  printf '%s\n' "${run}" >>"${out}"
}
for ((i = 1; i <= PAIRS; i++)); do
  echo "==> pair ${i}/${PAIRS}: ${WORKLOAD}, seed ${SEED}, ${SECONDS_PER_RUN} s per run"
  if ((i % 2)); then
    run_side "${PARENT_TARGET}" "${PARENT_OUT}"
    run_side "${CHANGE_TARGET}" "${CHANGE_OUT}"
  else
    run_side "${CHANGE_TARGET}" "${CHANGE_OUT}"
    run_side "${PARENT_TARGET}" "${PARENT_OUT}"
  fi
done

"${CHANGE_TARGET}/release/ledger" compare "${PARENT_OUT}" "${CHANGE_OUT}" || true

# `name better` for each end-to-end metric of BENCHMARK.json.
METRICS=$(awk '/"end_to_end"/ { e = 1; next }
  e && /\]/ { e = 0 }
  e && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
  e && /"better"/ { gsub(/[",]/, "", $2); print name, $2 }' BENCHMARK.json)
# A metric's value in each run of one output file, in run order.
values() { awk -v m="$1" '$1 == m { print $2 }' "$2"; }
# `median q1 q3` (linear interpolation) of the values on stdin; nothing
# when there are none.
quartiles() {
  sort -g | awk '{ v[NR] = $1 }
    function q(p,  h, l) { h = 1 + (NR - 1) * p; l = int(h); return v[l] + (h - l) * (v[l + 1] - v[l]) }
    END { if (NR) printf "%.8g %.8g %.8g", q(0.5), q(0.25), q(0.75) }'
}
# `median [q1, q3]` for the table; the JSON object for the summary.
table_cell() {
  if [[ -n "$1" ]]; then printf '%.4g [%.4g, %.4g]' $1; fi
}
json_side() {
  if [[ -n "$1" ]]; then printf '{"median":%s,"q1":%s,"q3":%s}' $1; else printf 'null'; fi
}
SUMMARY="${OUT}/${TAG}-summary.json"
json_metrics=""
printf '\n%-14s %-34s %-34s %s\n' metric "parent median [q1, q3]" "change median [q1, q3]" "change wins"
while read -r metric better; do
  read -r won paired < <(paste <(values "${metric}" "${PARENT_OUT}") <(values "${metric}" "${CHANGE_OUT}") |
    awk -v b="${better}" '$1 != "" && $2 != "" { n++; if ((b == "higher") ? $2 > $1 : $2 < $1) w++ }
      END { printf "%d %d\n", w, n }')
  parent_q=$(values "${metric}" "${PARENT_OUT}" | quartiles)
  change_q=$(values "${metric}" "${CHANGE_OUT}" | quartiles)
  printf '%-14s %-34s %-34s %s\n' "${metric}" "$(table_cell "${parent_q}")" \
    "$(table_cell "${change_q}")" "${won}/${paired}"
  json_metrics+="${json_metrics:+,}\"${metric}\":{\"better\":\"${better}\",\"parent\":$(json_side "${parent_q}"),\"change\":$(json_side "${change_q}"),\"change_wins\":${won},\"pairs\":${paired}}"
done <<<"${METRICS}"
RUSTC=$(rustc --version | sed 's/[\\"]/\\&/g')
printf '{"workload":"%s","seed":%s,"pairs":%s,"seconds":%s,"parent":"%s","change":"%s","nproc":%s,"rustc":"%s","metrics":{%s}}\n' \
  "${WORKLOAD}" "${SEED}" "${PAIRS}" "${SECONDS_PER_RUN}" "${REV}" \
  "$(git describe --always --dirty --abbrev=40)" "$(nproc)" "${RUSTC}" "${json_metrics}" >"${SUMMARY}"
echo "summary: ${SUMMARY}"

if [[ "${bad}" -ne 0 ]]; then
  echo "FAIL: a run failed or reported correct: false (see ${OUT}/${TAG}-*.txt)" >&2
  exit 1
fi

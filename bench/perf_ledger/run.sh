#!/usr/bin/env bash
# Performance ledger of the cuisine classifier (see README.md).
#
# One run of one workload; the last line of stdout is its JSON result:
#   bench/perf_ledger/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The whole ledger, every workload in its own process:
#   bench/perf_ledger/run.sh [--seed S] [--repeat N] [--seconds S] [--trace DIR]
#                            [--smoke] [--out FILE]
#   Runs each workload N times with seeds S, S+1, ...; prints
#   `<workload> <metric> <median> <unit> q1=<..> q3=<..> n=<..>` lines and
#   writes them, the host fingerprint and every run's result as JSON to
#   FILE (default build-ledger/ledger.json). With --trace DIR it adds one
#   traced run per workload, writing its chrome://tracing JSON to DIR.
#   --smoke runs tiny inputs for one second each.
#
# Both forms build the repository and the ledger as Release into
# build-ledger/ first, and exit non-zero if any run or check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-ledger"
workloads=(serve_raw batch_predict featurize_corpus train_table4)

workload="" seed=1 seconds="" trace="" repeat=1 smoke=0 out="$build/ledger.json"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --repeat) repeat="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --smoke) smoke=1; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

# Everything the build and the runs write stays under build-ledger/,
# compiler temporaries included.
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp"
cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target perf_ledger -j "$(nproc)" >&2

# The git revision of the checkout, if it is a repository; never look
# above it.
LEDGER_GIT_REV="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" \
  git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
export LEDGER_GIT_REV

smoke_flag=()
if [[ $smoke -eq 1 ]]; then
  smoke_flag=(--smoke)
  seconds="${seconds:-1}"
fi
seconds="${seconds:-12}"

if [[ -n "$workload" ]]; then
  exec "$build/perf_ledger" --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace "${trace:-0}" --workdir "$build/work" \
    "${smoke_flag[@]}"
fi

# The ledger form takes a directory; 0 and 1 read as in the one-run form.
case "$trace" in
  0) trace="" ;;
  1) trace="$build/trace" ;;
esac
runs="$build/runs"
rm -rf "$runs"
mkdir -p "$runs"
status=0
for w in "${workloads[@]}"; do
  for ((i = 0; i < repeat; i++)); do
    s=$((seed + i))
    "$build/perf_ledger" --workload "$w" --seed "$s" --seconds "$seconds" \
      --trace 0 --workdir "$build/work" "${smoke_flag[@]}" \
      > "$runs/$w.$s.trace0.txt" || status=1
  done
  if [[ -n "$trace" ]]; then
    mkdir -p "$trace"
    "$build/perf_ledger" --workload "$w" --seed "$seed" --seconds "$seconds" \
      --trace 1 --workdir "$trace" "${smoke_flag[@]}" \
      > "$runs/$w.$seed.trace1.txt" || status=1
  fi
done
python3 "$here/summarize.py" --out "$out" "$runs"/*.txt || status=1
exit $status

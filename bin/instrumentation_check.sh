#!/bin/sh
# Sweeps GEMM-16 twice on staged, parallel:2 and (when a C compiler is
# found) native: once plain, once with every introspection surface on
# (--trace --flight --status --progress --runs). Fails unless the
# --stats-out files are byte-identical, the stdout statistics blocks
# match, every artifact was written, and both the status file's final
# state and the run manifest say "completed".
# Usage: sh instrumentation_check.sh path/to/beast.exe
beast=$1
case $beast in /*) ;; *) beast=$(pwd)/$beast ;; esac
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cd "$dir" || exit 1
engines='staged parallel:2'
if command -v "${BEAST_CC:-cc}" >/dev/null 2>&1; then
  engines="$engines native"
fi
fail() {
  echo "instrumentation check, --engine $engine: $*" >&2
  exit 1
}
for engine in $engines; do
  rm -rf plain.* live.* runs
  "$beast" sweep gemm --max-dim 16 --engine "$engine" \
    --stats-out plain.json >plain.out 2>plain.err ||
    fail "plain sweep exited $?: $(cat plain.err)"
  "$beast" sweep gemm --max-dim 16 --engine "$engine" \
    --stats-out live.json --trace live.trace.json --flight live.flight.jsonl \
    --status live.status.json --progress --runs runs >live.out 2>live.err ||
    fail "instrumented sweep exited $?: $(cat live.err)"
  cmp -s plain.json live.json || fail "--stats-out differs"
  # The first stdout line carries the wall time; the rest is the stats.
  tail -n +2 plain.out >plain.stats
  tail -n +2 live.out >live.stats
  cmp -s plain.stats live.stats || fail "stdout statistics differ"
  for f in live.trace.json live.flight.jsonl live.status.json; do
    [ -s "$f" ] || fail "artifact $f missing or empty"
  done
  set -- runs/*.json
  [ $# -eq 1 ] && [ -s "$1" ] || fail "expected one manifest in runs/"
  grep -q '"state": "completed"' live.status.json ||
    fail "status file's final state is not completed"
  grep -q '"status": "completed"' "$1" || fail "manifest is not completed"
done

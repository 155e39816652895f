#!/bin/sh
# Sweeps GEMM-16 twice on staged, parallel:2 and (when a C compiler is
# found) native: once plain, once with every introspection surface on
# (--trace --flight --progress --runs). Fails unless the --stats-out
# files are byte-identical, the stdout statistics blocks match, every
# artifact was written, and the one run record in runs/ says
# "completed". Then prunes a runs directory with `beast runs --prune`:
# --dry-run removes nothing; --keep 1 keeps the newest record and
# removes the older finished and the unreadable ones, but never a
# "running" record whose process is alive; --keep without --prune and
# --prune on a file both exit 2.
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
    --progress --runs runs >live.out 2>live.err ||
    fail "instrumented sweep exited $?: $(cat live.err)"
  cmp -s plain.json live.json || fail "--stats-out differs"
  # The first stdout line carries the wall time; the rest is the stats.
  tail -n +2 plain.out >plain.stats
  tail -n +2 live.out >live.stats
  cmp -s plain.stats live.stats || fail "stdout statistics differ"
  for f in live.trace.json live.flight.jsonl; do
    [ -s "$f" ] || fail "artifact $f missing or empty"
  done
  set -- runs/*.json
  [ $# -eq 1 ] && [ -s "$1" ] || fail "expected one run record in runs/"
  grep -q '"state": "completed"' "$1" || fail "run record is not completed"
done

prune_fail() {
  echo "instrumentation check, runs --prune: $*" >&2
  exit 1
}
rm -rf runs
for id in a b c; do
  "$beast" sweep gemm --max-dim 12 --max-threads 32 --runs runs \
    --run-id "$id" >/dev/null 2>&1 || prune_fail "sweep --run-id $id failed"
done
# A record left "running" by a process that is still alive: this shell.
sed -e 's/"state": "completed"/"state": "running"/' \
  -e "s/\"pid\": [0-9]*/\"pid\": $$/" runs/a.json >runs/live.json
echo 'not a run record' >runs/junk.json
touch -t 202001010000 runs/a.json runs/live.json runs/junk.json
touch -t 202001020000 runs/b.json
touch -t 202001030000 runs/c.json
left() { ls runs | tr '\n' ' '; }
all='a.json b.json c.json junk.json live.json '
"$beast" runs runs --prune --dry-run >/dev/null ||
  prune_fail "--dry-run exited $?"
[ "$(left)" = "$all" ] || prune_fail "--dry-run removed records: $(left)"
"$beast" runs runs --prune --keep 1 >/dev/null ||
  prune_fail "--keep 1 exited $?"
[ "$(left)" = 'c.json live.json ' ] ||
  prune_fail "--keep 1 left $(left), expected c.json live.json"
"$beast" runs runs --keep 1 >/dev/null 2>&1
code=$?
[ "$code" -eq 2 ] || prune_fail "--keep without --prune exited $code"
"$beast" runs runs/c.json --prune >/dev/null 2>&1
code=$?
[ "$code" -eq 2 ] || prune_fail "--prune on a file exited $code"

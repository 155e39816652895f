#!/bin/sh
# Pins the strength of the bench regression gate (main.exe --compare-only):
# every baseline passes against itself, and a current file that changes
# one exact field (survivors, space) or sets any must-be-true field to
# false fails with exit 1.
# Usage: sh gate_check.sh path/to/main.exe baseline_*.json
bench=$1
shift
case $bench in */*) ;; *) bench=./$bench ;; esac
tmp=$(mktemp -d "${TMPDIR:-/tmp}/gate_check.XXXXXX") || exit 1
trap 'rm -rf "$tmp"' EXIT
status=0
gate() {
  "$bench" --baseline "$1" --current "$2" --compare-only >/dev/null 2>&1
}
expect_fail() {
  gate "$1" "$2"
  code=$?
  if [ "$code" -ne 1 ]; then
    echo "$1: $3 passed the gate (exit $code)" >&2
    status=1
  fi
}
for base in "$@"; do
  if ! gate "$base" "$base"; then
    echo "$base: fails against itself" >&2
    status=1
  fi
  sed 's/"survivors": \([0-9]*\)/"survivors": 1\1/' "$base" >"$tmp/cur.json"
  expect_fail "$base" "$tmp/cur.json" "a changed survivors count"
  sed 's/"space": "/"space": "x/' "$base" >"$tmp/cur.json"
  expect_fail "$base" "$tmp/cur.json" "a changed space"
  for line in $(grep -n '": true' "$base" | cut -d: -f1); do
    sed "${line}s/true/false/" "$base" >"$tmp/cur.json"
    field=$(sed -n "${line}p" "$base" | tr -d ' ,')
    expect_fail "$base" "$tmp/cur.json" "$field set to false"
  done
done
exit $status

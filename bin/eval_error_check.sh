#!/bin/sh
# Sweeps a space whose range step evaluates to 0 on every in-process
# engine, and on the native engine when a C compiler is found, and fails
# unless each exits 2 with exactly one stderr line naming the loop,
# never an exception trace. With a compiler it also asks the native
# engine for --explain-out, which it cannot honor: one stderr line,
# exit 2, and no file written.
# Usage: sh eval_error_check.sh path/to/beast.exe zero_step.beast
beast=$1
space=$2
case $beast in /*) ;; *) beast=$(pwd)/$beast ;; esac
want='beast: y: zero range step'
engines='interp-naive interp vm staged parallel:2'
if command -v "${BEAST_CC:-cc}" >/dev/null 2>&1; then
  engines="$engines native native:2"
fi
for engine in $engines; do
  err=$("$beast" sweep "$space" --engine "$engine" 2>&1 >/dev/null)
  code=$?
  if [ "$code" -ne 2 ] || [ "$err" != "$want" ]; then
    echo "sweep --engine $engine: exit $code, stderr: $err" >&2
    echo "expected exit 2 and the single line: $want" >&2
    exit 1
  fi
done
case $engines in
*native*)
  dir=$(mktemp -d)
  err=$(cd "$dir" && "$beast" sweep gemm --max-dim 16 --engine native \
    --stats-out S --explain-out F 2>&1 >/dev/null)
  code=$?
  lines=$(printf '%s\n' "$err" | wc -l)
  written=$(ls -A "$dir")
  rm -rf "$dir"
  case $err in beast:*) ok=1 ;; *) ok=0 ;; esac
  if [ "$code" -ne 2 ] || [ "$lines" -ne 1 ] || [ "$ok" -ne 1 ] ||
    [ -n "$written" ]; then
    echo "sweep --engine native --explain-out: exit $code, stderr: $err" >&2
    echo "files written: ${written:-none}" >&2
    echo "expected exit 2, one 'beast: ...' line and no files" >&2
    exit 1
  fi
  ;;
esac

#!/bin/sh
# Sweeps a space whose range step evaluates to 0 on every in-process
# engine, and on the native engine when a C compiler is found, and fails
# unless each exits 2 with exactly one stderr line naming the loop,
# never an exception trace; a space that divides by zero must give every
# engine the one line "beast: division by zero" and exit 2 (C leaves the
# division undefined, so native must check it). With a compiler it also asks the native
# engine for --explain-out, which it cannot honor: one stderr line,
# exit 2, and no file written. Last, an output path in a missing
# directory (merge --stats-out; sweep --stats-out, --explain-out,
# --flight, --checkpoint, --trace and --metrics-out; funnel --svg) or a
# runs directory under a regular file (sweep --runs) is one stderr line
# naming that path, exit 1 and no file written; sweep and funnel refuse
# it before they enumerate, so they print no statistics, and a run
# refused for its runs directory leaves existing --trace and
# --metrics-out files byte-identical. A write that fails part way (a
# zero file-size limit with SIGXFSZ ignored, so write(2) fails with
# EFBIG: merge and sweep --stats-out, funnel --svg, a JSONL --trace,
# --metrics-out) is one stderr line naming the file, exit 1, and the
# previous file kept, with no temp file left. The removed --status
# option is one stderr line naming --runs DIR and exit 2, while
# --status-every and its prefix --status-e still parse. And `count`
# and `count --bound` over a range too long to walk (2^62 values) are
# one stderr line naming the file, the iterator and its trip count,
# and exit 2; `count`, `count --bound` and `sample` over a space of
# 2^65 points, more than max_int, are one stderr line naming the file
# and exit 2. A bad `tune --retries`, `--backoff` or `--timeout`,
# `occupancy --device` or `search --budget` is one stderr line naming
# it, exit 2 and no output. Where /dev/full exists, a stdout that takes
# no output makes every command that prints (count, sample, explain,
# sweep, enumerate, engines, export, dot, codegen, occupancy, tune,
# search, funnel, merge, report, runs, top --once, diff, archive list,
# archive show, trends) print one "beast: ..." line and exit 1, with
# no second report from the flush at exit.
# Usage: sh eval_error_check.sh path/to/beast.exe zero_step.beast
beast=$1
space=$2
case $beast in /*) ;; *) beast=$(pwd)/$beast ;; esac
engines='interp-naive interp vm staged parallel:2'
if command -v "${BEAST_CC:-cc}" >/dev/null 2>&1; then
  engines="$engines native native:2"
fi
# refused SPACE LINE: every engine must exit 2 with exactly LINE on stderr
refused() {
  for engine in $engines; do
    err=$("$beast" sweep "$1" --engine "$engine" 2>&1 >/dev/null)
    code=$?
    if [ "$code" -ne 2 ] || [ "$err" != "$2" ]; then
      echo "sweep $1 --engine $engine: exit $code, stderr: $err" >&2
      echo "expected exit 2 and the single line: $2" >&2
      exit 1
    fi
  done
}
refused "$space" 'beast: y: zero range step'
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

dir=$(mktemp -d)
long=$dir/long_range.beast
printf 'space long_range\niter x = range(0, 4611686018427387903)\niter y = range(0, 3)\n' \
  >"$long"
for bound in '' --bound; do
  err=$("$beast" count "$long" $bound 2>&1 >/dev/null)
  code=$?
  lines=$(printf '%s\n' "$err" | wc -l)
  case $err in "$long: "*"iterator x"*4611686018427387903*) ok=1 ;; *) ok=0 ;; esac
  if [ "$code" -ne 2 ] || [ "$lines" -ne 1 ] || [ "$ok" -ne 1 ]; then
    echo "count $long $bound: exit $code, stderr: $err" >&2
    echo "expected exit 2 and one line naming the file, x and its trip count" >&2
    rm -rf "$dir"
    exit 1
  fi
done
rm -f "$long"

# Five range(0, 8192) iterators hold 2^65 points, past max_int: count,
# count --bound and sample refuse the set instead of wrapping its size.
huge=$dir/huge.beast
printf 'space huge\n' >"$huge"
for v in a b c d e; do printf 'iter %s = range(0, 8192)\n' "$v" >>"$huge"; done
for cmd in count 'count --bound' sample; do
  err=$("$beast" $cmd "$huge" 2>&1 >/dev/null)
  code=$?
  lines=$(printf '%s\n' "$err" | wc -l)
  case $err in "$huge: "*max_int*) ok=1 ;; *) ok=0 ;; esac
  if [ "$code" -ne 2 ] || [ "$lines" -ne 1 ] || [ "$ok" -ne 1 ]; then
    echo "$cmd $huge: exit $code, stderr: $err" >&2
    echo "expected exit 2 and one line naming the file and max_int" >&2
    rm -rf "$dir"
    exit 1
  fi
done
rm -f "$huge"

# usage PATTERN ARGS...: beast ARGS must print nothing on stdout and
# exactly one stderr line matching PATTERN, and exit 2, before any work.
usage() {
  pattern=$1
  shift
  out=$("$beast" "$@" 2>"$dir/err")
  code=$?
  err=$(cat "$dir/err")
  rm -f "$dir/err"
  lines=$(printf '%s\n' "$err" | wc -l)
  case $err in $pattern) ok=1 ;; *) ok=0 ;; esac
  if [ "$code" -ne 2 ] || [ "$lines" -ne 1 ] || [ "$ok" -ne 1 ] ||
    [ -n "$out" ]; then
    echo "$*: exit $code, stderr: $err" >&2
    echo "expected exit 2, no output and one stderr line matching $pattern" >&2
    rm -rf "$dir"
    exit 1
  fi
}
usage '*--retries*-1*' tune fft --retries=-1
usage '*--backoff*-1*' tune fft --backoff=-1
usage '*--timeout*-1*' tune fft --timeout=-1
usage '*--timeout*0*' tune fft --timeout=0
usage 'unknown device foo (try: *)' occupancy --device foo 256 32 0
usage '*--budget*0*' search gemm --budget=0

divzero=$dir/div_zero.beast
printf 'space div_zero\niter x = range(0, 3)\niter y = range(0, 2)\nderived q = x / y\nconstraint hard big = q > 100\n' \
  >"$divzero"
(refused "$divzero" 'beast: division by zero') || { rm -rf "$dir"; exit 1; }
rm -f "$divzero"

"$beast" sweep gemm --max-dim 12 --max-threads 32 --stats-out "$dir/S" \
  >/dev/null 2>&1 || { echo "sweep --stats-out failed" >&2; exit 1; }
# unwritable PATH ARGS...: beast ARGS must refuse PATH
unwritable() {
  path=$1
  shift
  out=$("$beast" "$@" 2>"$dir/err")
  code=$?
  err=$(cat "$dir/err")
  rm -f "$dir/err"
  lines=$(printf '%s\n' "$err" | wc -l)
  written=$(ls -A "$dir")
  case $err in "beast: $path: "*) ok=1 ;; *) ok=0 ;; esac
  case $1 in sweep | funnel) [ -z "$out" ] || ok=0 ;; esac
  if [ "$code" -ne 1 ] || [ "$lines" -ne 1 ] || [ "$ok" -ne 1 ] ||
    [ "$written" != S ]; then
    echo "$*: exit $code, stderr: $err" >&2
    echo "files: $written" >&2
    echo "expected exit 1, one 'beast: $path: ...' line, no" >&2
    echo "statistics from a sweep or funnel and no file but S" >&2
    rm -rf "$dir"
    exit 1
  fi
}
m=$dir/missing
unwritable "$m/m.json" merge "$dir/S" --stats-out "$m/m.json"
unwritable "$m/x.json" sweep gemm --max-dim 16 --stats-out "$m/x.json"
unwritable "$m/x.json" sweep gemm --max-dim 16 --explain-out "$m/x.json"
unwritable "$m/f.jsonl" sweep gemm --max-dim 12 --max-threads 32 \
  --flight "$m/f.jsonl"
unwritable "$m/c.json" sweep gemm --max-dim 12 --max-threads 32 \
  --engine parallel:2 --checkpoint "$m/c.json"
unwritable "$dir/S/runs" sweep gemm --max-dim 12 --max-threads 32 \
  --runs "$dir/S/runs"
unwritable "$m/t.json" sweep gemm --max-dim 12 --max-threads 32 \
  --trace "$m/t.json"
unwritable "$m/m.prom" sweep gemm --max-dim 12 --max-threads 32 \
  --metrics-out "$m/m.prom"
unwritable "$m/f.svg" funnel conv2d --svg "$m/f.svg"
# A run refused for its runs directory leaves the files it would have
# written untouched.
keep=$(mktemp -d)
cp "$dir/S" "$keep/t.json"
cp "$dir/S" "$keep/m.prom"
unwritable "$dir/S/runs" sweep gemm --max-dim 12 --max-threads 32 \
  --trace "$keep/t.json" --metrics-out "$keep/m.prom" --runs "$dir/S/runs"
if ! cmp -s "$dir/S" "$keep/t.json" || ! cmp -s "$dir/S" "$keep/m.prom"; then
  echo "sweep refused for --runs changed its --trace or --metrics-out file" >&2
  rm -rf "$dir" "$keep"
  exit 1
fi
rm -rf "$keep"
cp "$dir/S" "$dir/T"
# failing_write ARGS...: beast ARGS must fail to write T and keep it.
# Only beast runs under the limit: its stdout is a pipe to a reader
# outside it, so the one failing write is T's even where /dev/null is
# a regular file. Its stderr and then "exit CODE" come back on fd 3.
failing_write() {
  res=$( { { (ulimit -f 0 && trap '' XFSZ && exec "$beast" "$@") 2>&3
    echo "exit $?" >&3; } | cat >/dev/null; } 3>&1)
  code=${res##*exit }
  err=$(printf '%s' "${res%exit *}")
  lines=$(printf '%s\n' "$err" | wc -l)
  written=$(ls -A "$dir" | tr '\n' ' ')
  case $err in "beast: $dir/T: "*) ok=1 ;; *) ok=0 ;; esac
  if [ "$code" -ne 1 ] || [ "$lines" -ne 1 ] || [ "$ok" -ne 1 ] ||
    [ "$written" != "S T " ] || ! cmp -s "$dir/S" "$dir/T"; then
    echo "$* under a zero file-size limit: exit $code, stderr: $err" >&2
    echo "files: $written" >&2
    echo "expected exit 1, one 'beast: $dir/T: ...' line, T unchanged" >&2
    echo "and no temp file" >&2
    rm -rf "$dir"
    exit 1
  fi
}
failing_write merge "$dir/S" --stats-out "$dir/T"
failing_write sweep gemm --max-dim 12 --max-threads 32 --stats-out "$dir/T"
failing_write funnel conv2d --svg "$dir/T"
failing_write sweep gemm --max-dim 12 --max-threads 32 --trace "$dir/T" \
  --trace-format jsonl
failing_write sweep gemm --max-dim 12 --max-threads 32 --metrics-out "$dir/T"
rm -rf "$dir"

# --status FILE was replaced by --runs DIR: it is refused by name, not
# read as a prefix of --status-every.
for value in 5 s.json; do
  err=$("$beast" sweep gemm --max-dim 12 --max-threads 32 --status "$value" \
    2>&1 >/dev/null)
  code=$?
  lines=$(printf '%s\n' "$err" | wc -l)
  case $err in beast:*"--runs DIR"*) ok=1 ;; *) ok=0 ;; esac
  if [ "$code" -ne 2 ] || [ "$lines" -ne 1 ] || [ "$ok" -ne 1 ]; then
    echo "sweep --status $value: exit $code, stderr: $err" >&2
    echo "expected exit 2 and one 'beast: ...' line naming --runs DIR" >&2
    exit 1
  fi
done
for opt in --status-every --status-e; do
  "$beast" sweep gemm --max-dim 12 --max-threads 32 "$opt" 2 >/dev/null ||
    { echo "sweep $opt 2 failed" >&2; exit 1; }
done

if [ -w /dev/full ]; then
  dir=$(mktemp -d)
  g='gemm --max-dim 12 --max-threads 32'
  # Fixtures: an explain file, a run record, two archived runs, a
  # metrics file and two shards.
  { "$beast" sweep $g --explain-out "$dir/E" --runs "$dir/runs" \
      --archive --archive-dir "$dir/A" &&
    "$beast" sweep $g --engine vm --metrics --stats-out "$dir/M" \
      --archive --archive-dir "$dir/A" &&
    "$beast" sweep $g --shard 0/2 --stats-out "$dir/S0" &&
    "$beast" sweep $g --shard 1/2 --stats-out "$dir/S1"; } >/dev/null 2>&1 ||
    { echo "the /dev/full fixtures failed" >&2; rm -rf "$dir"; exit 1; }
  set -- $(ls "$dir/A" | sed 's/\.json$//')
  record=$(ls "$dir"/runs/*.json)
  for cmd in 'count synth' 'sample synth -n 3' "explain $dir/E" "sweep $g" \
    "enumerate $g" engines "export $g" "dot $g" "codegen $g" \
    'occupancy 256 32 4096' "tune $g" "search $g --budget 20" "funnel $g" \
    "merge $dir/S0 $dir/S1" "report $dir/M" "runs $dir/runs" \
    "top --once $record" "diff --dir $dir/A $1 $2" \
    "archive list --dir $dir/A" "archive show --dir $dir/A $1" \
    "trends --dir $dir/A"; do
    err=$("$beast" $cmd 2>&1 >/dev/full)
    code=$?
    lines=$(printf '%s\n' "$err" | wc -l)
    case $err in "beast: "*) ok=1 ;; *) ok=0 ;; esac
    if [ "$code" -ne 1 ] || [ "$lines" -ne 1 ] || [ "$ok" -ne 1 ]; then
      echo "$cmd >/dev/full: exit $code, stderr: $err" >&2
      echo "expected exit 1 and one 'beast: ...' line" >&2
      rm -rf "$dir"
      exit 1
    fi
  done
  rm -rf "$dir"
fi

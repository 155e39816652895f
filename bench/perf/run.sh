#!/bin/sh
# Builds the beast CLI and the benchmark from this checkout, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   sh bench/perf/run.sh --workload gemm-ocaml --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr, so the last line of stdout is the result.
set -eu
if [ ! -f dune-project ] || [ ! -f bin/beast.ml ] || [ ! -d lib ]; then
  echo "bench/perf/run.sh: run from the root of a beast source checkout" >&2
  exit 2
fi
export DUNE_CACHE=disabled
mkdir -p _perf/tmp
TMPDIR="$PWD/_perf/tmp"
export TMPDIR
dune build --root . bin/beast.exe bench/perf/perf.exe bench/perf/spawner 1>&2
exec ./_build/default/bench/perf/perf.exe "$@"

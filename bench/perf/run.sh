#!/usr/bin/env bash
# Build the host-time benchmark from source and run it.  Run from the
# repository root; every argument goes to perf.exe, e.g.
#   bash bench/perf/run.sh --workload migrate --seed 1 --seconds 10 --trace 0
# Build output goes to stderr, so the last line of stdout is the result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f bench/perf/dune ]; then
  echo "run.sh: run from the repository root (needs dune-project, lib/ and bench/perf/)" >&2
  exit 2
fi

# no shared build cache: the build reads and writes only this checkout
export DUNE_CACHE=disabled
dune build --root . ./bench/perf/perf.exe 1>&2
exec ./_build/default/bench/perf/perf.exe "$@"

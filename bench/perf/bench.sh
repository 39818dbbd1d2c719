#!/usr/bin/env bash
# Entry point named in BENCHMARK.json: builds perf.exe from the sources of
# this checkout, then runs one workload with the arguments given, e.g.
#   bash bench/perf/bench.sh --workload batch --seed 3 --seconds 15 --trace 0
# The build's output goes to stderr, so the last line of stdout is the
# result object perf.exe prints.
set -euo pipefail
cd "$(dirname "$0")/../.."
# the shared dune cache lives outside the checkout; build without it
DUNE_CACHE=disabled dune build --root . bench/perf/perf.exe 1>&2
exec ./_build/default/bench/perf/perf.exe run "$@"

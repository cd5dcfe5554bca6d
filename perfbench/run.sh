#!/bin/sh
# Build the benchmark from source in this checkout, then run it:
#   sh perfbench/run.sh --workload suite|fleet|replay --seed N --seconds S --trace 0|1
# Build output goes to _build/ (dune's own cache stays off, so nothing is
# written outside the checkout); run artifacts go to _perfbench/.
set -e
DUNE_CACHE=disabled dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"

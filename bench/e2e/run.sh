#!/bin/sh
# Build the benchmark from source in this checkout, then run it with the
# given arguments (see README.md).  Run from the root of the checkout:
#
#   sh bench/e2e/run.sh --workload lenet5-infer --seed 1 --seconds 12 --trace 0
#
# dune's shared cache is disabled so the build reads and writes only
# inside the checkout.
set -e
if [ ! -f dune-project ]; then
  echo "run.sh: no dune-project here; run from the root of a full checkout" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . --display quiet ./bench/e2e/e2e.exe >&2
exec ./_build/default/bench/e2e/e2e.exe "$@"

#!/usr/bin/env bash
# Build the end-to-end benchmark from source and run it with the given
# arguments.  Run from the repository root:
#   bash bench/e2e/run.sh --workload table2-mixed --seed 1 --seconds 25 --trace 0
set -eu
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: run from the root of a full checkout (dune-project and lib/ not found)" >&2
  exit 2
fi
# The build stays inside the checkout: no shared dune cache.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/e2e/e2e.exe >&2
exec ./_build/default/bench/e2e/e2e.exe "$@"

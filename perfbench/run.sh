#!/usr/bin/env bash
# Builds the benchmark and the daemon CLI from source in this checkout,
# then runs one benchmark run:
#   bash perfbench/run.sh --workload dse --seed 1 --seconds 15 --trace 0
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from the root of a full checkout" >&2
  exit 2
fi
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
DUNE_CACHE=disabled dune build --root . --display quiet \
  ./perfbench/main/main.exe ./bin/hydra_experiments.exe 1>&2
exec ./_build/default/perfbench/main/main.exe "$@"

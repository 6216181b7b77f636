#!/usr/bin/env bash
# Build the convergence benchmark from source and run it:
#   bash convbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "convbench: $root is not a nerpa source tree (no dune-project or lib/)" >&2
  exit 2
fi
# keep every build artefact inside the tree
export DUNE_CACHE=disabled
dune build --root . ./convbench/main.exe 1>&2
# One OCaml domain runs one thread at a time, so pinning the process to
# one CPU costs no parallelism; it keeps the socket workload's thread
# hand-offs on one core, which removes most of the run-to-run spread.
if command -v taskset >/dev/null 2>&1; then
  cpu="$(taskset -pc $$ 2>/dev/null | sed 's/.*: //' | cut -d, -f1 | cut -d- -f1)"
  if [ -n "$cpu" ]; then
    exec taskset -c "$cpu" ./_build/default/convbench/main.exe "$@"
  fi
fi
exec ./_build/default/convbench/main.exe "$@"

#!/usr/bin/env bash
# Build the benchmark from source in the current checkout, then run it.
# Usage (from the repository root):
#   bash tawabench/run.sh --workload sweep|compile|graph|all --seed N \
#        --seconds S --trace 0|1
# Build output goes to stderr; the last line of stdout is the result JSON.
set -euo pipefail
dune build --root . --display quiet ./tawabench/main.exe ./tawabench/calib.exe 1>&2
commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
exec ./_build/default/tawabench/main.exe --commit "$commit" "$@"

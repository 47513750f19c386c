#!/bin/sh
# Build the benchmark and the fpgapart CLI from source, then run the
# benchmark with the given arguments:
#
#   sh perfbench/run.sh --workload paper-xc3000 --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The build stays inside the tree
# (_build/), with dune's shared cache turned off; build output goes to
# stderr so the last line of stdout is the benchmark's JSON result.
set -eu
DUNE_CACHE=disabled
export DUNE_CACHE
dune build --root . ./perfbench/main.exe ./bin/fpgapart.exe 1>&2
exec ./_build/default/perfbench/main.exe --fpgapart ./_build/default/bin/fpgapart.exe "$@"

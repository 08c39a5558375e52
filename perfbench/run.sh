#!/bin/sh
# Build the benchmark from source in this checkout, then run one
# workload:
#   sh perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Run from the root of the checkout.  The last line of standard output
# is the JSON result; the exit status is nonzero if the build failed or
# any answer was wrong.
set -eu
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"

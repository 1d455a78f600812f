#!/usr/bin/env bash
# Build the benchmark suite from this source checkout and run one
# measurement; the arguments go to `suite.exe bench`:
#
#   bash bench/suite/bench.sh --workload ior-strided --seed 1 --seconds 20 --trace 0
#
# The last line of stdout is the JSON result.  Build output goes to stderr.
set -eu
cd "$(dirname "$0")/../.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "bench.sh: $(pwd) is not a source checkout of this repository" >&2
  exit 2
fi
dune build --root . --cache=disabled --display quiet ./bench/suite/suite.exe >&2
exec ./_build/default/bench/suite/suite.exe bench "$@"

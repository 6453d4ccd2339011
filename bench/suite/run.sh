#!/usr/bin/env bash
# Build the benchmark harness and the CLI it drives, then run the
# harness with the given arguments.  Run from the repository root:
#
#   bash bench/suite/run.sh --workload sweep-mc --seed 1 --seconds 10 --trace 0
#   bash bench/suite/run.sh compare BASE.json NEW.json [BASE.json NEW.json ...]
#
# Build output goes to stderr, so the harness's JSON summary stays the
# last line of standard output.
set -euo pipefail

if [[ ! -f dune-project || ! -d lib || ! -f bench/suite/dune ]]; then
  echo "bench/suite/run.sh: run from the repository root (dune-project, lib/ and bench/suite/ must be present)" >&2
  exit 2
fi

dune build --root . ./bench/suite/main.exe ./bin/spv_cli.exe 1>&2
exec ./_build/default/bench/suite/main.exe "$@"

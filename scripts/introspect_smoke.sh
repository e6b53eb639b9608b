#!/usr/bin/env sh
# Record a fully introspected trace of every engine and check that
# `abonn_trace summary` reproduces what the engine itself reported.
#
#   scripts/introspect_smoke.sh [OUT_DIR]
#
# For each of bab-baseline, bestfirst, inputsplit and abonn, runs
# abonn_cli on one mnist_l2 instance with --introspect and a trace file
# (OUT_DIR/intro-ENGINE.jsonl, OUT_DIR defaults to the current
# directory).  The summary of each trace must print no MISMATCH, name
# the engine, and show the verdict, AppVer calls, tree nodes and max
# depth abonn_cli printed.  Exits non-zero on the first disagreement.
# Runs the binaries through `dune exec` from the repository root.

set -eu

out=$(cd "${1:-.}" && pwd)
cd "$(dirname "$0")/.."

for engine in bab-baseline bestfirst inputsplit abonn; do
  trace="$out/intro-$engine.jsonl"
  cli=$(dune exec bin/abonn_cli.exe -- \
    --model mnist_l2 --index 3 --factor 1.325 --calls 700 \
    --domains 1 --no-flight --trace "$trace" --introspect --engine "$engine")
  echo "$cli"
  summary=$(dune exec bin/abonn_trace.exe -- summary "$trace")
  echo "$summary"
  if echo "$summary" | grep -q MISMATCH; then
    echo "$engine: summary reports a MISMATCH"
    exit 1
  fi
  # "verdict: V", "appver calls: C", "tree nodes:   N (max depth D)"
  expected=$(echo "$cli" | awk -v e="$engine" '
    /^verdict:/ { v = $2 }
    /^appver calls:/ { c = $3 }
    /^tree nodes:/ { n = $3; d = $6; sub(/\)/, "", d) }
    END { print e, v, c, n, d }')
  # summary row: # engine instance verdict calls nodes depth wall events
  got=$(echo "$summary" | awk '$1 == "1" { print $2, $4, $5, $6, $7 }')
  if [ "$got" != "$expected" ]; then
    echo "$engine: summary row '$got' does not match the engine's '$expected'"
    exit 1
  fi
done

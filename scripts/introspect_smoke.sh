#!/usr/bin/env sh
# Record a fully introspected trace of every engine and check that
# `abonn_trace summary` reproduces what the engine itself reported.
#
#   scripts/introspect_smoke.sh [OUT_DIR]
#
# For each of bab-baseline, bestfirst, inputsplit and abonn, runs
# abonn_cli on one mnist_l2 instance with --introspect and a trace file
# (OUT_DIR/intro-ENGINE.jsonl, OUT_DIR defaults to the current
# directory).  One more case runs bestfirst on the LP AppVer at a small
# budget (OUT_DIR/intro-bestfirst-lp.jsonl).  The summary of each trace
# must print no MISMATCH, name the engine, and show the verdict, AppVer
# calls, tree nodes and max depth abonn_cli printed.  A last bestfirst
# run on two domains (OUT_DIR/intro-bestfirst-d2.jsonl) skips that
# comparison: its interleaving depends on scheduling.  On every trace,
# `phases`, `hotspots --flame`, `explain` and `export --perfetto` must
# exit 0 and print something; on the abonn trace, `explain` must report
# wasted work and `hotspots` must rank its rows.  First of all, an
# unknown --appver or --engine name must be a usage error (exit 124).
# Exits non-zero on the first failure.  Runs the binaries through `dune exec` from the
# repository root.

set -eu

out=$(cd "${1:-.}" && pwd)
cd "$(dirname "$0")/.."

# check NAME ENGINE CALLS [ABONN_CLI_ARGS...]
check() {
  name=$1 engine=$2 calls=$3
  shift 3
  trace="$out/intro-$name.jsonl"
  cli=$(dune exec bin/abonn_cli.exe -- \
    --model mnist_l2 --index 3 --factor 1.325 --calls "$calls" \
    --domains 1 --no-flight --trace "$trace" --introspect --engine "$engine" "$@")
  echo "$cli"
  summary=$(dune exec bin/abonn_trace.exe -- summary "$trace")
  echo "$summary"
  if echo "$summary" | grep -q MISMATCH; then
    echo "$name: summary reports a MISMATCH"
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
    echo "$name: summary row '$got' does not match the engine's '$expected'"
    exit 1
  fi
}

# tools NAME: the trace tools built on the shared JSON codec and span
# model run on OUT_DIR/intro-NAME.jsonl
tools() {
  trace="$out/intro-$1.jsonl"
  for cmd in phases "hotspots --flame" explain "export --perfetto"; do
    # $cmd is split into subcommand and flag on purpose
    # shellcheck disable=SC2086
    if ! text=$(dune exec bin/abonn_trace.exe -- $cmd "$trace"); then
      echo "$1: abonn_trace $cmd failed"
      exit 1
    fi
    if [ -z "$text" ]; then
      echo "$1: abonn_trace $cmd printed nothing"
      exit 1
    fi
  done
}

# unknown names are usage errors, never a silent fallback
for args in "--appver symbolic" "--engine bogus"; do
  # $args is split into option and value on purpose
  # shellcheck disable=SC2086
  if dune exec bin/abonn_cli.exe -- --no-flight $args >/dev/null 2>&1; then
    code=0
  else
    code=$?
  fi
  if [ "$code" -ne 124 ]; then
    echo "abonn_cli $args exited $code, expected 124"
    exit 1
  fi
done

for engine in bab-baseline bestfirst inputsplit abonn; do
  check "$engine" "$engine" 700
  tools "$engine"
done
check bestfirst-lp bestfirst 20 --appver lp
tools bestfirst-lp

dune exec bin/abonn_cli.exe -- \
  --model mnist_l2 --index 3 --factor 1.325 --calls 700 \
  --domains 2 --no-flight --trace "$out/intro-bestfirst-d2.jsonl" --introspect \
  --engine bestfirst
tools bestfirst-d2

abonn="$out/intro-abonn.jsonl"
if ! dune exec bin/abonn_trace.exe -- explain "$abonn" | grep -q "wasted work"; then
  echo "abonn: explain reports no wasted work"
  exit 1
fi
if ! dune exec bin/abonn_trace.exe -- hotspots "$abonn" | grep -q "rank"; then
  echo "abonn: hotspots printed no ranked table"
  exit 1
fi

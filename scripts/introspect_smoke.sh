#!/usr/bin/env sh
# Record a fully introspected trace of every engine and check that
# every trace reader reproduces what the engine itself reported.
#
#   scripts/introspect_smoke.sh [OUT_DIR]
#
# For each of bab-baseline, bestfirst, inputsplit, abonn and ab-crown,
# runs abonn_cli on one mnist_l2 instance with --introspect and a trace
# file (OUT_DIR/intro-ENGINE.jsonl, OUT_DIR defaults to the current
# directory); ab-crown runs at a smaller radius, where its attack fails
# and it branches.  Two more cases run bestfirst at a small budget, on
# the LP AppVer (OUT_DIR/intro-bestfirst-lp.jsonl) and under LP triage
# with every node escalated (OUT_DIR/intro-bestfirst-triage.jsonl),
# where each call emits two bound_computed events.  The summary of each
# trace must print no MISMATCH, name the engine, and show the verdict,
# AppVer calls, tree nodes and max depth abonn_cli printed; `watch
# --once`, the last `curve` row, `tree`'s header and `explain` must
# show the same calls, nodes and max depth wherever they print them,
# and `watch` the frontier of the last `curve` row.  A last bestfirst
# run on two domains (OUT_DIR/intro-bestfirst-d2.jsonl) skips those
# comparisons: its interleaving depends on scheduling.  On every trace,
# `phases`, `hotspots --flame`, `explain` and `export --perfetto` must
# exit 0 and print something; on the abonn trace, `explain` must report
# wasted work and `hotspots` must rank its rows.  First of all, an
# unknown --appver or --engine name must be a usage error (exit 124).
# Exits non-zero on the first failure.  Runs the binaries through `dune exec` from the
# repository root.

set -eu

out=$(cd "${1:-.}" && pwd)
cd "$(dirname "$0")/.."

# same NAME WHAT WANT GOT: the reader WHAT printed what abonn_cli did
same() {
  if [ "$3" != "$4" ]; then
    echo "$1: $2 printed '$4' where the engine reported '$3'"
    exit 1
  fi
}

# check NAME ENGINE CALLS FACTOR [ABONN_CLI_ARGS...]
check() {
  name=$1 engine=$2 calls=$3 factor=$4
  shift 4
  trace="$out/intro-$name.jsonl"
  cli=$(dune exec bin/abonn_cli.exe -- \
    --model mnist_l2 --index 3 --factor "$factor" --calls "$calls" \
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
  # the other readers, as "calls nodes depth" (or the part they print)
  want=$(echo "$expected" | awk '{ print $3, $4, $5 }')
  # "nodes N   calls C   depth D   frontier F   R nodes/s"
  watch=$(dune exec bin/abonn_trace.exe -- watch --once "$trace" |
    awk '$1 == "nodes" && $3 == "calls" { print $4, $2, $6, $8 }')
  # t,seq,calls,nodes,max_depth,frontier,best_reward
  curve=$(dune exec bin/abonn_trace.exe -- curve "$trace" |
    tail -n 1 | awk -F, '{ print $3, $4, $5, $6 }')
  same "$name" "watch --once" "$want" "${watch% *}"
  same "$name" "curve (last row)" "$want" "${curve% *}"
  same "$name" "watch --once frontier" "${curve##* }" "${watch##* }"
  # "nodes: N (interior I)  max depth: D"
  tree=$(dune exec bin/abonn_trace.exe -- tree "$trace" | head -n 1 |
    awk '{ print $2, $NF }')
  same "$name" "tree" "${want#* }" "$tree"
  explain=$(dune exec bin/abonn_trace.exe -- explain "$trace" |
    awk '/tree nodes/ { print $3 }')
  same "$name" "explain" "$(echo "$want" | awk '{ print $2 }')" "$explain"
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

for engine in bab-baseline bestfirst inputsplit abonn ab-crown; do
  # ab-crown's attack falsifies the 1.325 instance before any bound;
  # at 1.1 it misses and the best-first search verifies
  factor=1.325
  if [ "$engine" = ab-crown ]; then factor=1.1; fi
  check "$engine" "$engine" 700 "$factor"
  tools "$engine"
done
check bestfirst-lp bestfirst 20 1.325 --appver lp
tools bestfirst-lp
check bestfirst-triage bestfirst 20 1.325 --lp-triage lb=10
tools bestfirst-triage

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

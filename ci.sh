#!/bin/sh
# Pre-merge check: tier-1 (build + unit/property tests + golden
# snapshots) then the four tier-2 gates: fixed-seed differential fuzz
# smoke, perf smoke, chaos smoke and obs smoke.  See TESTING.md.
set -eu

echo "== tier 1: dune build && dune runtest"
dune build
dune runtest

echo "== tier 2: fuzz smoke (@fuzz-smoke)"
dune build @fuzz-smoke

echo "== tier 2: perf smoke (@perf-smoke)"
dune build @perf-smoke

echo "== tier 2: chaos smoke (@chaos-smoke)"
dune build @chaos-smoke

echo "== tier 2: obs smoke (@obs-smoke)"
dune build @obs-smoke

echo "CI OK"

#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs one workload:
#
#   bash perfbench/run.sh --workload train-cnn --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays under
# .bench_build/ in that root. The kernel autotuner is pinned off, so a tuning
# file left on the host cannot change tile shapes between two checkouts.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/gmreg-cache" "$out/home"

# The go command and the program find user directories through HOME and
# XDG_*; pointing them here keeps every write inside the checkout.
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOENV=off
export GOTOOLCHAIN=local
export GOFLAGS=
export GMREG_AUTOTUNE=off
export GMREG_CACHE_DIR="$out/gmreg-cache"
unset GMREG_SERIAL_CUTOFF GMREG_PARTITION_GRAIN

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"

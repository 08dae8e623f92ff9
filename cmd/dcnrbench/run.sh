#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags. Run it
# from the repository root, e.g.
#
#   bash cmd/dcnrbench/run.sh -workload query-hot -seed 7 -seconds 15
#
# The binary and every cache the Go toolchain writes stay inside the
# checkout: under $CARGO_TARGET_DIR when it is set, else .bench_build.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off
go -C cmd/dcnrbench build -o "$out/dcnrbench" .
exec "$out/dcnrbench" "$@"

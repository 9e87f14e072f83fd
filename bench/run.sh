#!/bin/bash
# Builds the benchmark from source into the checkout's .bench_build and
# runs it from the checkout root. Everything the toolchain writes stays
# inside the checkout. Usage, from the repository root:
#   bash bench/run.sh --workload serve_read --seed 1 --seconds 20 --trace 0
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
# HOME too: the toolchain keeps its telemetry counters under the user's
# configuration directory.
(cd "$root/bench" && HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" GOCACHE="$build/gocache" \
	GOTMPDIR="$build/tmp" GOFLAGS= GOTOOLCHAIN=local go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"

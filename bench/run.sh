#!/usr/bin/env bash
# Builds p3bench from source inside the checkout and runs it from the
# repository root with the given arguments. Build outputs, Go's caches, its
# temporary files and its telemetry all stay under bench/.build.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/bench/.build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/bench" && go build -o "$build/p3bench" ./cmd/p3bench)
cd "$root"
exec "$build/p3bench" "$@"

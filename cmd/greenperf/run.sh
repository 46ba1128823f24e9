#!/usr/bin/env bash
# Builds greenperf and greenbench from the checkout this is run from and
# runs greenperf with the given arguments, for example:
#
#   bash cmd/greenperf/run.sh --workload sweep-journal --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds, caches and
# writes stays under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"

# Keep the Go toolchain's caches, config and temporary files inside the
# checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off

(cd "$here" && go build -o "$out/bin/" . repro/cmd/greenbench)
exec "$out/bin/greenperf" --dir "$out/work" --greenbench "$out/bin/greenbench" "$@"

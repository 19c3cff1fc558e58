#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload kernels --seed 1 --seconds 10 --trace 0
#
# The Go toolchain's cache, temporary files and the binary all stay
# under .bench_build in the checkout. Without the repository's own
# sources next to perfbench/ the build fails and nothing is printed.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/go-cache" "$out/tmp"
export HOME="$out/home" XDG_CACHE_HOME="$out/home/.cache" XDG_CONFIG_HOME="$out/home/.config" \
	GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off
sha=unknown
if [ -d "$root/.git" ]; then
	sha=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
cd "$root"
PERFBENCH_GIT_SHA=$sha exec "$out/perfbench" "$@"

#!/usr/bin/env bash
# Builds dialoguebench from the source tree it sits in and runs it. Run from
# the repository root:
#
#   bash dialoguebench/run.sh --workload serve-rh --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write goes to .bench_build/ in the
# current directory; the Go toolchain is kept offline and out of $HOME.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/dialoguebench/go.mod" ]]; then
	echo "dialoguebench: run from the root of the repository it measures" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/home" "$out/gocache" "$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOWORK=off GOTELEMETRY=off
(cd "$root/dialoguebench" && go build -o "$out/dialoguebench" .)
exec "$out/dialoguebench" --workdir "$out" "$@"

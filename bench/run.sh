#!/bin/sh
# Builds the benchmark driver from source and runs it with the given flags.
# Run it from the repository root:
#
#   sh bench/run.sh --workload scale-batch --seed 7 --seconds 15 --trace 0
#
# The Go build cache, temporary files, the go command's configuration
# directory (where it keeps telemetry counters) and the binary all live
# under .bench_build/ in the working directory, so building and running
# touch nothing outside the checkout. Without the repository's go.mod and
# internal/ packages next to bench/ the build fails and the script exits
# non-zero without printing a result.
set -e
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd bench && go build -o "$out/lfm-bench" .)
exec "$out/lfm-bench" "$@"

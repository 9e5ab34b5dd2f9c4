#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload lasso-model --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build product and Go cache lives under
# .bench_build/ (CARGO_TARGET_DIR when set), so nothing is read from or
# written to the home directory. Without the repository sources next to
# perfbench/ the build fails and the script exits non-zero, printing no
# result.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod" GOENV=off GOFLAGS=
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off CGO_ENABLED=0
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"

#!/usr/bin/env bash
# Builds the benchmark harness from this checkout's sources and runs it
# with the given arguments, from the checkout root:
#
#   bash bench/run.sh --workload paper-study --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, world
# spill files, run logs, checkpoints) stays under .bench_build/ in the
# checkout ($CARGO_TARGET_DIR when set, relative to the checkout root).
# Without the repository's own sources next to bench/ the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
  /*) ;;
  *) out="$root/$out" ;;
esac
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/config" "$out/tmp"

export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOMODCACHE="$out/go-mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=
export TMPDIR="$out/tmp"

(cd bench && go build -trimpath -o "$out/bench" .) >&2
exec "$out/bench" "$@"

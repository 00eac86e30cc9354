#!/usr/bin/env bash
# Builds `topoinv` and the benchmark harness from the sources of this
# checkout, then runs one workload against a freshly spawned server:
#
#   bash perfbench/run.sh --workload ask-repeat --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binaries and every run's stores stay under
# .bench_build/ at the checkout root; nothing is fetched.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/topoinv" ]; then
  echo "perfbench: no topoinv sources (go.mod, cmd/topoinv) under $root" >&2
  exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
  GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root" && go build -buildvcs=false -o "$out/bin/topoinv" ./cmd/topoinv)
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -server "$out/bin/topoinv" -work "$out/runs" -root "$root" "$@"

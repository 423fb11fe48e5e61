#!/usr/bin/env bash
# Builds the benchmark and the served system from this checkout into
# .bench_build/, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the runs write stays under .bench_build/ in
# the repository root, the Go build cache included.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$root/.bench_build/gocache" GOMODCACHE="$root/.bench_build/gomod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -o "$out/bin/vcodecd" ./cmd/vcodecd
go build -o "$out/bin/vcodec-gateway" ./cmd/vcodec-gateway
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"

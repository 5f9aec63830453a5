#!/usr/bin/env bash
# Builds the benchmark and the programs it drives (cmd/reproduce, cmd/liquidd)
# from the checkout it is run in, then runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash perfbench/run.sh steady -runs 10 -seconds 10
#
# Everything the build and the runs write goes under .bench_build/ in the
# checkout: the Go build cache, the binaries, span and profile files.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/liquidd ] || [ ! -d cmd/reproduce ] || [ ! -d internal ]; then
	echo "perfbench: run from the root of a liquid checkout (go.mod, cmd/, internal/ not found here)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0

go build -o "$out/bin/" ./cmd/reproduce ./cmd/liquidd >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" -out "$out" "$@"

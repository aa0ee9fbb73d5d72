#!/bin/sh
# run.sh — build bfpp-serve and the servebench load generator from this
# checkout, then run one benchmark invocation. Run from the repository
# root; arguments pass through to servebench, e.g.
#
#	sh servebench/run.sh --workload plan-sweep --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binaries, stores and result files.
set -eu
ROOT=$(pwd)
if [ ! -f "$ROOT/go.mod" ] || [ ! -d "$ROOT/cmd/bfpp-serve" ] || [ ! -d "$ROOT/servebench" ]; then
	echo "servebench: run from the root of a bfpp checkout (go.mod and cmd/bfpp-serve not found)" >&2
	exit 2
fi
OUT="$ROOT/.bench_build/servebench"
mkdir -p "$OUT/bin" "$OUT/tmp"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files here too.
export GOCACHE="$OUT/gocache" GOMODCACHE="$OUT/gomod" GOPATH="$OUT/gopath" GOTMPDIR="$OUT/tmp" \
	XDG_CONFIG_HOME="$OUT/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$ROOT/servebench" && go build -o "$OUT/bin/servebench" . && go build -o "$OUT/bin/bfpp-serve" bfpp/cmd/bfpp-serve)
exec "$OUT/bin/servebench" -server "$OUT/bin/bfpp-serve" -work "$OUT/work" -out "$OUT/results" "$@"

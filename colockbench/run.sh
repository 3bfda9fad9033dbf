#!/usr/bin/env bash
# Builds colockbench from the sources of the checkout in the current
# directory and runs it with the given arguments, for example
#
#   bash colockbench/run.sh --workload remote-read --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# current directory: the Go build cache and temporary files, the binary
# and the traced run's spans. Without the repository's sources next to
# colockbench/ the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

commit=unknown
if [ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
	commit=$(git -C "$root" rev-parse HEAD)
fi
(cd "$root/colockbench" && go build -buildvcs=false -ldflags "-X main.gitCommit=$commit" -o "$out/colockbench" .)
exec "$out/colockbench" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. The binary, the compiler cache and the toolchain's own
# configuration directory (its env file and telemetry counters) go under
# .bench_build at the repository root, so nothing outside the checkout is read
# or written. Build output goes to standard error; standard output carries
# only the benchmark's own lines.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
(cd "$here" && GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" go build -o "$build/bench" .) >&2
exec "$build/bench" "$@"

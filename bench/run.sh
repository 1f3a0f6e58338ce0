#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout root
# and runs it. Everything the build and the run write stays inside the
# checkout: the Go build cache and work directory, the binary, temp caches
# and result files.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gotmp" "$build/tmp"
# The reps' temp caches live under tmp/. On ext4 a new directory lands in its
# parent's block group, and there the inode allocator walks past every inode
# deleted in the last minutes: after one rep's clean-up, creating files costs
# up to 10x more and sweep_cells reads 1.2 to 1.8 s depending on what ran
# before it. Marking tmp/ a top-level directory (chattr +T) spreads its
# children over fresh block groups. Best effort: other filesystems refuse.
chattr +T "$build/tmp" 2>/dev/null || true
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" -root "$root" "$@"

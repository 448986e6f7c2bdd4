#!/usr/bin/env bash
# Fails if a product change would make `benchmark/run` rewrite the
# benchmark harness's lockfile. The harness builds `--offline` without
# `--locked`, so any dependency edge a product crate gains or loses among
# the crates the harness links (the umbrella crate and everything below
# it) silently rewrites `benchmark/harness/Cargo.lock`, a file product
# changes may not touch. Such a change belongs with the benchmark-side
# queue (ROADMAP item 10), which updates the lockfile and re-baselines.
set -euo pipefail
cd "$(dirname "$0")/.."

if ! cargo metadata --locked --offline --format-version 1 \
    --manifest-path benchmark/harness/Cargo.toml >/dev/null; then
    echo "benchmark/harness/Cargo.lock would change: a crate the harness links" >&2
    echo "gained or lost a dependency. Keep the edge, or queue the change with" >&2
    echo "the benchmark-side work of ROADMAP item 10 that updates the lockfile." >&2
    exit 1
fi
echo "harness lockfile unchanged"

#!/usr/bin/env bash
# Fails if the shared arena, the mbufs over it, the rings, the channels
# over them or the lcore workers (one foreign call: the affinity mask that
# keys placement) gain an `unsafe` site. Each file has a budget: the count of
# `unsafe` tokens outside `//` comments it was committed with. Those sites are exactly
# what a checker of the lock-free core has to cover, so adding one is a
# design decision made in review, not a drive-by. When a count drops, the
# script says so: lower the budget below in the same change, so the
# ratchet only turns one way.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
while read -r file budget; do
    count=$(sed 's://.*$::' "$file" | { grep -ow unsafe || true; } | wc -l)
    if [ "$count" -gt "$budget" ]; then
        echo "$file: $count unsafe sites, over its budget of $budget" >&2
        fail=1
    elif [ "$count" -lt "$budget" ]; then
        echo "$file: $count unsafe sites, under its budget of $budget: lower the budget in $0"
    fi
done <<'BUDGETS'
crates/dpdk/src/arena.rs 8
crates/dpdk/src/lcore.rs 1
crates/dpdk/src/mbuf.rs 0
crates/dpdk/src/ring.rs 5
crates/shmem/src/channel.rs 0
BUDGETS

if [ "$fail" -ne 0 ]; then
    echo "unsafe budget exceeded: justify the new site and raise the budget in $0" >&2
    exit 1
fi
echo "unsafe sites within budget"

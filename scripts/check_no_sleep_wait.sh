#!/usr/bin/env bash
# Fails if a wait on the control channel's wire path, or the code an lcore
# worker steps, sleeps.
# - Every blocking wait in `openflow` and in the switch's control loop
#   parks on an `openflow::Event` that the thing it waits for notifies
#   (docs/control-channel.md, "Waiting"); a `thread::sleep` there is a
#   latency floor under every barrier, handshake and bypass set-up in the
#   repository, which is what they were before.
# - A PMD's or a guest's step runs on a worker it shares with other
#   steppers (docs/architecture.md, "Threads and placement"): a sleep in
#   the guest, the switch's ports and PMD loop, what they call into
#   (actions, the lookup caches and flow table, the arena, ring and mbuf,
#   the cycle clock, packet parsing, the perf block, histograms, coverage
#   and channel statistics), the channels and serial ports they poll, or
#   the worker itself stalls every stepper on it.
# - The highway manager's worker and its waits (`wait_converged`, the
#   journal's `wait_for`) park on the manager's `Event`. The node's
#   `wait_highway_converged` keeps a 1 ms poll (node.rs says why) and is
#   not checked.
# - The chain testbed's probe send and drain (`src/testbed.rs`) yield
#   between polls: every end-to-end test shares them, so a sleep there
#   would be a latency floor under the whole suite.
# Test modules may sleep: by the repository's convention they are the
# `#[cfg(test)]` tail of a file, so each file is checked up to that line.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
while IFS= read -r file; do
    hits=$(awk '
        /^#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*\/\// { next }
        /thread::sleep/ { printf "%s:%d:%s\n", FILENAME, FNR, $0 }
    ' "$file")
    if [ -n "$hits" ]; then
        echo "$hits" >&2
        fail=1
    fi
done < <(
    find crates/openflow/src -name '*.rs' | sort
    echo crates/ovs/src/ofproto.rs
    echo crates/ovs/src/vswitchd.rs
    echo crates/core/src/manager.rs
    echo crates/core/src/events.rs
    find crates/vnf/src -name '*.rs' | sort
    echo crates/ovs/src/pmd.rs
    echo crates/ovs/src/port.rs
    for f in actions classifier emc megaflow table; do echo "crates/ovs/src/$f.rs"; done
    echo crates/shmem/src/channel.rs
    echo crates/shmem/src/serial.rs
    echo crates/shmem/src/stats.rs
    for f in lcore arena ring mbuf cycles; do echo "crates/dpdk/src/$f.rs"; done
    find crates/packet/src -name '*.rs' | sort
    for f in hist pmd_perf coverage; do echo "crates/telemetry/src/$f.rs"; done
    echo src/testbed.rs
)

if [ "$fail" -ne 0 ]; then
    echo "thread::sleep on a control-channel wait path or in a stepper: park on an Event, or return and let the worker step the rest" >&2
    exit 1
fi
echo "no sleep-polling on the control channel or in a stepper"

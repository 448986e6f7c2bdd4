#!/usr/bin/env bash
# Checks the per-layer inequalities the design rests on against a traced
# benchmark result (`benchmark/run --trace 1`, whose last stdout line is
# the run's JSON):
#   * cache tiers: an EMC hit and a megaflow hit each cost under 0.8x a
#     cold classifier walk;
#   * the highway: a descriptor hop over a bypass channel costs under a
#     quarter of one vSwitch traversal (the hop moves one 8-byte token).
# A metric that is missing or 0 was not measured, and fails its check.
#
#   scripts/check_layer_gates.sh chain4_highway.out
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 <result-file>" >&2
    exit 2
fi
result="$(tail -n 1 "$1")"
if ! jq -e '.metrics | type == "object"' >/dev/null 2>&1 <<<"$result"; then
    echo "FAIL $1: last line is not a benchmark result" >&2
    exit 1
fi

failed=0

# gate <lhs> <factor> <rhs>: passes when lhs < factor * rhs.
gate() {
    local lhs=$1 factor=$2 rhs=$3 l r
    l="$(jq -r --arg m "$lhs" '.metrics[$m].value // 0' <<<"$result")"
    r="$(jq -r --arg m "$rhs" '.metrics[$m].value // 0' <<<"$result")"
    awk -v lhs="$lhs" -v l="$l" -v f="$factor" -v rhs="$rhs" -v r="$r" 'BEGIN {
        if (!(l > 0) || !(r > 0)) {
            printf "FAIL %s = %s, %s = %s: not measured\n", lhs, l, rhs, r
            exit 1
        }
        ok = l < f * r
        printf "%-4s %s = %.1f %s %s x %s = %.1f\n", ok ? "ok" : "FAIL",
            lhs, l, ok ? "<" : ">=", f, rhs, f * r
        exit !ok
    }' || failed=1
}

gate ovs.classify_emc_ns 0.8 ovs.classify_cold_ns
gate ovs.classify_megaflow_ns 0.8 ovs.classify_cold_ns
gate shmem.hop_desc_ns 0.25 ovs.traversal_ns

if [ "$failed" -ne 0 ]; then
    echo "layer gates FAILED" >&2
    exit 1
fi
echo "layer gates hold"

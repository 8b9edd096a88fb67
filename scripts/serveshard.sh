#!/bin/sh
# serveshard.sh — CI gate for sharded serving host scaling: on a host with
# at least 4 cores, one serving scheme at -shards 4 must finish in at most
# half the wall-clock of the same deployment at -shards 1. Each shard is a
# whole independent simulated machine run as a workpool job, so four shards
# on four cores should approach 4x; 2x is the regression bar. A single
# scheme is measured on purpose: the all-scheme grid already fans schemes
# out across the pool, which would mask shard-level scaling.
#
# The merged simulated results are pinned bit-identical across shard
# placement by the test suite (TestServeShardedDeterministicAcrossHost-
# Parallelism); this gate guards only the host-side win.
#
# Hosts with fewer than 4 cores skip cleanly: four shard jobs cannot outrun
# one machine without cores to run them on.
#
# Usage: scripts/serveshard.sh [scale]   (default 0.004)
set -eu
cd "$(dirname "$0")/.."

SCALE="${1:-0.004}"
TMP="${TMPDIR:-/tmp}"
CORES=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)

if [ "$CORES" -lt 4 ]; then
	echo "serveshard: host has $CORES cpu(s), need 4 for the 2x shard-scaling bar — skipping"
	exit 0
fi

go build -o "$TMP/ffccd-serveshard" ./cmd/ffccd-bench

host_seconds() { # smallest host_seconds of two serving/ffccd runs at -shards $1
	: >"$TMP/serveshard.secs"
	for rep in 1 2; do
		FFCCD_PARALLEL=4 "$TMP/ffccd-serveshard" -experiment serving -scheme ffccd \
			-scale "$SCALE" -shards "$1" -json "$TMP/serveshard.json" >/dev/null
		grep -o '"host_seconds": [0-9.eE+-]*' "$TMP/serveshard.json" >>"$TMP/serveshard.secs"
	done
	awk -F': ' 'NR == 1 || $2 < min { min = $2 } END { print min }' "$TMP/serveshard.secs"
}

S1=$(host_seconds 1)
S4=$(host_seconds 4)

echo "serveshard: serving/ffccd scale $SCALE — shards=1 ${S1}s, shards=4 ${S4}s"
if ! awk -v a="$S1" -v b="$S4" 'BEGIN { exit !(b * 2 <= a) }'; then
	echo "serveshard: FAIL — shards=4 is not 2x faster than shards=1 on $CORES cores" >&2
	exit 1
fi
echo "serveshard OK"

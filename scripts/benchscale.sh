#!/bin/sh
# benchscale.sh — CI gate for the work-stealing pool: on a multicore host,
# fig5 at FFCCD_PARALLEL=GOMAXPROCS must beat FFCCD_PARALLEL=1 on wall-clock.
# A pool regression that serializes fan-outs (helpers pinned, tokens leaked,
# stealing dead) shows up here as "parallel no faster than serial" long
# before anyone compares two benchmark results. Simulated results are
# identical at any worker count — the golden test pins that; this guards the
# host side.
#
# Single-core hosts skip cleanly: there is no parallel speedup to measure.
#
# Usage: scripts/benchscale.sh [scale]   (default 0.004)
set -eu
cd "$(dirname "$0")/.."

SCALE="${1:-0.004}"
TMP="${TMPDIR:-/tmp}"
CORES=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)

if [ "$CORES" -lt 2 ]; then
	echo "benchscale: single-core host ($CORES cpu), nothing to compare — skipping"
	exit 0
fi

go build -o "$TMP/ffccd-benchscale" ./cmd/ffccd-bench

host_seconds() { # smallest host_seconds of two fig5 runs at FFCCD_PARALLEL=$1
	: >"$TMP/benchscale.secs"
	for rep in 1 2; do
		FFCCD_PARALLEL=$1 "$TMP/ffccd-benchscale" -experiment fig5 -scale "$SCALE" \
			-json "$TMP/benchscale.json" >/dev/null
		grep -o '"host_seconds": [0-9.eE+-]*' "$TMP/benchscale.json" >>"$TMP/benchscale.secs"
	done
	awk -F': ' 'NR == 1 || $2 < min { min = $2 } END { print min }' "$TMP/benchscale.secs"
}

SER=$(host_seconds 1)
PAR=$(host_seconds "$CORES")

echo "benchscale: fig5 scale $SCALE — serial ${SER}s, parallel(x$CORES) ${PAR}s"
if ! awk -v s="$SER" -v p="$PAR" 'BEGIN { exit !(p < s) }'; then
	echo "benchscale: FAIL — FFCCD_PARALLEL=$CORES is not faster than serial" >&2
	exit 1
fi
echo "benchscale OK"

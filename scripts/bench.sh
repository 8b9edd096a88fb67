#!/bin/sh
# bench.sh — produce the next machine-readable host-performance record
# BENCH_<n>.json (one past the highest index present, so gaps in the
# sequence — deleted or never-committed records — are tolerated).
#
# Four row families, every row carrying host_cores and ffccd_parallel so
# scaling comparisons stay interpretable away from the machine they ran on:
#
#   1. Baseline rows at the working scale (fork on, its production
#      setting), plus a fig14 fork=off row to keep the fork-vs-scratch
#      comparison BENCH_3.json started tracked.
#   2. Per-core scaling rows: fig5 under FFCCD_PARALLEL=1/2/4/8 (the env
#      path, not -parallel, so the override plumbing is exercised too).
#   3. Serving rows: the open-loop SLO grid (serving experiment) — per-scheme
#      p50/p99/p999 and their app/interference/stall/queue decomposition,
#      demonstrating the FFCCD-vs-STW tail separation — plus the sharded
#      scaling grid: shards 1/2/4, each under FFCCD_PARALLEL=1 and =4.
#      Unlike family 2 (which parallelizes across scheme variants), these
#      exercise host parallelism INSIDE one serving run — batched dispatch
#      at shards=1, whole simulated machines as workpool jobs at shards>1.
#      sim_cycles_total must be bit-identical across FFCCD_PARALLEL within
#      one shard count. Serving rows also embed the per-window time series
#      ("windows": per-scheme throughput, p50/p99/p999, cycle decomposition,
#      and GC overlay flags per window).
#   4. Paper-scale rows: fig5 and fig14 at -scale paper (1.0, the paper's
#      full 5M-insert setup). Hours of wall-clock on a small host — skip
#      with FFCCD_BENCH_PAPER=0.
#
# The simulated numbers must be identical across every row of the same
# experiment+scale — fork and parallelism change wall-clock only; the
# golden test pins this, and sim_cycles_total in each row's metrics lets the
# file itself be checked. Each configuration repeats (-repeat) so the file
# carries host-time variance instead of duplicating near-identical lines.
#
# Usage: scripts/bench.sh [scale] [repeat]   (defaults 0.002 and 2;
#        scale is passed straight through to -scale, so 'paper' works)
set -eu
cd "$(dirname "$0")/.."

SCALE="${1:-0.002}"
REPEAT="${2:-2}"
PAPER="${FFCCD_BENCH_PAPER:-1}"
# Next record index: one past the highest BENCH_<n>.json present (gaps in
# the numbering are fine — only the maximum matters).
MAX=0
for f in BENCH_*.json; do
	[ -e "$f" ] || continue
	n="${f#BENCH_}"
	n="${n%.json}"
	case "$n" in
	*[!0-9]* | '') continue ;;
	esac
	[ "$n" -gt "$MAX" ] && MAX="$n"
done
OUT="BENCH_$((MAX + 1)).json"
TMP="${TMPDIR:-/tmp}"

go build -o "$TMP/ffccd-bench" ./cmd/ffccd-bench

parts=""

run() { # run <outfile> [ffccd-bench args...]
	f="$TMP/$1"
	shift
	"$TMP/ffccd-bench" -json "$f" "$@" >/dev/null
	parts="$parts $f"
}

# 1. Baseline rows at the working scale.
run bench_fig5.json -experiment fig5 -scale "$SCALE" -repeat "$REPEAT"
run bench_fig14.json -experiment fig14 -scale "$SCALE" -repeat "$REPEAT"
run bench_fig14_nofork.json -experiment fig14 -scale "$SCALE" -fork=false -repeat "$REPEAT"

# 2. Per-core scaling rows (env-var path on purpose).
for P in 1 2 4 8; do
	f="$TMP/bench_fig5_p$P.json"
	FFCCD_PARALLEL=$P "$TMP/ffccd-bench" -json "$f" \
		-experiment fig5 -scale "$SCALE" -repeat "$REPEAT" >/dev/null
	parts="$parts $f"
done

# 3. Serving rows: the SLO grid, then the sharded scaling grid — shards 1/2/4
#    each under FFCCD_PARALLEL=1 and =4. shards=1 is the unsharded dispatcher
#    (its rows carry no shards field, so the gate diffs them against older
#    records directly — the one-shard regression pin at the BENCH level);
#    shards>1 splits the keyspace across independent simulated machines run
#    as host-parallel jobs. sim_cycles_total is bit-identical across
#    FFCCD_PARALLEL within one shard count but differs BETWEEN shard counts
#    (different machine sets) — bench_gate keys on the shards field.
run bench_serving.json -experiment serving -scale "$SCALE" -repeat "$REPEAT"
for S in 1 2 4; do
	for P in 1 4; do
		f="$TMP/bench_serving_s${S}_p$P.json"
		FFCCD_PARALLEL=$P "$TMP/ffccd-bench" -json "$f" \
			-experiment serving -scale "$SCALE" -shards "$S" >/dev/null
		parts="$parts $f"
	done
done

# 4. Paper-scale rows (scale 1.0; a single repetition — these run for hours).
if [ "$PAPER" = 1 ]; then
	run bench_fig5_paper.json -experiment fig5 -scale paper
	run bench_fig14_paper.json -experiment fig14 -scale paper
fi

# Merge the per-configuration record arrays into one file.
{
	printf '[\n'
	first=1
	for f in $parts; do
		[ "$first" = 1 ] || printf ',\n'
		first=0
		sed '1d;$d' "$f"
	done
	printf '\n]\n'
} >"$OUT"

echo "wrote $OUT:"
cat "$OUT"

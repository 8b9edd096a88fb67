// ffccd-redis runs the §7.4 Redis case study in one of two modes.
//
// The default (closed-loop) mode prints the Figure 16 footprint-over-time
// series and tail-latency comparison for the PMDK baseline, FFCCD, a
// stop-the-world compactor, and Mesh:
//
//	ffccd-redis -scale 0.002
//
// With -clients the serving mode runs instead: an open-loop multi-client
// simulation (Poisson arrivals, Zipfian keys) against one machine per
// scheme, reporting SLO percentiles (p50/p99/p999) decomposed into app,
// barrier-interference, STW-stall, and queueing cycles:
//
//	ffccd-redis -clients 32 -rate 0 -scheme all        # rate 0 auto-calibrates
//	ffccd-redis -clients 16 -rate 5e6 -scheme ffccd
//	ffccd-redis -clients 16 -scheme stw -ops 100000 -keys 20000
//
// With -crash-at the availability grid runs instead: one power failure per
// scheme at the given fraction of that scheme's crash-site census, with the
// online crash-recovery-resume loop (durable-ack validation, degraded-mode
// admission, retry/backoff) and the post-recovery p999 ramp measured:
//
//	ffccd-redis -crash-at 0.5
//	ffccd-redis -crash-at 0.25 -scheme ffccd -ops 8000 -keys 1600
//
// -shards N partitions the keyspace by key-hash across N independent
// simulated machines (each its own device, heap, and clock domain), runs
// them host-parallel, and merges the per-shard results deterministically.
// It composes with both serving and availability modes; a sharded crash
// blacks out one shard while its siblings keep serving:
//
//	ffccd-redis -clients 32 -shards 4
//	ffccd-redis -crash-at 0.5 -shards 4 -crash-shard 1
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"ffccd/internal/experiments"
	"ffccd/internal/redisws"
)

func main() {
	scale := flag.Float64("scale", 0.002, "workload scale relative to the paper")
	clients := flag.Int("clients", 0, "serving mode: simulated client connections (0 = closed-loop Figure 16 mode)")
	rate := flag.Float64("rate", 0, "serving mode: aggregate offered load in simulated ops/sec (0 = auto-calibrate)")
	scheme := flag.String("scheme", "all", "serving mode: defrag scheme (none|ffccd|stw|mesh|all)")
	ops := flag.Int("ops", 0, "serving mode: operations to dispatch (0 = scaled default)")
	keys := flag.Int("keys", 0, "serving mode: keyspace size (0 = scaled default)")
	seed := flag.Int64("seed", 7, "serving mode: RNG seed")
	window := flag.Uint64("window", 0, "serving mode: time-series window width in simulated cycles (0 = scale-aware default)")
	noWindows := flag.Bool("nowindows", false, "serving mode: disable the per-window time series")
	crashAt := flag.Float64("crash-at", 0, "availability mode: crash each scheme at this fraction of its site census (0 = off)")
	shards := flag.Int("shards", 1, "serving/availability modes: shard the keyspace across N independent machines")
	crashShard := flag.Int("crash-shard", 0, "availability mode: the shard the crash targets (with -shards)")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		if errors.Is(err, redisws.ErrShards) {
			os.Exit(2)
		}
		os.Exit(1)
	}

	if *crashAt > 0 {
		opts := experiments.ServingCrashOptions{
			Clients:      *clients,
			Ops:          *ops,
			Keyspace:     *keys,
			Seed:         *seed,
			SiteFrac:     *crashAt,
			WindowCycles: *window,
			Shards:       *shards,
			CrashShard:   *crashShard,
		}
		if *scheme != "all" {
			opts.Schemes = []string{*scheme}
		}
		res, err := experiments.ServingCrash(opts)
		if err != nil {
			fail(err)
		}
		fmt.Println(res)
		return
	}

	if *clients > 0 {
		opts := experiments.ServingOptions{
			Scale:        *scale,
			Clients:      *clients,
			Ops:          *ops,
			Keyspace:     *keys,
			RatePerSec:   *rate,
			Seed:         *seed,
			WindowCycles: *window,
			NoWindows:    *noWindows,
			Shards:       *shards,
		}
		if *scheme != "all" {
			opts.Schemes = []string{*scheme}
		}
		res, err := experiments.Serving(opts)
		if err != nil {
			fail(err)
		}
		fmt.Println(res)
		return
	}

	res, err := experiments.Figure16(*scale)
	if err != nil {
		fail(err)
	}
	fmt.Println(res)
}

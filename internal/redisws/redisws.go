// Package redisws drives the paper's Redis case study (§7.4): a Redis-style
// LRU cache over a persistent hash store, capped at a fixed live-data size.
// It generates random keys with 240–492-byte values, expires least-recently
// used entries once the cap is reached, interleaves queries, and records the
// memory-footprint-over-time series and per-operation latencies behind
// Figure 16 and the tail-latency comparison.
//
// Defragmentation is injected through ServeHooks, the same hooks the serving
// layer runs (SchemeHooks wires the §7.4 schemes): concurrent FFCCD epochs
// that the application's operations pass behind the read barrier,
// stop-the-world (jemalloc-style) cycles, or Figure 16's Mesh comparator
// (experiments.Figure16 wires it). Any pause a hook returns
// is charged to the next operation's latency — which is how STW pauses
// surface as tail latency.
package redisws

import (
	"errors"

	"ffccd/internal/alloc"
	"ffccd/internal/ds"
	"ffccd/internal/pmop"
	"ffccd/internal/sim"
	"ffccd/internal/workload"
)

// The closed loop's shape: every SET is followed by getsPerSet GETs of keys
// drawn from the same keyspace.
const getsPerSet = 2

// RegimeConfig returns the §7.4 fragmentation regime over keys owned keys,
// the one Figure 16, the serving grid and serving crash campaigns run: values
// of 240–366 bytes that drift to 367–492 bytes at the run's midpoint (holes
// left by the old sizes cannot host the new ones, as in a long-running
// cache), an LRU cap of 150 bytes per key so that expiry churns near it, a
// maintenance point every keys/8 operations, and seed 99. Serving callers
// set the traffic (clients, ops, seed) on top.
func RegimeConfig(keys int) ServeConfig {
	cfg := DefaultServeConfig()
	cfg.Keyspace = keys
	cfg.MinVal, cfg.MaxVal = 240, 366
	cfg.MinVal2, cfg.MaxVal2 = 367, 492
	cfg.MaxLiveBytes = uint64(keys) * 150
	cfg.MaintEvery = max(keys/8, 1)
	cfg.Seed = 99
	return cfg
}

// sampleEvery is the number of operations between footprint samples.
const sampleEvery = 200

// Sample is one point of the footprint-over-time series.
type Sample struct {
	Op        int
	Footprint uint64
	Live      uint64
}

// Result is a completed run. Per-operation latencies stream into Lat (a
// log-linear histogram) instead of an unbounded slice, so million-op serving
// runs stay constant-memory.
type Result struct {
	Samples   []Sample
	Lat       *LatencyRecorder // simulated cycles per operation
	Final     alloc.FragStats
	Evictions int
}

// Run executes the case study against store s (an Echo-style hash store in
// the paper's configuration), one operation at a time on ctx, in the regime
// RegimeConfig(keys) fixes: keys SETs of keys drawn from [0, keys), then keys
// more from [0, 2·keys) with the drifted sizes, each followed by getsPerSet
// GETs. Before every MaintEvery-th operation hooks.Maintenance runs; while an
// epoch is open hooks.Step(1) runs after each operation, so operations
// overlap it. A pause either returns stalls the next operation, and an epoch
// still open at the end is drained. Run has no recovery path: a crash plan is
// an error.
func Run(ctx *sim.Ctx, p *pmop.Pool, s ds.Store, keys int, hooks ServeHooks) (Result, error) {
	if hooks.Crash != nil {
		return Result{}, errors.New("redisws.Run: a crash plan needs Serve; Run has no recovery path")
	}
	cfg := RegimeConfig(keys)
	epochOpen := func() bool { return hooks.Step != nil && hooks.epochOpen() }
	// The counter-based RNG makes the run checkpoint/forkable in O(1) like
	// every other workload (the stream position is the draw counter).
	rng := workload.NewRNG(cfg.Seed)

	// Volatile LRU bookkeeping (Redis keeps this in DRAM too). Redis stores
	// an expired pair to disk; for the footprint study the PM side simply
	// frees it.
	cache := newLRUCache(s, cfg.MaxLiveBytes, nil, 2*keys)
	reader := hitReader{store: s}

	res := Result{Lat: NewLatencyRecorder(0, 0)}
	op, maintEvery := 0, cfg.MaintEvery
	var stall uint64 // pause cycles the next operation waits out
	lo, hi := cfg.MinVal, cfg.MaxVal
	// do runs one operation, a SET of k or a GET of it.
	do := func(k uint64, set bool) error {
		if hooks.Maintenance != nil && op%maintEvery == maintEvery-1 {
			stall += hooks.Maintenance(ctx.Clock.Total())
		}
		start := ctx.Clock.Total()
		if set {
			err := cache.set(ctx, int32(k), lo+rng.Intn(hi-lo+1))
			res.Evictions = cache.evictions
			if err != nil {
				return err
			}
		} else if reader.hit(ctx, k) {
			cache.touch(int32(k))
		}
		res.Lat.Observe(stall + ctx.Clock.Total() - start)
		stall = 0
		if op%sampleEvery == 0 {
			fs := hooks.footprint(p)
			res.Samples = append(res.Samples, Sample{Op: op, Footprint: fs.FootprintBytes, Live: fs.LiveBytes})
		}
		op++
		if epochOpen() {
			_, pause := hooks.Step(1)
			stall += pause
		}
		return nil
	}

	keyspace := uint64(0)
	for phase := range 2 {
		keyspace += uint64(keys)
		if phase == 1 {
			lo, hi = cfg.MinVal2, cfg.MaxVal2
		}
		for range keys {
			if err := do(rng.Uint64()%keyspace, true); err != nil {
				return res, err
			}
			for range getsPerSet {
				_ = do(rng.Uint64()%keyspace, false) // a GET returns no error
			}
		}
	}
	// Drain an open epoch so Final reflects a quiesced machine.
	for epochOpen() {
		hooks.Step(maxBatch)
	}
	res.Final = hooks.footprint(p)
	return res, nil
}

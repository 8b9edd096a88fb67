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
// stop-the-world (jemalloc-style) cycles or Mesh. Any pause a hook returns
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

// Config matches the paper's setup, scaled (200 MB cap → default 8 MB,
// 1M initial + 500k extra keys → 20k + 10k).
type Config struct {
	MaxLiveBytes     uint64 // LRU cap; 0 disables eviction
	InitialKeys      int
	ExtraKeys        int
	QueriesPerInsert int
	MinVal, MaxVal   int
	// MinVal2/MaxVal2, when nonzero, change the value-size distribution for
	// the post-initial insert phase — the size-class drift that makes
	// long-running caches fragment (holes from the old distribution cannot
	// host values from the new one).
	MinVal2, MaxVal2 int
	Seed             int64
}

// DefaultConfig returns the scaled §7.4 parameters.
func DefaultConfig() Config {
	return Config{
		MaxLiveBytes:     8 << 20,
		InitialKeys:      20000,
		ExtraKeys:        10000,
		QueriesPerInsert: 2,
		MinVal:           240,
		MaxVal:           492,
		Seed:             99,
	}
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

// FootprintFn lets a comparator report its own footprint (Mesh reports
// physical frames); nil uses the allocator's view.
type FootprintFn func() alloc.FragStats

// Run executes the case study against store s (an Echo-style hash store in
// the paper's configuration), one operation at a time on ctx. Before every
// max(InitialKeys/8, 1)th operation hooks.Maintenance runs; while an epoch is
// open hooks.Step(1) runs after each operation, so operations overlap it. A
// pause either returns stalls the next operation, and an epoch still open at
// the end is drained. Run has no recovery path: a crash plan is an error.
func Run(ctx *sim.Ctx, p *pmop.Pool, s ds.Store, cfg Config, hooks ServeHooks) (Result, error) {
	if hooks.Crash != nil {
		return Result{}, errors.New("redisws.Run: a crash plan needs Serve; Run has no recovery path")
	}
	foot := hooks.Foot
	if foot == nil {
		foot = func() alloc.FragStats { return p.Heap().Frag(p.PageShift()) }
	}
	epochOpen := func() bool { return hooks.Step != nil && hooks.EpochOpen != nil && hooks.EpochOpen() }
	// The counter-based RNG makes the run checkpoint/forkable in O(1) like
	// every other workload (the stream position is the draw counter).
	rng := workload.NewRNG(cfg.Seed)

	// Volatile LRU bookkeeping (Redis keeps this in DRAM too). Redis stores
	// an expired pair to disk; for the footprint study the PM side simply
	// frees it.
	keys := cfg.InitialKeys + cfg.ExtraKeys
	cache := newLRUCache(s, cfg.MaxLiveBytes, keys, keys, nil)

	res := Result{Lat: NewLatencyRecorder(0, 0)}
	op, maintEvery := 0, max(cfg.InitialKeys/8, 1)
	var stall uint64 // pause cycles the next operation waits out
	lo, hi := cfg.MinVal, cfg.MaxVal
	// do runs one operation, a SET of k or a GET of it.
	do := func(k uint64, set bool) error {
		if hooks.Maintenance != nil && op%maintEvery == maintEvery-1 {
			stall += hooks.Maintenance(ctx.Clock.Total())
		}
		start := ctx.Clock.Total()
		if set {
			err := cache.set(ctx, k, lo+rng.Intn(hi-lo+1))
			res.Evictions = cache.evictions
			if err != nil {
				return err
			}
		} else if _, ok := s.Get(ctx, k); ok {
			cache.touch(k)
		}
		res.Lat.Observe(stall + ctx.Clock.Total() - start)
		stall = 0
		if op%sampleEvery == 0 {
			fs := foot()
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
	for phase, n := range []int{cfg.InitialKeys, cfg.ExtraKeys} {
		keyspace += uint64(n)
		if phase == 1 && cfg.MinVal2 > 0 && cfg.MaxVal2 >= cfg.MinVal2 {
			lo, hi = cfg.MinVal2, cfg.MaxVal2
		}
		for i := 0; i < n; i++ {
			if err := do(rng.Uint64()%keyspace, true); err != nil {
				return res, err
			}
			for q := 0; q < cfg.QueriesPerInsert; q++ {
				_ = do(rng.Uint64()%keyspace, false) // a GET returns no error
			}
		}
	}
	// Drain an open epoch so Final reflects a quiesced machine.
	for epochOpen() {
		hooks.Step(maxBatch)
	}
	res.Final = foot()
	return res, nil
}

type lruEnt struct {
	key  uint64
	size uint64
}

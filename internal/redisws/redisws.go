// Package redisws drives the paper's Redis case study (§7.4): a Redis-style
// LRU cache over a persistent hash store, capped at a fixed live-data size.
// It generates random keys with 240–492-byte values, expires least-recently
// used entries once the cap is reached, interleaves queries, and records the
// memory-footprint-over-time series and per-operation latencies behind
// Figure 16 and the tail-latency comparison.
//
// Defragmentation is injected through the Hook: the harness runs concurrent
// (FFCCD), stop-the-world (jemalloc-style) or Mesh cycles there, and any
// returned stall cycles are charged to the in-flight operation's latency —
// which is how STW pauses surface as tail latency.
package redisws

import (
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
	SampleEvery      int
	// ReservoirCap bounds the exact-latency reservoir sample (<=0 selects
	// DefaultReservoirCap); the histogram always records every operation.
	ReservoirCap int
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
		SampleEvery:      200,
	}
}

// Sample is one point of the footprint-over-time series.
type Sample struct {
	Op        int
	Footprint uint64
	Live      uint64
}

// Result is a completed run. Per-operation latencies stream into Lat (a
// log-linear histogram plus a bounded reservoir) instead of an unbounded
// slice, so million-op serving runs stay constant-memory.
type Result struct {
	Samples   []Sample
	Lat       *LatencyRecorder // simulated cycles per operation
	Final     alloc.FragStats
	Evictions int
}

// Hook is called before every operation with the operation index; it returns
// extra stall cycles to charge to that operation's latency (e.g. an STW
// pause that the operation had to wait out).
type Hook func(op int) uint64

// FootprintFn lets a comparator report its own footprint (Mesh reports
// physical frames); nil uses the allocator's view.
type FootprintFn func() alloc.FragStats

// Run executes the case study against store s (an Echo-style hash store in
// the paper's configuration).
func Run(ctx *sim.Ctx, p *pmop.Pool, s ds.Store, cfg Config, hook Hook, foot FootprintFn) (Result, error) {
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 200
	}
	if foot == nil {
		foot = func() alloc.FragStats { return p.Heap().Frag(p.PageShift()) }
	}
	// The counter-based RNG makes the run checkpoint/forkable in O(1) like
	// every other workload (the stream position is the draw counter).
	rng := workload.NewRNG(cfg.Seed)

	// Volatile LRU bookkeeping (Redis keeps this in DRAM too). Redis stores
	// an expired pair to disk; for the footprint study the PM side simply
	// frees it.
	cache := newLRUCache(s, cfg.MaxLiveBytes, cfg.InitialKeys+cfg.ExtraKeys, nil, nil)

	res := Result{Lat: NewLatencyRecorder(cfg.ReservoirCap, cfg.Seed^0x5ca1ab1e)}
	op := 0

	record := func(stall, start uint64) {
		res.Lat.Observe(stall + ctx.Clock.Total() - start)
		if op%cfg.SampleEvery == 0 {
			st := foot()
			res.Samples = append(res.Samples, Sample{Op: op, Footprint: st.FootprintBytes, Live: st.LiveBytes})
		}
		op++
	}

	lo, hi := cfg.MinVal, cfg.MaxVal
	insert := func(k uint64) error {
		stall := uint64(0)
		if hook != nil {
			stall = hook(op)
		}
		start := ctx.Clock.Total()
		err := cache.set(ctx, k, lo+rng.Intn(hi-lo+1))
		res.Evictions = cache.evictions
		if err != nil {
			return err
		}
		record(stall, start)
		return nil
	}
	query := func(k uint64) {
		stall := uint64(0)
		if hook != nil {
			stall = hook(op)
		}
		start := ctx.Clock.Total()
		if _, ok := s.Get(ctx, k); ok {
			cache.touch(k)
		}
		record(stall, start)
	}

	keyspace := uint64(cfg.InitialKeys)
	for i := 0; i < cfg.InitialKeys; i++ {
		if err := insert(rng.Uint64() % keyspace); err != nil {
			return res, err
		}
		for q := 0; q < cfg.QueriesPerInsert; q++ {
			query(rng.Uint64() % keyspace)
		}
	}
	keyspace += uint64(cfg.ExtraKeys)
	if cfg.MinVal2 > 0 && cfg.MaxVal2 >= cfg.MinVal2 {
		lo, hi = cfg.MinVal2, cfg.MaxVal2
	}
	for i := 0; i < cfg.ExtraKeys; i++ {
		if err := insert(rng.Uint64() % keyspace); err != nil {
			return res, err
		}
		for q := 0; q < cfg.QueriesPerInsert; q++ {
			query(rng.Uint64() % keyspace)
		}
	}
	res.Final = foot()
	return res, nil
}

type lruEnt struct {
	key  uint64
	size uint64
}

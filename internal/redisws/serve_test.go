package redisws_test

import (
	"testing"

	"ffccd/internal/kv"
	"ffccd/internal/obsv"
	"ffccd/internal/redisws"
)

func serveCfg() redisws.ServeConfig {
	cfg := redisws.DefaultServeConfig()
	cfg.Clients = 8
	cfg.Ops = 4000
	cfg.Keyspace = 800
	cfg.MaxLiveBytes = 800 * 150 // force LRU churn
	cfg.MinVal, cfg.MaxVal = 240, 366
	cfg.MinVal2, cfg.MaxVal2 = 367, 492
	cfg.MaintEvery = 200
	cfg.Seed = 7
	return cfg
}

// serveSummary flattens every deterministic outcome of a run into one
// comparable value: counters, cycle sums, and full histogram snapshots.
type serveSummary struct {
	Ops, Gets, Sets, Hits, Misses, Evictions int
	Parallel, Serial, Batches                int
	App, Interf, Stall, Queue                uint64
	SimCycles, Makespan                      uint64
	Rate                                     float64
	LatCount                                 uint64
	LatP50, LatP99, LatP999                  float64
	ExactP999                                float64
	Hists                                    [4]obsv.HistSnapshot
}

func summarize(res redisws.ServeResult) serveSummary {
	return serveSummary{
		Ops: res.Ops, Gets: res.Gets, Sets: res.Sets,
		Hits: res.Hits, Misses: res.Misses, Evictions: res.Evictions,
		Parallel: res.ParallelOps, Serial: res.SerialOps, Batches: res.Batches,
		App: res.AppCycles, Interf: res.InterfCycles,
		Stall: res.StallWaitCycles, Queue: res.QueueWaitCycles,
		SimCycles: res.SimCycles, Makespan: res.Makespan,
		Rate:     res.RateUsed,
		LatCount: res.Lat.Count(),
		LatP50:   res.Lat.Percentile(50),
		LatP99:   res.Lat.Percentile(99),
		LatP999:  res.Lat.Percentile(99.9),
		// The reservoir is sampled from its own counter stream, so even the
		// sampled exact percentile must reproduce bit-for-bit.
		ExactP999: res.Lat.ReservoirPercentile(99.9),
		Hists: [4]obsv.HistSnapshot{
			res.AppHist.Snapshot(""), res.InterfHist.Snapshot(""),
			res.StallHist.Snapshot(""), res.QueueHist.Snapshot(""),
		},
	}
}

func runServe(t *testing.T, cfg redisws.ServeConfig, hooks redisws.ServeHooks) redisws.ServeResult {
	t.Helper()
	p, ctx := setup(t)
	store, _ := kv.NewEcho(ctx, p, 1024)
	res, err := redisws.Serve(ctx, p, store, cfg, hooks)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestServeShape sanity-checks the dispatch split and latency ordering of a
// plain (no defrag) serving run.
func TestServeShape(t *testing.T) {
	res := runServe(t, serveCfg(), redisws.ServeHooks{})
	if res.Ops != 4000 || res.Gets+res.Sets != res.Ops || res.Hits+res.Misses != res.Gets {
		t.Fatalf("op accounting broken: %+v", res)
	}
	if res.ParallelOps == 0 || res.SerialOps == 0 {
		t.Fatalf("expected both batched GETs and serial SETs: par=%d ser=%d", res.ParallelOps, res.SerialOps)
	}
	if res.ParallelOps+res.SerialOps != res.Ops {
		t.Fatalf("dispatch split %d+%d != %d ops", res.ParallelOps, res.SerialOps, res.Ops)
	}
	if res.Evictions == 0 {
		t.Fatal("LRU cap never evicted")
	}
	p50, p99, p999 := res.Lat.Percentile(50), res.Lat.Percentile(99), res.Lat.Percentile(99.9)
	if !(p50 <= p99 && p99 <= p999 && p999 <= res.Lat.Max()) {
		t.Errorf("percentiles not monotone: %v %v %v max %v", p50, p99, p999, res.Lat.Max())
	}
	if res.AppCycles == 0 {
		t.Error("no app cycles recorded")
	}
	if res.StallWaitCycles != 0 {
		t.Errorf("stall cycles %d without any defrag hook", res.StallWaitCycles)
	}
	if res.RateUsed <= 0 {
		t.Errorf("auto-calibrated rate %v", res.RateUsed)
	}
}

// TestServeStallSurfacesInTail injects one large STW pause late in the run
// (so only the last dispatch window is affected); open-loop arrivals must
// pile up behind it, pushing the tail — but not the median — out by at
// least the pause length.
func TestServeStallSurfacesInTail(t *testing.T) {
	const pause = 40_000_000
	calls, fired := 0, false
	hooks := redisws.ServeHooks{Maintenance: func(uint64) uint64 {
		calls++
		if calls == 18 { // dispatched ≈ 3600 of 4000: ~10% of ops stall
			fired = true
			return pause
		}
		return 0
	}}
	res := runServe(t, serveCfg(), hooks)
	if !fired {
		t.Fatalf("maintenance hook ran %d times, pause never fired", calls)
	}
	if res.StallWaitCycles == 0 {
		t.Fatal("pause did not stall any op")
	}
	p50, p999 := res.Lat.Percentile(50), res.Lat.Percentile(99.9)
	if p999 < pause {
		t.Errorf("p999 %.0f below the %d-cycle pause", p999, pause)
	}
	if p50 >= pause {
		t.Errorf("p50 %.0f swallowed the pause; it should only surface in the tail", p50)
	}
}

// TestServeEpochForcesSerial: while a defrag epoch reports open, batched
// dispatch must be disabled (reads go through the barrier, so the
// peek-predicted parallel path is unsound there).
func TestServeEpochForcesSerial(t *testing.T) {
	cfg := serveCfg()
	cfg.Ops = 1000
	hooks := redisws.ServeHooks{EpochOpen: func() bool { return true }}
	res := runServe(t, cfg, hooks)
	if res.ParallelOps != 0 {
		t.Errorf("%d ops batched while an epoch was open", res.ParallelOps)
	}
	if res.SerialOps != res.Ops {
		t.Errorf("serial %d != ops %d", res.SerialOps, res.Ops)
	}
}

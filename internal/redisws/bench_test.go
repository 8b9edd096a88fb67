package redisws_test

import (
	"runtime"
	"testing"

	"ffccd/internal/obsv"
	"ffccd/internal/redisws"
	"ffccd/internal/sim"
)

// BenchmarkServe is the dispatcher's rung of the benchmark ladder: one
// serve-read-shaped run (an FFCCD machine, 32 clients, 90 % GETs at a pinned
// offered load, LRU churn and the mid-run value-size drift, a time series on)
// of 20 000 requests per iteration, the machine built off the clock. It
// reports host ns and allocated bytes per request; `make benchsmoke` runs it
// once.
func BenchmarkServe(b *testing.B) {
	const keys, ops = 4000, 20000
	cfg := redisws.DefaultServeConfig()
	cfg.Clients, cfg.Ops, cfg.Keyspace = 32, ops, keys
	cfg.GetFraction, cfg.RatePerSec = 0.9, 12e6
	cfg.MinVal, cfg.MaxVal = 240, 366
	cfg.MinVal2, cfg.MaxVal2 = 367, 492
	cfg.MaxLiveBytes = keys * 300 / 2
	cfg.MaintEvery = keys / 8
	cfg.Seed = 11

	var bytes uint64
	var m0, m1 runtime.MemStats
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		simCfg := sim.DefaultConfig()
		m, err := redisws.NewMachine(&simCfg, "ffccd", "bench", keys, 32<<20)
		if err != nil {
			b.Fatal(err)
		}
		m.Hooks.Series = obsv.NewTimeSeries("ffccd", 1_000_000, 0)
		runtime.ReadMemStats(&m0)
		b.StartTimer()
		res, err := redisws.Serve(m.Ctx, m.Pool, m.Store, cfg, m.Hooks)
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		bytes += m1.TotalAlloc - m0.TotalAlloc
		m.Eng.Close()
		if err != nil {
			b.Fatal(err)
		}
		if res.Ops != ops || res.ParallelOps == 0 {
			b.Fatalf("served %d ops, %d batched", res.Ops, res.ParallelOps)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ops), "ns/request")
	b.ReportMetric(float64(bytes)/float64(b.N*ops), "B/request")
}

package redisws_test

import (
	"runtime"
	"testing"

	"ffccd/internal/obsv"
	"ffccd/internal/redisws"
	"ffccd/internal/sim"
)

// benchKeys is the keyspace of the serve-read shape.
const benchKeys = 4000

// serveReadShape is a serve-read-shaped run of ops requests: 32 clients, 90 %
// GETs at a pinned offered load, LRU churn and the mid-run value-size drift.
func serveReadShape(ops int) redisws.ServeConfig {
	cfg := redisws.DefaultServeConfig()
	cfg.Clients, cfg.Ops, cfg.Keyspace = 32, ops, benchKeys
	cfg.GetFraction, cfg.RatePerSec = 0.9, 12e6
	cfg.MinVal, cfg.MaxVal = 240, 366
	cfg.MinVal2, cfg.MaxVal2 = 367, 492
	cfg.MaxLiveBytes = benchKeys * 300 / 2
	cfg.MaintEvery = benchKeys / 8
	cfg.Seed = 11
	return cfg
}

// serveOnce builds a fresh FFCCD machine with a time series on, serves cfg on
// it and returns the bytes Serve allocated; the machine is built and released
// outside the count. Under a benchmark only Serve runs on the timer.
func serveOnce(tb testing.TB, cfg redisws.ServeConfig) uint64 {
	tb.Helper()
	b, _ := tb.(*testing.B)
	m, err := redisws.NewMachine(sim.DefaultConfig(), "ffccd", "bench", cfg.Keyspace, 32<<20)
	if err != nil {
		tb.Fatal(err)
	}
	m.Hooks.Series = obsv.NewTimeSeries("ffccd", 1_000_000, 0)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if b != nil {
		b.StartTimer()
	}
	res, err := redisws.Serve(m.Ctx, m.Pool, m.Store, cfg, m.Hooks)
	if b != nil {
		b.StopTimer()
	}
	runtime.ReadMemStats(&m1)
	m.Eng.Close()
	m.Release()
	if err != nil {
		tb.Fatal(err)
	}
	if res.Ops != cfg.Ops || res.ParallelOps == 0 {
		tb.Fatalf("served %d ops, %d batched", res.Ops, res.ParallelOps)
	}
	return m1.TotalAlloc - m0.TotalAlloc
}

// BenchmarkServe is the dispatcher's rung of the benchmark ladder: one
// serve-read-shaped run of 20 000 requests per iteration, the machine built
// off the clock. It reports host ns and allocated bytes per request; `make
// benchsmoke` runs it once.
func BenchmarkServe(b *testing.B) {
	const ops = 20000
	cfg := serveReadShape(ops)
	var bytes uint64
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		bytes += serveOnce(b, cfg)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ops), "ns/request")
	b.ReportMetric(float64(bytes)/float64(b.N*ops), "B/request")
}

// TestServeAllocatesPerMachineNotPerRequest bounds what one more request of
// the serve-read shape allocates: the dispatcher's state, the store's read
// buffer, the LRU table and the footprint visitors are sized per machine or
// per run, so doubling the requests on a fresh machine may add at most a few
// bytes per request (windows of the time series, the epochs the longer run
// opens).
func TestServeAllocatesPerMachineNotPerRequest(t *testing.T) {
	const n = 20000
	serveOnce(t, serveReadShape(n)) // warm the process pools
	once := serveOnce(t, serveReadShape(n))
	twice := serveOnce(t, serveReadShape(2*n))
	perRequest := (float64(twice) - float64(once)) / n
	t.Logf("%d requests: %d B; %d requests: %d B; %.1f B per extra request", n, once, 2*n, twice, perRequest)
	if perRequest > 32 {
		t.Errorf("each extra request allocates %.1f B, want at most 32", perRequest)
	}
}

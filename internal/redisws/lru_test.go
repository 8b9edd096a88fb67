package redisws_test

import (
	"testing"

	"ffccd/internal/kv"
	"ffccd/internal/redisws"
)

func TestValueSizeDrift(t *testing.T) {
	// The second phase's drifted size distribution must raise fragmentation
	// above the single-distribution run (the mechanism behind Figure 16's
	// footprint growth).
	run := func(drift bool) float64 {
		p, ctx := setup(t)
		store, _ := kv.NewEcho(ctx, p, 2048)
		cfg := smallCfg()
		if drift {
			cfg.MinVal, cfg.MaxVal = 24, 128
			cfg.MinVal2, cfg.MaxVal2 = 256, 492
		}
		res, err := redisws.Run(ctx, p, store, cfg, redisws.ServeHooks{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Final.FragRatio
	}
	same := run(false)
	drifted := run(true)
	if drifted <= same {
		t.Errorf("drifted fragR %.2f not above same-distribution %.2f", drifted, same)
	}
}

func TestHookStallsAppearInLatencies(t *testing.T) {
	p, ctx := setup(t)
	store, _ := kv.NewEcho(ctx, p, 2048)
	cfg := smallCfg()
	cfg.InitialKeys, cfg.ExtraKeys = 500, 100
	const bigStall = 50_000_000
	calls, fired := 0, 0
	res, err := redisws.Run(ctx, p, store, cfg, redisws.ServeHooks{Maintenance: func(uint64) uint64 {
		calls++
		if calls == 5 {
			fired++
			return bigStall
		}
		return 0
	}})
	if err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("hook fired %d times", fired)
	}
	// 1 200 operations, a maintenance point before every 62nd (500/8).
	if calls != 19 {
		t.Errorf("maintenance ran %d times, want 19", calls)
	}
	if maxLat := res.Lat.Max(); maxLat < bigStall {
		t.Errorf("stall not reflected in latencies: max=%.0f", maxLat)
	}
}

func TestEvictionsAreLRU(t *testing.T) {
	p, ctx := setup(t)
	store, _ := kv.NewEcho(ctx, p, 4096)
	cfg := redisws.Config{
		MaxLiveBytes:     10 * 1024,
		InitialKeys:      200,
		ExtraKeys:        0,
		QueriesPerInsert: 0,
		MinVal:           100,
		MaxVal:           100,
		Seed:             7,
	}
	res, err := redisws.Run(ctx, p, store, cfg, redisws.ServeHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evictions == 0 {
		t.Fatal("no evictions with a 10KB cap")
	}
	// Live stays bounded: ~100 values of 100 bytes.
	if store.Len() > 110 {
		t.Errorf("store holds %d entries, cap allows ~102", store.Len())
	}
}

// Every value is a window of one shared table sized for MaxValue bytes, so a
// config that asks for longer values is an error of Run and Serve, not a
// slice past the table's end.
func TestValuesPastMaxValueAreRejected(t *testing.T) {
	p, ctx := setup(t)
	store, _ := kv.NewEcho(ctx, p, 64)
	cfg := redisws.Config{InitialKeys: 4, MinVal: 8, MaxVal: redisws.MaxValue + 1, Seed: 7}
	if _, err := redisws.Run(ctx, p, store, cfg, redisws.ServeHooks{}); err == nil {
		t.Error("Run accepted values of MaxValue+1 bytes")
	}
	scfg := redisws.DefaultServeConfig()
	scfg.Keyspace, scfg.Ops = 16, 16
	scfg.MinVal2, scfg.MaxVal2 = 8, redisws.MaxValue+1
	if _, err := redisws.Serve(ctx, p, store, scfg, redisws.ServeHooks{}); err == nil {
		t.Error("Serve accepted post-drift values of MaxValue+1 bytes")
	}
	scfg.MaxVal2 = redisws.MaxValue
	if _, err := redisws.Serve(ctx, p, store, scfg, redisws.ServeHooks{}); err != nil {
		t.Errorf("values of MaxValue bytes: %v", err)
	}
}

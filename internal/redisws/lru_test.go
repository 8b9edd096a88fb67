package redisws_test

import (
	"testing"

	"ffccd/internal/kv"
	"ffccd/internal/redisws"
)

func TestValueSizeDrift(t *testing.T) {
	// Values that drift to a disjoint size range halfway through must raise
	// fragmentation above a run that keeps one distribution throughout (the
	// mechanism behind Figure 16's footprint growth).
	run := func(drift bool) float64 {
		p, ctx := setup(t)
		store, _ := kv.NewEcho(ctx, p, 2048)
		cfg := redisws.DefaultServeConfig()
		cfg.Keyspace, cfg.Ops = 2000, 12000
		cfg.MaxLiveBytes = 300 << 10 // force LRU expiry
		cfg.MinVal, cfg.MaxVal = 24, 492
		if drift {
			cfg.MinVal, cfg.MaxVal = 24, 128
			cfg.MinVal2, cfg.MaxVal2 = 256, 492
		}
		res, err := redisws.Serve(ctx, p, store, cfg, redisws.ServeHooks{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Final.FragRatio
	}
	same := run(false)
	drifted := run(true)
	t.Logf("fragR: one distribution %.3f, drifted %.3f", same, drifted)
	if drifted <= same {
		t.Errorf("drifted fragR %.2f not above same-distribution %.2f", drifted, same)
	}
}

func TestHookStallsAppearInLatencies(t *testing.T) {
	p, ctx := setup(t)
	store, _ := kv.NewEcho(ctx, p, 2048)
	const bigStall = 50_000_000
	calls, fired := 0, 0
	res, err := redisws.Run(ctx, p, store, 500, redisws.ServeHooks{Maintenance: func(uint64) uint64 {
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
	// 3 000 operations, a maintenance point before every 62nd (500/8).
	if calls != 48 {
		t.Errorf("maintenance ran %d times, want 48", calls)
	}
	if maxLat := res.Lat.Max(); maxLat < bigStall {
		t.Errorf("stall not reflected in latencies: max=%.0f", maxLat)
	}
}

// TestEvictionsAreLRU: the regime's cap of 150 bytes per owned key bounds
// the values the store keeps.
func TestEvictionsAreLRU(t *testing.T) {
	p, ctx := setup(t)
	store, _ := kv.NewEcho(ctx, p, 4096)
	const keys = 200
	res, err := redisws.Run(ctx, p, store, keys, redisws.ServeHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evictions == 0 {
		t.Fatal("no evictions under the regime's cap")
	}
	limit := redisws.RegimeConfig(keys).MaxLiveBytes
	if limit != keys*150 {
		t.Fatalf("regime cap %d bytes, want 150 per key", limit)
	}
	// Every value is at least 240 bytes, so at most 125 fit 30 000.
	if store.Len() > int(limit/240) {
		t.Errorf("store holds %d entries, the cap allows %d", store.Len(), limit/240)
	}
}

// Every value is a window of one shared table sized for MaxValue bytes, so a
// config that asks for longer values is an error of Serve, not a slice past
// the table's end.
func TestValuesPastMaxValueAreRejected(t *testing.T) {
	p, ctx := setup(t)
	store, _ := kv.NewEcho(ctx, p, 64)
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

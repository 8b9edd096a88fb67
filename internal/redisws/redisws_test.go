package redisws_test

import (
	"testing"

	"ffccd/internal/checker"
	"ffccd/internal/core"
	"ffccd/internal/kv"
	"ffccd/internal/pmop"
	"ffccd/internal/redisws"
	"ffccd/internal/sim"
)

func setup(t *testing.T) (*pmop.Pool, *sim.Ctx) {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.CacheBytes = 256 * 1024
	rt := pmop.NewRuntime(&cfg, 128<<20)
	reg := pmop.NewRegistry()
	kv.RegisterTypes(reg)
	p, err := rt.Create("redis", 64<<20, 12, reg)
	if err != nil {
		t.Fatal(err)
	}
	return p, sim.NewCtx(&cfg)
}

// testKeys is the owned-key count the closed-loop tests run: 4 000 SETs and
// 8 000 GETs under a 300 000-byte LRU cap.
const testKeys = 2000

func TestRedisLRUCapHolds(t *testing.T) {
	p, ctx := setup(t)
	store, _ := kv.NewEcho(ctx, p, 2048)
	res, err := redisws.Run(ctx, p, store, testKeys, redisws.ServeHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evictions == 0 {
		t.Fatal("LRU never evicted despite cap")
	}
	// Live data stays near the cap; the footprint grows past it — that is
	// the fragmentation Figure 16 shows.
	// The allocator's live view includes entry/bucket overhead on top of
	// the value bytes the LRU cap governs.
	last := res.Samples[len(res.Samples)-1]
	if limit := redisws.RegimeConfig(testKeys).MaxLiveBytes; last.Live > limit*7/4 {
		t.Errorf("live %d far exceeds cap %d", last.Live, limit)
	}
	if res.Final.FragRatio < 1.1 {
		t.Errorf("baseline fragR = %.2f, expected fragmentation", res.Final.FragRatio)
	}
	if res.Lat.Hist.Count() == 0 {
		t.Fatal("no latencies recorded")
	}
}

// schemeHooks wires scheme's serving hooks over p, as redisws.Equip does, on
// an engine of its own (ffccd, stw) and a fresh defragmentation context. It
// returns the hooks and the engine (nil for "none" and "mesh").
func schemeHooks(t *testing.T, scheme string, p *pmop.Pool) (redisws.ServeHooks, *core.Engine) {
	t.Helper()
	var eng *core.Engine
	if opt := redisws.SchemeOptions(scheme); opt.Scheme != core.SchemeNone {
		eng = core.NewEngine(p, opt)
		t.Cleanup(eng.Close)
	}
	return redisws.SchemeHooks(scheme, eng, nil, sim.NewCtx(p.Config())), eng
}

func TestRedisWithFFCCDReducesFootprint(t *testing.T) {
	base := func() float64 {
		p, ctx := setup(t)
		store, _ := kv.NewEcho(ctx, p, 2048)
		res, err := redisws.Run(ctx, p, store, testKeys, redisws.ServeHooks{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Final.FragRatio
	}()
	withGC := func() float64 {
		p, ctx := setup(t)
		store, _ := kv.NewEcho(ctx, p, 2048)
		// Concurrent FFCCD epochs on a GC context: the application only
		// waits out mark+summary and terminate, and pays the barrier cost.
		hooks, eng := schemeHooks(t, "ffccd", p)
		res, err := redisws.Run(ctx, p, store, testKeys, hooks)
		if err != nil {
			t.Fatal(err)
		}
		if eng.Stats().Cycles == 0 {
			t.Fatal("FFCCD never ran an epoch")
		}
		return res.Final.FragRatio
	}()
	// At this miniature scale the achievable compaction gain is marginal
	// (per-object line round-up ≈ first-fit waste); the full-scale reduction
	// is validated by the Figure 16 experiment (see EXPERIMENTS.md). Here we
	// guard that running FFCCD never makes fragmentation materially worse.
	if withGC > base+0.05 {
		t.Errorf("FFCCD fragR %.2f materially worse than baseline %.2f", withGC, base)
	}
}

// TestRunOverlapsFFCCDEpochs: under the ffccd scheme hooks, Run's operations
// run while an epoch is open (each one is followed by a one-unit compaction
// step) and pass the read barrier, which charges the loader context outside
// CatApp; the last epoch is drained before Run returns, leaving a consistent
// graph.
func TestRunOverlapsFFCCDEpochs(t *testing.T) {
	p, ctx := setup(t)
	store, _ := kv.NewEcho(ctx, p, 2048)
	hooks, eng := schemeHooks(t, "ffccd", p)
	stepped, stillOpen := 0, 0
	step := hooks.Step
	hooks.Step = func(n int) (bool, uint64) {
		if n == 1 {
			stepped++
		}
		open, pause := step(n)
		if open {
			stillOpen++
		}
		return open, pause
	}
	if _, err := redisws.Run(ctx, p, store, testKeys, hooks); err != nil {
		t.Fatal(err)
	}
	if stepped == 0 || stillOpen == 0 {
		t.Fatalf("no operation ran with an epoch open (%d steps, %d left it open; %d cycles)", stepped, stillOpen, eng.Stats().Cycles)
	}
	var nonApp uint64
	for c := sim.Category(0); int(c) < sim.NumCategories; c++ {
		if c != sim.CatApp {
			nonApp += ctx.Clock.Cycles(c)
		}
	}
	if nonApp == 0 {
		t.Error("the loader context was charged no cycle outside CatApp: no operation met the read barrier")
	}
	t.Logf("%d operations ran with an epoch open, %d steps left it open; loader non-App cycles %d", stepped, stillOpen, nonApp)
	if _, open := hooks.EpochInfo(); open {
		t.Fatal("an epoch is still open after Run")
	}
	if _, err := checker.CheckGraph(sim.NewCtx(p.Config()), p); err != nil {
		t.Fatalf("graph after Run: %v", err)
	}
}

// TestRunRefusesCrashPlan: Run has no recovery path, so a crash plan is an
// input error, not a run that ignores it.
func TestRunRefusesCrashPlan(t *testing.T) {
	p, ctx := setup(t)
	store, _ := kv.NewEcho(ctx, p, 2048)
	armed := false
	plan := &redisws.CrashPlan{Arm: func() { armed = true }}
	before := ctx.Clock.Total()
	if _, err := redisws.Run(ctx, p, store, testKeys, redisws.ServeHooks{Crash: plan}); err == nil {
		t.Fatal("Run accepted a crash plan")
	}
	if armed || ctx.Clock.Total() != before {
		t.Errorf("Run worked before refusing the plan: armed %v, loader cycles %d", armed, ctx.Clock.Total()-before)
	}
}

func TestRedisSTWPausesVisibleInTail(t *testing.T) {
	p, ctx := setup(t)
	store, _ := kv.NewEcho(ctx, p, 2048)
	hooks, eng := schemeHooks(t, "stw", p)
	res, err := redisws.Run(ctx, p, store, testKeys, hooks)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d STW cycles", eng.Stats().Cycles)
	p50 := res.Lat.Percentile(50)
	p999 := res.Lat.Percentile(99.9)
	if p999 < 10*p50 {
		t.Errorf("STW pauses not visible in tail: p50=%.0f p99.9=%.0f", p50, p999)
	}
}

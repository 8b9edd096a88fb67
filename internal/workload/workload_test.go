package workload_test

import (
	"testing"

	"ffccd/internal/alloc"
	"ffccd/internal/core"
	"ffccd/internal/ds"
	"ffccd/internal/pmop"
	"ffccd/internal/sim"
	"ffccd/internal/workload"
)

func setup(t *testing.T) (*pmop.Pool, *sim.Ctx) {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.CacheBytes = 256 * 1024
	rt := pmop.NewRuntime(&cfg, 128<<20)
	reg := pmop.NewRegistry()
	ds.RegisterTypes(reg)
	p, err := rt.Create("wl", 64<<20, 12, reg)
	if err != nil {
		t.Fatal(err)
	}
	return p, sim.NewCtx(&cfg)
}

func TestWorkloadPhases(t *testing.T) {
	p, ctx := setup(t)
	l, _ := ds.NewList(ctx, p)
	cfg := workload.Scaled(0.1) // 2000 init, 1600 per phase
	res, err := workload.Run(ctx, p, l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 4 {
		t.Fatalf("phases = %d", len(res.Phases))
	}
	if res.Phases[0].Name != "init" || res.Phases[3].Name != "delete2" {
		t.Fatal("phase names wrong")
	}
	// Live data shrinks in delete phases, grows in insert.
	if l.Len() != 2000-1600+1600-1600 {
		t.Fatalf("final live keys = %d", l.Len())
	}
	// Without defragmentation the delete phases leave fragmentation behind.
	if res.Phases[1].End.FragRatio <= 1.2 {
		t.Errorf("delete phase fragR = %.2f, expected fragmentation", res.Phases[1].End.FragRatio)
	}
	if res.AvgFragRatio() <= 1.0 {
		t.Errorf("avg fragR = %.2f", res.AvgFragRatio())
	}
	if res.TotalCycles == 0 || res.TotalOps != 4800 {
		t.Errorf("totals: %d cycles %d ops", res.TotalCycles, res.TotalOps)
	}
}

func TestWorkloadWithDefragReducesFootprint(t *testing.T) {
	run := func(scheme core.Scheme) float64 {
		p, ctx := setup(t)
		l, _ := ds.NewList(ctx, p)
		cfg := workload.Scaled(0.1)
		if scheme != core.SchemeNone {
			opt := core.DefaultOptions()
			opt.Scheme = scheme
			eng := core.NewEngine(p, opt)
			defer eng.Close()
			gcCtx := sim.NewCtx(p.Config())
			cfg.Maintenance = func() {
				if p.Heap().Frag(p.PageShift()).FragRatio > opt.TriggerRatio {
					eng.RunCycle(gcCtx)
				}
			}
		}
		res, err := workload.Run(ctx, p, l, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.AvgFragRatio()
	}
	baseline := run(core.SchemeNone)
	ffccd := run(core.SchemeFFCCDCheckLookup)
	if ffccd >= baseline {
		t.Errorf("FFCCD avg fragR %.2f not better than baseline %.2f", ffccd, baseline)
	}
}

func TestWorkloadKeyCap(t *testing.T) {
	p, ctx := setup(t)
	s, _ := ds.NewStringStore(ctx, p, 2048)
	cfg := workload.Scaled(0.05)
	cfg.KeyCap = 2048
	if _, err := workload.Run(ctx, p, s, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPreSampleAndMaintenanceOrdering(t *testing.T) {
	p, ctx := setup(t)
	l, _ := ds.NewList(ctx, p)
	cfg := workload.Scaled(0.05)
	var order []string
	cfg.PreSample = func() { order = append(order, "pre") }
	cfg.Maintenance = func() { order = append(order, "maint") }
	if _, err := workload.Run(ctx, p, l, cfg); err != nil {
		t.Fatal(err)
	}
	if len(order) < 4 || order[0] != "pre" || order[1] != "maint" {
		t.Fatalf("hook order wrong: %v", order[:4])
	}
	for i := 0; i+1 < len(order); i += 2 {
		if order[i] != "pre" || order[i+1] != "maint" {
			t.Fatalf("hooks interleaved wrongly at %d: %v", i, order[i:i+2])
		}
	}
}

func TestKeyBaseDisjointRanges(t *testing.T) {
	p, ctx := setup(t)
	l, _ := ds.NewList(ctx, p)
	cfg := workload.Scaled(0.02)
	cfg.KeyBase = 1 << 40
	if _, err := workload.Run(ctx, p, l, cfg); err != nil {
		t.Fatal(err)
	}
	// Every surviving key must carry the base.
	count := 0
	l.Walk(ctx, func(key uint64, _ pmop.Ptr) bool {
		count++
		if key < 1<<40 {
			t.Errorf("key %d below the key base", key)
		}
		return true
	})
	if count == 0 {
		t.Error("no keys survived")
	}
}

func TestScaledConfig(t *testing.T) {
	base := workload.DefaultConfig()
	half := workload.Scaled(0.5)
	if half.InitInserts != base.InitInserts/2 || half.PhaseOps != base.PhaseOps/2 {
		t.Errorf("Scaled(0.5) = %d/%d, want %d/%d",
			half.InitInserts, half.PhaseOps, base.InitInserts/2, base.PhaseOps/2)
	}
	if half.SampleEvery != base.SampleEvery {
		t.Error("Scaled must only change the op counts")
	}
}

func TestAvgFragRatioZeroLive(t *testing.T) {
	if (workload.PhaseResult{AvgFootprint: 10}).AvgFragRatio() != 0 {
		t.Error("phase with zero live size must report ratio 0, not +Inf")
	}
	if (workload.Result{AvgFootprint: 10}).AvgFragRatio() != 0 {
		t.Error("result with zero live size must report ratio 0, not +Inf")
	}
}

func TestRunIsSeedDeterministic(t *testing.T) {
	run := func() (workload.Result, alloc.FragStats) {
		cfg := sim.DefaultConfig()
		rt := pmop.NewRuntime(&cfg, 64<<20)
		reg := pmop.NewRegistry()
		ds.RegisterTypes(reg)
		p, err := rt.Create("det", 32<<20, 12, reg)
		if err != nil {
			t.Fatal(err)
		}
		ctx := sim.NewCtx(&cfg)
		s, err := ds.NewList(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		wcfg := workload.Config{InitInserts: 800, PhaseOps: 600, Seed: 5, SampleEvery: 100}
		res, err := workload.Run(ctx, p, s, wcfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, p.Heap().Frag(12)
	}
	r1, f1 := run()
	r2, f2 := run()
	if r1.TotalOps != r2.TotalOps || r1.AvgFootprint != r2.AvgFootprint || r1.AvgLive != r2.AvgLive {
		t.Errorf("two identical runs diverged: %+v vs %+v", r1, r2)
	}
	if f1 != f2 {
		t.Errorf("final fragmentation diverged: %+v vs %+v", f1, f2)
	}
}

func TestValueJitterVariesSizes(t *testing.T) {
	cfg := sim.DefaultConfig()
	rt := pmop.NewRuntime(&cfg, 64<<20)
	reg := pmop.NewRegistry()
	ds.RegisterTypes(reg)
	p, err := rt.Create("jit", 32<<20, 12, reg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewCtx(&cfg)
	s, err := ds.NewList(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	wcfg := workload.Config{InitInserts: 400, PhaseOps: 200, ValueJitter: 48, Seed: 9, SampleEvery: 100}
	if _, err := workload.Run(ctx, p, s, wcfg); err != nil {
		t.Fatal(err)
	}
	sizes := map[int]bool{}
	s.Walk(ctx, func(k uint64, _ pmop.Ptr) bool {
		if v, ok := s.Get(ctx, k); ok {
			sizes[len(v)] = true
		}
		return len(sizes) < 4
	})
	if len(sizes) < 4 {
		t.Errorf("jittered workload produced only %d distinct value sizes", len(sizes))
	}
}

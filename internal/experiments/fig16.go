package experiments

import (
	"fmt"
	"strings"

	"ffccd/internal/alloc"
	"ffccd/internal/core"
	"ffccd/internal/kv"
	"ffccd/internal/mesh"
	"ffccd/internal/obsv"
	"ffccd/internal/redisws"
	"ffccd/internal/sim"
)

// Fig16Variant is one scheme's Redis run.
type Fig16Variant struct {
	Name          string
	Samples       []redisws.Sample
	FinalFragR    float64
	FragReduction float64 // vs the PMDK baseline, eq. 1
	P90, P95, P99 float64 // op latency percentiles (cycles)
	P999          float64
	MaxPause      float64
}

// Fig16Result is the whole case study.
type Fig16Result struct {
	Variants []Fig16Variant
}

// Figure16 reproduces the §7.4 Redis case study: memory footprint over time
// and tail latency for the PMDK baseline, FFCCD (concurrent), a
// stop-the-world compactor (jemalloc-style) and Mesh.
func Figure16(scale float64) (Fig16Result, error) {
	cfg := redisws.DefaultConfig()
	cfg.InitialKeys = int(1_000_000 * scale * 20)
	cfg.ExtraKeys = int(500_000 * scale * 20)
	if cfg.InitialKeys < 2000 {
		cfg.InitialKeys, cfg.ExtraKeys = 2000, 1000
	}
	// Cap the live set at roughly half the key-volume so LRU expiry churns,
	// and drift the value-size distribution in the second phase — the
	// long-running-cache regime in which Redis fragments (§7.4).
	cfg.MaxLiveBytes = uint64(cfg.InitialKeys) * 300 / 2
	cfg.MinVal, cfg.MaxVal = 240, 366
	cfg.MinVal2, cfg.MaxVal2 = 367, 492
	cfg.ExtraKeys = cfg.InitialKeys

	var res Fig16Result
	type variant struct {
		name   string
		scheme core.Scheme
		mesh   bool
	}
	variants := []variant{
		{"PMDK (baseline)", core.SchemeNone, false},
		{"FFCCD", core.SchemeFFCCDCheckLookup, false},
		{"STW defrag", core.SchemeEspresso, false},
		{"Mesh", core.SchemeNone, true},
	}
	outs := make([]Fig16Variant, len(variants))
	// Every variant drives its own simulated machine; fan them out.
	err := parallelFor(len(variants), func(i int) error {
		v := variants[i]
		out, err := runFig16Variant(v.name, v.scheme, v.mesh, cfg)
		outs[i] = out
		return err
	})
	if err != nil {
		return res, err
	}
	res.Variants = outs
	// Fragmentation reduction vs baseline.
	base := res.Variants[0]
	baseFoot := float64(base.Samples[len(base.Samples)-1].Footprint)
	baseLive := float64(base.Samples[len(base.Samples)-1].Live)
	for i := range res.Variants[1:] {
		v := &res.Variants[i+1]
		foot := float64(v.Samples[len(v.Samples)-1].Footprint)
		if denom := baseFoot - baseLive; denom > 0 {
			v.FragReduction = (baseFoot - foot) / denom * 100
		}
	}
	return res, nil
}

func runFig16Variant(name string, scheme core.Scheme, useMesh bool, cfg redisws.Config) (Fig16Variant, error) {
	env, err := NewEnv(uint64(cfg.InitialKeys)*512*6+(32<<20), 12)
	if err != nil {
		return Fig16Variant{}, err
	}
	defer env.Release()
	store, err := kv.NewEcho(env.Ctx, env.Pool, cfg.InitialKeys/2+64)
	if err != nil {
		return Fig16Variant{}, err
	}

	var hook redisws.Hook
	var foot redisws.FootprintFn
	interval := cfg.InitialKeys / 8

	switch {
	case useMesh:
		d := mesh.New(env.Pool)
		meshCtx := sim.NewCtx(&env.Cfg)
		hook = func(op int) uint64 {
			if op%interval != interval-1 {
				return 0
			}
			before := meshCtx.Clock.Total()
			d.RunCycle(meshCtx)
			return meshCtx.Clock.Total() - before // meshing pauses the world
		}
		foot = func() alloc.FragStats { return d.PhysFrag(12) }
	case scheme != core.SchemeNone:
		opt := core.Options{Scheme: scheme, TriggerRatio: 1.15, TargetRatio: 1.05, BatchObjects: 64}
		eng := env.NewEngine(opt)
		defer eng.Close()
		env.GC = sim.NewCtx(&env.Cfg)
		gc := env.GC.Clock
		hook = func(op int) uint64 {
			if op%interval != interval-1 || env.Pool.Heap().Frag(12).FragRatio <= opt.TriggerRatio {
				return 0
			}
			if scheme == core.SchemeEspresso {
				// Stop-the-world comparator: the full cycle stalls the
				// in-flight op.
				pause, _ := eng.RunCycleSTW(env.GC)
				return pause
			}
			// Concurrent FFCCD: marking+summary stall (short); compaction
			// runs via read barriers and the background mover on the GC
			// clock. Only the STW phases stall the application (§2.3.2).
			before := gc.Cycles(sim.CatMark) + gc.Cycles(sim.CatSummary)
			eng.RunCycle(env.GC)
			return gc.Cycles(sim.CatMark) + gc.Cycles(sim.CatSummary) - before
		}
	}

	out, err := redisws.Run(env.Ctx, env.Pool, store, cfg, hook, foot)
	if err != nil {
		return Fig16Variant{}, err
	}
	v := Fig16Variant{
		Name:       name,
		Samples:    out.Samples,
		FinalFragR: out.Final.FragRatio,
		P90:        out.Lat.Percentile(90),
		P95:        out.Lat.Percentile(95),
		P99:        out.Lat.Percentile(99),
		P999:       out.Lat.Percentile(99.9),
		MaxPause:   out.Lat.Max(),
	}
	return v, nil
}

func (r Fig16Result) String() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 16 — Redis case study: footprint over time and tail latency")
	t := obsv.NewTable("variant", "final fragR", "frag-red(%)", "p90(cyc)", "p95(cyc)", "p99(cyc)", "p999(cyc)", "max(cyc)")
	for _, v := range r.Variants {
		t.Add(v.Name, v.FinalFragR, v.FragReduction, v.P90, v.P95, v.P99, v.P999, v.MaxPause)
	}
	b.WriteString(t.String())
	fmt.Fprintln(&b, "\nfootprint series (MB at sampled ops):")
	st := obsv.NewTable(append([]string{"op"}, variantNames(r)...)...)
	if len(r.Variants) > 0 {
		n := len(r.Variants[0].Samples)
		step := n / 20
		if step == 0 {
			step = 1
		}
		for i := 0; i < n; i += step {
			cells := []any{r.Variants[0].Samples[i].Op}
			for _, v := range r.Variants {
				if i < len(v.Samples) {
					cells = append(cells, float64(v.Samples[i].Footprint)/(1<<20))
				} else {
					cells = append(cells, "-")
				}
			}
			st.Add(cells...)
		}
	}
	b.WriteString(st.String())
	return b.String()
}

func variantNames(r Fig16Result) []string {
	var out []string
	for _, v := range r.Variants {
		out = append(out, v.Name)
	}
	return out
}

// CSV renders the footprint-over-time series as comma-separated values
// (op, then one column per variant, in MB) — plot-ready Figure 16 data.
func (r Fig16Result) CSV() string {
	var b strings.Builder
	b.WriteString("op")
	for _, v := range r.Variants {
		b.WriteString(",")
		b.WriteString(v.Name)
	}
	b.WriteString("\n")
	if len(r.Variants) == 0 {
		return b.String()
	}
	for i := range r.Variants[0].Samples {
		fmt.Fprintf(&b, "%d", r.Variants[0].Samples[i].Op)
		for _, v := range r.Variants {
			if i < len(v.Samples) {
				fmt.Fprintf(&b, ",%.4f", float64(v.Samples[i].Footprint)/(1<<20))
			} else {
				b.WriteString(",")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

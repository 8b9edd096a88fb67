package experiments

import (
	"fmt"
	"sync/atomic"

	"ffccd/internal/obsv"
	"ffccd/internal/sim"
)

// Observability wiring for the experiment drivers. When a collector is
// installed (cmd/ffccd-bench -trace / -httpobs), every run — scratch, fork
// prefix, and forked continuation — becomes one trace "process" so Perfetto
// shows prefix work attributed separately from each scheme's fork. With no
// collector installed (the default) every hook below is a nil load and the
// drivers run exactly as before; either way no simulated cycle is charged,
// so outcomes are bit-identical (TestGoldenCycles runs with it enabled).

var obsCollector atomic.Pointer[obsv.Collector]

// SetObsCollector installs (or, with nil, removes) the collector that
// receives every run's observability. Applies to runs started afterwards.
func SetObsCollector(c *obsv.Collector) { obsCollector.Store(c) }

// specLabel names a run's trace process.
func specLabel(spec Spec, suffix string) string {
	return fmt.Sprintf("%s/%s/t%d/seed%d%s",
		spec.Store, spec.Scheme, spec.Threads, spec.Seed, suffix)
}

// newRunObs creates the per-run bundle when a collector is installed and
// wires m's device into it; returns nil (observability off) otherwise.
// Call before engine construction so the bundle can ride in core.Options.
func newRunObs(spec Spec, suffix string, m *Env) *obsv.Obs {
	col := obsCollector.Load()
	if col == nil {
		return nil
	}
	o := col.NewObs(specLabel(spec, suffix))
	o.Tracer.Name(m.Ctx, "app")
	o.Tracer.Name(m.GC, "gc")
	m.Device().SetObs(o)
	return o
}

// registerRunGroups adds the per-run snapshot groups owned by the driver:
// per-category cycle attribution (including the engine's own GC clock, which
// terminate work during Close charges) and TLB counters. Device and engine
// register their own counter groups in their SetObs. No-op when o is nil.
func registerRunGroups(o *obsv.Obs, m *Env) {
	if o == nil {
		return
	}
	appCtx, gcCtx, eng := m.Ctx, m.GC, m.Eng
	o.Metrics.RegisterGroup("cycles", func() map[string]uint64 {
		clk := sim.NewClock()
		clk.Merge(appCtx.Clock)
		clk.Merge(gcCtx.Clock)
		if eng != nil {
			clk.Merge(eng.GCClock())
		}
		m := make(map[string]uint64, sim.NumCategories)
		for c := 0; c < sim.NumCategories; c++ {
			m[sim.Category(c).String()] = clk.Cycles(sim.Category(c))
		}
		return m
	})
	o.Metrics.RegisterGroup("tlb", func() map[string]uint64 {
		return map[string]uint64{
			"accesses":  appCtx.TLB.AccessCount() + gcCtx.TLB.AccessCount(),
			"l1_misses": appCtx.TLB.L1Misses + gcCtx.TLB.L1Misses,
			"l2_misses": appCtx.TLB.L2Misses + gcCtx.TLB.L2Misses,
		}
	})
}

package core

import (
	"ffccd/internal/obsv"
	"ffccd/internal/sim"
)

// RunCycleSTW performs one complete stop-the-world defragmentation cycle —
// the jemalloc-style comparator of §7.4: marking, summary, every relocation,
// and the reference fixup all happen inside a single application pause, so
// no read barrier is ever installed. Object moves still follow the engine's
// scheme for persistence (use SchemeEspresso for the paper's comparison).
// Returns the pause length in simulated cycles and whether a cycle ran.
func (e *Engine) RunCycleSTW(ctx *sim.Ctx) (uint64, bool) {
	e.mustLive()
	if e.opt.Scheme == SchemeNone || e.epoch != nil {
		return 0, false
	}
	start := ctx.Clock.Total()

	live := e.mark(ctx.Derived(sim.CatMark), nil, true)
	ep := e.summary(ctx.Derived(sim.CatSummary), live)
	if ep == nil {
		return ctx.Clock.Total() - start, false
	}
	ep.obsStart = start
	e.epoch = ep

	for i := range ep.objects {
		if !ep.isMoved(i) {
			e.relocateObject(ctx.Derived(sim.CatCopy), ep, i, false)
		}
	}
	e.finishEpochPaused(ctx, ep)
	e.stats.Cycles++

	pause := ctx.Clock.Total() - start
	if o := e.obs; o != nil {
		o.Tracer.Span(ctx, obsv.KindSTW, start, 0)
		e.hSTW.Observe(pause)
	}
	return pause, true
}

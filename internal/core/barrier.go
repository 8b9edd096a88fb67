package core

import (
	"ffccd/internal/arch"
	"ffccd/internal/pmop"
	"ffccd/internal/sim"
)

// readBarrier implements pmop.ReadBarrier for the compacting phase. It is
// the paper's modified D_RW/D_RO (Fig. 6b / Fig. 9a): check whether the
// referent lives on a relocation page, look up its destination, relocate it
// if it has not moved, and return the forwarded pointer. The caller
// (pmop.Pool) self-heals stored references with a plain store — the
// idempotent, fence-free reference update of Observation 3.
type readBarrier struct {
	e  *Engine
	ep *epochState
}

// cluFor returns the checklookup unit for one resolve. A unit already
// attached to the context (planted there by a checkpoint restore, so a fork
// resumes with the warm BFC/PMFTLB it captured) is used as-is. Otherwise a
// unit comes from the engine's pool, Reset to power-on state — simulating
// identically to the fresh allocation this replaces — and the caller must
// hand it back with cluDone. pooled reports which case applied.
func (e *Engine) cluFor(ctx *sim.Ctx) (u *arch.CheckLookupUnit, pooled bool) {
	if u, ok := ctx.HW.(*arch.CheckLookupUnit); ok {
		u.Shared = e.cluStats
		return u, false
	}
	u = e.cluPool.Get().(*arch.CheckLookupUnit)
	u.Reset()
	u.Shared = e.cluStats
	return u, true
}

// cluDone returns a pooled unit; units found on the context stay attached.
func (e *Engine) cluDone(u *arch.CheckLookupUnit, pooled bool) {
	if pooled {
		e.cluPool.Put(u)
	}
}

// RestoreCLU rebuilds a checklookup unit from a machine checkpoint, wires it
// to this engine's counter sink, and attaches it to ctx so subsequent
// resolves on ctx use the restored (warm) unit instead of pooled cold ones.
// Used by drivers that fork a machine captured inside an open epoch.
func (e *Engine) RestoreCLU(ctx *sim.Ctx, c *arch.CheckLookupUnitCheckpoint) *arch.CheckLookupUnit {
	u := arch.NewCheckLookupUnit(e.cfg)
	u.Restore(c)
	u.Shared = e.cluStats
	ctx.HW = u
	return u
}

// Resolve wraps resolve with the read-barrier latency histogram when
// observability is enabled. The clock delta is read, never charged, so the
// instrumented and bare paths charge identical cycles.
func (b *readBarrier) Resolve(ctx *sim.Ctx, ref pmop.Ptr) pmop.Ptr {
	if h := b.e.hBarrier; h != nil {
		t0 := ctx.Clock.Total()
		out := b.resolve(ctx, ref)
		h.Observe(ctx.Clock.Total() - t0)
		return out
	}
	return b.resolve(ctx, ref)
}

func (b *readBarrier) resolve(ctx *sim.Ctx, ref pmop.Ptr) pmop.Ptr {
	e, ep := b.e, b.ep
	p := e.pool
	if ref.PoolID() != p.ID() {
		return ref
	}
	off := ref.Offset()
	heap := p.Heap()
	if off < heap.HeapOff() {
		return ref
	}

	clCtx := ctx.Derived(sim.CatCheckLookup)
	var dstOff uint64
	if ep.scheme == SchemeFFCCDCheckLookup {
		// Hardware checklookup: BFC + PMFTLB (§4.3.2).
		u, pooled := e.cluFor(clCtx)
		dstVA, ok := u.CheckLookup(clCtx, p.VA(off), ep.blooms, &ep.fwd)
		e.cluDone(u, pooled)
		if !ok {
			return ref
		}
		dstOff = p.OffsetOfVA(dstVA)
	} else {
		// Software path (Espresso / SFCCD / fence-free-only FFCCD):
		// is_frag_page() probes the in-memory per-page metadata table with
		// data-dependent addressing and poor locality — a DRAM-latency-class
		// access (§3.3.3 (i): "an explicit check on whether a pointer is to
		// an object on a relocation page"; §4.3.2 calls check+lookup the
		// second-largest bottleneck). find_newaddr() then walks the
		// forwarding table in PM (§3.3.3 (ii)).
		clCtx.Charge(e.cfg.DRAMLatency)
		if !ep.onRelocFrame(heap, off) {
			return ref
		}
		clCtx.Charge(e.cfg.PMReadLatency)
		var ok bool
		dstOff, ok = ep.lookupSrc(p, off)
		if !ok {
			return ref
		}
	}

	idx, ok := ep.srcObject(p, off)
	if !ok {
		// Interior or stale address that maps through the minor table but is
		// not an object start — forward without relocation responsibility.
		return ref.WithOffset(dstOff)
	}
	if !ep.isMoved(idx) {
		e.relocateObject(ctx.Derived(sim.CatCopy), ep, idx, true)
	}
	return ref.WithOffset(dstOff)
}

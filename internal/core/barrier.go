package core

import (
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
		// Hardware checklookup: BFC + PMFTLB (§4.3.2), cold on every
		// resolve.
		e.clu.Reset()
		dstVA, ok := e.clu.CheckLookup(clCtx, p.VA(off), ep.blooms, &ep.fwd)
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

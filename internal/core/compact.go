package core

import (
	"ffccd/internal/alloc"
	"ffccd/internal/obsv"
	"ffccd/internal/pmem"
	"ffccd/internal/pmop"
	"ffccd/internal/sim"
)

// relocateObject moves one object (and, under the fence-free schemes, every
// object sharing its destination cacheline — the cluster) from its
// relocation page to its PMFT-determined destination using the active
// scheme's persistence protocol (Fig. 6a, Fig. 7a, Fig. 9a). The read
// barrier and the mover (move) are its only callers; an object that has
// already moved is left alone.
func (e *Engine) relocateObject(ctx *sim.Ctx, ep *epochState, idx int, fromBarrier bool) {
	if ep.isMoved(idx) {
		return
	}

	p := e.pool
	obj := &ep.objects[idx]
	switch ep.scheme {
	case SchemeEspresso:
		// Fig. 6a: memcpy; clwb each destination line; sfence; moved=1;
		// clwb; sfence — two full persist barriers.
		n := obj.bytes()
		e.copyObject(ctx, obj.srcHdr, obj.dstHdr, n)
		for a := obj.dstHdr &^ (pmem.LineSize - 1); a < obj.dstHdr+n; a += pmem.LineSize {
			p.Clwb(ctx, a)
		}
		p.Sfence(ctx)
		e.storeMovedBit(ctx, obj, true, true)
		e.finishMove(ep, idx, fromBarrier)

	case SchemeSFCCD:
		// Fig. 7a: memcpy; clwb destination lines (unfenced); moved=1;
		// clwb(moved); single sfence covering both.
		n := obj.bytes()
		e.copyObject(ctx, obj.srcHdr, obj.dstHdr, n)
		for a := obj.dstHdr &^ (pmem.LineSize - 1); a < obj.dstHdr+n; a += pmem.LineSize {
			p.Clwb(ctx, a)
		}
		e.storeMovedBit(ctx, obj, true, false)
		p.Sfence(ctx)
		e.finishMove(ep, idx, fromBarrier)

	case SchemeFFCCD, SchemeFFCCDCheckLookup:
		// Fig. 9a: relocate instruction(s) — pending-bit-tagged copy, no
		// clwb, no sfence; the moved bit is a plain store that reaches PM
		// lazily. Crash consistency comes from the reached bitmap, whose
		// per-line granularity requires every object sharing the destination
		// line to move in the same line-atomic operation.
		// Skip members that already moved (possible after a crash recovery
		// finished part of the component): re-copying them would overwrite
		// post-move application writes. The line assembly preserves their
		// destination bytes by loading gaps from current contents.
		cluster := ep.clusterOf(idx)
		if mutant == MutantSharedLineTear {
			one := [1]int32{int32(idx)}
			cluster = one[:]
		}
		parts := e.relocParts[:0]
		for _, c := range cluster {
			if ep.isMoved(int(c)) {
				continue
			}
			co := &ep.objects[c]
			if ctx.TLB != nil {
				ctx.Charge(ctx.TLB.Access(p.VA(co.srcHdr), p.PageShift()))
				ctx.Charge(ctx.TLB.Access(p.VA(co.dstHdr), p.PageShift()))
			}
			parts = append(parts, pmem.RelocatePart{
				Dst: p.PA(co.dstHdr), Src: p.PA(co.srcHdr), N: co.bytes(),
			})
		}
		e.relocParts = parts
		p.Device().RelocateParts(ctx, parts)
		// The members just copied are exactly the ones still unmoved.
		for _, c := range cluster {
			if ci := int(c); !ep.isMoved(ci) {
				e.storeMovedBit(ctx, &ep.objects[ci], false, false)
				e.finishMove(ep, ci, fromBarrier && ci == idx)
			}
		}
	}
}

// finishMove flips the volatile moved state and counters for one object.
func (e *Engine) finishMove(ep *epochState, idx int, fromBarrier bool) {
	if !ep.setMoved(idx) {
		return
	}
	e.stats.ObjectsMoved++
	if fromBarrier {
		e.stats.BarrierMoves++
	}
}

// copyObject is the software memcpy through the cache hierarchy.
func (e *Engine) copyObject(ctx *sim.Ctx, src, dst, n uint64) {
	p := e.pool
	var buf [pmem.LineSize]byte
	for done := uint64(0); done < n; {
		step := uint64(pmem.LineSize)
		if n-done < step {
			step = n - done
		}
		p.RawLoad(ctx, src+done, buf[:step])
		p.RawStore(ctx, dst+done, buf[:step])
		done += step
	}
}

// storeMovedBit sets the object's persistent moved bit. flush adds a clwb;
// fence adds the trailing sfence (Espresso). SFCCD passes flush=true via its
// caller's ordering: the clwb happens here, the shared sfence in the caller.
func (e *Engine) storeMovedBit(ctx *sim.Ctx, obj *relocObj, flush, fence bool) {
	p := e.pool
	heap := p.Heap()
	f, slot := heap.Locate(obj.srcHdr)
	off, mask := p.GCMeta().MovedBit(f, slot)
	var b [1]byte
	p.RawLoad(ctx, off, b[:])
	b[0] |= mask
	p.RawStore(ctx, off, b[:])
	// Crash site: moved bit set but not yet (necessarily) flushed — the
	// window between moved-state and pointer fixup.
	p.Device().Site(ctx, pmem.SiteMovedBit)
	if flush || fence {
		p.Clwb(ctx, off)
	}
	if fence {
		p.Sfence(ctx)
	}
}

// sfccdTombstone is the sentinel written into a moved object's *source*
// header (reserved word at +8) when the application first modifies the
// destination copy under SFCCD. It lets Fig. 7(b)'s content comparison
// distinguish "memcpy never persisted" from "application legitimately
// modified the moved object" — see DESIGN.md §5 item 2.
const sfccdTombstone = 0x544F4D4253544F4E // "TOMBSTON"

// sfccdTxAddHook is installed on the pool under SFCCD. When the application
// first logs (and therefore is about to modify) a range inside a moved
// object's destination copy, the hook durably tombstones the *source*
// header. SFCCD recovery then knows a content mismatch between source and
// destination means "application modified it" rather than "memcpy lost"
// (DESIGN.md §5 item 2; this closes the ambiguity in Fig. 7b's content check).
func (e *Engine) sfccdTxAddHook(ctx *sim.Ctx, off, n uint64) {
	ep := e.epoch
	if ep == nil {
		return
	}
	idx, ok := ep.findDestObject(off)
	if !ok || !ep.isMoved(idx) || mutant == MutantNoTombstone {
		return
	}
	obj := &ep.objects[idx]
	if !ep.tombstone(idx) {
		return
	}
	p := e.pool
	p.RawStoreU64(ctx, obj.srcHdr+8, sfccdTombstone)
	p.Clwb(ctx, obj.srcHdr+8)
	p.Sfence(ctx)
}

// finishEpoch is §5 terminate(), run with the world stopped once every
// object has moved: rewrite all remaining references into relocation pages,
// flush everything durable, release the relocation pages, leave the
// compacting phase and count the cycle. Every epoch ends here — FinishCycle's,
// Close's, RunCycleSTW's and the one recovery resumes.
func (e *Engine) finishEpoch(ctx *sim.Ctx, ep *epochState) {
	p := e.pool
	gctx := ctx.Derived(sim.CatGCMisc)

	o := e.obs
	tFix := e.now(ctx)

	// Final reference fixup: one reachability pass rewriting every pointer
	// that still aims into a relocation frame (§5: "defragmentation runs
	// reachability again to finish all pending relocation and reference
	// updates, and release relocation pages").
	heap := p.Heap()
	p.Device().Site(gctx, pmem.SiteBarrierFixup)
	e.mark(gctx, func(_ *sim.Ctx, _ uint64, ref pmop.Ptr) pmop.Ptr {
		if ref.PoolID() != p.ID() || ref.Offset() < heap.HeapOff() {
			return ref
		}
		if dst, ok := ep.lookupSrc(p, ref.Offset()); ok {
			return ref.WithOffset(dst)
		}
		return ref
	}, false)
	p.Device().Site(gctx, pmem.SiteBarrierFixup)
	if o != nil {
		o.Tracer.Span(ctx, obsv.KindBarrierFix, tFix, uint64(len(ep.objects)))
	}

	// Heal application-held volatile pointer caches (handle maps, DRAM
	// indexes) while the world is stopped and the forwarding info is live.
	p.RunRemapHooks(func(ref pmop.Ptr) pmop.Ptr {
		if ref.IsNull() || ref.PoolID() != p.ID() || ref.Offset() < heap.HeapOff() {
			return ref
		}
		if dst, ok := ep.lookupSrc(p, ref.Offset()); ok {
			return ref.WithOffset(dst)
		}
		return ref
	})

	// Make the moved data, moved bits and updated references durable before
	// the source pages can ever be reused. For the fence-free schemes this
	// is where lazily-pending lines are forced home (and the RBB sees them).
	p.Device().FlushAll(gctx)

	// Durably leave the compacting phase; the PMFT entries become stale by
	// epoch number.
	p.Device().Site(gctx, pmem.SiteEpochTransition)
	p.SetGCPhase(gctx, pmop.PackGCPhase(pmop.PhaseIdle, uint64(ep.scheme), ep.epochNo))
	p.Device().Site(gctx, pmem.SiteEpochTransition)

	// Release relocation frames and open destination frames for allocation.
	for _, f := range ep.relocFrames {
		heap.ReleaseFrame(f)
		e.stats.FramesReleased++
	}
	heap.SubDup(ep.dupBytes)
	for _, f := range ep.destFrames {
		if heap.State(f) == alloc.FrameDestination {
			heap.SetState(f, alloc.FrameActive)
		}
	}
	if e.rbb != nil {
		e.rbb.Deactivate()
	}
	p.SetBarrier(nil)
	e.epoch = nil
	e.stats.Cycles++
	if o != nil {
		// The whole epoch, opening stop-the-world through terminate. The
		// barrier (and checklookup hardware, when configured) was live from
		// the same window's start until now.
		o.Tracer.Span(ctx, obsv.KindEpoch, ep.obsStart, ep.epochNo)
		o.Tracer.Span(ctx, obsv.KindCheckLookup, ep.obsStart, ep.epochNo)
	}
}

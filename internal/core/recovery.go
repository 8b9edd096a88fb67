package core

import (
	"encoding/binary"
	"fmt"
	"slices"

	"ffccd/internal/alloc"
	"ffccd/internal/obsv"
	"ffccd/internal/pmem"
	"ffccd/internal/pmop"
	"ffccd/internal/sim"
)

// Recover attaches an engine to a freshly (re)opened pool and restores full
// consistency after a crash or clean shutdown:
//
//  1. Defragmentation object-state reconciliation per scheme — the paper's
//     recovery() (Fig. 7b for SFCCD, Fig. 9b for FFCCD, moved-bitmap trust
//     for Espresso), driven by the persistent PMFT.
//  2. Application transaction rollback (offset-based undo, safe at any GC
//     state).
//  3. One reachability pass that simultaneously forwards references to moved
//     objects and undoes references to never-reached destinations
//     (Observation 3/4), and yields the live set.
//  4. Allocator rebuild from the live set (leak reclamation included),
//     relocation/destination reservations re-established.
//  5. If an epoch was interrupted, it is resumed and completed before
//     Recover returns, leaving the pool idle and compact.
//
// Recover is also the correct entry point for a clean reopen (it reduces to
// tx rollback + allocator rebuild).
func Recover(ctx *sim.Ctx, p *pmop.Pool, opt Options) (*Engine, error) {
	e := NewEngine(p, opt)
	// An engine Recover does not return — a failed recovery's, or one a power
	// failure killed inside it — hands its epoch memory on here, since no
	// caller holds it to release.
	returned := false
	defer func() {
		if !returned {
			e.Release()
		}
	}()
	rctx := ctx.Derived(sim.CatRecovery)
	t0 := e.now(rctx)
	if err := e.recover(rctx); err != nil {
		return nil, err
	}
	returned = true
	if o := e.obs; o != nil {
		o.Tracer.Span(rctx, obsv.KindRecovery, t0, 0)
		o.Metrics.RegisterGroup("recovery", e.rec.cost.Map)
	}
	return e, nil
}

// RecoveryStages names the stages Recover times, in order. Recovering an
// idle pool runs only load, rollback and rebuild.
var RecoveryStages = [...]string{"load", "reconcile", "rollback", "fixup", "rebuild", "resume"}

// RecoveryCost is the simulated cycles one Recover spent in each stage,
// indexed like RecoveryStages. It is read off the recovery context's clock at
// the stage boundaries and charges nothing.
type RecoveryCost [len(RecoveryStages)]uint64

// Total returns the cycles of the whole recovery.
func (c RecoveryCost) Total() uint64 {
	var t uint64
	for _, n := range c {
		t += n
	}
	return t
}

// Map returns the cost keyed by stage label, plus "total": the obsv
// "recovery" group.
func (c RecoveryCost) Map() map[string]uint64 {
	m := map[string]uint64{"total": c.Total()}
	for i, n := range c {
		m[RecoveryStages[i]] = n
	}
	return m
}

// RecoveryCost returns what the Recover that built e spent per stage (zero
// for an engine NewEngine built).
func (e *Engine) RecoveryCost() RecoveryCost { return e.rec.cost }

// recoveryClock times Recover's stages: stage is the index of the stage
// being timed (-1: none) and since the clock total it began at.
type recoveryClock struct {
	cost  RecoveryCost
	stage int
	since uint64
}

// progress closes the stage being timed and opens stage ("done": none).
func (e *Engine) progress(ctx *sim.Ctx, stage string) {
	r, now := &e.rec, ctx.Clock.Total()
	if r.stage >= 0 {
		r.cost[r.stage] += now - r.since
	}
	r.stage, r.since = slices.Index(RecoveryStages[:], stage), now
}

func (e *Engine) recover(ctx *sim.Ctx) error {
	p := e.pool
	dev := p.Device()
	e.rec.stage = -1
	e.progress(ctx, "load")
	state, persistedScheme, epochNo := pmop.UnpackGCPhase(p.GCPhase(ctx))

	if state != pmop.PhaseCompacting {
		// Idle: application recovery + allocator rebuild only.
		e.progress(ctx, "rollback")
		p.RecoverTx(ctx)
		dev.Site(ctx, pmem.SiteRecoveryStep)
		e.progress(ctx, "rebuild")
		live := e.mark(ctx, nil, true)
		e.rebuildHeap(live)
		dev.Site(ctx, pmem.SiteRecoveryStep)
		e.progress(ctx, "done")
		return nil
	}

	// An epoch was interrupted. Reconstruct it from the persistent PMFT.
	ep, err := e.loadEpoch(ctx, Scheme(persistedScheme), epochNo)
	if err != nil {
		return err
	}
	dev.Site(ctx, pmem.SiteRecoveryStep)
	// For the epoch span emitted at terminate: the resumed epoch's observable
	// window starts where recovery picked it up.
	ep.obsStart = ctx.Clock.Total()

	// The interrupted scheme may need the relocate/RBB hardware even if the
	// engine was reopened with a different configuration.
	if ep.scheme.UsesRelocateInstruction() && e.rbb == nil {
		e.rbb = newRBBFor(p)
	}

	// (1) Per-scheme object-state reconciliation.
	e.progress(ctx, "reconcile")
	switch ep.scheme {
	case SchemeEspresso:
		e.recoverEspresso(ctx, ep)
	case SchemeSFCCD:
		e.recoverSFCCD(ctx, ep)
	case SchemeFFCCD, SchemeFFCCDCheckLookup:
		e.recoverFFCCD(ctx, ep)
	default:
		return fmt.Errorf("core: cannot recover unknown scheme %d", ep.scheme)
	}
	dev.Site(ctx, pmem.SiteRecoveryStep)

	// (2) Application transaction rollback (undo is pure offsets: safe
	// before reference fixup, and it may resurrect stale references that
	// step 3 then normalises).
	e.progress(ctx, "rollback")
	if mutant != MutantUndoAfterFixup {
		p.RecoverTx(ctx)
	}
	dev.Site(ctx, pmem.SiteRecoveryStep)

	// (3) Unified reference fixup + reachability:
	//   - reference to the source of a moved object   → forward to dest
	//   - reference to the dest of an unmoved object  → undo to source
	heap := p.Heap()
	e.progress(ctx, "fixup")
	dev.Site(ctx, pmem.SiteBarrierFixup)
	live := e.mark(ctx, func(_ *sim.Ctx, _ uint64, ref pmop.Ptr) pmop.Ptr {
		if ref.PoolID() != p.ID() || ref.Offset() < heap.HeapOff() {
			return ref
		}
		off := ref.Offset()
		if idx, ok := ep.srcObject(p, off); ok && ep.isMoved(idx) {
			return ref.WithOffset(ep.objects[idx].dstPayload())
		}
		if idx, ok := ep.dstObject(off); ok && !ep.isMoved(idx) {
			return ref.WithOffset(ep.objects[idx].srcPayload())
		}
		return ref
	}, true)
	if mutant == MutantUndoAfterFixup {
		p.RecoverTx(ctx)
	}
	dev.Site(ctx, pmem.SiteBarrierFixup)

	// Recovery itself is conservative (§4.1): make everything durable.
	dev.FlushAll(ctx)
	dev.Site(ctx, pmem.SiteRecoveryStep)

	// (4) Allocator rebuild + epoch reservations.
	e.progress(ctx, "rebuild")
	e.rebuildHeap(live)
	for _, f := range ep.relocFrames {
		heap.SetState(f, alloc.FrameRelocation)
	}
	ep.dupBytes = 0
	for i := range ep.objects {
		obj := &ep.objects[i]
		if !ep.isMoved(i) {
			// Reserve the destination so the allocator cannot take it
			// before the object moves. (Moved objects are already live at
			// their destination via the rebuild.)
			df, ds := heap.Locate(obj.dstHdr)
			if err := heap.PlaceAt(df, ds, obj.slots); err != nil {
				return fmt.Errorf("core: recovery re-reservation: %w", err)
			}
			ep.dupBytes += obj.bytes()
		}
	}
	heap.AddDup(ep.dupBytes)
	dev.Site(ctx, pmem.SiteRecoveryStep)

	// (5) Resume and complete the epoch.
	e.progress(ctx, "resume")
	if e.rbb != nil && ep.scheme.UsesRelocateInstruction() {
		reachedOff := p.GCMeta().Reached
		heapOff, frames := p.HeapRange()
		e.rbb.Rearm(p.PA(reachedOff), p.PA(heapOff), frames)
	}
	e.epoch = ep
	p.SetBarrier(&readBarrier{e: e, ep: ep})
	dev.Site(ctx, pmem.SiteRecoveryStep)
	e.move(ctx, ep, len(ep.objects))
	dev.Site(ctx, pmem.SiteRecoveryStep)
	e.terminate(ctx, ep)
	e.progress(ctx, "done")
	return nil
}

// loadEpoch rebuilds the volatile epoch state from the persistent PMFT
// (whose deterministic destinations are exactly what make resumption
// possible, §4.3.1), reading only the entries of the frames the epoch's
// relocation-frame list names.
func (e *Engine) loadEpoch(ctx *sim.Ctx, scheme Scheme, epochNo uint64) (*epochState, error) {
	p := e.pool
	heap := p.Heap()
	ep := &e.epochBuf
	ep.reset(epochNo, scheme)
	list, err := e.loadRelocList(ctx, epochNo)
	if err != nil {
		return nil, err
	}
	entry := e.summaryScratch.entry[:]
	for i := 0; i < len(list); i += 4 {
		f := int(binary.LittleEndian.Uint32(list[i:]))
		if f >= heap.Frames() {
			return nil, fmt.Errorf("core: relocation-frame list names frame %d of a %d-frame heap", f, heap.Frames())
		}
		p.RawLoad(ctx, p.GCMeta().PMFTEntry(f), entry)
		if got := uint64(binary.LittleEndian.Uint32(entry[0:4])); got != epochNo {
			return nil, fmt.Errorf("core: listed relocation frame %d has a PMFT entry of epoch %d, not %d", f, got, epochNo)
		}
		df := int(binary.LittleEndian.Uint32(entry[4:8]))
		mm := ep.addFrame(f, df)
		copy(mm[:], entry[8:])
		if !slices.Contains(ep.destFrames, df) {
			ep.destFrames = append(ep.destFrames, df)
		}

		// Reconstruct object boundaries: headers in the relocation page are
		// authoritative (persisted at allocation, never modified by a move;
		// SFCCD's tombstone only touches the reserved word).
		for s := 0; s < alloc.SlotsPerFrame; {
			if mm[s] == pmop.MinorInvalid {
				s++
				continue
			}
			srcHdr := heap.OffsetOf(f, s)
			var hb [8]byte
			p.RawLoad(ctx, srcHdr, hb[:])
			payload := uint64(binary.LittleEndian.Uint32(hb[4:8]))
			n := alloc.SlotsFor(payload)
			if n < 1 || s+n > alloc.SlotsPerFrame {
				return nil, fmt.Errorf("core: corrupt header in relocation frame %d slot %d", f, s)
			}
			ep.addObject(s, relocObj{
				srcHdr:  srcHdr,
				dstHdr:  heap.OffsetOf(df, int(mm[s])),
				slots:   n,
				payload: payload,
			})
			s += n
		}
	}
	ep.buildIndexes(p)

	// Rebuild the bloom filters over the relocation pages.
	ep.blooms = e.relocBlooms(ep)
	return ep, nil
}

// loadRelocList reads the relocation-frame list and returns its frame words.
// summary persists the list before it flips the phase word, so a pool
// compacting epoch epochNo holds epochNo's list; any other list is an error,
// never a reason to scan the PMFT.
func (e *Engine) loadRelocList(ctx *sim.Ctx, epochNo uint64) ([]byte, error) {
	p, ss := e.pool, &e.summaryScratch
	off := p.GCMeta().RelocList
	hdr := p.RawLoadU64(ctx, off)
	if got := hdr & 0xFFFFFFFF; got != epochNo {
		return nil, fmt.Errorf("core: relocation-frame list is of epoch %d, the phase word's is %d", got, epochNo)
	}
	n := int(hdr >> 32)
	if n < 1 || n > p.Heap().Frames() {
		return nil, fmt.Errorf("core: relocation-frame list of %d frames in a %d-frame heap", n, p.Heap().Frames())
	}
	list := sized(ss.list, 4*n)
	ss.list = list
	p.RawLoad(ctx, off+8, list)
	return list, nil
}

// recoverEspresso trusts the persistent moved bitmap: the double persist
// barrier guarantees a set bit implies a fully persisted copy.
func (e *Engine) recoverEspresso(ctx *sim.Ctx, ep *epochState) {
	for i := range ep.objects {
		if e.loadMovedBit(ctx, &ep.objects[i]) {
			ep.setMoved(i)
		}
	}
}

// recoverSFCCD implements Fig. 7b with the tombstone disambiguation: for
// every object whose moved bit persisted, compare destination and source
// content; a mismatch without an application tombstone means the memcpy did
// not (fully) persist, so it is repeated and persisted.
func (e *Engine) recoverSFCCD(ctx *sim.Ctx, ep *epochState) {
	p := e.pool
	for i := range ep.objects {
		obj := &ep.objects[i]
		if !e.loadMovedBit(ctx, obj) {
			continue // will be (re)moved after resume — Observation 1
		}
		tomb := p.RawLoadU64(ctx, obj.srcHdr+8) == sfccdTombstone
		if !tomb && !e.rangesEqual(ctx, obj.srcHdr, obj.dstHdr, obj.bytes()) {
			e.copyObject(ctx, obj.srcHdr, obj.dstHdr, obj.bytes())
			p.PersistRange(ctx, obj.dstHdr, obj.bytes())
		}
		ep.setMoved(i)
	}
}

// recoverFFCCD implements Fig. 9b using the reached bitmap, at the
// granularity of destination-line components (the unit the compactor moves
// atomically): a component none of whose destination lines reached the
// persistence domain is left unmoved — its reference updates are reverted by
// the fixup pass (Observation 3). A component with any reached line is
// finished: every member's bytes on lines that did not reach are re-copied
// from the (still pristine) source, because a reached line may hold newer
// application data while an unreached one holds nothing (Observation 4).
// Classification uses a pre-repair snapshot of the bitmap so repairs cannot
// influence decisions for line-sharing neighbours, and whole components
// finish or revert together so moved-state never diverges within a
// component across repeated crashes.
func (e *Engine) recoverFFCCD(ctx *sim.Ctx, ep *epochState) {
	p := e.pool
	heap := p.Heap()
	reachedOff := p.GCMeta().Reached
	heapOff := heap.HeapOff()

	// Snapshot the reached bitmap before any repair.
	for i := range ep.objects {
		ep.snapReached(ctx, p, reachedOff, heap.FrameOf(ep.objects[i].dstHdr))
	}
	lineRange := func(obj *relocObj) (df int, first, last uint64) {
		df = heap.FrameOf(obj.dstHdr)
		first = (obj.dstHdr - heapOff) % alloc.FrameSize >> pmem.LineShift
		last = (obj.dstHdr + obj.bytes() - 1 - heapOff) % alloc.FrameSize >> pmem.LineShift
		return
	}

	// finish copies member ci's bytes on lines its snapshot word has not
	// reached and makes the whole object durable; publish then sets its
	// lines' reached bits and its moved bit, durably.
	finish := func(ci int32) {
		obj := &ep.objects[ci]
		df, first, last := lineRange(obj)
		word := ep.reachedWordOf(df)
		start := obj.dstHdr
		end := obj.dstHdr + obj.bytes()
		lineBase := heapOff + uint64(df)*alloc.FrameSize
		for l := first; l <= last; l++ {
			if word&(1<<l) != 0 {
				continue
			}
			ds := lineBase + l<<pmem.LineShift
			de := ds + pmem.LineSize
			if ds < start {
				ds = start
			}
			if de > end {
				de = end
			}
			ss := obj.srcHdr + (ds - start)
			e.copyObject(ctx, ss, ds, de-ds)
		}
		p.PersistRange(ctx, obj.dstHdr, obj.bytes())
	}
	publish := func(ci int32) {
		obj := &ep.objects[ci]
		df, first, last := lineRange(obj)
		newWord := p.RawLoadU64(ctx, reachedOff+uint64(df)*8)
		for l := first; l <= last; l++ {
			newWord |= 1 << l
		}
		p.RawStoreU64(ctx, reachedOff+uint64(df)*8, newWord)
		p.PersistRange(ctx, reachedOff+uint64(df)*8, 8)
		e.setMovedBitDurable(ctx, obj)
		ep.setMoved(int(ci))
	}

	for c := 0; c < ep.numComponents(); c++ {
		comp := ep.component(c)
		reached := 0
		for _, ci := range comp {
			df, first, last := lineRange(&ep.objects[ci])
			for l := first; l <= last; l++ {
				if ep.reachedWordOf(df)&(1<<l) != 0 {
					reached++
				}
			}
		}
		if reached == 0 {
			// Never reached: the component stays unmoved; clear any moved
			// bits that leaked to PM through eviction.
			for _, ci := range comp {
				e.clearMovedBit(ctx, &ep.objects[ci])
			}
			continue
		}
		// Finish the whole component, line-atomically: first make every
		// member's bytes on unreached lines durable, and only then publish
		// the reached bits. A reached bit covers a whole destination line,
		// and members of one component share lines — publishing a line's
		// bit before every sharer's bytes are durable would let a crash
		// *during this repair* strand a neighbour's half-line as zeros
		// (the next recovery trusts reached lines verbatim and would not
		// re-copy them).
		if mutant == MutantReachedEarly {
			for _, ci := range comp {
				finish(ci)
				publish(ci)
			}
			continue
		}
		for _, ci := range comp {
			finish(ci)
		}
		for _, ci := range comp {
			publish(ci)
		}
	}
}

// rangesEqual compares n bytes at two pool offsets.
func (e *Engine) rangesEqual(ctx *sim.Ctx, a, b, n uint64) bool {
	p := e.pool
	var ba, bb [pmem.LineSize]byte
	for done := uint64(0); done < n; {
		step := uint64(pmem.LineSize)
		if n-done < step {
			step = n - done
		}
		p.RawLoad(ctx, a+done, ba[:step])
		p.RawLoad(ctx, b+done, bb[:step])
		for i := uint64(0); i < step; i++ {
			if ba[i] != bb[i] {
				return false
			}
		}
		done += step
	}
	return true
}

func (e *Engine) loadMovedBit(ctx *sim.Ctx, obj *relocObj) bool {
	p := e.pool
	f, slot := p.Heap().Locate(obj.srcHdr)
	off, mask := p.GCMeta().MovedBit(f, slot)
	var b [1]byte
	p.RawLoad(ctx, off, b[:])
	return b[0]&mask != 0
}

func (e *Engine) clearMovedBit(ctx *sim.Ctx, obj *relocObj) {
	p := e.pool
	f, slot := p.Heap().Locate(obj.srcHdr)
	off, mask := p.GCMeta().MovedBit(f, slot)
	var b [1]byte
	p.RawLoad(ctx, off, b[:])
	b[0] &^= mask
	p.RawStore(ctx, off, b[:])
	p.Device().Site(ctx, pmem.SiteMovedBit)
	p.Clwb(ctx, off)
	p.Sfence(ctx)
}

func (e *Engine) setMovedBitDurable(ctx *sim.Ctx, obj *relocObj) {
	e.storeMovedBit(ctx, obj, true, true)
}

package core

import (
	"cmp"
	"encoding/binary"
	"math/bits"
	"slices"

	"ffccd/internal/alloc"
	"ffccd/internal/arch"
	"ffccd/internal/pmem"
	"ffccd/internal/pmop"
	"ffccd/internal/sim"
)

// maxRelocOccupancy: frames more than ~90% full are never worth evacuating.
const maxRelocOccupancy = 230

// summaryScratch is the engine-owned memory of the summary phase, reused
// every epoch like markScratch and under the same rule (world stopped).
type summaryScratch struct {
	// start[f] is the index, in the live list sorted by offset, of the first
	// object in heap frame f; start[frames] is the list's length. Frame f's
	// objects are live[start[f]:start[f+1]].
	start    []int32
	next     []int32 // groupByFrame's cursor into each frame's run
	units    []selUnit
	selected []selPick
	free     []int // the lowest free frames, ascending: the destination frames in order
	relocVAs []uint64
	frames   []int  // the relocation frames, ascending
	list     []byte // the relocation-frame list, as persisted (pmop/gcmeta.go)
	entry    [pmop.PMFTEntrySize]byte
	zeros    [pmop.MovedBytesPerFrame]byte
}

// selUnit is one selection unit: its first used frame and the slots in use
// over all its frames. selPick is one selected relocation frame and the
// destination slots its live data needs.
type (
	selUnit struct{ first, used int }
	selPick struct{ frame, need int }
)

// summary implements §5 summary(): resync the allocator to the marking
// results (reclaiming leaks), rank frames by fragmentation, select the top-k
// relocation frames needed to reach the target ratio, deterministically
// assign every live object a destination, persist the relocation-frame list
// and build and persist the PMFT, build the relocation-page bloom filters,
// arm the reached bitmap, and durably enter the compacting phase. Runs stop-the-world; idempotent until the
// final phase-word store. It sorts live by offset in place (groupByFrame) and
// fills the engine's one epochState.
func (e *Engine) summary(ctx *sim.Ctx, live []markObj) *epochState {
	p := e.pool
	heap := p.Heap()
	ss := &e.summaryScratch

	// Leak reclamation: everything not reached by marking is returned to the
	// free lists (§5: "The unreachable objects are returned to the freelist").
	allocatedBefore := heap.Objects()
	e.rebuildHeap(live)
	if leaked := allocatedBefore - len(live); leaked > 0 {
		e.stats.LeaksReclaimed += uint64(leaked)
	}

	frag := heap.Frag(p.PageShift())
	if frag.LiveBytes == 0 || frag.FragRatio <= e.opt.TargetRatio {
		return nil
	}

	// After the rebuild above the heap holds exactly the live objects, so a
	// frame is in use iff its run is not empty, is then active, and has the
	// run's slots in use. No frame past the highest live object is: frames is
	// where the tables and loops below stop.
	start := e.groupByFrame(live)
	frames := len(start) - 1
	objsOf := func(f int) []markObj { return live[start[f]:start[f+1]] }

	usedIn := func(f int) int {
		total := 0
		for _, m := range objsOf(f) {
			total += m.slots()
		}
		return total
	}

	// Selection units, most fragmented (lowest occupancy) first: on 4 KB
	// pages each used frame is a unit; on huge pages a unit is a whole
	// OS-page group of frames, eligible only when *every* used frame in the
	// group can be evacuated — scattered single-frame releases never vacate
	// a huge page, so footprint would not move (§1: "the large capacity
	// provided by PM necessitates the use of huge pages").
	fpp := 1
	if p.PageShift() > 12 {
		fpp = 1 << (p.PageShift() - 12)
	}
	units := ss.units[:0]
	for g := 0; g < frames; g += fpp {
		u, ok := selUnit{first: -1}, true
		for f := g; f < min(g+fpp, frames) && ok; f++ {
			if start[f] == start[f+1] {
				continue
			}
			used := usedIn(f)
			if u.first < 0 {
				u.first = f
			}
			u.used += used
			ok = used <= maxRelocOccupancy
		}
		if ok && u.first >= 0 {
			units = append(units, u)
		}
	}
	ss.units = units
	slices.SortFunc(units, func(a, b selUnit) int {
		return cmp.Or(cmp.Compare(a.used, b.used), cmp.Compare(a.first, b.first))
	})

	// Greedy selection until the projected ratio reaches the target. Each
	// relocation frame's live data lands in exactly one destination frame
	// (the PMFT major-distance invariant); destination frames are fresh
	// free frames packed in order. A relocation frame opens at most one, so
	// no more than the frames in use are ever asked for.
	free := heap.FreeFrames(ss.free[:0], frag.UsedFrames)
	ss.free = free
	selected := ss.selected[:0]
	destUsed, curFree := 0, 0
	// destPages counts the distinct OS pages among the first destUsed
	// destination frames (free is ascending, so a new page is a change of
	// page from the frame before).
	destPages, lastPage := uint64(0), -1
	var freedBytes uint64
	projected := func() float64 {
		fp := int64(frag.FootprintBytes) - int64(freedBytes) + int64(destPages<<p.PageShift())
		return float64(fp) / float64(frag.LiveBytes)
	}
	// Keep the prefix (of whole units) with the best net footprint gain:
	// evacuating units that are already as dense as packing allows would
	// move data without freeing anything.
	var best int64
	bestAt := 0
unitLoop:
	for _, u := range units {
		if projected() <= e.opt.TargetRatio {
			break
		}
		for f := u.first; f < min(u.first/fpp*fpp+fpp, frames); f++ {
			if start[f] == start[f+1] {
				continue
			}
			need := usedIn(f)
			if curFree < need {
				if destUsed >= len(free) {
					break unitLoop
				}
				if pg := free[destUsed] / fpp; pg != lastPage {
					destPages, lastPage = destPages+1, pg
				}
				destUsed++
				curFree = alloc.SlotsPerFrame
			}
			curFree -= need
			selected = append(selected, selPick{f, need})
		}
		freedBytes += uint64(1) << p.PageShift()
		if gain := int64(freedBytes) - int64(destPages<<p.PageShift()); gain > best {
			best, bestAt = gain, len(selected)
		}
	}
	ss.selected = selected
	if best <= 0 {
		return nil
	}

	// The epoch is numbered past the phase word's and the list's: a summary
	// that crashed before its flip left its list (and some PMFT entries) one
	// epoch ahead, and no epoch that runs may share their number.
	_, _, epochNo := pmop.UnpackGCPhase(p.GCPhase(ctx))
	if mutant != MutantEpochPastPhaseOnly {
		epochNo = max(epochNo, p.RawLoadU64(ctx, p.GCMeta().RelocList)&0xFFFFFFFF)
	}
	ep := &e.epochBuf
	ep.reset(epochNo+1, e.opt.Scheme)

	// The relocation-frame list goes first: the fence after the first PMFT
	// entry below drains it, so it is durable long before the flip.
	e.storeRelocList(ctx, ep.epochNo, selected[:bestAt])

	// Deterministic placement + persistent PMFT construction. Destination
	// packing is dense (16-byte slots, the paper's granularity). Objects may
	// share destination cachelines; every set of objects whose destination
	// lines overlap forms a *cluster* that the compactor relocates as one
	// operation whose destination lines are each written atomically
	// (pmem.RelocateParts). That preserves the invariant the per-line reached
	// bitmap needs during fence-free recovery — a reached line carries
	// consistent bytes for all its tenants (Observation 4) — without any
	// placement alignment tax.
	movedOff := p.GCMeta().Moved
	di := -1
	curSlot := 0
	for _, sel := range selected[:bestAt] {
		if di < 0 || curSlot+sel.need > alloc.SlotsPerFrame {
			di++
			curSlot = 0
		}
		df := free[di]
		mm := ep.addFrame(sel.frame, df)
		for _, m := range objsOf(sel.frame) {
			n := m.slots()
			dstSlot := curSlot
			curSlot += n
			if err := heap.PlaceAt(df, dstSlot, n); err != nil {
				// Cannot happen with fresh destination frames; fail loudly.
				panic("core: destination placement failed: " + err.Error())
			}
			_, srcSlot := heap.Locate(m.payloadOff - pmop.HeaderSize)
			for i := 0; i < n; i++ {
				mm[srcSlot+i] = byte(dstSlot + i)
			}
			ep.addObject(srcSlot, relocObj{
				srcHdr:  m.payloadOff - pmop.HeaderSize,
				dstHdr:  heap.OffsetOf(df, dstSlot),
				slots:   n,
				payload: uint64(m.payload),
			})
		}
		heap.SetState(sel.frame, alloc.FrameRelocation)

		// Persist the PMFT entry (§4.3.1) and clear the frame's moved bitmap.
		buf := ss.entry[:]
		binary.LittleEndian.PutUint32(buf[0:4], uint32(ep.epochNo))
		binary.LittleEndian.PutUint32(buf[4:8], uint32(df))
		copy(buf[8:], mm[:])
		entryOff := p.GCMeta().PMFTEntry(sel.frame)
		p.RawStore(ctx, entryOff, buf)
		p.PersistRange(ctx, entryOff, pmop.PMFTEntrySize)
		mOff := movedOff + uint64(sel.frame)*pmop.MovedBytesPerFrame
		p.RawStore(ctx, mOff, ss.zeros[:])
		p.PersistRange(ctx, mOff, pmop.MovedBytesPerFrame)
	}
	ep.destFrames = append(ep.destFrames, free[:di+1]...)
	ep.buildIndexes(p)

	// The epoch holds two copies of every relocation object until the
	// source frames are released; keep the live-data metric single-copy.
	for i := range ep.objects {
		ep.dupBytes += ep.objects[i].bytes()
	}
	heap.AddDup(ep.dupBytes)

	// Relocation-page bloom filters (§4.3.2) — tight ranges over the
	// relocation pages so non-relocation addresses fail the range compare.
	ep.blooms = e.relocBlooms(ep)

	// Arm the reached bitmap for the fence-free schemes (§4.2).
	if e.rbb != nil {
		reachedOff := p.GCMeta().Reached
		heapOff, nframes := p.HeapRange()
		e.rbb.Configure(p.PA(reachedOff), p.PA(heapOff), nframes)
	}

	// Durably enter the compacting phase. Everything above is idempotent;
	// a crash before this store leaves the pool in the idle state.
	p.Device().Site(ctx, pmem.SiteEpochTransition)
	p.SetGCPhase(ctx, pmop.PackGCPhase(pmop.PhaseCompacting, uint64(e.opt.Scheme), ep.epochNo))
	p.Device().Site(ctx, pmem.SiteEpochTransition)
	return ep
}

// storeRelocList writes epoch epochNo's relocation-frame list — the frames of
// sel, ascending — and clwb's its lines. It issues no fence of its own.
func (e *Engine) storeRelocList(ctx *sim.Ctx, epochNo uint64, sel []selPick) {
	p, ss := e.pool, &e.summaryScratch
	frames := sized(ss.frames, len(sel))
	for i, s := range sel {
		frames[i] = s.frame
	}
	slices.Sort(frames)
	ss.frames = frames
	buf := sized(ss.list, 8+4*len(frames))
	ss.list = buf
	binary.LittleEndian.PutUint32(buf[0:4], uint32(epochNo))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(frames)))
	for i, f := range frames {
		binary.LittleEndian.PutUint32(buf[8+4*i:], uint32(f))
	}
	off := p.GCMeta().RelocList
	p.RawStore(ctx, off, buf)
	for a := off; a < off+uint64(len(buf)); a += pmem.LineSize {
		p.Clwb(ctx, a)
	}
}

// groupByFrame orders live by offset in place and returns the start table
// over the frames up to the highest live one. An American-flag pass (one
// cursor per frame, swaps only, no second buffer the size of live) moves each
// object into its frame's run; objects of a frame start at distinct slots, so
// an object's rank among its run's start slots, read off a 256-bit map, is
// its place in the run.
func (e *Engine) groupByFrame(live []markObj) []int32 {
	heap, ss := e.pool.Heap(), &e.summaryScratch
	frameOf := func(m *markObj) int { return heap.FrameOf(m.payloadOff - pmop.HeaderSize) }
	slotOf := func(m *markObj) int { _, s := heap.Locate(m.payloadOff - pmop.HeaderSize); return s }
	top := slices.MaxFunc(live, func(a, b markObj) int { return cmp.Compare(a.payloadOff, b.payloadOff) })
	frames := frameOf(&top) + 1
	start, next := sized(ss.start, frames+1), sized(ss.next, frames)
	ss.start, ss.next = start, next
	clear(start)
	for i := range live {
		start[frameOf(&live[i])+1]++
	}
	for f := 0; f < frames; f++ {
		start[f+1] += start[f]
	}
	copy(next, start)
	var used [alloc.SlotsPerFrame / 64]uint64
	rank := func(m *markObj) int {
		s := slotOf(m)
		r := bits.OnesCount64(used[s/64] & (1<<(s%64) - 1))
		for _, w := range used[:s/64] {
			r += bits.OnesCount64(w)
		}
		return r
	}
	for f := 0; f < frames; f++ {
		for next[f] < start[f+1] {
			i := next[f]
			g := frameOf(&live[i])
			live[i], live[next[g]] = live[next[g]], live[i]
			next[g]++
		}
		run := live[start[f]:start[f+1]]
		clear(used[:])
		for i := range run {
			s := slotOf(&run[i])
			used[s/64] |= 1 << (s % 64)
		}
		for i := range run {
			for r := rank(&run[i]); r != i; r = rank(&run[i]) {
				run[i], run[r] = run[r], run[i]
			}
		}
	}
	return start
}

// relocBlooms builds the epoch's bloom filters over its relocation pages.
func (e *Engine) relocBlooms(ep *epochState) *arch.BloomSet {
	p := e.pool
	vas := e.summaryScratch.relocVAs[:0]
	for _, f := range ep.relocFrames {
		vas = append(vas, p.VA(p.Heap().OffsetOf(f, 0)))
	}
	e.summaryScratch.relocVAs = vas
	return arch.NewBloomSetFromPages(vas, e.cfg.BloomFilters, e.cfg.BloomFilterBytes)
}

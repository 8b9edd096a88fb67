package core

import (
	"cmp"
	"slices"

	"ffccd/internal/alloc"
	"ffccd/internal/arch"
	"ffccd/internal/pmem"
	"ffccd/internal/pmop"
	"ffccd/internal/sim"
)

// pmemLineShift mirrors pmem.LineShift for cluster keys.
const pmemLineShift = pmem.LineShift

// relocObj is one object scheduled for relocation in the current epoch.
type relocObj struct {
	srcHdr  uint64 // pool offset of the source header slot
	dstHdr  uint64 // pool offset of the destination header slot
	slots   int    // total slots (header + payload)
	payload uint64
}

func (o *relocObj) srcPayload() uint64 { return o.srcHdr + pmop.HeaderSize }
func (o *relocObj) dstPayload() uint64 { return o.dstHdr + pmop.HeaderSize }
func (o *relocObj) bytes() uint64      { return uint64(o.slots) * alloc.SlotSize }

// epochState is the volatile mirror of one defragmentation epoch: the
// relocation set, the forwarding information, and the per-object movement
// state. Built during the stop-the-world summary (or reconstructed from the
// persistent PMFT during recovery); read-only afterwards except for the
// moved flags, the pending count and the tombstone bits.
//
// The engine's epoch memory holds exactly one epochState, refilled for every
// epoch (reset → addFrame/addObject → buildIndexes), so a steady-state epoch
// allocates nothing here. Refilling happens only with the world stopped (or
// in single-threaded recovery) and only after the previous epoch's terminate
// uninstalled the read barrier under the same stop, or after Release emptied
// it once the engine that filled it was dead, so no barrier, hook or mover
// can be reading the tables while they change.
//
// Every lookup is an index into a dense table, never a hash: a relocation
// frame is known by its ordinal (its position in relocFrames), found through
// the heap-frame-indexed ordOf.
type epochState struct {
	epochNo uint64
	scheme  Scheme

	relocFrames []int
	destFrames  []int
	objects     []relocObj // grouped by relocation frame, ascending source slot within one

	// ordOf[f] is 1 + the ordinal of heap frame f, or 0 when f is not a
	// relocation frame of this epoch; it reaches as far as the highest
	// relocation frame any epoch on this memory had. Per ordinal: minor is
	// the frame's volatile minor-distance map (source slot → destination
	// slot), destFrame its major distance, and srcObj maps a source header
	// slot to 1 + the index of the object starting there (0: no object
	// starts there).
	// A minor byte of 0xFF is both "not mapped" and "destination slot 255";
	// a relocation frame has one destination frame, so at most one of its
	// source slots maps there, and lastSlotSrc names it (-1: none).
	ordOf       []int32
	minor       [][alloc.SlotsPerFrame]byte
	destFrame   []int32
	srcObj      [][alloc.SlotsPerFrame]int32
	lastSlotSrc []int16

	// byDst lists the object indices in destination order — bisected to find
	// the object containing an arbitrary destination address (tx hook,
	// recovery fixup).
	//
	// Objects whose destination cachelines overlap (connected components
	// over line sharing) are relocated together as one operation whose
	// destination lines are written atomically under the fence-free schemes.
	// A component is a run of byDst: component c is
	// byDst[compStart[c]:compStart[c+1]], and compOf maps an object index to
	// its component.
	byDst     []int32
	compStart []int32
	compOf    []int32

	moved    []bool // set once the object's move completed
	pending  int    // objects not yet moved
	cursor   int    // the mover's next index; every object below it has moved
	dupBytes uint64 // double-counted bytes registered with the heap

	blooms *arch.BloomSet
	fwd    pmftForwarder

	tomb []uint64 // bit i: object i's source header is already tombstoned (SFCCD)

	// reached is recoverFFCCD's pre-repair copy of the reached-bitmap words
	// of the destination frames, in the order the objects first name them;
	// reachedOf[f] is 1 + the index of frame f's word, or 0, and reaches as
	// far as the highest destination frame any recovery on this memory read.
	reached   []reachedWord
	reachedOf []int32

	// obsStart is the simulated cycle the epoch's opening stop-the-world
	// began at, recorded only when observability is enabled so terminate can
	// emit the whole-epoch span. Host-side bookkeeping; never charged.
	obsStart uint64
}

func (ep *epochState) isMoved(i int) bool { return ep.moved[i] }

// setMoved marks object i moved and reports whether this call did it.
func (ep *epochState) setMoved(i int) bool {
	if ep.moved[i] {
		return false
	}
	ep.moved[i] = true
	ep.pending--
	return true
}

// sized returns s with length n, reallocating only when the capacity is
// short. The contents are unspecified. A reallocation leaves a quarter of
// headroom: epoch memory outlives its engine, so a table sized exactly would
// be reallocated at every new high of a heap whose object or frame count
// creeps upward from engine to engine.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/4)
	}
	return s[:n]
}

// noMinor is a minor-distance map with no slot mapped.
var noMinor = func() (m [alloc.SlotsPerFrame]byte) {
	for i := range m {
		m[i] = pmop.MinorInvalid
	}
	return
}()

// reset empties the state for a new epoch, keeping every table's capacity,
// and drops its pointers into the last epoch's pool.
func (ep *epochState) reset(epochNo uint64, scheme Scheme) {
	ep.epochNo, ep.scheme = epochNo, scheme
	for _, f := range ep.relocFrames {
		ep.ordOf[f] = 0
	}
	ep.relocFrames = ep.relocFrames[:0]
	ep.destFrames = ep.destFrames[:0]
	ep.objects = ep.objects[:0]
	ep.minor = ep.minor[:0]
	ep.destFrame = ep.destFrame[:0]
	ep.srcObj = ep.srcObj[:0]
	ep.lastSlotSrc = ep.lastSlotSrc[:0]
	for _, w := range ep.reached {
		ep.reachedOf[w.frame] = 0
	}
	ep.reached = ep.reached[:0]
	ep.dupBytes, ep.obsStart = 0, 0
	ep.blooms, ep.fwd = nil, pmftForwarder{}
}

// reachedWord is one destination frame's reached-bitmap word.
type reachedWord struct {
	frame int
	word  uint64
}

// snapReached adds destination frame f's reached-bitmap word, read from the
// bitmap at off, to the recovery's snapshot unless it holds the word already.
func (ep *epochState) snapReached(ctx *sim.Ctx, p *pmop.Pool, off uint64, f int) {
	if f >= len(ep.reachedOf) {
		ep.reachedOf = append(ep.reachedOf, make([]int32, f+1-len(ep.reachedOf))...)
	}
	if ep.reachedOf[f] == 0 {
		ep.reached = append(ep.reached, reachedWord{f, p.RawLoadU64(ctx, off+uint64(f)*8)})
		ep.reachedOf[f] = int32(len(ep.reached))
	}
}

// reachedWordOf returns destination frame f's word in the snapshot.
func (ep *epochState) reachedWordOf(f int) uint64 { return ep.reached[ep.reachedOf[f]-1].word }

// addFrame appends relocation frame f with major distance df and returns its
// minor-distance map, no slot mapped yet, for the caller to fill.
func (ep *epochState) addFrame(f, df int) *[alloc.SlotsPerFrame]byte {
	ep.relocFrames = append(ep.relocFrames, f)
	if f >= len(ep.ordOf) {
		ep.ordOf = append(ep.ordOf, make([]int32, f+1-len(ep.ordOf))...)
	}
	ep.ordOf[f] = int32(len(ep.relocFrames))
	ep.destFrame = append(ep.destFrame, int32(df))
	ep.minor = append(ep.minor, noMinor)
	ep.srcObj = append(ep.srcObj, [alloc.SlotsPerFrame]int32{})
	ep.lastSlotSrc = append(ep.lastSlotSrc, -1)
	return &ep.minor[len(ep.minor)-1]
}

// addObject appends an object of the frame last added, whose source header
// is at srcSlot of that frame.
func (ep *epochState) addObject(srcSlot int, o relocObj) {
	ep.objects = append(ep.objects, o)
	ord := len(ep.srcObj) - 1
	ep.srcObj[ord][srcSlot] = int32(len(ep.objects))
	if last := srcSlot + o.slots - 1; ep.minor[ord][last] == alloc.SlotsPerFrame-1 {
		ep.lastSlotSrc[ord] = int16(last)
	}
}

// buildIndexes derives the destination order, the components and the
// per-object movement state from ep.objects, and wires the forwarder.
func (ep *epochState) buildIndexes(p *pmop.Pool) {
	n := len(ep.objects)
	ep.byDst = sized(ep.byDst, n)
	for i := range ep.byDst {
		ep.byDst[i] = int32(i)
	}
	// Already in order when summary placed the objects; recovery rebuilds
	// them in source-frame order.
	slices.SortFunc(ep.byDst, func(a, b int32) int {
		return cmp.Compare(ep.objects[a].dstHdr, ep.objects[b].dstHdr)
	})

	// Components: walking objects in destination order, an object joins the
	// current component iff its first line equals the previous object's last.
	ep.compOf = sized(ep.compOf, n)
	ep.compStart = ep.compStart[:0]
	lastLine := ^uint64(0)
	for k, i := range ep.byDst {
		o := &ep.objects[i]
		if first := o.dstHdr >> pmemLineShift; k == 0 || first != lastLine {
			ep.compStart = append(ep.compStart, int32(k))
		}
		ep.compOf[i] = int32(len(ep.compStart) - 1)
		lastLine = (o.dstHdr + o.bytes() - 1) >> pmemLineShift
	}
	ep.compStart = append(ep.compStart, int32(n))

	ep.moved = sized(ep.moved, n)
	clear(ep.moved)
	ep.tomb = sized(ep.tomb, (n+63)/64)
	clear(ep.tomb)
	ep.pending, ep.cursor = n, 0
	ep.fwd = pmftForwarder{p: p, ep: ep}
}

// numComponents returns the number of destination-line components.
func (ep *epochState) numComponents() int { return len(ep.compStart) - 1 }

// component returns the object indices of component c in destination order.
func (ep *epochState) component(c int) []int32 {
	return ep.byDst[ep.compStart[c]:ep.compStart[c+1]]
}

// clusterOf returns the indices of all objects in idx's destination-line
// component (idx included).
func (ep *epochState) clusterOf(idx int) []int32 {
	return ep.component(int(ep.compOf[idx]))
}

// ordinal returns the relocation ordinal of the frame holding pool offset
// off and off's slot in it; ok is false when the frame is not a relocation
// frame (or off lies outside the heap).
func (ep *epochState) ordinal(heap *alloc.Heap, off uint64) (ord, slot int, ok bool) {
	f, slot := heap.Locate(off)
	if off < heap.HeapOff() || f >= len(ep.ordOf) {
		return 0, 0, false
	}
	ord = int(ep.ordOf[f]) - 1
	return ord, slot, ord >= 0
}

// onRelocFrame reports whether pool offset off lies in a relocation frame.
func (ep *epochState) onRelocFrame(heap *alloc.Heap, off uint64) bool {
	_, _, ok := ep.ordinal(heap, off)
	return ok
}

// lookupSrc returns the destination payload offset for a source payload
// offset using the minor-distance map, mirroring a PMFT walk.
func (ep *epochState) lookupSrc(p *pmop.Pool, srcOff uint64) (uint64, bool) {
	heap := p.Heap()
	ord, slot, ok := ep.ordinal(heap, srcOff)
	if !ok || ep.minor[ord][slot] == pmop.MinorInvalid && (int(ep.lastSlotSrc[ord]) != slot || mutant == MutantSlot255) {
		return 0, false
	}
	return heap.OffsetOf(int(ep.destFrame[ord]), int(ep.minor[ord][slot])), true
}

// srcObject returns the index of the relocation object whose source payload
// starts exactly at pool offset off.
func (ep *epochState) srcObject(p *pmop.Pool, off uint64) (int, bool) {
	hdr := off - pmop.HeaderSize
	ord, slot, ok := ep.ordinal(p.Heap(), hdr)
	if !ok || hdr%alloc.SlotSize != 0 {
		return 0, false
	}
	i := int(ep.srcObj[ord][slot]) - 1
	return i, i >= 0
}

// dstObject returns the index of the relocation object whose destination
// payload starts exactly at pool offset off.
func (ep *epochState) dstObject(off uint64) (int, bool) {
	i, ok := ep.findDestObject(off)
	return i, ok && ep.objects[i].dstPayload() == off
}

// findDestObject locates the relocation object whose destination range
// contains the pool offset off.
func (ep *epochState) findDestObject(off uint64) (int, bool) {
	// Bisect for the last object starting at or before off.
	lo, hi := 0, len(ep.byDst)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ep.objects[ep.byDst[mid]].dstHdr <= off {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0, false
	}
	i := int(ep.byDst[lo-1])
	o := &ep.objects[i]
	return i, off < o.dstHdr+o.bytes()
}

// tombstone marks object i tombstoned and reports whether this call did it.
func (ep *epochState) tombstone(i int) bool {
	w, bit := &ep.tomb[i/64], uint64(1)<<(i%64)
	first := *w&bit == 0
	*w |= bit
	return first
}

// pmftForwarder adapts the epoch's forwarding info to arch.Forwarder
// (checklookup's functional backend). Addresses are this run's virtual
// addresses.
type pmftForwarder struct {
	p  *pmop.Pool
	ep *epochState
}

func (f *pmftForwarder) LookupAddr(_ *sim.Ctx, srcVA uint64) (uint64, bool) {
	off := f.p.OffsetOfVA(srcVA)
	dst, ok := f.ep.lookupSrc(f.p, off)
	if !ok {
		return 0, false
	}
	return f.p.VA(dst), true
}

// Package alloc implements the persistent heap allocator underneath a PMOP:
// 4 KB frames carved into 16-byte slots (the glibc alignment granularity the
// paper's PMFT design assumes, §4.3.1), first-fit allocation within partially
// occupied frames, and fragmentation-ratio bookkeeping (eq. 1 of the paper).
//
// Allocator metadata is volatile, in the Makalu/Atlas style the paper builds
// on: object headers in PM are the ground truth, and after a crash or reopen
// the bitmaps are rebuilt from a reachability pass (RebuildFromMark). This
// keeps pmalloc/pfree free of persist barriers without losing soundness —
// anything the bitmaps forget is garbage by definition, and the GC reclaims
// it, which is exactly the paper's persistent-leak story.
//
// Placement is first fit: the first allocatable frame in cyclic order from
// the cursor that holds a run of n free slots, lowest start slot in it, else
// the lowest-numbered free frame. The search runs on a derived index rather
// than a walk over the frames (index.go): a per-frame upper bound on the
// longest free run under a max-tree, and a bitmap of the free frames. The
// index is host-only state — it never changes which slot a request gets, is
// not part of HeapCheckpoint, and is rebuilt from freeSlots and state
// wherever those are replaced wholesale.
//
// The per-frame tables cover only the frames below a high-water mark, and the
// max-tree only those frames rounded up to a power of two: a heap costs the
// host what it has held, not what it could hold. A 64 MB pool that holds
// 50 KB is under a kilobyte of tables and a few hundred bytes of tree to
// create, reset, checkpoint and restore; only the free-frame bitmap, one bit
// per frame, spans the whole heap.
package alloc

import (
	"fmt"
	"math/bits"
)

// SlotSize is the allocation granularity in bytes.
const SlotSize = 16

// FrameSize is the allocator frame size (4 KB; huge pages are groups of
// frames for footprint accounting only).
const FrameSize = 4096

// SlotsPerFrame is the number of slots in one frame.
const SlotsPerFrame = FrameSize / SlotSize // 256

// FrameState describes how a frame participates in allocation and
// defragmentation.
type FrameState uint8

const (
	// FrameFree has no live objects and is available.
	FrameFree FrameState = iota
	// FrameActive holds objects and accepts new allocations.
	FrameActive
	// FrameRelocation is being evacuated; no new allocations.
	FrameRelocation
	// FrameDestination receives relocated objects; only the GC places there.
	FrameDestination
	// FrameMeshed participates in a Mesh pairing: its physical page is
	// shared with another virtual frame, so no new allocations may land in
	// it (a free virtual slot may be occupied physically).
	FrameMeshed
)

// wordsPerFrame is the bitmap words per frame (256 bits).
const wordsPerFrame = SlotsPerFrame / 64

// Heap manages the slots of a pool's object heap. It is plain data owned by
// the goroutine that runs its machine.
type Heap struct {
	heapOff uint64 // pool offset of frame 0
	frames  int

	// The per-frame tables hold entries for frames [0, hi) only, hi =
	// len(state). A frame at or past hi is pristine — no slot in use,
	// FrameFree, never touched since the last reset — and the tables say so by
	// not reaching it. cover extends them before a frame is first written;
	// reset and Restore cut them back.
	slotBits  []uint64 // allocation bitmap: 4 words/frame, bit = slot in use
	startBits []uint64 // set at the first slot of each allocation
	freeSlots []uint16 // per-frame free slot count
	state     []FrameState

	usedFrames int
	liveBytes  uint64 // sum of allocated sizes (header included)
	dupBytes   uint64 // bytes double-counted while relocation copies coexist

	cursor int // next frame to consider for allocation

	// Placement index, derived from freeSlots and state (index.go).
	leaves   int      // leaf count of fit: the least power of two >= the tables' reach
	fit      []uint16 // max-tree over per-frame run bounds; frame f is fit[leaves+f]
	freeBits []uint64 // bit f set iff frame f is free, for every frame of the heap
}

// NewHeap creates an empty heap of the given geometry.
func NewHeap(heapOff uint64, frames int) *Heap {
	h := &Heap{heapOff: heapOff, frames: frames}
	h.freeBits = make([]uint64, (frames+63)/64)
	h.buildIndex()
	return h
}

// Frames returns the heap size in frames.
func (h *Heap) Frames() int { return h.frames }

// Reach returns how far the per-frame tables reach: every frame at or past
// it is free and empty.
func (h *Heap) Reach() int { return len(h.state) }

// HeapOff returns the pool offset of frame 0.
func (h *Heap) HeapOff() uint64 { return h.heapOff }

// OffsetOf converts (frame, slot) to a pool offset.
func (h *Heap) OffsetOf(frame, slot int) uint64 {
	return h.heapOff + uint64(frame)*FrameSize + uint64(slot)*SlotSize
}

// Locate converts a pool offset to (frame, slot); offsets must be
// slot-aligned and inside the heap.
func (h *Heap) Locate(off uint64) (frame, slot int) {
	rel := off - h.heapOff
	return int(rel / FrameSize), int(rel % FrameSize / SlotSize)
}

// FrameOf returns the frame index containing off.
func (h *Heap) FrameOf(off uint64) int { return int((off - h.heapOff) / FrameSize) }

// SlotsFor returns the slot count for a payload of n bytes plus the
// 16-byte object header.
func SlotsFor(payload uint64) int {
	return int((payload + 16 + SlotSize - 1) / SlotSize)
}

// cover extends the per-frame tables, and the index with them, so that they
// reach frame f.
func (h *Heap) cover(f int) {
	for len(h.state) <= f {
		h.state = append(h.state, FrameFree)
		h.freeSlots = append(h.freeSlots, SlotsPerFrame)
		h.slotBits = append(h.slotBits, make([]uint64, wordsPerFrame)...)
		h.startBits = append(h.startBits, make([]uint64, wordsPerFrame)...)
	}
	if len(h.state) > h.leaves {
		h.growIndex()
	}
}

// frameWords returns the four bitmap words of a frame.
func frameWords(words []uint64, frame int) *[wordsPerFrame]uint64 {
	return (*[wordsPerFrame]uint64)(words[frame*wordsPerFrame:])
}

// nextSlot returns the first slot >= s whose bit in w^flip is set, or
// SlotsPerFrame: flip 0 finds the next used slot, ^0 the next free one.
func nextSlot(w *[wordsPerFrame]uint64, s int, flip uint64) int {
	if s >= SlotsPerFrame {
		return SlotsPerFrame
	}
	i := s >> 6
	x := (w[i] ^ flip) >> (s & 63) << (s & 63)
	for x == 0 {
		i++
		if i == wordsPerFrame {
			return SlotsPerFrame
		}
		x = w[i] ^ flip
	}
	return i<<6 + bits.TrailingZeros64(x)
}

// findRun returns the lowest starting slot of a run of n free slots in the
// frame, or -1. It steps from free run to free run, not from slot to slot.
func (h *Heap) findRun(frame, n int) int {
	w := frameWords(h.slotBits, frame)
	for s := nextSlot(w, 0, ^uint64(0)); s+n <= SlotsPerFrame; {
		e := nextSlot(w, s, 0)
		if e-s >= n {
			return s
		}
		s = nextSlot(w, e, ^uint64(0))
	}
	return -1
}

// longestRun returns the length of the frame's longest run of free slots.
func (h *Heap) longestRun(frame int) int {
	w := frameWords(h.slotBits, frame)
	longest := 0
	for s := nextSlot(w, 0, ^uint64(0)); s+longest < SlotsPerFrame; {
		e := nextSlot(w, s, 0)
		longest = max(longest, e-s)
		s = nextSlot(w, e, ^uint64(0))
	}
	return longest
}

// wordMask returns the index of the bitmap word holding bit, the mask of the
// part of [bit, bit+n) that lies in that word, and how many bits that is.
func wordMask(bit, n int) (word int, mask uint64, covered int) {
	b := bit & 63
	covered = min(64-b, n)
	return bit >> 6, ^uint64(0) >> (64 - covered) << b, covered
}

func setRange(w *[wordsPerFrame]uint64, slot, n int, v bool) {
	for n > 0 {
		i, mask, k := wordMask(slot, n)
		if v {
			w[i] |= mask
		} else {
			w[i] &^= mask
		}
		slot, n = slot+k, n-k
	}
}

// anySet reports whether any slot of [slot, slot+n) is set in w.
func anySet(w *[wordsPerFrame]uint64, slot, n int) bool {
	for n > 0 {
		i, mask, k := wordMask(slot, n)
		if w[i]&mask != 0 {
			return true
		}
		slot, n = slot+k, n-k
	}
	return false
}

// Alloc reserves a run of slots for a payload of `payload` bytes and returns
// the pool offset of the object's header slot. It never allocates into
// relocation frames (being evacuated) or meshed frames (physical slots may
// be occupied); destination frames are fine — their relocation targets are
// already reserved, and refusing their tails would force allocation-heavy
// workloads to open fresh frames during every epoch.
func (h *Heap) Alloc(payload uint64) (uint64, error) {
	n := SlotsFor(payload)
	if n > SlotsPerFrame {
		return 0, fmt.Errorf("alloc: object of %d bytes exceeds frame capacity", payload)
	}
	// First fit in cyclic order from the cursor: from the cursor to the last
	// frame, then from frame 0 (by then no bound at or past the cursor
	// reaches n, so the tree steps over those). A candidate's bound may be
	// stale; a failed probe makes it exact, so below n, and the search goes on.
	for _, lo := range [2]int{h.cursor, 0} {
		for f := h.nextFit(lo, n); f >= 0; f = h.nextFit(f+1, n) {
			if s := h.findRun(f, n); s >= 0 {
				h.commitAlloc(f, s, n)
				h.cursor = f
				return h.OffsetOf(f, s), nil
			}
			h.setBound(f, h.longestRun(f))
		}
	}
	if f := h.lowestFree(); f >= 0 {
		h.cover(f)
		h.state[f] = FrameActive
		h.usedFrames++
		h.commitAlloc(f, 0, n)
		h.reindex(f)
		h.cursor = f
		return h.OffsetOf(f, 0), nil
	}
	return 0, fmt.Errorf("alloc: out of memory (%d frames, %d live bytes)", h.frames, h.liveBytes)
}

// commitAlloc marks the run allocated. It leaves the frame's run bound
// alone: an allocation can only shorten runs, so the bound stays an upper
// bound, and the next probe that fails there tightens it.
func (h *Heap) commitAlloc(f, s, n int) {
	setRange(frameWords(h.slotBits, f), s, n, true)
	setRange(frameWords(h.startBits, f), s, 1, true)
	h.freeSlots[f] -= uint16(n)
	h.liveBytes += uint64(n) * SlotSize
}

// PlaceAt reserves an explicit (frame, slot, n) run — the GC uses it to
// install relocated objects at their PMFT-determined destinations. The frame
// must be free, active or a destination, and the run inside it and free.
func (h *Heap) PlaceAt(frame, slot, n int) error {
	if frame < 0 || frame >= h.frames || n <= 0 || slot < 0 || slot+n > SlotsPerFrame {
		return fmt.Errorf("alloc: PlaceAt(%d,%d,%d) is outside the heap's %d frames of %d slots", frame, slot, n, h.frames, SlotsPerFrame)
	}
	h.cover(frame)
	if st := h.state[frame]; st == FrameRelocation || st == FrameMeshed {
		return fmt.Errorf("alloc: PlaceAt(%d,%d,%d) into a frame in state %d, which takes no allocations", frame, slot, n, st)
	}
	if anySet(frameWords(h.slotBits, frame), slot, n) {
		return fmt.Errorf("alloc: PlaceAt(%d,%d,%d) overlaps a live allocation", frame, slot, n)
	}
	if h.state[frame] == FrameFree {
		h.state[frame] = FrameDestination
		h.usedFrames++
	}
	h.commitAlloc(frame, slot, n)
	h.reindex(frame)
	return nil
}

// Free releases the run of n slots starting at pool offset off.
func (h *Heap) Free(off uint64, n int) {
	f, s := h.Locate(off)
	setRange(frameWords(h.slotBits, f), s, n, false)
	setRange(frameWords(h.startBits, f), s, 1, false)
	h.freeSlots[f] += uint16(n)
	h.liveBytes -= uint64(n) * SlotSize
	if h.freeSlots[f] == SlotsPerFrame && allocatable(h.state[f]) {
		h.state[f] = FrameFree
		h.usedFrames--
	}
	h.reindex(f)
}

// ReleaseFrame forcibly frees every slot of a frame (end of relocation) and
// marks it free.
func (h *Heap) ReleaseFrame(frame int) {
	if frame >= len(h.state) {
		return
	}
	base := frame * wordsPerFrame
	for w := 0; w < wordsPerFrame; w++ {
		inUse := bits.OnesCount64(h.slotBits[base+w])
		h.liveBytes -= uint64(inUse) * SlotSize
		h.slotBits[base+w] = 0
		h.startBits[base+w] = 0
	}
	if h.state[frame] != FrameFree {
		h.usedFrames--
	}
	h.freeSlots[frame] = SlotsPerFrame
	h.state[frame] = FrameFree
	h.reindex(frame)
}

// SetState transitions a frame's state (GC summary marks relocation and
// destination frames; terminate reverts destination frames to active).
func (h *Heap) SetState(frame int, st FrameState) {
	if st != FrameFree {
		h.cover(frame)
	} else if frame >= len(h.state) {
		return
	}
	old := h.state[frame]
	if old == st {
		return
	}
	if old == FrameFree && st != FrameFree {
		h.usedFrames++
	}
	if old != FrameFree && st == FrameFree {
		h.usedFrames--
	}
	h.state[frame] = st
	h.reindex(frame)
}

// State returns a frame's state.
func (h *Heap) State(frame int) FrameState {
	if frame >= len(h.state) {
		return FrameFree
	}
	return h.state[frame]
}

// IsStart reports whether the slot at pool offset off begins an allocation.
func (h *Heap) IsStart(off uint64) bool {
	f, s := h.Locate(off)
	return f < len(h.state) && h.startBits[f*wordsPerFrame+s/64]&(1<<(s%64)) != 0
}

// FrameObjects returns the starting slots of allocations in a frame.
func (h *Heap) FrameObjects(frame int) []int {
	var out []int
	if frame >= len(h.state) {
		return out
	}
	base := frame * wordsPerFrame
	for w := 0; w < wordsPerFrame; w++ {
		word := h.startBits[base+w]
		for word != 0 {
			b := bits.TrailingZeros64(word)
			out = append(out, w*64+b)
			word &^= 1 << b
		}
	}
	return out
}

// FrameBitmap returns a copy of a frame's slot-allocation bitmap words.
func (h *Heap) FrameBitmap(frame int) [wordsPerFrame]uint64 {
	var out [wordsPerFrame]uint64
	if frame < len(h.state) {
		out = *frameWords(h.slotBits, frame)
	}
	return out
}

// FreeFrames appends up to n free frame indices to dst in ascending order —
// deterministic destination-frame selection for the GC summary phase, which
// passes the same buffer every epoch.
func (h *Heap) FreeFrames(dst []int, n int) []int {
	for i := 0; i < len(h.freeBits) && n > 0; i++ {
		for word := h.freeBits[i]; word != 0 && n > 0; word &= word - 1 {
			dst = append(dst, i<<6+bits.TrailingZeros64(word))
			n--
		}
	}
	return dst
}

// Objects returns the number of live allocations (what summing Objects over
// Snapshot gives, without building it).
func (h *Heap) Objects() int {
	n := 0
	for _, w := range h.startBits {
		n += bits.OnesCount64(w)
	}
	return n
}

// FrameInfo summarises a frame for the GC summary phase.
type FrameInfo struct {
	Frame     int
	State     FrameState
	UsedSlots int
	Objects   int
}

// Snapshot returns per-frame occupancy for all non-free frames.
func (h *Heap) Snapshot() []FrameInfo {
	var out []FrameInfo
	for f, st := range h.state {
		if st == FrameFree {
			continue
		}
		base := f * wordsPerFrame
		used, objs := 0, 0
		for w := 0; w < wordsPerFrame; w++ {
			used += bits.OnesCount64(h.slotBits[base+w])
			objs += bits.OnesCount64(h.startBits[base+w])
		}
		out = append(out, FrameInfo{Frame: f, State: st, UsedSlots: used, Objects: objs})
	}
	return out
}

// Reset clears all allocator state (used before RebuildFromMark).
func (h *Heap) Reset() {
	h.reset()
	h.buildIndex()
}

func (h *Heap) reset() {
	h.slotBits, h.startBits = h.slotBits[:0], h.startBits[:0]
	h.freeSlots, h.state = h.freeSlots[:0], h.state[:0]
	h.usedFrames = 0
	h.liveBytes = 0
	h.dupBytes = 0
	h.cursor = 0
}

// AddDup records bytes that are temporarily allocated twice (an in-flight
// relocation epoch holds both source and destination copies); Frag subtracts
// them so live data stays the logical single-copy size.
func (h *Heap) AddDup(n uint64) { h.dupBytes += n }

// SubDup removes previously recorded duplicate bytes.
func (h *Heap) SubDup(n uint64) {
	if n > h.dupBytes {
		n = h.dupBytes
	}
	h.dupBytes -= n
}

// RebuildFromMark reconstructs the bitmaps from the live-object set — the
// post-crash/reopen path. The set is the n objects a reachability pass found;
// at(i) returns the header offset and slot count of the i-th. Unreachable
// allocations are implicitly reclaimed (the paper's persistent-leak fix).
func (h *Heap) RebuildFromMark(n int, at func(i int) (hdrOff uint64, slots int)) {
	h.reset()
	for i := range n {
		off, slots := at(i)
		f, s := h.Locate(off)
		h.cover(f)
		if h.state[f] == FrameFree {
			h.state[f] = FrameActive
			h.usedFrames++
		}
		h.commitAlloc(f, s, slots)
	}
	h.buildIndex()
}

package alloc

import (
	"fmt"
	"math/bits"
)

// refHeap is the allocator as it was before the placement index: the linear
// first-fit walk, the bit-at-a-time findRun and setRange, and the per-frame
// loops of FreeFrames and Frag, kept as the oracle the indexed Heap is
// compared against. Alloc and findRun are the old code verbatim; PlaceAt
// carries the argument checks the indexed one gained. It has no lock: tests
// drive it from one goroutine.
type refHeap struct {
	heapOff uint64
	frames  int

	slotBits  []uint64
	startBits []uint64
	freeSlots []uint16
	state     []FrameState

	usedFrames int
	liveBytes  uint64
	dupBytes   uint64

	cursor int
}

func newRefHeap(heapOff uint64, frames int) *refHeap {
	h := &refHeap{
		heapOff:   heapOff,
		frames:    frames,
		slotBits:  make([]uint64, frames*wordsPerFrame),
		startBits: make([]uint64, frames*wordsPerFrame),
		freeSlots: make([]uint16, frames),
		state:     make([]FrameState, frames),
	}
	for i := range h.freeSlots {
		h.freeSlots[i] = SlotsPerFrame
	}
	return h
}

func (h *refHeap) OffsetOf(frame, slot int) uint64 {
	return h.heapOff + uint64(frame)*FrameSize + uint64(slot)*SlotSize
}

func (h *refHeap) Locate(off uint64) (frame, slot int) {
	rel := off - h.heapOff
	return int(rel / FrameSize), int(rel % FrameSize / SlotSize)
}

// findRun scans one frame's bitmap for a run of n free slots, returning the
// starting slot or -1.
func (h *refHeap) findRun(frame, n int) int {
	base := frame * wordsPerFrame
	run := 0
	start := 0
	for s := 0; s < SlotsPerFrame; s++ {
		w := h.slotBits[base+s/64]
		if w == ^uint64(0) {
			// Fast-skip a fully allocated word.
			s += 63 - s%64
			run = 0
			continue
		}
		if w&(1<<(s%64)) == 0 {
			if run == 0 {
				start = s
			}
			run++
			if run == n {
				return start
			}
		} else {
			run = 0
		}
	}
	return -1
}

func (h *refHeap) setRange(bits []uint64, frame, slot, n int, v bool) {
	base := frame * wordsPerFrame
	for i := slot; i < slot+n; i++ {
		if v {
			bits[base+i/64] |= 1 << (i % 64)
		} else {
			bits[base+i/64] &^= 1 << (i % 64)
		}
	}
}

func (h *refHeap) Alloc(payload uint64) (uint64, error) {
	n := SlotsFor(payload)
	if n > SlotsPerFrame {
		return 0, fmt.Errorf("alloc: object of %d bytes exceeds frame capacity", payload)
	}

	// First fit over active frames starting at the cursor; fall back to a
	// free frame.
	tried := 0
	for i := 0; i < h.frames && tried < h.frames; i++ {
		f := (h.cursor + i) % h.frames
		tried++
		if h.state[f] != FrameActive && h.state[f] != FrameDestination {
			continue
		}
		if int(h.freeSlots[f]) < n {
			continue
		}
		if s := h.findRun(f, n); s >= 0 {
			h.commitAlloc(f, s, n, payload)
			h.cursor = f
			return h.OffsetOf(f, s), nil
		}
	}
	for f := 0; f < h.frames; f++ {
		if h.state[f] == FrameFree {
			h.state[f] = FrameActive
			h.usedFrames++
			h.commitAlloc(f, 0, n, payload)
			h.cursor = f
			return h.OffsetOf(f, 0), nil
		}
	}
	return 0, fmt.Errorf("alloc: out of memory (%d frames, %d live bytes)", h.frames, h.liveBytes)
}

func (h *refHeap) commitAlloc(f, s, n int, payload uint64) {
	h.setRange(h.slotBits, f, s, n, true)
	h.setRange(h.startBits, f, s, 1, true)
	h.freeSlots[f] -= uint16(n)
	h.liveBytes += uint64(n) * SlotSize
}

func (h *refHeap) PlaceAt(frame, slot, n int) error {
	if frame < 0 || frame >= h.frames || n <= 0 || slot < 0 || slot+n > SlotsPerFrame {
		return fmt.Errorf("alloc: PlaceAt(%d,%d,%d) out of range", frame, slot, n)
	}
	if h.state[frame] == FrameRelocation || h.state[frame] == FrameMeshed {
		return fmt.Errorf("alloc: PlaceAt(%d,%d,%d) into a frame that takes no allocations", frame, slot, n)
	}
	base := frame * wordsPerFrame
	for i := slot; i < slot+n; i++ {
		if h.slotBits[base+i/64]&(1<<(i%64)) != 0 {
			return fmt.Errorf("alloc: PlaceAt(%d,%d,%d) overlaps a live allocation", frame, slot, n)
		}
	}
	if h.state[frame] == FrameFree {
		h.state[frame] = FrameDestination
		h.usedFrames++
	}
	h.setRange(h.slotBits, frame, slot, n, true)
	h.setRange(h.startBits, frame, slot, 1, true)
	h.freeSlots[frame] -= uint16(n)
	h.liveBytes += uint64(n) * SlotSize
	return nil
}

func (h *refHeap) Free(off uint64, n int) {
	f, s := h.Locate(off)
	h.setRange(h.slotBits, f, s, n, false)
	h.setRange(h.startBits, f, s, 1, false)
	h.freeSlots[f] += uint16(n)
	h.liveBytes -= uint64(n) * SlotSize
	if h.freeSlots[f] == SlotsPerFrame && (h.state[f] == FrameActive || h.state[f] == FrameDestination) {
		h.state[f] = FrameFree
		h.usedFrames--
	}
}

func (h *refHeap) ReleaseFrame(frame int) {
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
}

func (h *refHeap) SetState(frame int, st FrameState) {
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
}

func (h *refHeap) FrameBitmap(frame int) [wordsPerFrame]uint64 {
	var out [wordsPerFrame]uint64
	copy(out[:], h.slotBits[frame*wordsPerFrame:(frame+1)*wordsPerFrame])
	return out
}

func (h *refHeap) FrameObjects(frame int) []int {
	var out []int
	for s := 0; s < SlotsPerFrame; s++ {
		if h.startBits[frame*wordsPerFrame+s/64]&(1<<(s%64)) != 0 {
			out = append(out, s)
		}
	}
	return out
}

func (h *refHeap) FreeFrames(n int) []int {
	out := make([]int, 0, n)
	for f := 0; f < h.frames && len(out) < n; f++ {
		if h.state[f] == FrameFree {
			out = append(out, f)
		}
	}
	return out
}

func (h *refHeap) Snapshot() []FrameInfo {
	var out []FrameInfo
	for f := 0; f < h.frames; f++ {
		if h.state[f] == FrameFree {
			continue
		}
		base := f * wordsPerFrame
		used, objs := 0, 0
		for w := 0; w < wordsPerFrame; w++ {
			used += bits.OnesCount64(h.slotBits[base+w])
			objs += bits.OnesCount64(h.startBits[base+w])
		}
		out = append(out, FrameInfo{Frame: f, State: h.state[f], UsedSlots: used, Objects: objs})
	}
	return out
}

func (h *refHeap) Reset() {
	for i := range h.slotBits {
		h.slotBits[i] = 0
		h.startBits[i] = 0
	}
	for i := range h.freeSlots {
		h.freeSlots[i] = SlotsPerFrame
		h.state[i] = FrameFree
	}
	h.usedFrames = 0
	h.liveBytes = 0
	h.dupBytes = 0
	h.cursor = 0
}

func (h *refHeap) RebuildFromMark(n int, at func(i int) (hdrOff uint64, slots int)) {
	h.Reset()
	for i := range n {
		off, slots := at(i)
		f, s := h.Locate(off)
		if h.state[f] == FrameFree {
			h.state[f] = FrameActive
			h.usedFrames++
		}
		h.setRange(h.slotBits, f, s, slots, true)
		h.setRange(h.startBits, f, s, 1, true)
		h.freeSlots[f] -= uint16(slots)
		h.liveBytes += uint64(slots) * SlotSize
	}
}

func (h *refHeap) Frag(pageShift uint) FragStats {
	var footprint uint64
	if pageShift <= 12 {
		footprint = uint64(h.usedFrames) * FrameSize
	} else {
		// Count distinct OS pages containing at least one used frame.
		framesPerPage := 1 << (pageShift - 12)
		pages := 0
		for p := 0; p < h.frames; p += framesPerPage {
			end := p + framesPerPage
			if end > h.frames {
				end = h.frames
			}
			for f := p; f < end; f++ {
				if h.state[f] != FrameFree {
					pages++
					break
				}
			}
		}
		footprint = uint64(pages) << pageShift
	}
	live := h.liveBytes
	if h.dupBytes < live {
		live -= h.dupBytes
	}
	st := FragStats{
		FootprintBytes: footprint,
		LiveBytes:      live,
		UsedFrames:     h.usedFrames,
	}
	if live > 0 {
		st.FragRatio = float64(footprint) / float64(live)
	}
	return st
}

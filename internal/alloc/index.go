package alloc

import "math/bits"

// The placement index answers the two questions first fit asks — "which is
// the first frame at or after lo that could hold a run of n free slots" and
// "which is the lowest free frame" — without walking the frames.
//
// fit is a binary max-tree, root at 1, frame f at leaf leaves+f. It covers
// the frames below the per-frame tables' reach, rounded up to a power of two,
// and doubles when cover extends the tables past it; a frame past the index is
// pristine, so free with bound 0, and no search looks for it there. A leaf holds
// an upper bound on its frame's longest free run, and 0 for a frame that
// takes no allocations (free, relocation, meshed). The contract is one-sided:
// a bound is never below the true longest run, so a frame that fits a request
// is never passed over, and a bound above the truth only costs the probe that
// finds it out. That makes the bounds cheap to keep: Alloc leaves the bound of
// the frame it fills alone, everything that can lengthen a run or change a
// frame's state (Free, PlaceAt, ReleaseFrame, SetState) makes it exact through
// reindex, and a probe that fails makes it exact before searching on. Keeping
// every bound exact on every Alloc was measured and rejected: it doubles the
// cost of the common case, where the cursor frame has room and the index is
// not consulted beyond one leaf.
//
// freeBits has bit f set iff frame f is free.

// allocatable reports whether Alloc may place into a frame in state st.
func allocatable(st FrameState) bool {
	return st == FrameActive || st == FrameDestination
}

// indexLeaves returns the leaf count of an index over a reach of n frames:
// the least power of two that is at least n.
func indexLeaves(n int) int {
	leaves := 1
	for leaves < n {
		leaves <<= 1
	}
	return leaves
}

// nextFit returns the first frame >= lo whose bound is at least n, or -1.
func (h *Heap) nextFit(lo, n int) int {
	if lo >= h.leaves {
		return -1
	}
	need := uint16(n)
	i := h.leaves + lo
	for h.fit[i] < need {
		// The subtree at i holds no candidate: the next one to the right is
		// the sibling of the first ancestor-or-self that is a left child.
		for i&1 == 1 {
			i >>= 1
		}
		if i == 0 {
			return -1 // climbed past the root along its right edge
		}
		i++
	}
	for i < h.leaves {
		i <<= 1
		if h.fit[i] < need {
			i++
		}
	}
	return i - h.leaves
}

// setBound sets frame f's bound and repairs the maxima above it, stopping at
// the first ancestor the change does not reach.
func (h *Heap) setBound(f, b int) {
	i := h.leaves + f
	h.fit[i] = uint16(b)
	for i > 1 {
		i >>= 1
		m := max(h.fit[2*i], h.fit[2*i+1])
		if h.fit[i] == m {
			return
		}
		h.fit[i] = m
	}
}

// reindex makes frame f's index entries exact after its bitmap or state
// changed.
func (h *Heap) reindex(f int) {
	bound := 0
	if allocatable(h.state[f]) {
		bound = h.longestRun(f)
	}
	if int(h.fit[h.leaves+f]) != bound {
		h.setBound(f, bound)
	}
	if h.state[f] == FrameFree {
		h.freeBits[f>>6] |= 1 << (f & 63)
	} else {
		h.freeBits[f>>6] &^= 1 << (f & 63)
	}
}

// lowestFree returns the lowest-numbered free frame, or -1.
func (h *Heap) lowestFree() int {
	for i, word := range h.freeBits {
		if word != 0 {
			return i<<6 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// freeIn counts the free frames in [lo, hi).
func (h *Heap) freeIn(lo, hi int) int {
	n := 0
	for lo < hi {
		i, mask, k := wordMask(lo, hi-lo)
		n += bits.OnesCount64(h.freeBits[i] & mask)
		lo += k
	}
	return n
}

// buildIndex derives the whole index from freeSlots and state, over the
// tables' reach. A frame's free slot count bounds its longest run from above,
// so no bitmap is read. Restore pays this on every forked run, and most of a
// heap is whole bitmap words of free frames — every word past the tables'
// reach, and many before it: those cost one store each, and each level of the
// tree is recomputed only as far as the last frame with a bound.
func (h *Heap) buildIndex() {
	h.leaves = indexLeaves(len(h.state))
	if cap(h.fit) < 2*h.leaves {
		h.fit = make([]uint16, 2*h.leaves)
	}
	h.fit = h.fit[:2*h.leaves]
	clear(h.fit)
	leaf := h.fit[h.leaves:]
	bounded := 0 // frames at or past this have a zero bound
	for w := range h.freeBits {
		base := w << 6
		free := ^uint64(0) >> max(base+64-h.frames, 0) // the frames that exist
		states := h.state[min(base, len(h.state)):min(base+64, len(h.state))]
		if len(states) == 64 && [64]FrameState(states) == [64]FrameState{} {
			states = nil // all free
		}
		for i, st := range states {
			if allocatable(st) {
				leaf[base+i] = h.freeSlots[base+i]
				bounded = base + i + 1
			}
			if st != FrameFree {
				free &^= 1 << i
			}
		}
		h.freeBits[w] = free
	}
	h.buildLevels(bounded)
}

// growIndex widens the index to the tables' reach, keeping every bound. The
// new leaves start at or past the old ones' end, so the bounds move up within
// the tree's memory when it has room.
func (h *Heap) growIndex() {
	old := h.leaves
	h.leaves = indexLeaves(len(h.state))
	if cap(h.fit) < 2*h.leaves {
		fit := make([]uint16, 2*h.leaves)
		copy(fit[h.leaves:], h.fit[old:])
		h.fit = fit
	} else {
		h.fit = h.fit[:2*h.leaves]
		copy(h.fit[h.leaves:], h.fit[old:2*old])
		clear(h.fit[:h.leaves])
		clear(h.fit[h.leaves+old:])
	}
	h.buildLevels(old)
}

// buildLevels recomputes the tree's inner nodes from its leaves, as far as
// the subtrees of the first n leaves reach; every node past that is 0.
func (h *Heap) buildLevels(n int) {
	for level := h.leaves; level > 1; level, n = level>>1, (n+1)>>1 {
		nodes, parents := h.fit[level:2*level], h.fit[level>>1:level]
		for i := 0; i < (n+1)>>1; i++ {
			parents[i] = max(nodes[2*i], nodes[2*i+1])
		}
	}
}

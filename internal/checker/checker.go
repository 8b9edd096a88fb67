// Package checker implements the post-crash consistency validation used by
// the §7.1 campaign, as a reusable library (in the spirit of PM debugging
// tools like pmemcheck/Agamotto, scoped to this programming model):
//
//   - Step 1 (program data): every expected key readable with the expected
//     value — driven by a workload model.
//   - Step 2 (GC metadata vs memory): the defragmentation phase is quiescent,
//     every reachable object is a well-formed allocation on a live frame,
//     objects do not overlap, and references are well-formed.
//
// Both checks read through the normal access path; run them after recovery
// (the cache is cold then, so reads reflect the persistent image).
package checker

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"ffccd/internal/alloc"
	"ffccd/internal/ds"
	"ffccd/internal/pmop"
	"ffccd/internal/sim"
)

// GraphStats summarises a graph check.
type GraphStats struct {
	Objects   int
	Bytes     uint64
	PtrFields int
}

// CheckStore verifies readability and values for every key of the model
// (checker step 1). Keys are visited in ascending order: the reads go
// through the device cache, and when a run continues past the check — the
// serving path resumes dispatch right after recovery validation — the cache
// state the check leaves behind must not depend on Go's map iteration
// order.
func CheckStore(ctx *sim.Ctx, s ds.Store, model map[uint64][]byte) error {
	return checkKeys(ctx, s, model, sortedKeys(model, 0))
}

// sortedKeys returns model's keys in ascending order, with room for extra
// more.
func sortedKeys(model map[uint64][]byte, extra int) []uint64 {
	keys := make([]uint64, 0, len(model)+extra)
	for k := range model {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// inPlaceReader is a store that reads a value into a caller's buffer, with
// the loads Get makes: every ds and kv store.
type inPlaceReader interface {
	GetInto(ctx *sim.Ctx, key uint64, buf []byte) ([]byte, bool)
}

// checkKeys is CheckStore with model's keys given, ascending. It only
// compares what it reads, so it reads every value into one buffer, through
// Get only for a store that cannot read in place.
func checkKeys(ctx *sim.Ctx, s ds.Store, model map[uint64][]byte, keys []uint64) error {
	r, inPlace := s.(inPlaceReader)
	var buf []byte
	for _, k := range keys {
		want := model[k]
		var got []byte
		var ok bool
		if inPlace {
			buf, ok = r.GetInto(ctx, k, buf)
			got = buf
		} else {
			got, ok = s.Get(ctx, k)
		}
		if !ok {
			return fmt.Errorf("checker: key %d lost", k)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("checker: key %d corrupted (%d bytes vs %d)", k, len(got), len(want))
		}
	}
	if s.Len() != len(model) {
		return fmt.Errorf("checker: store length %d, model %d", s.Len(), len(model))
	}
	return nil
}

// CheckGraph validates agreement between the object graph, the allocator and
// the defragmentation metadata (checker step 2). It returns statistics about
// the reachable graph on success.
func CheckGraph(ctx *sim.Ctx, p *pmop.Pool) (GraphStats, error) {
	var st GraphStats
	if phase := p.GCPhase(ctx) & 0xFF; phase != 0 {
		return st, fmt.Errorf("checker: defragmentation phase not idle: %d", phase)
	}
	heap := p.Heap()
	heapOff := heap.HeapOff()
	heapEnd := heapOff + uint64(heap.Frames())*alloc.FrameSize
	reg := p.Types()

	// The walk's sets hold heap slots up to a frame past the heap's reach:
	// an object past the reach is no allocation start, so the walk fails on
	// its first visit, and an object's slots end within the next frame.
	reach := heap.Reach()
	seenSlots, visited := newSlotSet(reach+1), newSlotSet(reach+1)
	slot := func(off uint64) uint64 { return (off - heapOff) / alloc.SlotSize }
	var walk func(obj pmop.Ptr) error
	walk = func(obj pmop.Ptr) error {
		if obj.IsNull() {
			return nil
		}
		off := obj.Offset()
		if off < heapOff+pmop.HeaderSize || off >= heapEnd {
			return fmt.Errorf("checker: reference outside heap: %v", obj)
		}
		if off%alloc.SlotSize != 0 {
			return fmt.Errorf("checker: unaligned reference %v", obj)
		}
		if visited.has(slot(off)) {
			return nil
		}
		visited.add(slot(off))
		hdr := off - pmop.HeaderSize
		tid, payload := p.Header(ctx, obj)
		ti, ok := reg.Lookup(tid)
		if !ok {
			return fmt.Errorf("checker: object %#x has unregistered type %d", off, tid)
		}
		if payload == 0 || payload > 4064 {
			return fmt.Errorf("checker: object %#x (%s) has insane payload %d", off, ti.Name, payload)
		}
		if ti.Size > 0 && payload != ti.Size {
			return fmt.Errorf("checker: object %#x payload %d != registered size %d (%s)",
				off, payload, ti.Size, ti.Name)
		}
		if !heap.IsStart(hdr) {
			return fmt.Errorf("checker: reachable object %#x is not an allocation start", off)
		}
		frame := heap.FrameOf(hdr)
		if heap.State(frame) == alloc.FrameFree {
			return fmt.Errorf("checker: reachable object %#x on free frame %d", off, frame)
		}
		slots := alloc.SlotsFor(payload)
		for s := 0; s < slots; s++ {
			slotOff := hdr + uint64(s)*alloc.SlotSize
			if seenSlots.has(slot(slotOff)) {
				return fmt.Errorf("checker: objects overlap at %#x", slotOff)
			}
			seenSlots.add(slot(slotOff))
		}
		st.Objects++
		st.Bytes += uint64(slots) * alloc.SlotSize
		for i, n := 0, ti.PointerCount(payload); i < n; i++ {
			st.PtrFields++
			ref := pmop.Ptr(p.RawLoadU64(ctx, off+ti.PointerOffset(i)))
			if ref.IsNull() {
				continue
			}
			if ref.PoolID() != p.ID() {
				return fmt.Errorf("checker: object %#x holds foreign-pool reference %v", off, ref)
			}
			if err := walk(ref); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(p.Root(ctx)); err != nil {
		return st, err
	}

	// The allocator's live accounting must not be below what's reachable
	// (reachable ⊆ allocated; the difference is floating garbage).
	if live := heap.LiveBytes(); live < st.Bytes {
		return st, fmt.Errorf("checker: allocator live bytes %d < reachable bytes %d", live, st.Bytes)
	}

	// Idle phase means no epoch is in flight, so no frame may still be a
	// relocation source or destination: finish/recovery demote destinations
	// to active and release relocation frames before leaving the phase.
	// (FrameMeshed is a steady state and legitimate outside epochs.) Frames
	// past the heap's reach are free.
	for f, reach := 0, heap.Reach(); f < reach; f++ {
		switch heap.State(f) {
		case alloc.FrameRelocation:
			return st, fmt.Errorf("checker: idle phase but frame %d still in relocation state", f)
		case alloc.FrameDestination:
			return st, fmt.Errorf("checker: idle phase but frame %d still in destination state", f)
		}
	}

	if err := checkMovedBits(ctx, p); err != nil {
		return st, err
	}
	return st, nil
}

// slotSet is a set of heap slots (by index from the heap's start), one bit
// each, over a fixed number of frames; a slot past them is never a member,
// and adding one does nothing.
type slotSet []uint64

func newSlotSet(frames int) slotSet { return make(slotSet, frames*alloc.SlotsPerFrame/64) }

func (s slotSet) has(i uint64) bool { return i/64 < uint64(len(s)) && s[i/64]&(1<<(i%64)) != 0 }

func (s slotSet) add(i uint64) {
	if i/64 < uint64(len(s)) {
		s[i/64] |= 1 << (i % 64)
	}
}

// checkMovedBits cross-checks the persistent moved bitmap against the PMFT:
// the summary phase zeroes a frame's moved bytes when it persists the
// frame's PMFT entry, and compaction only sets a moved bit at an object
// start the PMFT maps. So for every frame whose PMFT entry belongs to the
// latest epoch (entry epoch == phase-word epoch), set moved bits must be a
// subset of the PMFT-mapped slots; a violation is a stale bit that would
// corrupt the next epoch's relocation decisions. Frames with older PMFT
// epochs carry unjudgeable residue and are skipped, as is a pool that never
// ran an epoch (phase epoch 0: the zero-filled PMFT is not a valid map).
//
// The frames of the latest epoch are the ones its relocation-frame list
// names, read when the list is of the phase word's epoch. A summary that
// crashed before its flip can leave a newer list behind (or a torn one,
// whose older header still matches: it can only hide frames from the check,
// since a listed frame of another epoch is skipped); then the check scans
// every PMFT entry for the epoch instead.
func checkMovedBits(ctx *sim.Ctx, p *pmop.Pool) error {
	_, _, epoch := pmop.UnpackGCPhase(p.GCPhase(ctx))
	if epoch == 0 {
		return nil
	}
	ml := p.GCMeta()
	check := func(f int) error {
		entry := ml.PMFTEntry(f)
		if p.RawLoadU64(ctx, entry)&0xFFFFFFFF != epoch {
			return nil
		}
		var moved [pmop.MovedBytesPerFrame]byte
		p.RawLoad(ctx, ml.Moved+uint64(f)*pmop.MovedBytesPerFrame, moved[:])
		var minor [alloc.SlotsPerFrame]byte
		p.RawLoad(ctx, entry+8, minor[:])
		for slot := 0; slot < alloc.SlotsPerFrame; slot++ {
			if moved[slot/8]&(1<<(slot%8)) != 0 && minor[slot] == pmop.MinorInvalid {
				return fmt.Errorf("checker: frame %d slot %d has a stale moved bit (epoch %d PMFT does not map it)",
					f, slot, epoch)
			}
		}
		return nil
	}
	frames := p.Heap().Frames()
	hdr := p.RawLoadU64(ctx, ml.RelocList)
	if n := int(hdr >> 32); hdr&0xFFFFFFFF == epoch && n <= frames {
		for i := 0; i < n; i++ {
			var word [4]byte
			p.RawLoad(ctx, ml.RelocList+8+4*uint64(i), word[:])
			if f := int(binary.LittleEndian.Uint32(word[:])); f < frames {
				if err := check(f); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for f := 0; f < frames; f++ {
		if err := check(f); err != nil {
			return err
		}
	}
	return nil
}

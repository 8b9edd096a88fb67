package core

import (
	"unsafe"

	"ffccd/internal/alloc"
	"ffccd/internal/pmop"
	"ffccd/internal/sim"
)

// markObj is one reachable object found by the marking phase. A header holds
// the payload length as a u32, so the record packs into 16 bytes.
type markObj struct {
	payloadOff uint64
	typeID     pmop.TypeID
	payload    uint32
}

// A walk's live list holds one markObj per live object: keep it at 16 bytes.
var (
	_ [unsafe.Sizeof(markObj{}) - 16]struct{}
	_ [16 - unsafe.Sizeof(markObj{})]struct{}
)

func (m *markObj) slots() int { return alloc.SlotsFor(uint64(m.payload)) }

// refVisitor lets a walk rewrite a pointer field. field is the pool offset of
// the cell holding ref; the return value replaces ref both in the cell (when
// changed) and as the traversal target.
type refVisitor func(ctx *sim.Ctx, fieldOff uint64, ref pmop.Ptr) pmop.Ptr

// markScratch is the epoch memory of a reachability walk: the visited bitset
// (one bit per heap slot, reaching as far as the highest object the walk has
// met, not to the end of the heap), the traversal stack and the result, which
// the allocator rebuilds from in place. A walk empties and refills it,
// so only a walk that reaches higher or finds more than any walk on this
// memory before it allocates. Walks run with the world stopped or in
// single-threaded recovery, never concurrently.
type markScratch struct {
	visited []uint64
	stack   []pmop.Ptr
	live    []markObj
}

// mark runs reachability analysis from the pool root (§5 marking()): it
// visits every reachable object, following pointer fields via the type
// registry. The caller must have stopped the world (or be in single-threaded
// recovery). If visit is non-nil it may redirect/rewrite each reference
// before traversal — recovery's reference fixup and the finish phase's
// reference updates run through it.
//
// With collect set the walk returns the reachable objects in a slice the
// engine owns, valid until the next walk; a walk run only for its rewrites
// passes false and gets nil.
//
// Marking is idempotent (it only reads application memory unless visit
// rewrites), matching §3.3.1.
func (e *Engine) mark(ctx *sim.Ctx, visit refVisitor, collect bool) []markObj {
	p := e.pool
	heap := p.Heap()
	heapOff := heap.HeapOff()
	heapEnd := heapOff + uint64(heap.Frames())*alloc.FrameSize

	ms := &e.markScratch
	visited := ms.visited[:0]
	seen := func(off uint64) bool {
		slot := (off - heapOff) / alloc.SlotSize
		w, b := int(slot/64), slot%64
		if w >= len(visited) {
			visited = append(visited, make([]uint64, w+1-len(visited))...)
		}
		if visited[w]&(1<<b) != 0 {
			return true
		}
		visited[w] |= 1 << b
		return false
	}
	inHeap := func(off uint64) bool {
		return off >= heapOff+pmop.HeaderSize && off < heapEnd
	}

	// The walk finds no more objects than the heap holds, so the live list is
	// sized once. Recovery walks a heap not yet rebuilt, which counts none;
	// there the list grows as the walk goes.
	out := ms.live[:0]
	if collect {
		out = sized(ms.live, heap.Objects())[:0]
	}
	stack := ms.stack[:0]

	// Root cell (pool header offset 16 — see pmop). Read raw: the barrier is
	// either uninstalled (STW between epochs) or must not fire during
	// recovery walks.
	const rootCell = 16
	root := pmop.Ptr(p.RawLoadU64(ctx, rootCell))
	if visit != nil && !root.IsNull() {
		if nr := visit(ctx, rootCell, root); nr != root {
			p.RawStoreU64(ctx, rootCell, uint64(nr))
			root = nr
		}
	}
	if !root.IsNull() && root.PoolID() == p.ID() && inHeap(root.Offset()) {
		stack = append(stack, root)
	}

	for len(stack) > 0 {
		obj := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		off := obj.Offset()
		if seen(off) {
			continue
		}
		typeID, payload := p.Header(ctx, obj)
		ti, ok := p.Types().Lookup(typeID)
		if collect {
			out = append(out, markObj{payloadOff: off, typeID: typeID, payload: uint32(payload)})
		}
		if !ok {
			// Unregistered type: treated as raw bytes (conservative — no
			// references can hide in it because the programming model
			// requires typed allocation for pointer-bearing objects).
			continue
		}
		for i, n := 0, ti.PointerCount(payload); i < n; i++ {
			fieldOff := off + ti.PointerOffset(i)
			ref := pmop.Ptr(p.RawLoadU64(ctx, fieldOff))
			if ref.IsNull() {
				continue
			}
			if visit != nil {
				if nr := visit(ctx, fieldOff, ref); nr != ref {
					p.RawStoreU64(ctx, fieldOff, uint64(nr))
					ref = nr
				}
			}
			if ref.IsNull() || ref.PoolID() != p.ID() || !inHeap(ref.Offset()) {
				continue
			}
			stack = append(stack, ref)
		}
	}
	ms.stack, ms.visited = stack, visited
	if !collect {
		return nil
	}
	ms.live = out
	return out
}

// rebuildHeap resyncs the allocator to live, the objects a walk found: it
// holds them and nothing else afterwards.
func (e *Engine) rebuildHeap(live []markObj) {
	e.pool.Heap().RebuildFromMark(len(live), func(i int) (uint64, int) {
		return live[i].payloadOff - pmop.HeaderSize, live[i].slots()
	})
}

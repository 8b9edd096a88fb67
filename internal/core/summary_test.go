package core

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"ffccd/internal/alloc"
	"ffccd/internal/pmop"
)

// TestSummaryGroupingMatchesSort: summary groups the live objects by frame in
// place instead of sorting them. On shuffled live sets with the shapes that
// stress the cursors — a one-object frame, a frame full of 256 one-slot
// objects, runs of empty frames, the highest frame holding a single object —
// the result must be the slice a sort by offset gives, and the start table
// must index every frame's run.
func TestSummaryGroupingMatchesSort(t *testing.T) {
	fx := buildRandomHeap(t, 9, 12, 50, 1, 64)
	e := NewEngine(fx.p, DefaultOptions())
	defer e.Close()
	heap := fx.p.Heap()
	obj := func(frame, slot, slots int) markObj {
		return markObj{payloadOff: heap.OffsetOf(frame, slot) + pmop.HeaderSize, payload: uint32(slots*alloc.SlotSize - pmop.HeaderSize)}
	}
	byOffset := func(a, b markObj) int { return cmp.Compare(a.payloadOff, b.payloadOff) }
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 300; round++ {
		frames := 1 + rng.Intn(48)
		var live []markObj
		for f := 0; f < frames-1; f++ {
			switch rng.Intn(4) {
			case 0: // empty
			case 1:
				live = append(live, obj(f, rng.Intn(alloc.SlotsPerFrame), 1))
			case 2:
				for s := 0; s < alloc.SlotsPerFrame; s++ {
					live = append(live, obj(f, s, 1))
				}
			default:
				for s := 0; s < alloc.SlotsPerFrame; {
					if rng.Intn(3) == 0 {
						s += 1 + rng.Intn(8)
						continue
					}
					n := 1 + rng.Intn(min(24, alloc.SlotsPerFrame-s))
					live = append(live, obj(f, s, n))
					s += n
				}
			}
		}
		live = append(live, obj(frames-1, rng.Intn(alloc.SlotsPerFrame), 1))
		rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
		want := slices.Clone(live)
		slices.SortFunc(want, byOffset)

		start := e.groupByFrame(live)
		if got := len(start) - 1; got != frames {
			t.Fatalf("round %d: %d frames, want %d", round, got, frames)
		}
		if !slices.Equal(live, want) {
			t.Fatalf("round %d: grouped order differs from the sorted order", round)
		}
		if start[0] != 0 || int(start[frames]) != len(live) {
			t.Fatalf("round %d: start table spans [%d, %d), want [0, %d)", round, start[0], start[frames], len(live))
		}
		for f := 0; f < frames; f++ {
			for _, m := range live[start[f]:start[f+1]] {
				if got := heap.FrameOf(m.payloadOff - pmop.HeaderSize); got != f {
					t.Fatalf("round %d: object of frame %d in frame %d's run", round, got, f)
				}
			}
		}
	}
}

// TestSummaryGroupingAllocatesNothing: once an engine has run an epoch, its
// summary scratch covers the heap, and grouping a live set again allocates
// nothing — no buffer the size of the live set, no per-frame table.
func TestSummaryGroupingAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	fx := buildRandomHeap(t, 3, 12, 3000, 3, 200)
	e := NewEngine(fx.p, DefaultOptions())
	defer e.Close()
	if !e.RunCycle(fx.ctx) {
		t.Fatal("no epoch")
	}
	live := e.mark(fx.ctx, nil, true)
	order := slices.Clone(live)
	if allocs := testing.AllocsPerRun(10, func() {
		copy(live, order)
		e.groupByFrame(live)
	}); allocs != 0 {
		t.Errorf("a warm grouping made %v allocations, want 0", allocs)
	}
}

package alloc

import "testing"

// The two regimes of the repo benchmark's allocator ladder (bench/ladder.go),
// on the serving machine's heap geometry.
const benchFrames = 38400

// benchSize walks the serving regime's value sizes, 240–492 B.
func benchSize(i int) uint64 { return 240 + uint64(i*97)%253 }

type benchObj struct {
	off   uint64
	slots int
}

// churnHeap holds the LRU cap's worth of live values and has been churned —
// free one picked pseudo-randomly, allocate another size in its place — to
// the steady fragmentation the serving workloads run at (fragR ≈ 1.1).
func churnHeap(tb testing.TB) (*Heap, func(i int)) {
	h := NewHeap(0, benchFrames)
	live := make([]benchObj, 20_000)
	for i := range live {
		off, err := h.Alloc(benchSize(i))
		if err != nil {
			tb.Fatal(err)
		}
		live[i] = benchObj{off, SlotsFor(benchSize(i))}
	}
	step := func(i int) {
		j := int(uint32(i) * 2654435761 % uint32(len(live)))
		h.Free(live[j].off, live[j].slots)
		off, err := h.Alloc(benchSize(i))
		if err != nil {
			tb.Fatal(err)
		}
		live[j] = benchObj{off, SlotsFor(benchSize(i))}
	}
	for i := 0; i < 40_000; i++ {
		step(i)
	}
	return h, step
}

func BenchmarkHeapAllocFree(b *testing.B) {
	// Eight live objects: the cursor frame always has room.
	b.Run("sparse", func(b *testing.B) {
		h := NewHeap(0, benchFrames)
		for i := 0; i < 8; i++ {
			if _, err := h.Alloc(benchSize(i)); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			off, err := h.Alloc(benchSize(i))
			if err != nil {
				b.Fatal(err)
			}
			h.Free(off, SlotsFor(benchSize(i)))
		}
	})
	b.Run("fragmented", func(b *testing.B) {
		h, step := churnHeap(b)
		if fr := h.Frag(12).FragRatio; fr < 1.05 || fr > 1.25 {
			b.Fatalf("churned to fragR %.3f, want the serving regime's ≈1.1", fr)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step(i + 40_000)
		}
	})
}

// BenchmarkHeapRestore restores a fragmented serving heap into another heap,
// which re-derives the placement index: the cost a forked experiment run pays.
func BenchmarkHeapRestore(b *testing.B) {
	src, _ := churnHeap(b)
	c := src.Checkpoint()
	dst := NewHeap(0, benchFrames)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Restore(c)
	}
}

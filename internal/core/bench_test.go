package core

// The core rung of the benchmark ladder (ROADMAP item 1a): host cost of the
// epoch phases on one fragmented heap. Run with -benchmem; a warmed phase
// should report next to no allocations. `make benchsmoke` runs each once.

import (
	"math/rand"
	"slices"
	"testing"

	"ffccd/internal/pmop"
)

const benchNodes = 20000 // ≈ 27 000 live objects over ≈ 2 500 frames

func benchHeap(b *testing.B, s Scheme) (*fixture, *Engine) {
	b.Helper()
	fx := buildRandomHeap(b, 1, 12, benchNodes, 3, 200)
	opt := DefaultOptions()
	opt.Scheme = s
	opt.TargetRatio = 1 // every epoch compacts whatever has a net gain
	e := NewEngine(fx.p, opt)
	b.Cleanup(e.Close)
	b.ReportAllocs()
	return fx, e
}

func BenchmarkMark(b *testing.B) {
	fx, e := benchHeap(b, SchemeFFCCDCheckLookup)
	objects := len(e.mark(fx.ctx, nil, true))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.mark(fx.ctx, nil, true)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*objects), "ns/object")
}

// BenchmarkSummary repeats the summary phase over one marking result. Nothing
// has to be undone in between: summary begins by rebuilding the allocator
// from the live set, which drops the previous iteration's placements.
func BenchmarkSummary(b *testing.B) {
	fx, e := benchHeap(b, SchemeFFCCDCheckLookup)
	live := e.mark(fx.ctx, nil, true)
	order := slices.Clone(live) // summary sorts live in place; start from mark order each time
	if e.summary(fx.ctx, live) == nil {
		b.Fatal("no epoch")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(live, order)
		e.summary(fx.ctx, live)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(live)), "ns/object")
}

// BenchmarkEpochCycle times BeginCycle→FinishCycle; the heap is fragmented
// again, off the clock, before every epoch.
func BenchmarkEpochCycle(b *testing.B) {
	fx, e := benchHeap(b, SchemeFFCCDCheckLookup)
	rng := rand.New(rand.NewSource(2))
	cycle := func() {
		if !e.BeginCycle(fx.ctx) {
			b.Fatal("no epoch")
		}
		e.FinishCycle(fx.ctx)
	}
	cycle()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fx.grow(b, rng, 1000, 3, 200)
		b.StartTimer()
		cycle()
	}
}

// BenchmarkStepCompaction steps large epochs (≈ 27 000 objects) one object
// at a time, as a serving run's dispatch rounds and a crash campaign's rounds
// drive the mover. When an epoch has no object left, a new heap is built and
// its epoch opened, off the clock.
func BenchmarkStepCompaction(b *testing.B) {
	var fx *fixture
	var e *Engine
	for i := 0; i < b.N; i++ {
		if e == nil || e.EpochPending() == 0 {
			b.StopTimer()
			if e != nil {
				e.Close()
				fx.rt.Device().ReleaseMedia()
			}
			fx, e = benchHeap(b, SchemeFFCCDCheckLookup)
			if !e.BeginCycle(fx.ctx) {
				b.Fatal("no epoch")
			}
			b.StartTimer()
		}
		e.StepCompaction(fx.ctx, 1)
	}
}

// BenchmarkBarrierResolve times the read barrier forwarding references to
// objects that have already moved: check, lookup and the object-index probe.
func BenchmarkBarrierResolve(b *testing.B) {
	for _, s := range []Scheme{SchemeFFCCD, SchemeFFCCDCheckLookup} {
		b.Run(s.String(), func(b *testing.B) {
			fx, e := benchHeap(b, s)
			ep := e.prepare(fx.ctx)
			if ep == nil {
				b.Fatal("no epoch")
			}
			e.StepCompaction(fx.ctx, len(ep.objects))
			var refs []pmop.Ptr
			for i := range ep.objects {
				refs = append(refs, pmop.MakePtr(fx.p.ID(), ep.objects[i].srcPayload()))
			}
			rand.New(rand.NewSource(3)).Shuffle(len(refs), func(i, j int) { refs[i], refs[j] = refs[j], refs[i] })
			rb := &readBarrier{e: e, ep: ep}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ref := refs[i%len(refs)]; rb.Resolve(fx.ctx, ref) == ref {
					b.Fatal("reference into a relocation frame was not forwarded")
				}
			}
		})
	}
}

package core

// The engine refills one epochState and one set of mark/summary buffers for
// every epoch (epoch.go, mark.go, summary.go). These tests pin the two
// properties that buys and must not cost: stale contents of a reused buffer
// never reach a later epoch, and a warmed epoch allocates a small constant.

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"ffccd/internal/pmop"
)

// pmftBytes returns the persistent GC metadata region (reached bitmap, moved
// bitmap and PMFT) as it sits on media.
func pmftBytes(p *pmop.Pool) []byte {
	off, size := p.GCMetaRange()
	buf := make([]byte, size)
	p.Device().MediaRead(p.PA(off), buf)
	return buf
}

// TestEpochScratchReuse runs epochs of shrinking then growing size through
// one long-lived engine and, on an identically built second machine, through
// a fresh engine per epoch: objects moved, the persistent GC metadata and the
// whole media image must agree after every epoch.
func TestEpochScratchReuse(t *testing.T) {
	type tc struct {
		s         Scheme
		pageShift uint
	}
	cases := []tc{{SchemeFFCCDCheckLookup, 12}, {SchemeSFCCD, 21}}
	if !testing.Short() {
		cases = append(cases, tc{SchemeEspresso, 12}, tc{SchemeSFCCD, 12}, tc{SchemeFFCCD, 12}, tc{SchemeFFCCDCheckLookup, 21})
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/%d", c.s, c.pageShift), func(t *testing.T) {
			opt := DefaultOptions()
			opt.Scheme = c.s
			opt.TargetRatio = 1 // compact whatever has a net gain, however small the epoch
			const seed = 7
			garbagePer, growth := 3, []int{0, 150, 40, 12, 500, 900}
			if c.pageShift > 12 {
				// Only vacating a whole 2 MB page is a gain there.
				garbagePer, growth = 40, []int{0, 1300, 700, 500, 1600}
			}
			reused := buildRandomHeap(t, seed, c.pageShift, 600, garbagePer, 200)
			fresh := buildRandomHeap(t, seed, c.pageShift, 600, garbagePer, 200)
			rngA, rngB := rand.New(rand.NewSource(seed+1)), rand.New(rand.NewSource(seed+1))
			e := NewEngine(reused.p, opt)
			defer e.Close()

			var movedBefore uint64
			ran := 0
			for round, grow := range growth {
				reused.grow(t, rngA, grow, garbagePer, 200)
				fresh.grow(t, rngB, grow, garbagePer, 200)

				ranA := e.RunCycle(reused.ctx)
				ef := NewEngine(fresh.p, opt)
				ranB := ef.RunCycle(fresh.ctx)
				ef.Close()
				if ranA != ranB {
					t.Fatalf("round %d: cycle ran reused=%v fresh=%v", round, ranA, ranB)
				}
				if !ranA {
					continue // too little to gain
				}
				ran++
				moved := e.Stats().ObjectsMoved - movedBefore
				movedBefore += moved
				if got := ef.Stats().ObjectsMoved; moved != got || moved == 0 {
					t.Fatalf("round %d: reused engine moved %d objects, fresh engine %d", round, moved, got)
				}
				reused.p.Device().FlushAll(reused.ctx)
				fresh.p.Device().FlushAll(fresh.ctx)
				if !bytes.Equal(pmftBytes(reused.p), pmftBytes(fresh.p)) {
					t.Fatalf("round %d: persistent GC metadata differs", round)
				}
				if a, b := reused.p.Device().HashMedia(), fresh.p.Device().HashMedia(); a != b {
					t.Fatalf("round %d: media hash %#x with the reused engine, %#x with a fresh one", round, a, b)
				}
				checkVarList(t, reused.p, reused.ctx, reused.n)
			}
			if ran < 4 {
				t.Fatalf("only %d of the rounds opened an epoch", ran)
			}
		})
	}
}

// TestEpochSteadyStateAllocs pins a warmed BeginCycle→FinishCycle to a small
// number of host allocations that does not grow with the heap: what is left
// is the read barrier, the forwarder's bloom filters and a remap-hook copy.
func TestEpochSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const bound = 96
	for _, nodes := range []int{300, 6000} {
		fx := buildRandomHeap(t, 3, 12, nodes, 3, 200)
		rng := rand.New(rand.NewSource(4))
		e := NewEngine(fx.p, DefaultOptions())
		var allocs uint64
		for round := 0; round < 6; round++ {
			if round > 0 {
				fx.grow(t, rng, nodes, 3, 200) // same size again: buffers are warm
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			began := e.BeginCycle(fx.ctx)
			e.FinishCycle(fx.ctx)
			runtime.ReadMemStats(&m1)
			if !began {
				t.Fatalf("%d nodes, round %d: no epoch", nodes, round)
			}
			allocs = m1.Mallocs - m0.Mallocs
		}
		e.Close()
		t.Logf("%d nodes: %d allocations in the warmed epoch", nodes, allocs)
		if allocs > bound {
			t.Errorf("%d nodes: a warmed epoch made %d allocations, want at most %d", nodes, allocs, bound)
		}
	}
}

// TestTombstonesDoNotOutliveTheirEpoch: the SFCCD tombstone bits live in the
// reused epochState. After an epoch in which the application modified every
// moved object, the next epoch on the same engine must tombstone again.
func TestTombstonesDoNotOutliveTheirEpoch(t *testing.T) {
	fx := buildRandomHeap(t, 5, 12, 300, 3, 200)
	rng := rand.New(rand.NewSource(6))
	opt := DefaultOptions()
	opt.Scheme = SchemeSFCCD
	e := NewEngine(fx.p, opt)
	defer e.Close()
	p, ctx := fx.p, fx.ctx
	for round := 0; round < 2; round++ {
		if round > 0 {
			fx.grow(t, rng, 300, 3, 200)
		}
		if !e.BeginCycle(ctx) {
			t.Fatalf("round %d: no epoch", round)
		}
		for e.StepCompaction(ctx, 64) > 0 {
		}
		// Modify every list node through a transaction; the nodes that moved
		// this epoch must get their source header tombstoned.
		ep := e.epoch
		tombstoned := 0
		for cur := p.Root(ctx); !cur.IsNull(); cur = p.ReadPtr(ctx, cur, 8) {
			tx := p.Begin(ctx)
			tx.AddRange(ctx, cur, 0, 8)
			p.WriteU64(ctx, cur, 0, p.ReadU64(ctx, cur, 0))
			tx.Commit(ctx)
			if i, ok := ep.dstObject(p.Resolve(ctx, cur).Offset()); ok {
				if p.RawLoadU64(ctx, ep.objects[i].srcHdr+8) != sfccdTombstone {
					t.Fatalf("round %d: moved object %d was modified but its source is not tombstoned", round, i)
				}
				tombstoned++
			}
		}
		if tombstoned == 0 {
			t.Fatalf("round %d: no moved object was modified", round)
		}
		e.FinishCycle(ctx)
	}
	checkVarList(t, p, ctx, fx.n)
}

// TestReleasedEnginePanics: a released engine has handed its epoch memory
// on, so its next cycle entry point panics instead of running on memory
// another engine owns — the rule a released sim.Ctx follows on its next
// translation. Its counters stay readable, and a Close after it does nothing.
func TestReleasedEnginePanics(t *testing.T) {
	fx := buildRandomHeap(t, 3, 12, 300, 3, 200)
	e := NewEngine(fx.p, DefaultOptions())
	if !e.RunCycle(fx.ctx) {
		t.Fatal("no epoch")
	}
	stats := e.Stats()
	e.Release()
	e.Release() // a second call does nothing
	e.Close()   // and so does a Close
	if e.Stats() != stats || stats.Cycles != 1 {
		t.Fatalf("after release: %+v, before %+v", e.Stats(), stats)
	}
	for name, call := range map[string]func(){
		"BeginCycle":     func() { e.BeginCycle(fx.ctx) },
		"RunCycle":       func() { e.RunCycle(fx.ctx) },
		"RunCycleSTW":    func() { e.RunCycleSTW(fx.ctx) },
		"StepCompaction": func() { e.StepCompaction(fx.ctx, 1) },
		"FinishCycle":    func() { e.FinishCycle(fx.ctx) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s ran on a released engine", name)
				}
			}()
			call()
		}()
	}
}

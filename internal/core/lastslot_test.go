package core

// Tests for the PMFT's boundary encoding: a minor-distance byte of 0xFF is
// destination slot 255 as well as "not mapped", so an object whose last slot
// is the last slot of its destination frame must still forward. The crash
// campaign cannot see a mistake here — recovery's fixup walks the exact
// object tables — so these check the no-crash cycle, where the read barrier
// and terminate's fixup go through lookupSrc.

import (
	"math/rand"
	"testing"

	"ffccd/internal/alloc"
	"ffccd/internal/checker"
	"ffccd/internal/pmop"
)

// buildLastSlotHeap fills eight frames exactly, each with 64 live slots
// between freed fillers, so summary packs frames 0-3 into one destination
// frame and 4-7 into the next with no slot to spare. The last object of
// frames 0-3 is a two-slot pointer array (it lands on destination slots
// 254-255); the last object of frames 4-7 is a six-slot list node (ending at
// slot 255). The list of tvar nodes numbers them 0..n-1 like buildRandomHeap.
func buildLastSlotHeap(t *testing.T) *fixture {
	t.Helper()
	fx := buildRandomHeap(t, 0, 12, 0, 0, 0) // an empty pool
	p, ctx := fx.p, fx.ctx
	nodeT, _ := p.Types().LookupName("tvar")
	arrT, _ := p.Types().LookupName("tarr")
	garbT, _ := p.Types().LookupName("tgarbage")
	mk := func(tid pmop.TypeID, slots int) pmop.Ptr {
		t.Helper()
		ptr, err := p.Alloc(ctx, tid, uint64(slots)*16-pmop.HeaderSize)
		if err != nil {
			t.Fatal(err)
		}
		return ptr
	}
	var tail pmop.Ptr
	node := func(slots int) pmop.Ptr {
		nd := mk(nodeT.ID, slots)
		p.WriteU64(ctx, nd, 0, uint64(fx.n))
		if tail.IsNull() {
			p.SetRoot(ctx, nd)
		} else {
			p.WritePtr(ctx, tail, 8, nd)
		}
		tail = nd
		fx.n++
		return nd
	}
	// arr hangs a two-slot pointer array pointing back at nd off nd's aux.
	arr := func(nd pmop.Ptr) {
		a := mk(arrT.ID, 2)
		p.WritePtr(ctx, a, 0, nd)
		p.WritePtr(ctx, nd, 16, a)
	}
	var garbage []pmop.Ptr
	for f := 0; f < 8; f++ {
		garbage = append(garbage, mk(garbT.ID, 96))
		var nodes []pmop.Ptr
		for i := 0; i < 14; i++ {
			nodes = append(nodes, node(4))
		}
		garbage = append(garbage, mk(garbT.ID, 96))
		if f < 4 {
			nodes = append(nodes, node(4))
			arr(nodes[0])
			arr(nodes[1])
		} else {
			arr(nodes[0])
			node(6)
		}
	}
	for _, g := range garbage {
		p.Free(ctx, g)
	}
	p.Device().FlushAll(ctx)
	return fx
}

// lastSlotObjects returns how many of ep's objects end on their destination
// frame's last slot, split into two-slot objects and larger ones.
func lastSlotObjects(ep *epochState, p *pmop.Pool) (two, larger int) {
	for i := range ep.objects {
		o := &ep.objects[i]
		if _, dstSlot := p.Heap().Locate(o.dstHdr); dstSlot+o.slots == alloc.SlotsPerFrame {
			if o.slots == 2 {
				two++
			} else {
				larger++
			}
		}
	}
	return
}

// checkForwardsAll demands that every object of ep forwards from its source
// payload to its destination payload.
func checkForwardsAll(t *testing.T, ep *epochState, p *pmop.Pool) {
	t.Helper()
	for i := range ep.objects {
		o := &ep.objects[i]
		if dst, ok := ep.lookupSrc(p, o.srcPayload()); !ok || dst != o.dstPayload() {
			_, dstSlot := p.Heap().Locate(o.dstHdr)
			t.Fatalf("lookupSrc(object %d: %d slots placed at destination slot %d) = %#x,%v, want %#x",
				i, o.slots, dstSlot, dst, ok, o.dstPayload())
		}
	}
}

func TestLastSlotForwarding(t *testing.T) {
	for _, s := range schemes() {
		opt := DefaultOptions()
		opt.Scheme = s
		open := func(t *testing.T) (*fixture, *Engine, *epochState) {
			fx := buildLastSlotHeap(t)
			e := NewEngine(fx.p, opt)
			ep := e.prepare(fx.ctx)
			if ep == nil {
				t.Fatal("no epoch")
			}
			if two, larger := lastSlotObjects(ep, fx.p); two != 1 || larger != 1 {
				t.Fatalf("fixture places %d two-slot and %d larger objects on a last slot, want one of each", two, larger)
			}
			checkForwardsAll(t, ep, fx.p)
			return fx, e, ep
		}
		t.Run(s.String()+"/clean", func(t *testing.T) {
			fx, e, ep := open(t)
			defer e.Close()
			rb := &readBarrier{e: e, ep: ep}
			for i := range ep.objects {
				ref := pmop.MakePtr(fx.p.ID(), ep.objects[i].srcPayload())
				if got, want := rb.Resolve(fx.ctx, ref), ref.WithOffset(ep.objects[i].dstPayload()); got != want {
					t.Fatalf("Resolve(object %d) = %v, want %v", i, got, want)
				}
			}
			e.FinishCycle(fx.ctx)
			checkVarList(t, fx.p, fx.ctx, fx.n)
			if _, err := checker.CheckGraph(fx.ctx, fx.p); err != nil {
				t.Fatal(err)
			}
		})
		t.Run(s.String()+"/crash", func(t *testing.T) {
			fx, e, ep := open(t)
			e.StepCompaction(fx.ctx, len(ep.objects)/2)
			fx.rt.Device().Crash()
			if e.RBB() != nil {
				e.RBB().PowerLossFlush()
			}
			rt2, err := pmop.Attach(fx.cfg, fx.rt.Device())
			if err != nil {
				t.Fatal(err)
			}
			p2, err := rt2.Open("frag", testRegistry())
			if err != nil {
				t.Fatal(err)
			}
			// The epoch as recovery rebuilds it from the PMFT forwards too.
			e2 := NewEngine(p2, opt)
			_, scheme, epochNo := pmop.UnpackGCPhase(p2.GCPhase(fx.ctx))
			ep2, err := e2.loadEpoch(fx.ctx, Scheme(scheme), epochNo)
			if err != nil {
				t.Fatal(err)
			}
			checkForwardsAll(t, ep2, p2)
			e2.Close()
			e3, err := Recover(fx.ctx, p2, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer e3.Close()
			checkVarList(t, p2, fx.ctx, fx.n)
			if _, err := checker.CheckGraph(fx.ctx, p2); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestNoCrashCycleGraph runs the graph checker after one whole cycle with no
// crash, over randomized heaps in which 8- and 16-byte payloads (two-slot
// objects, the only ones whose payload can sit on a last slot) live among
// larger ones.
func TestNoCrashCycleGraph(t *testing.T) {
	for _, s := range schemes() {
		t.Run(s.String(), func(t *testing.T) {
			lastSlot := 0
			for seed := int64(1); seed <= 3; seed++ {
				fx := buildSmallObjectHeap(t, seed, 2500)
				opt := DefaultOptions()
				opt.Scheme = s
				e := NewEngine(fx.p, opt)
				ep := e.prepare(fx.ctx)
				if ep == nil {
					t.Fatalf("seed %d: no epoch", seed)
				}
				two, _ := lastSlotObjects(ep, fx.p)
				lastSlot += two
				e.FinishCycle(fx.ctx)
				e.Close()
				checkVarList(t, fx.p, fx.ctx, fx.n)
				if _, err := checker.CheckGraph(fx.ctx, fx.p); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
			if lastSlot == 0 {
				t.Fatal("no heap placed a two-slot object on a last slot; the boundary went untested")
			}
		})
	}
}

// buildSmallObjectHeap is buildRandomHeap with the sizes shifted down: every
// node carries a pointer array of one or two pointers (8 or 16 bytes) or, one
// time in four, a longer one, among fillers of up to 200 bytes.
func buildSmallObjectHeap(t *testing.T, seed int64, n int) *fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	fx := buildRandomHeap(t, seed, 12, 0, 0, 0) // an empty pool
	p, ctx := fx.p, fx.ctx
	nodeT, _ := p.Types().LookupName("tvar")
	arrT, _ := p.Types().LookupName("tarr")
	garbT, _ := p.Types().LookupName("tgarbage")
	must := func(ptr pmop.Ptr, err error) pmop.Ptr {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return ptr
	}
	var nodes, garbage []pmop.Ptr
	for i := 0; i < n; i++ {
		nd := must(p.Alloc(ctx, nodeT.ID, uint64(24+8*rng.Intn(4))))
		p.WriteU64(ctx, nd, 0, uint64(i))
		if i == 0 {
			p.SetRoot(ctx, nd)
		} else {
			p.WritePtr(ctx, nodes[i-1], 8, nd)
		}
		nodes = append(nodes, nd)
		ptrs := 1 + rng.Intn(2)
		if rng.Intn(4) == 0 {
			ptrs = 3 + rng.Intn(10)
		}
		arr := must(p.Alloc(ctx, arrT.ID, uint64(8*ptrs)))
		for o := 0; o < ptrs; o++ {
			p.WritePtr(ctx, arr, uint64(8*o), nodes[rng.Intn(len(nodes))])
		}
		p.WritePtr(ctx, nd, 16, arr)
		for g := 0; g < 3; g++ {
			garbage = append(garbage, must(p.Alloc(ctx, garbT.ID, uint64(16+rng.Intn(185)))))
		}
	}
	for _, g := range garbage {
		p.Free(ctx, g)
	}
	p.Device().FlushAll(ctx)
	fx.n = n
	return fx
}

package core

import (
	"testing"

	"ffccd/internal/alloc"
	"ffccd/internal/pmem"
	"ffccd/internal/pmop"
	"ffccd/internal/sim"
)

// Test fixture: a singly linked list of nodes (value u64 @0, next Ptr @8,
// 48-byte payload → 4 slots with header) plus interleaved garbage objects
// freed afterwards to manufacture fragmentation.

func testRegistry() *pmop.Registry {
	reg := pmop.NewRegistry()
	reg.Register(pmop.TypeInfo{Name: "tnode", Kind: pmop.KindFixed, Size: 48, PtrOffsets: []uint64{8}})
	reg.Register(pmop.TypeInfo{Name: "tgarbage", Kind: pmop.KindBytes})
	// For the randomized heaps of epoch_ref_test.go: a variable-size node
	// (next Ptr @8, aux Ptr @16) and a pointer array hanging off aux.
	reg.Register(pmop.TypeInfo{Name: "tvar", Kind: pmop.KindFixed, PtrOffsets: []uint64{8, 16}})
	reg.Register(pmop.TypeInfo{Name: "tarr", Kind: pmop.KindPtrArray})
	return reg
}

type fixture struct {
	cfg *sim.Config
	rt  *pmop.Runtime
	p   *pmop.Pool
	ctx *sim.Ctx
	n   int
}

// buildFragmented creates a pool holding a list of n nodes with heavy
// external fragmentation (interleaved freed fillers).
func buildFragmented(t *testing.T, n int) *fixture {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.CacheBytes = 256 * 1024 // small enough that eviction happens
	rt := pmop.NewRuntime(&cfg, 64<<20)
	reg := testRegistry()
	p, err := rt.Create("frag", 32<<20, 12, reg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewCtx(&cfg)
	node, _ := reg.LookupName("tnode")
	garb, _ := reg.LookupName("tgarbage")

	var head, prev pmop.Ptr
	var garbage []pmop.Ptr
	for i := 0; i < n; i++ {
		nd, err := p.Alloc(ctx, node.ID, 0)
		if err != nil {
			t.Fatal(err)
		}
		p.WriteU64(ctx, nd, 0, uint64(i))
		if prev.IsNull() {
			head = nd
		} else {
			p.WritePtr(ctx, prev, 8, nd)
		}
		prev = nd
		// Interleave 3 garbage objects per node to fragment frames.
		for g := 0; g < 3; g++ {
			go1, err := p.Alloc(ctx, garb.ID, 112)
			if err != nil {
				t.Fatal(err)
			}
			garbage = append(garbage, go1)
		}
	}
	p.SetRoot(ctx, head)
	for _, g := range garbage {
		p.Free(ctx, g)
	}
	// The fixture stands in for an application that kept itself crash
	// consistent (it would have flushed through its transactions): persist
	// the built state before any test crashes the device.
	p.Device().FlushAll(ctx)
	return &fixture{cfg: &cfg, rt: rt, p: p, ctx: ctx, n: n}
}

// checkList verifies the list still holds 0..n-1 in order.
func checkList(t *testing.T, p *pmop.Pool, ctx *sim.Ctx, n int) {
	t.Helper()
	cur := p.Root(ctx)
	for i := 0; i < n; i++ {
		if cur.IsNull() {
			t.Fatalf("list truncated at %d", i)
		}
		if v := p.ReadU64(ctx, cur, 0); v != uint64(i) {
			t.Fatalf("node %d holds %d", i, v)
		}
		cur = p.ReadPtr(ctx, cur, 8)
	}
	if !cur.IsNull() {
		t.Fatal("list longer than expected")
	}
}

func schemes() []Scheme {
	return []Scheme{SchemeEspresso, SchemeSFCCD, SchemeFFCCD, SchemeFFCCDCheckLookup}
}

func TestCycleReducesFragmentation(t *testing.T) {
	for _, s := range schemes() {
		t.Run(s.String(), func(t *testing.T) {
			fx := buildFragmented(t, 200)
			before := fx.p.Heap().Frag(12)
			if before.FragRatio < 1.5 {
				t.Fatalf("fixture not fragmented: %.2f", before.FragRatio)
			}
			opt := DefaultOptions()
			opt.Scheme = s
			e := NewEngine(fx.p, opt)
			defer e.Close()
			if !e.RunCycle(fx.ctx) {
				t.Fatal("cycle did not run")
			}
			after := fx.p.Heap().Frag(12)
			if after.FragRatio >= before.FragRatio {
				t.Fatalf("fragR %.2f → %.2f: no reduction", before.FragRatio, after.FragRatio)
			}
			if after.FragRatio > opt.TargetRatio+0.15 {
				t.Errorf("fragR after = %.2f, want ≈ target %.2f", after.FragRatio, opt.TargetRatio)
			}
			checkList(t, fx.p, fx.ctx, fx.n)
			if st := e.Stats(); st.FramesReleased == 0 || st.ObjectsMoved == 0 {
				t.Errorf("stats: %+v", st)
			}
		})
	}
}

func TestCycleNoopWhenCompact(t *testing.T) {
	cfg := sim.DefaultConfig()
	rt := pmop.NewRuntime(&cfg, 16<<20)
	reg := testRegistry()
	p, _ := rt.Create("dense", 8<<20, 12, reg)
	ctx := sim.NewCtx(&cfg)
	node, _ := reg.LookupName("tnode")
	var head, prev pmop.Ptr
	// 256 four-slot nodes fill exactly 4 frames: fragR = 1.0.
	for i := 0; i < 256; i++ {
		nd, _ := p.Alloc(ctx, node.ID, 0)
		if prev.IsNull() {
			head = nd
		} else {
			p.WritePtr(ctx, prev, 8, nd)
		}
		prev = nd
	}
	p.SetRoot(ctx, head)
	e := NewEngine(p, DefaultOptions())
	defer e.Close()
	if e.RunCycle(ctx) {
		t.Error("cycle ran on a compact heap")
	}
}

func TestLeakReclamation(t *testing.T) {
	fx := buildFragmented(t, 50)
	// Create a leak: allocate unreachable objects (never freed, no refs).
	garb, _ := fx.p.Types().LookupName("tgarbage")
	for i := 0; i < 20; i++ {
		if _, err := fx.p.Alloc(fx.ctx, garb.ID, 112); err != nil {
			t.Fatal(err)
		}
	}
	e := NewEngine(fx.p, DefaultOptions())
	defer e.Close()
	e.RunCycle(fx.ctx)
	if st := e.Stats(); st.LeaksReclaimed < 20 {
		t.Errorf("leaks reclaimed = %d, want >= 20", st.LeaksReclaimed)
	}
	checkList(t, fx.p, fx.ctx, fx.n)
}

func TestBarrierForwardsDuringCompaction(t *testing.T) {
	for _, s := range schemes() {
		t.Run(s.String(), func(t *testing.T) {
			fx := buildFragmented(t, 100)
			opt := DefaultOptions()
			opt.Scheme = s
			e := NewEngine(fx.p, opt)
			defer e.Close()
			ep := e.prepare(fx.ctx)
			if ep == nil {
				t.Fatal("no epoch prepared")
			}
			// Application reads the whole list mid-compaction: the read
			// barrier must relocate on demand and forward pointers.
			checkList(t, fx.p, fx.ctx, fx.n)
			if e.Stats().BarrierMoves == 0 {
				t.Error("no barrier-driven relocations")
			}
			e.FinishCycle(fx.ctx)
			checkList(t, fx.p, fx.ctx, fx.n)
		})
	}
}

func TestPhaseWordLifecycle(t *testing.T) {
	fx := buildFragmented(t, 100)
	e := NewEngine(fx.p, DefaultOptions())
	defer e.Close()
	if st, _, _ := pmop.UnpackGCPhase(fx.p.GCPhase(fx.ctx)); st != pmop.PhaseIdle {
		t.Fatal("not idle initially")
	}
	ep := e.prepare(fx.ctx)
	if ep == nil {
		t.Fatal("no epoch")
	}
	if st, sc, en := pmop.UnpackGCPhase(fx.p.GCPhase(fx.ctx)); st != pmop.PhaseCompacting || Scheme(sc) != e.opt.Scheme || en != ep.epochNo {
		t.Fatalf("phase word wrong: %d/%v/%d", st, sc, en)
	}
	e.FinishCycle(fx.ctx)
	if st, _, _ := pmop.UnpackGCPhase(fx.p.GCPhase(fx.ctx)); st != pmop.PhaseIdle {
		t.Fatal("not idle after finish")
	}
}

func TestPMFTDeterminism(t *testing.T) {
	// Same heap state must produce identical destination assignments —
	// the §4.3.1 deterministic relocation requirement. Build two identical
	// fixtures and compare PMFT-assigned destinations.
	mk := func() map[uint64]uint64 {
		fx := buildFragmented(t, 120)
		e := NewEngine(fx.p, DefaultOptions())
		defer e.Close()
		ep := e.prepare(fx.ctx)
		if ep == nil {
			t.Fatal("no epoch")
		}
		out := make(map[uint64]uint64)
		for _, o := range ep.objects {
			out[o.srcHdr] = o.dstHdr
		}
		e.FinishCycle(fx.ctx)
		return out
	}
	a, b := mk(), mk()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("assignment sizes differ: %d vs %d", len(a), len(b))
	}
	for src, dst := range a {
		if b[src] != dst {
			t.Fatalf("nondeterministic destination for %#x: %#x vs %#x", src, dst, b[src])
		}
	}
}

// crashAndRecover simulates power failure and reattaches everything.
func crashAndRecover(t *testing.T, fx *fixture, e *Engine, opt Options) (*pmop.Pool, *Engine) {
	t.Helper()
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
	e2, err := Recover(fx.ctx, p2, opt)
	if err != nil {
		t.Fatal(err)
	}
	checkRelocList(t, p2)
	return p2, e2
}

func TestCrashBeforeAnyRelocation(t *testing.T) {
	for _, s := range schemes() {
		t.Run(s.String(), func(t *testing.T) {
			fx := buildFragmented(t, 100)
			opt := DefaultOptions()
			opt.Scheme = s
			e := NewEngine(fx.p, opt)
			if ep := e.prepare(fx.ctx); ep == nil {
				t.Fatal("no epoch")
			}
			// Crash immediately after summary persisted the PMFT.
			p2, e2 := crashAndRecover(t, fx, e, opt)
			defer e2.Close()
			checkList(t, p2, fx.ctx, fx.n)
			if st, _, _ := pmop.UnpackGCPhase(p2.GCPhase(fx.ctx)); st != pmop.PhaseIdle {
				t.Error("recovery did not complete the epoch")
			}
		})
	}
}

func TestCrashMidCompaction(t *testing.T) {
	for _, s := range schemes() {
		t.Run(s.String(), func(t *testing.T) {
			fx := buildFragmented(t, 150)
			opt := DefaultOptions()
			opt.Scheme = s
			e := NewEngine(fx.p, opt)
			ep := e.prepare(fx.ctx)
			if ep == nil {
				t.Fatal("no epoch")
			}
			// Move roughly half the objects, then crash with everything
			// still volatile (FFCCD) or partially persisted.
			e.StepCompaction(fx.ctx, len(ep.objects)/2)
			// Touch part of the list so some references self-healed.
			cur := fx.p.Root(fx.ctx)
			for i := 0; i < 30 && !cur.IsNull(); i++ {
				cur = fx.p.ReadPtr(fx.ctx, cur, 8)
			}
			p2, e2 := crashAndRecover(t, fx, e, opt)
			defer e2.Close()
			checkList(t, p2, fx.ctx, fx.n)
			frag := p2.Heap().Frag(12)
			if frag.FragRatio > opt.TargetRatio+0.2 {
				t.Errorf("post-recovery fragR = %.2f", frag.FragRatio)
			}
		})
	}
}

func TestCrashMidCompactionKeepInflight(t *testing.T) {
	// Same as above but the crash policy persists clwb'd-but-unfenced lines:
	// exercises the SFCCD "moved bit persisted, copy persisted" orderings.
	for _, s := range schemes() {
		t.Run(s.String(), func(t *testing.T) {
			fx := buildFragmented(t, 120)
			fx.rt.Device().SetCrashPolicy(pmem.KeepAllInflight)
			opt := DefaultOptions()
			opt.Scheme = s
			e := NewEngine(fx.p, opt)
			ep := e.prepare(fx.ctx)
			if ep == nil {
				t.Fatal("no epoch")
			}
			e.StepCompaction(fx.ctx, len(ep.objects)*2/3)
			p2, e2 := crashAndRecover(t, fx, e, opt)
			defer e2.Close()
			checkList(t, p2, fx.ctx, fx.n)
		})
	}
}

func TestCrashAfterAppMutationMidCompaction(t *testing.T) {
	// The hard case for SFCCD/FFCCD recovery: the application durably
	// modifies a *moved* object, then a crash. Recovery must not clobber the
	// committed modification with the stale source copy.
	for _, s := range schemes() {
		t.Run(s.String(), func(t *testing.T) {
			fx := buildFragmented(t, 100)
			opt := DefaultOptions()
			opt.Scheme = s
			e := NewEngine(fx.p, opt)
			ep := e.prepare(fx.ctx)
			if ep == nil {
				t.Fatal("no epoch")
			}
			// Find node #5 and mutate its value through a committed tx.
			cur := fx.p.Root(fx.ctx)
			for i := 0; i < 5; i++ {
				cur = fx.p.ReadPtr(fx.ctx, cur, 8)
			}
			tx := fx.p.Begin(fx.ctx)
			tx.AddRange(fx.ctx, cur, 0, 8)
			fx.p.WriteU64(fx.ctx, cur, 0, 999999)
			tx.Commit(fx.ctx)

			p2, e2 := crashAndRecover(t, fx, e, opt)
			defer e2.Close()
			c := p2.Root(fx.ctx)
			for i := 0; i < 5; i++ {
				c = p2.ReadPtr(fx.ctx, c, 8)
			}
			if v := p2.ReadU64(fx.ctx, c, 0); v != 999999 {
				t.Fatalf("committed mutation lost: node5 = %d", v)
			}
		})
	}
}

func TestCrashWithUncommittedTxMidCompaction(t *testing.T) {
	// Uncommitted mutation of a moved object: recovery must roll it back to
	// the pre-transaction (post-move) value.
	for _, s := range schemes() {
		t.Run(s.String(), func(t *testing.T) {
			fx := buildFragmented(t, 80)
			opt := DefaultOptions()
			opt.Scheme = s
			e := NewEngine(fx.p, opt)
			if ep := e.prepare(fx.ctx); ep == nil {
				t.Fatal("no epoch")
			}
			cur := fx.p.Root(fx.ctx)
			for i := 0; i < 3; i++ {
				cur = fx.p.ReadPtr(fx.ctx, cur, 8)
			}
			tx := fx.p.Begin(fx.ctx)
			tx.AddRange(fx.ctx, cur, 0, 8)
			fx.p.WriteU64(fx.ctx, cur, 0, 424242)
			fx.p.Clwb(fx.ctx, fx.p.Resolve(fx.ctx, cur).Offset())
			fx.p.Sfence(fx.ctx) // the dirty write even persisted
			// No commit — crash.
			p2, e2 := crashAndRecover(t, fx, e, opt)
			defer e2.Close()
			checkList(t, p2, fx.ctx, fx.n) // value 3 must be back
		})
	}
}

func TestRecoverIdempotent(t *testing.T) {
	fx := buildFragmented(t, 100)
	opt := DefaultOptions()
	opt.Scheme = SchemeFFCCD
	e := NewEngine(fx.p, opt)
	ep := e.prepare(fx.ctx)
	e.StepCompaction(fx.ctx, len(ep.objects)/3)
	p2, e2 := crashAndRecover(t, fx, e, opt)
	e2.Close()
	// Crash again immediately after recovery (idle state) and recover again.
	fx.rt = nil
	dev := p2.Device()
	dev.Crash()
	rt3, _ := pmop.Attach(fx.cfg, dev)
	p3, _ := rt3.Open("frag", testRegistry())
	e3, err := Recover(fx.ctx, p3, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer e3.Close()
	checkList(t, p3, fx.ctx, fx.n)
}

// TestAutoTrigger pins the caller-driven §5 trigger: on a fragmented heap the
// pmalloc/pfree check fires at the first allocation, the cycle it asks for
// runs to completion inside RunCycle on the caller's goroutine, the check is
// quiet afterwards, and the list survives.
func TestAutoTrigger(t *testing.T) {
	fx := buildFragmented(t, 150)
	e := NewEngine(fx.p, DefaultOptions())
	defer e.Close()
	garb, _ := fx.p.Types().LookupName("tgarbage")
	o, err := fx.p.Alloc(fx.ctx, garb.ID, 48)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Triggered() {
		t.Fatalf("fragR %.2f past the %.2f trigger, but the check did not fire",
			fx.p.Heap().Frag(12).FragRatio, DefaultOptions().TriggerRatio)
	}
	if !e.RunCycle(sim.NewCtx(fx.cfg)) || e.Stats().Cycles != 1 {
		t.Fatalf("the triggered cycle did not run: %+v", e.Stats())
	}
	fx.p.Free(fx.ctx, o)
	if e.Triggered() {
		t.Errorf("check still fires after the cycle: fragR %.2f", fx.p.Heap().Frag(12).FragRatio)
	}
	checkList(t, fx.p, fx.ctx, fx.n)
}

// TestConcurrentAppDuringCompaction interleaves four application threads'
// list walks with the background mover, in a fixed order on one goroutine:
// every round each reader reads one node through the read barrier, then the
// mover relocates two objects. Readers see every value in order whether they
// reach an object before the mover (and move it themselves) or after.
func TestConcurrentAppDuringCompaction(t *testing.T) {
	fx := buildFragmented(t, 300)
	opt := DefaultOptions()
	opt.Scheme = SchemeFFCCDCheckLookup
	e := NewEngine(fx.p, opt)
	defer e.Close()
	gcCtx := sim.NewCtx(fx.cfg)
	if !e.BeginCycle(gcCtx) {
		t.Fatal("no epoch")
	}
	type reader struct {
		ctx       *sim.Ctx
		cur       pmop.Ptr
		i, rounds int
	}
	readers := make([]reader, 4)
	for w := range readers {
		readers[w].ctx = sim.NewCtx(fx.cfg)
		readers[w].cur = fx.p.Root(readers[w].ctx)
	}
	const walks = 5
	for busy := true; busy; {
		busy = false
		for w := range readers {
			r := &readers[w]
			if r.rounds == walks {
				continue
			}
			busy = true
			if r.cur.IsNull() {
				if r.i != fx.n {
					t.Fatalf("reader %d: list ended after %d nodes", w, r.i)
				}
				r.rounds++
				r.i, r.cur = 0, fx.p.Root(r.ctx)
				continue
			}
			if v := fx.p.ReadU64(r.ctx, r.cur, 0); v != uint64(r.i) {
				t.Fatalf("reader %d: node %d holds %d", w, r.i, v)
			}
			r.cur = fx.p.ReadPtr(r.ctx, r.cur, 8)
			r.i++
		}
		e.StepCompaction(gcCtx, 2)
	}
	st := e.Stats()
	if st.BarrierMoves == 0 || st.BarrierMoves == st.ObjectsMoved {
		t.Errorf("want moves by both the readers and the mover: %+v", st)
	}
	e.FinishCycle(gcCtx)
	checkList(t, fx.p, fx.ctx, fx.n)
}

func TestSchemeString(t *testing.T) {
	if SchemeFFCCD.String() != "ffccd" || Scheme(99).String() != "unknown" {
		t.Error("scheme names wrong")
	}
}

func TestReachedBitmapGatesRelease(t *testing.T) {
	// White-box: after FFCCD compaction+finish, every destination line of
	// every moved object must be marked reached (FlushAll forced them home).
	fx := buildFragmented(t, 100)
	opt := DefaultOptions()
	opt.Scheme = SchemeFFCCD
	e := NewEngine(fx.p, opt)
	defer e.Close()
	ep := e.prepare(fx.ctx)
	if ep == nil {
		t.Fatal("no epoch")
	}
	objs := ep.objects
	e.FinishCycle(fx.ctx)
	reachedOff := fx.p.GCMeta().Reached
	heap := fx.p.Heap()
	heapOff := heap.HeapOff()
	for _, o := range objs {
		df := heap.FrameOf(o.dstHdr)
		word := fx.p.RawLoadU64(fx.ctx, reachedOff+uint64(df)*8)
		first := (o.dstHdr - heapOff) % alloc.FrameSize >> pmem.LineShift
		last := (o.dstHdr + o.bytes() - 1 - heapOff) % alloc.FrameSize >> pmem.LineShift
		for l := first; l <= last; l++ {
			if word&(1<<l) == 0 {
				t.Fatalf("dest line %d of frame %d never reached persistence", l, df)
			}
		}
	}
}

func TestEADRMakesFenceFreeTrivial(t *testing.T) {
	// §4.4's contrast: under eADR every store is durable, so a crash in the
	// middle of a fence-free epoch loses nothing — recovery finds every
	// relocated object fully reached.
	fx := buildFragmented(t, 120)
	fx.rt.Device().SetEADR(true)
	opt := DefaultOptions()
	opt.Scheme = SchemeFFCCD
	e := NewEngine(fx.p, opt)
	ep := e.prepare(fx.ctx)
	if ep == nil {
		t.Fatal("no epoch")
	}
	e.StepCompaction(fx.ctx, len(ep.objects)/2)
	p2, e2 := crashAndRecover(t, fx, e, opt)
	defer e2.Close()
	checkList(t, p2, fx.ctx, fx.n)
}

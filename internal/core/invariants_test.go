package core

// Invariant tests for DESIGN.md §6: marking idempotence, deterministic
// relocation, barrier resolution uniqueness, and systematic crash-policy
// sweeps across the persistence-outcome space.

import (
	"fmt"
	"slices"
	"testing"

	"ffccd/internal/checker"
	"ffccd/internal/pmem"
	"ffccd/internal/pmop"
	"ffccd/internal/sim"
)

func TestMarkingIdempotent(t *testing.T) {
	fx := buildFragmented(t, 150)
	e := NewEngine(fx.p, DefaultOptions())
	defer e.Close()
	a := slices.Clone(e.mark(fx.ctx, nil, true)) // the walk's result is engine-owned
	b := e.mark(fx.ctx, nil, true)
	if len(a) != len(b) {
		t.Fatalf("marking not idempotent: %d vs %d objects", len(a), len(b))
	}
	seen := make(map[uint64]uint32, len(a))
	for _, m := range a {
		seen[m.payloadOff] = m.payload
	}
	for _, m := range b {
		if p, ok := seen[m.payloadOff]; !ok || p != m.payload {
			t.Fatalf("marking diverged at %#x", m.payloadOff)
		}
	}
}

func TestMarkingNeverVisitsFreedObjects(t *testing.T) {
	fx := buildFragmented(t, 60)
	// Free every node's predecessor relationship is intact; free the garbage
	// was already done by the fixture. Free one linked node by unlinking it
	// first.
	p := fx.p
	head := p.Root(fx.ctx)
	second := p.ReadPtr(fx.ctx, head, 8)
	third := p.ReadPtr(fx.ctx, second, 8)
	p.WritePtr(fx.ctx, head, 8, third)
	p.Free(fx.ctx, second)

	e := NewEngine(p, DefaultOptions())
	defer e.Close()
	live := e.mark(fx.ctx, nil, true)
	for _, m := range live {
		if m.payloadOff == second.Offset() {
			t.Fatal("marking visited a freed, unlinked object")
		}
	}
}

func TestBarrierResolutionStable(t *testing.T) {
	// Invariant: after the barrier resolves a reference, resolving the
	// result again is the identity (exactly one live copy).
	fx := buildFragmented(t, 120)
	opt := DefaultOptions()
	opt.Scheme = SchemeFFCCDCheckLookup
	e := NewEngine(fx.p, opt)
	defer e.Close()
	ep := e.prepare(fx.ctx)
	if ep == nil {
		t.Fatal("no epoch")
	}
	defer e.FinishCycle(fx.ctx)

	cur := fx.p.Root(fx.ctx)
	for i := 0; i < 50 && !cur.IsNull(); i++ {
		once := fx.p.Resolve(fx.ctx, cur)
		twice := fx.p.Resolve(fx.ctx, once)
		if once != twice {
			t.Fatalf("resolution not stable: %v → %v → %v", cur, once, twice)
		}
		cur = fx.p.ReadPtr(fx.ctx, cur, 8)
	}
}

func TestCrashPolicySweep(t *testing.T) {
	// Systematic sweep over per-line persistence outcomes for clwb'd-but-
	// unfenced lines: parity classes and modular patterns rather than one
	// random draw. Every outcome must recover to a consistent heap.
	for _, s := range []Scheme{SchemeSFCCD, SchemeFFCCD} {
		for variant := 0; variant < 6; variant++ {
			t.Run(fmt.Sprintf("%s/policy%d", s, variant), func(t *testing.T) {
				fx := buildFragmented(t, 90)
				v := variant
				fx.rt.Device().SetCrashPolicy(func(line uint64) bool {
					idx := line >> pmem.LineShift
					switch v {
					case 0:
						return false
					case 1:
						return true
					case 2:
						return idx%2 == 0
					case 3:
						return idx%2 == 1
					case 4:
						return idx%3 == 0
					default:
						return idx%5 != 0
					}
				})
				opt := DefaultOptions()
				opt.Scheme = s
				e := NewEngine(fx.p, opt)
				ep := e.prepare(fx.ctx)
				if ep == nil {
					t.Fatal("no epoch")
				}
				e.StepCompaction(fx.ctx, len(ep.objects)*(variant+1)/7)
				// Touch part of the list so barriers and heals interleave.
				cur := fx.p.Root(fx.ctx)
				for i := 0; i < 25 && !cur.IsNull(); i++ {
					cur = fx.p.ReadPtr(fx.ctx, cur, 8)
				}
				p2, e2 := crashAndRecover(t, fx, e, opt)
				defer e2.Close()
				checkList(t, p2, fx.ctx, fx.n)
				if _, err := checker.CheckGraph(fx.ctx, p2); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestDoubleCrashDuringRecoveryWindow(t *testing.T) {
	// Crash, recover, run one more epoch, crash again mid-epoch, recover.
	// Exercises reached-bitmap reuse and epoch-number staleness across
	// generations.
	fx := buildFragmented(t, 130)
	opt := DefaultOptions()
	opt.Scheme = SchemeFFCCD
	e := NewEngine(fx.p, opt)
	ep := e.prepare(fx.ctx)
	if ep == nil {
		t.Fatal("no epoch")
	}
	e.StepCompaction(fx.ctx, len(ep.objects)/3)
	p2, e2 := crashAndRecover(t, fx, e, opt)
	checkList(t, p2, fx.ctx, fx.n)

	// Fragment again and start a second-generation epoch on the recovered
	// pool, then crash that one too.
	garb, _ := p2.Types().LookupName("tgarbage")
	var junk []pmop.Ptr
	for i := 0; i < 300; i++ {
		o, err := p2.Alloc(fx.ctx, garb.ID, 112)
		if err != nil {
			t.Fatal(err)
		}
		junk = append(junk, o)
	}
	for i, o := range junk {
		if i%4 != 0 {
			p2.Free(fx.ctx, o)
		}
	}
	p2.Device().FlushAll(fx.ctx)
	if !e2.BeginCycle(fx.ctx) {
		t.Skip("second-generation heap too dense")
	}
	e2.StepCompaction(fx.ctx, 50)
	fx2 := &fixture{cfg: fx.cfg, rt: nil, p: p2, ctx: fx.ctx, n: fx.n}
	_ = fx2
	p2.Device().Crash()
	if e2.RBB() != nil {
		e2.RBB().PowerLossFlush()
	}
	rt3, err := pmop.Attach(fx.cfg, p2.Device())
	if err != nil {
		t.Fatal(err)
	}
	p3, err := rt3.Open("frag", testRegistry())
	if err != nil {
		t.Fatal(err)
	}
	e3, err := Recover(fx.ctx, p3, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer e3.Close()
	checkList(t, p3, fx.ctx, fx.n)
	if _, err := checker.CheckGraph(fx.ctx, p3); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverWithDifferentSchemeThanCrash(t *testing.T) {
	// A pool that crashed mid-FFCCD-epoch may be reopened by a binary
	// configured for another scheme; recovery must honour the *persisted*
	// scheme.
	fx := buildFragmented(t, 100)
	ffccd := DefaultOptions()
	ffccd.Scheme = SchemeFFCCD
	e := NewEngine(fx.p, ffccd)
	ep := e.prepare(fx.ctx)
	if ep == nil {
		t.Fatal("no epoch")
	}
	e.StepCompaction(fx.ctx, len(ep.objects)/2)

	espresso := DefaultOptions()
	espresso.Scheme = SchemeEspresso
	p2, e2 := crashAndRecover(t, fx, e, espresso)
	defer e2.Close()
	checkList(t, p2, fx.ctx, fx.n)
}

func TestSFCCDFreedDestinationReuse(t *testing.T) {
	// Regression (found by fault injection): an object moves under SFCCD,
	// the application frees it, new allocations reuse the freed destination
	// slots, then a crash. Recovery's content-compare must not "repair" the
	// reused destination from the stale source — the free tombstones the
	// source header just like a transactional modification would.
	fx := buildFragmented(t, 100)
	opt := DefaultOptions()
	opt.Scheme = SchemeSFCCD
	e := NewEngine(fx.p, opt)
	ep := e.prepare(fx.ctx)
	if ep == nil {
		t.Fatal("no epoch")
	}
	// Move everything, then free two list nodes' values through the API and
	// fill the holes with fresh allocations.
	e.StepCompaction(fx.ctx, 1<<30)
	p := fx.p
	head := p.Root(fx.ctx)
	second := p.ReadPtr(fx.ctx, head, 8)
	third := p.ReadPtr(fx.ctx, second, 8)
	tx := p.Begin(fx.ctx)
	tx.AddPtr(fx.ctx, head, 8)
	p.WritePtr(fx.ctx, head, 8, third)
	tx.Commit(fx.ctx)
	p.Free(fx.ctx, second)

	garb, _ := p.Types().LookupName("tgarbage")
	var filled []pmop.Ptr
	for i := 0; i < 8; i++ {
		o, err := p.Alloc(fx.ctx, garb.ID, 16)
		if err != nil {
			t.Fatal(err)
		}
		p.WriteBytes(fx.ctx, o, 0, []byte("fresh-object-byte"[:16]))
		p.PersistRange(fx.ctx, o.Offset(), 16)
		filled = append(filled, o)
	}
	_ = filled
	p2, e2 := crashAndRecover(t, fx, e, opt)
	defer e2.Close()
	// The list itself (nodes 0, and 2..n-1 — node 1 was unlinked) must be
	// intact apart from the deleted node.
	cur := p2.Root(fx.ctx)
	if v := p2.ReadU64(fx.ctx, cur, 0); v != 0 {
		t.Fatalf("head = %d", v)
	}
	cur = p2.ReadPtr(fx.ctx, cur, 8)
	if v := p2.ReadU64(fx.ctx, cur, 0); v != 2 {
		t.Fatalf("second node after unlink = %d, want 2", v)
	}
}

func TestDefragOnHugePagePool(t *testing.T) {
	// A 2 MB-page pool (§6: the paper evaluates with 2 MB huge pages):
	// footprint is huge-page granular, so compaction must vacate entire
	// 2 MB regions to help. The engine still operates on 4 KB frames.
	cfg := sim.DefaultConfig()
	rt := pmop.NewRuntime(&cfg, 128<<20)
	reg := testRegistry()
	p, err := rt.Create("huge", 64<<20, 21, reg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewCtx(&cfg)
	node, _ := reg.LookupName("tnode")
	garb, _ := reg.LookupName("tgarbage")
	var head, prev pmop.Ptr
	var junk []pmop.Ptr
	for i := 0; i < 800; i++ {
		nd, _ := p.Alloc(ctx, node.ID, 0)
		p.WriteU64(ctx, nd, 0, uint64(i))
		if prev.IsNull() {
			head = nd
		} else {
			p.WritePtr(ctx, prev, 8, nd)
		}
		prev = nd
		for g := 0; g < 40; g++ {
			o, err := p.Alloc(ctx, garb.ID, 240)
			if err != nil {
				t.Fatal(err)
			}
			junk = append(junk, o)
		}
	}
	p.SetRoot(ctx, head)
	for _, o := range junk {
		p.Free(ctx, o)
	}
	before := p.Heap().Frag(21)
	if before.FootprintBytes < 4<<20 {
		t.Fatalf("fixture too small to span huge pages: %d", before.FootprintBytes)
	}
	e := NewEngine(p, DefaultOptions())
	defer e.Close()
	if !e.RunCycle(ctx) {
		t.Fatal("no cycle")
	}
	after := p.Heap().Frag(21)
	if after.FootprintBytes >= before.FootprintBytes {
		t.Errorf("huge-page footprint %d → %d", before.FootprintBytes, after.FootprintBytes)
	}
	if after.FootprintBytes%(2<<20) != 0 {
		t.Errorf("footprint %d not 2MB-granular", after.FootprintBytes)
	}
	checkList(t, p, ctx, 800)
}

func TestTwoPoolsIndependentEngines(t *testing.T) {
	// Defragmentation is per-PMOP: two pools with independent engines must
	// not interfere (separate GC metadata, separate phases).
	cfg := sim.DefaultConfig()
	rt := pmop.NewRuntime(&cfg, 128<<20)
	reg := testRegistry()
	ctx := sim.NewCtx(&cfg)
	build := func(name string) (*pmop.Pool, *Engine) {
		p, err := rt.Create(name, 32<<20, 12, reg)
		if err != nil {
			t.Fatal(err)
		}
		node, _ := reg.LookupName("tnode")
		garb, _ := reg.LookupName("tgarbage")
		var head, prev pmop.Ptr
		var junk []pmop.Ptr
		for i := 0; i < 150; i++ {
			nd, _ := p.Alloc(ctx, node.ID, 0)
			p.WriteU64(ctx, nd, 0, uint64(i))
			if prev.IsNull() {
				head = nd
			} else {
				p.WritePtr(ctx, prev, 8, nd)
			}
			prev = nd
			for g := 0; g < 3; g++ {
				o, _ := p.Alloc(ctx, garb.ID, 112)
				junk = append(junk, o)
			}
		}
		p.SetRoot(ctx, head)
		for _, o := range junk {
			p.Free(ctx, o)
		}
		return p, NewEngine(p, DefaultOptions())
	}
	p1, e1 := build("poolA")
	p2, e2 := build("poolB")
	defer e1.Close()
	defer e2.Close()

	// Interleave: open an epoch on A, run a full cycle on B, finish A.
	if !e1.BeginCycle(ctx) {
		t.Fatal("no epoch on A")
	}
	if !e2.RunCycle(ctx) {
		t.Fatal("no cycle on B")
	}
	e1.StepCompaction(ctx, 1<<30)
	e1.FinishCycle(ctx)
	checkList(t, p1, ctx, 150)
	checkList(t, p2, ctx, 150)
}

func TestRecoveryDeterministic(t *testing.T) {
	// Recovering twice from the same post-crash image must produce
	// identical reachable heaps (deterministic relocation is what lets the
	// PMFT be resumed at all, §4.3.1).
	fx := buildFragmented(t, 110)
	opt := DefaultOptions()
	opt.Scheme = SchemeFFCCD
	e := NewEngine(fx.p, opt)
	ep := e.prepare(fx.ctx)
	if ep == nil {
		t.Fatal("no epoch")
	}
	e.StepCompaction(fx.ctx, len(ep.objects)/3)
	fx.rt.Device().Crash()
	if e.RBB() != nil {
		e.RBB().PowerLossFlush()
	}
	image := fx.rt.Device().SnapshotMedia()

	digest := func() map[uint64]uint64 {
		fx.rt.Device().RestoreMedia(image)
		rt, err := pmop.Attach(fx.cfg, fx.rt.Device())
		if err != nil {
			t.Fatal(err)
		}
		p, err := rt.Open("frag", testRegistry())
		if err != nil {
			t.Fatal(err)
		}
		eng, err := Recover(fx.ctx, p, opt)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		out := map[uint64]uint64{}
		cur := p.Root(fx.ctx)
		i := 0
		for !cur.IsNull() {
			out[uint64(i)] = uint64(cur)<<32 ^ p.ReadU64(fx.ctx, cur, 0)
			cur = p.ReadPtr(fx.ctx, cur, 8)
			i++
		}
		return out
	}
	a := digest()
	b := digest()
	if len(a) != len(b) {
		t.Fatalf("recovered list lengths differ: %d vs %d", len(a), len(b))
	}
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("recovery nondeterministic at node %d", k)
		}
	}
}

package pmop

import (
	"slices"
	"strings"
	"testing"

	"ffccd/internal/sim"
)

func TestTxMultipleRangesAbortOrdering(t *testing.T) {
	_, p, ctx, tid := newTestPool(t)
	a, _ := p.Alloc(ctx, tid, 0)
	b, _ := p.Alloc(ctx, tid, 0)
	p.WriteU64(ctx, a, 0, 1)
	p.WriteU64(ctx, b, 0, 2)

	tx := p.Begin(ctx)
	tx.AddRange(ctx, a, 0, 8)
	p.WriteU64(ctx, a, 0, 10)
	tx.AddRange(ctx, b, 0, 8)
	p.WriteU64(ctx, b, 0, 20)
	// Overlapping second log of a: undo must apply newest-first so the
	// earliest logged value wins.
	tx.AddRange(ctx, a, 0, 8)
	p.WriteU64(ctx, a, 0, 100)
	tx.Abort(ctx)

	if got := p.ReadU64(ctx, a, 0); got != 1 {
		t.Errorf("a = %d after abort, want 1", got)
	}
	if got := p.ReadU64(ctx, b, 0); got != 2 {
		t.Errorf("b = %d after abort, want 2", got)
	}
}

func TestTxLogOverflowPanics(t *testing.T) {
	_, p, ctx, _ := newTestPool(t)
	bt := p.Types().Register(TypeInfo{Name: "big", Kind: KindBytes})
	obj, err := p.Alloc(ctx, bt, 4000)
	if err != nil {
		t.Fatal(err)
	}
	tx := p.Begin(ctx)
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), "overflow") {
			t.Fatalf("expected log overflow panic, got %v", r)
		}
	}()
	for i := 0; i < 64*1024; i++ {
		tx.AddRange(ctx, obj, 0, 4000)
	}
}

func TestTxAddOnInactivePanics(t *testing.T) {
	_, p, ctx, tid := newTestPool(t)
	obj, _ := p.Alloc(ctx, tid, 0)
	tx := p.Begin(ctx)
	tx.Commit(ctx)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tx.AddObject(ctx, obj)
}

func TestTxRecoveryMultipleActiveSlots(t *testing.T) {
	// Two transactions active in different slots at the crash: both must
	// roll back.
	_, p, ctx, tid := newTestPool(t)
	a, _ := p.Alloc(ctx, tid, 0)
	b, _ := p.Alloc(ctx, tid, 0)
	p.WriteU64(ctx, a, 0, 5)
	p.WriteU64(ctx, b, 0, 6)
	p.Device().FlushAll(ctx)

	tx1 := p.Begin(ctx)
	tx2 := p.Begin(ctx)
	tx1.AddRange(ctx, a, 0, 8)
	p.WriteU64(ctx, a, 0, 50)
	tx2.AddRange(ctx, b, 0, 8)
	p.WriteU64(ctx, b, 0, 60)
	p.Clwb(ctx, a.Offset())
	p.Clwb(ctx, b.Offset())
	p.Sfence(ctx) // the dirty writes even persisted
	p.Device().Crash()

	touched := p.RecoverTx(ctx)
	if len(touched) != 2 {
		t.Fatalf("touched = %d, want 2", len(touched))
	}
	if got := p.ReadU64(ctx, a, 0); got != 5 {
		t.Errorf("a = %d, want 5", got)
	}
	if got := p.ReadU64(ctx, b, 0); got != 6 {
		t.Errorf("b = %d, want 6", got)
	}
}

func TestTxCrashBetweenAddAndWrite(t *testing.T) {
	// Crash right after logging, before the modification: undo rewrites the
	// same value — harmless idempotence.
	_, p, ctx, tid := newTestPool(t)
	obj, _ := p.Alloc(ctx, tid, 0)
	p.WriteU64(ctx, obj, 0, 7)
	p.Device().FlushAll(ctx)
	tx := p.Begin(ctx)
	tx.AddRange(ctx, obj, 0, 8)
	_ = tx
	p.Device().Crash()
	p.RecoverTx(ctx)
	if got := p.ReadU64(ctx, obj, 0); got != 7 {
		t.Errorf("value = %d, want 7", got)
	}
}

func TestSuperblockSurvivesMultiplePools(t *testing.T) {
	cfg := sim.DefaultConfig()
	rt := NewRuntime(&cfg, 64<<20)
	reg := NewRegistry()
	tid := nodeType(reg)
	ctx := sim.NewCtx(&cfg)

	pools := make([]*Pool, 3)
	for i := range pools {
		var err error
		pools[i], err = rt.Create([]string{"alpha", "beta", "gamma"}[i], 8<<20, 12, reg)
		if err != nil {
			t.Fatal(err)
		}
		obj, _ := pools[i].Alloc(ctx, tid, 0)
		pools[i].WriteU64(ctx, obj, 0, uint64(100+i))
		pools[i].SetRoot(ctx, obj)
	}
	pools[0].Device().FlushAll(ctx)

	rt2, err := Attach(&cfg, rt.Device())
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"alpha", "beta", "gamma"} {
		p, err := rt2.Open(name, reg)
		if err != nil {
			t.Fatal(err)
		}
		root := p.Root(ctx)
		if got := p.ReadU64(ctx, root, 0); got != uint64(100+i) {
			t.Errorf("pool %s root value = %d, want %d", name, got, 100+i)
		}
	}
	// Creating a fourth pool after reattach must not collide with existing
	// regions.
	p4, err := rt2.Create("delta", 8<<20, 12, reg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p4.Alloc(ctx, tid, 0); err != nil {
		t.Fatal(err)
	}
}

func TestPoolSizeTooSmall(t *testing.T) {
	cfg := sim.DefaultConfig()
	rt := NewRuntime(&cfg, 8<<20)
	if _, err := rt.Create("tiny", 64<<10, 12, NewRegistry()); err == nil {
		t.Fatal("expected pool-too-small error")
	}
}

func TestDeviceFullRejected(t *testing.T) {
	cfg := sim.DefaultConfig()
	rt := NewRuntime(&cfg, 8<<20)
	if _, err := rt.Create("big", 16<<20, 12, NewRegistry()); err == nil {
		t.Fatal("expected device-full error")
	}
}

func TestDuplicatePoolNameRejected(t *testing.T) {
	cfg := sim.DefaultConfig()
	rt := NewRuntime(&cfg, 32<<20)
	reg := NewRegistry()
	if _, err := rt.Create("dup", 8<<20, 12, reg); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Create("dup", 8<<20, 12, reg); err == nil {
		t.Fatal("expected duplicate-name error")
	}
}

func TestHugePagePoolAccounting(t *testing.T) {
	cfg := sim.DefaultConfig()
	rt := NewRuntime(&cfg, 64<<20)
	reg := NewRegistry()
	tid := nodeType(reg)
	p, err := rt.Create("huge", 32<<20, 21, reg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewCtx(&cfg)
	obj, _ := p.Alloc(ctx, tid, 0)
	p.WriteU64(ctx, obj, 0, 1)
	st := p.Heap().Frag(p.PageShift())
	// One tiny object pins a whole 2 MB page.
	if st.FootprintBytes != 2<<20 {
		t.Errorf("huge-page footprint = %d, want %d", st.FootprintBytes, 2<<20)
	}
	if st.FragRatio < 1000 {
		t.Errorf("huge-page fragR = %.1f, expected enormous", st.FragRatio)
	}
}

// TestTxSlotsFIFOAndExhaustion: Begin hands out the longest-free slot, a
// retired slot goes to the back of the queue, and a Begin with every slot
// open panics (a simulated thread has at most one transaction open).
func TestTxSlotsFIFOAndExhaustion(t *testing.T) {
	_, p, ctx, _ := newTestPool(t)
	if got := p.TxSlotOrder(); !slices.Equal(got, []int{0, 1, 2, 3, 4, 5, 6, 7}) {
		t.Fatalf("fresh slot order %v", got)
	}
	p.Begin(ctx).Commit(ctx)
	p.Begin(ctx).Abort(ctx)
	if got := p.TxSlotOrder(); !slices.Equal(got, []int{2, 3, 4, 5, 6, 7, 0, 1}) {
		t.Fatalf("slot order after two transactions %v", got)
	}
	p.RestoreTxSlotOrder([]int{7, 6, 5, 4, 3, 2, 1, 0})
	var open []*Tx
	for range txSlotCount {
		open = append(open, p.Begin(ctx))
	}
	if open[0].slot != 7 || open[7].slot != 0 {
		t.Fatalf("restored order handed out slots %d … %d", open[0].slot, open[7].slot)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "every transaction slot open") {
			t.Fatalf("Begin with every slot open: recovered %v", r)
		}
	}()
	p.Begin(ctx)
}

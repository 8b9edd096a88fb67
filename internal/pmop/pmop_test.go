package pmop

import (
	"bytes"
	"slices"
	"testing"

	"ffccd/internal/sim"
)

// nodeType registers a list-node-like type: u64 value + next pointer.
func nodeType(reg *Registry) TypeID {
	return reg.Register(TypeInfo{
		Name: "node", Kind: KindFixed, Size: 16, PtrOffsets: []uint64{8},
	})
}

func newTestPool(t *testing.T) (*Runtime, *Pool, *sim.Ctx, TypeID) {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.CacheBytes = 64 * 1024
	rt := NewRuntime(&cfg, 32<<20)
	reg := NewRegistry()
	tid := nodeType(reg)
	p, err := rt.Create("test", 16<<20, 12, reg)
	if err != nil {
		t.Fatal(err)
	}
	return rt, p, sim.NewCtx(&cfg), tid
}

func TestPtrEncoding(t *testing.T) {
	p := MakePtr(3, 0x123456)
	if p.PoolID() != 3 || p.Offset() != 0x123456 {
		t.Errorf("round trip failed: %v", p)
	}
	if !Null.IsNull() || p.IsNull() {
		t.Error("null semantics wrong")
	}
	if q := p.WithOffset(64); q.PoolID() != 3 || q.Offset() != 64 {
		t.Error("WithOffset wrong")
	}
}

func TestPtrPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MakePtr(0,...) must panic")
		}
	}()
	MakePtr(0, 1)
}

func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	id := reg.Register(TypeInfo{Name: "a", Kind: KindFixed, Size: 24, PtrOffsets: []uint64{16}})
	id2 := reg.Register(TypeInfo{Name: "a", Kind: KindFixed, Size: 24})
	if id != id2 {
		t.Error("re-registration must be idempotent")
	}
	ti, ok := reg.Lookup(id)
	if !ok || ti.Name != "a" {
		t.Fatal("lookup failed")
	}
	if _, ok := reg.LookupName("missing"); ok {
		t.Error("phantom type")
	}
}

func TestPointerOffsets(t *testing.T) {
	offsets := func(ti *TypeInfo, payload uint64) []uint64 {
		var out []uint64
		for i, n := 0, ti.PointerCount(payload); i < n; i++ {
			out = append(out, ti.PointerOffset(i))
		}
		return out
	}
	fixed := &TypeInfo{Kind: KindFixed, PtrOffsets: []uint64{8, 24}}
	if got := offsets(fixed, 32); !slices.Equal(got, []uint64{8, 24}) {
		t.Errorf("fixed offsets = %v", got)
	}
	bytesT := &TypeInfo{Kind: KindBytes}
	if got := offsets(bytesT, 128); got != nil {
		t.Errorf("bytes offsets = %v", got)
	}
	arr := &TypeInfo{Kind: KindPtrArray}
	if got := offsets(arr, 68); !slices.Equal(got, []uint64{0, 8, 16, 24, 32, 40, 48, 56}) {
		t.Errorf("ptr array offsets = %v", got)
	}
}

func TestAllocAndAccess(t *testing.T) {
	_, p, ctx, tid := newTestPool(t)
	obj, err := p.Alloc(ctx, tid, 0)
	if err != nil {
		t.Fatal(err)
	}
	ty, size := p.Header(ctx, obj)
	if ty != tid || size != 16 {
		t.Errorf("header = (%d,%d), want (%d,16)", ty, size, tid)
	}
	p.WriteU64(ctx, obj, 0, 42)
	if got := p.ReadU64(ctx, obj, 0); got != 42 {
		t.Errorf("value = %d, want 42", got)
	}
	// Payload must start zeroed.
	if got := p.ReadU64(ctx, obj, 8); got != 0 {
		t.Errorf("fresh payload = %d, want 0", got)
	}
}

func TestPointerFieldsAndRoot(t *testing.T) {
	_, p, ctx, tid := newTestPool(t)
	a, _ := p.Alloc(ctx, tid, 0)
	b, _ := p.Alloc(ctx, tid, 0)
	p.WritePtr(ctx, a, 8, b)
	if got := p.ReadPtr(ctx, a, 8); got != b {
		t.Errorf("next = %v, want %v", got, b)
	}
	p.SetRoot(ctx, a)
	if got := p.Root(ctx); got != a {
		t.Errorf("root = %v, want %v", got, a)
	}
}

func TestBytesRoundTrip(t *testing.T) {
	_, p, ctx, _ := newTestPool(t)
	bt := p.Types().Register(TypeInfo{Name: "blob", Kind: KindBytes})
	obj, err := p.Alloc(ctx, bt, 128)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xAB}, 128)
	p.WriteBytes(ctx, obj, 0, data)
	got := make([]byte, 128)
	p.ReadBytes(ctx, obj, 0, got)
	if !bytes.Equal(got, data) {
		t.Error("blob mismatch")
	}
}

func TestFreeMakesSpaceReusable(t *testing.T) {
	_, p, ctx, tid := newTestPool(t)
	a, _ := p.Alloc(ctx, tid, 0)
	live := p.Heap().LiveBytes()
	p.Free(ctx, a)
	if p.Heap().LiveBytes() >= live {
		t.Error("free did not shrink live bytes")
	}
	b, _ := p.Alloc(ctx, tid, 0)
	if b != a {
		t.Errorf("slot not reused: %v vs %v", b, a)
	}
}

func TestReopenAcrossRuns(t *testing.T) {
	cfg := sim.DefaultConfig()
	rt := NewRuntime(&cfg, 32<<20)
	reg := NewRegistry()
	tid := nodeType(reg)
	ctx := sim.NewCtx(&cfg)
	p, _ := rt.Create("persist", 8<<20, 12, reg)
	obj, _ := p.Alloc(ctx, tid, 0)
	p.WriteU64(ctx, obj, 0, 777)
	p.SetRoot(ctx, obj)
	p.Device().FlushAll(ctx)

	// "Second run": new runtime on the same device, fresh VA base.
	rt2, err := Attach(&cfg, rt.Device())
	if err != nil {
		t.Fatal(err)
	}
	p2, err := rt2.Open("persist", reg)
	if err != nil {
		t.Fatal(err)
	}
	if p2.VA(0) == p.VA(0) {
		t.Error("reopened pool should map at a different VA (relocatability)")
	}
	root := p2.Root(ctx)
	if root.IsNull() {
		t.Fatal("root lost across runs")
	}
	if got := p2.ReadU64(ctx, root, 0); got != 777 {
		t.Errorf("value across runs = %d, want 777", got)
	}
}

func TestOpenMissingPool(t *testing.T) {
	cfg := sim.DefaultConfig()
	rt := NewRuntime(&cfg, 8<<20)
	if _, err := rt.Open("ghost", NewRegistry()); err == nil {
		t.Fatal("expected error")
	}
}

func TestTxCommitPersists(t *testing.T) {
	_, p, ctx, tid := newTestPool(t)
	obj, _ := p.Alloc(ctx, tid, 0)
	tx := p.Begin(ctx)
	tx.AddObject(ctx, obj)
	p.WriteU64(ctx, obj, 0, 99)
	tx.Commit(ctx)
	p.Device().Crash()
	var b [8]byte
	p.Device().MediaRead(p.PA(obj.Offset()), b[:])
	if b[0] != 99 {
		t.Errorf("committed value lost on crash: %x", b[0])
	}
}

func TestTxAbortRollsBack(t *testing.T) {
	_, p, ctx, tid := newTestPool(t)
	obj, _ := p.Alloc(ctx, tid, 0)
	p.WriteU64(ctx, obj, 0, 1)
	tx := p.Begin(ctx)
	tx.AddObject(ctx, obj)
	p.WriteU64(ctx, obj, 0, 2)
	tx.Abort(ctx)
	if got := p.ReadU64(ctx, obj, 0); got != 1 {
		t.Errorf("abort left value %d, want 1", got)
	}
}

func TestTxCrashRecovery(t *testing.T) {
	_, p, ctx, tid := newTestPool(t)
	obj, _ := p.Alloc(ctx, tid, 0)
	p.WriteU64(ctx, obj, 0, 10)
	p.Device().FlushAll(ctx)

	tx := p.Begin(ctx)
	tx.AddObject(ctx, obj)
	p.WriteU64(ctx, obj, 0, 20)
	// The in-flight write happens to persist (worst case for undo).
	p.Clwb(ctx, obj.Offset())
	p.Sfence(ctx)
	// Crash mid-transaction.
	p.Device().Crash()

	touched := p.RecoverTx(ctx)
	if len(touched) != 1 {
		t.Fatalf("touched ranges = %d, want 1", len(touched))
	}
	if got := p.ReadU64(ctx, obj, 0); got != 10 {
		t.Errorf("recovered value = %d, want 10 (rolled back)", got)
	}
	// Recovery must be idempotent: a second pass finds nothing.
	if again := p.RecoverTx(ctx); len(again) != 0 {
		t.Errorf("second recovery found %d ranges", len(again))
	}
}

// TestTxConcurrentSlots: four simulated threads, each with its own context,
// hold a transaction open at once — four log slots in use — and take turns
// through begin, add, write and commit.
func TestTxConcurrentSlots(t *testing.T) {
	_, p, ctx, tid := newTestPool(t)
	objs := make([]Ptr, 4)
	for i := range objs {
		objs[i], _ = p.Alloc(ctx, tid, 0)
	}
	cfg := sim.DefaultConfig()
	ctxs := make([]*sim.Ctx, len(objs))
	for i := range ctxs {
		ctxs[i] = sim.NewCtx(&cfg)
	}
	txs := make([]*Tx, len(objs))
	for rep := 0; rep < 20; rep++ {
		for i, c := range ctxs {
			txs[i] = p.Begin(c)
		}
		for i, c := range ctxs {
			txs[i].AddObject(c, objs[i])
		}
		for i, c := range ctxs {
			p.WriteU64(c, objs[i], 0, uint64(rep))
		}
		for i, c := range ctxs {
			txs[i].Commit(c)
		}
	}
	for i, o := range objs {
		if got := p.ReadU64(ctx, o, 0); got != 19 {
			t.Errorf("obj %d = %d, want 19", i, got)
		}
	}
}

// movedBarrier simulates a forwarding read barrier for one object.
type movedBarrier struct {
	from, to Ptr
	calls    int
}

func (m *movedBarrier) Resolve(_ *sim.Ctx, ref Ptr) Ptr {
	m.calls++
	if ref == m.from {
		return m.to
	}
	return ref
}

func TestReadBarrierSelfHeals(t *testing.T) {
	_, p, ctx, tid := newTestPool(t)
	a, _ := p.Alloc(ctx, tid, 0)
	bOld, _ := p.Alloc(ctx, tid, 0)
	bNew, _ := p.Alloc(ctx, tid, 0)
	p.WriteU64(ctx, bNew, 0, 5)
	p.WritePtr(ctx, a, 8, bOld)

	p.SetBarrier(&movedBarrier{from: bOld, to: bNew})
	got := p.ReadPtr(ctx, a, 8)
	if got != bNew {
		t.Fatalf("barrier did not forward: %v", got)
	}
	// The stored reference must have been healed: with the barrier removed,
	// a plain read returns the new pointer.
	p.SetBarrier(nil)
	if raw := p.ReadPtr(ctx, a, 8); raw != bNew {
		t.Errorf("reference not self-healed: %v", raw)
	}
}

func TestWritePtrResolvesValue(t *testing.T) {
	_, p, ctx, tid := newTestPool(t)
	a, _ := p.Alloc(ctx, tid, 0)
	bOld, _ := p.Alloc(ctx, tid, 0)
	bNew, _ := p.Alloc(ctx, tid, 0)
	p.SetBarrier(&movedBarrier{from: bOld, to: bNew})
	p.WritePtr(ctx, a, 8, bOld) // stale value written during compaction
	p.SetBarrier(nil)
	if got := p.ReadPtr(ctx, a, 8); got != bNew {
		t.Errorf("stale reference re-entered the heap: %v", got)
	}
}

func TestRootBarrierHealing(t *testing.T) {
	_, p, ctx, tid := newTestPool(t)
	old, _ := p.Alloc(ctx, tid, 0)
	nw, _ := p.Alloc(ctx, tid, 0)
	p.SetRoot(ctx, old)
	p.SetBarrier(&movedBarrier{from: old, to: nw})
	if got := p.Root(ctx); got != nw {
		t.Fatalf("root not forwarded: %v", got)
	}
	p.SetBarrier(nil)
	if got := p.Root(ctx); got != nw {
		t.Errorf("root cell not healed: %v", got)
	}
}

func TestAllocHookFires(t *testing.T) {
	_, p, ctx, tid := newTestPool(t)
	n := 0
	p.SetAllocHook(func() { n++ })
	obj, _ := p.Alloc(ctx, tid, 0)
	p.Free(ctx, obj)
	if n != 2 {
		t.Errorf("hook fired %d times, want 2", n)
	}
}

func TestTLBChargedOnAccess(t *testing.T) {
	_, p, ctx, tid := newTestPool(t)
	obj, _ := p.Alloc(ctx, tid, 0)
	before := ctx.TLB.AccessCount()
	p.ReadU64(ctx, obj, 0)
	if ctx.TLB.AccessCount() == before {
		t.Error("access did not consult the TLB")
	}
}

// TestGCMetaTailHoldsRelocList: at every pool size the layout accepts, the
// relocation-frame list fits whole lines between the per-frame arrays and the
// end of the GC metadata region, and from 1 MB up the auxiliary range before
// it still holds Mesh's header and two remap copies (16 + 8 bytes a frame).
func TestGCMetaTailHoldsRelocList(t *testing.T) {
	check := func(size uint64) {
		_, gcMetaOff, gcMetaSize, _, frames, err := layout(size)
		if err != nil {
			return
		}
		p := &Pool{gcMetaOff: gcMetaOff, gcMetaSize: gcMetaSize, heapFrames: frames}
		off, n := p.AuxMetaRange()
		list := off + n
		switch {
		case off != gcMetaOff+frames*gcMetaUsedPerFrame || n > gcMetaSize:
			t.Fatalf("size %d: aux range [%d,+%d) overlaps the per-frame arrays", size, off, n)
		case list%64 != 0 || list+8+4*frames > gcMetaOff+gcMetaSize:
			t.Fatalf("size %d: list at %d does not fit the region's tail", size, list)
		case size >= 1<<20 && n < 16+8*frames:
			t.Fatalf("size %d: %d aux bytes cannot hold Mesh's table for %d frames", size, n, frames)
		}
	}
	for size := uint64(0); size < 4<<20; size += 16 {
		check(size)
	}
	for size := uint64(4 << 20); size <= 1<<30; size += 4096 {
		check(size)
		check(size + 2000)
	}
}

func TestGCPhasePersistence(t *testing.T) {
	_, p, ctx, _ := newTestPool(t)
	p.SetGCPhase(ctx, 3)
	p.Device().Crash()
	if got := p.GCPhase(ctx); got != 3 {
		t.Errorf("gc phase = %d after crash, want 3", got)
	}
}

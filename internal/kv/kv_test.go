package kv_test

import (
	"bytes"
	"fmt"
	"testing"

	"ffccd/internal/core"
	"ffccd/internal/ds"
	"ffccd/internal/kv"
	"ffccd/internal/pmop"
	"ffccd/internal/sim"
)

func newPool(t testing.TB) (*sim.Config, *pmop.Runtime, *pmop.Pool, *sim.Ctx) {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.CacheBytes = 256 * 1024
	rt := pmop.NewRuntime(&cfg, 64<<20)
	reg := pmop.NewRegistry()
	kv.RegisterTypes(reg)
	p, err := rt.Create("kv", 32<<20, 12, reg)
	if err != nil {
		t.Fatal(err)
	}
	return &cfg, rt, p, sim.NewCtx(&cfg)
}

func stores(ctx *sim.Ctx, p *pmop.Pool, t *testing.T) []ds.Store {
	e, err := kv.NewEcho(ctx, p, 1024)
	if err != nil {
		t.Fatal(err)
	}
	return []ds.Store{e}
}

func TestEchoBasics(t *testing.T) {
	_, _, p, ctx := newPool(t)
	e, err := kv.NewEcho(ctx, p, 512)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 500; i++ {
		if err := e.Insert(ctx, i, []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if e.Len() != 500 {
		t.Fatalf("len = %d", e.Len())
	}
	for i := uint64(0); i < 500; i++ {
		v, ok := e.Get(ctx, i)
		if !ok || string(v) != fmt.Sprintf("value-%d", i) {
			t.Fatalf("get %d failed: %q %v", i, v, ok)
		}
	}
	// Overwrite + delete.
	e.Insert(ctx, 7, []byte("updated"))
	if v, _ := e.Get(ctx, 7); string(v) != "updated" {
		t.Fatal("overwrite failed")
	}
	if e.Len() != 500 {
		t.Fatalf("len after overwrite = %d", e.Len())
	}
	ok, _ := e.Delete(ctx, 7)
	if !ok {
		t.Fatal("delete failed")
	}
	if _, ok := e.Get(ctx, 7); ok {
		t.Fatal("deleted key readable")
	}
	if ok, _ := e.Delete(ctx, 7); ok {
		t.Fatal("double delete")
	}
}

func TestEchoCollisionChains(t *testing.T) {
	// Tiny bucket count forces chains; everything must still resolve.
	_, _, p, ctx := newPool(t)
	e, _ := kv.NewEcho(ctx, p, 4)
	for i := uint64(0); i < 100; i++ {
		e.Insert(ctx, i, []byte{byte(i)})
	}
	for i := uint64(0); i < 100; i++ {
		v, ok := e.Get(ctx, i)
		if !ok || v[0] != byte(i) {
			t.Fatalf("chained get %d failed", i)
		}
	}
	// Delete from middles of chains.
	for i := uint64(0); i < 100; i += 3 {
		if ok, _ := e.Delete(ctx, i); !ok {
			t.Fatalf("chained delete %d failed", i)
		}
	}
	for i := uint64(0); i < 100; i++ {
		_, ok := e.Get(ctx, i)
		if want := i%3 != 0; ok != want {
			t.Fatalf("after delete get %d = %v", i, ok)
		}
	}
}

func TestEchoReopen(t *testing.T) {
	cfg, rt, p, ctx := newPool(t)
	e, _ := kv.NewEcho(ctx, p, 256)
	for i := uint64(0); i < 200; i++ {
		e.Insert(ctx, i, []byte{byte(i), byte(i >> 8)})
	}
	p.Device().FlushAll(ctx)
	rt2, err := pmop.Attach(cfg, rt.Device())
	if err != nil {
		t.Fatal(err)
	}
	reg := pmop.NewRegistry()
	kv.RegisterTypes(reg)
	p2, err := rt2.Open("kv", reg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.Recover(ctx, p2, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	e2, err := kv.NewEcho(ctx, p2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Len() != 200 {
		t.Fatalf("reopened len = %d", e2.Len())
	}
	for i := uint64(0); i < 200; i++ {
		v, ok := e2.Get(ctx, i)
		if !ok || !bytes.Equal(v, []byte{byte(i), byte(i >> 8)}) {
			t.Fatalf("reopened get %d failed", i)
		}
	}
}

func TestEchoDefrag(t *testing.T) {
	_, _, p, ctx := newPool(t)
	e, _ := kv.NewEcho(ctx, p, 512)
	// Insert then delete most: hash-table array pins its frames (the paper's
	// point about Echo), but entry/value frames compact.
	for i := uint64(0); i < 2000; i++ {
		e.Insert(ctx, i, bytes.Repeat([]byte{byte(i)}, 128))
	}
	for i := uint64(0); i < 2000; i++ {
		if i%4 != 0 {
			e.Delete(ctx, i)
		}
	}
	before := p.Heap().Frag(12)
	opt := core.DefaultOptions()
	opt.TriggerRatio = 1.01
	opt.TargetRatio = 1.05
	eng := core.NewEngine(p, opt)
	defer eng.Close()
	eng.RunCycle(ctx)
	after := p.Heap().Frag(12)
	if after.FragRatio >= before.FragRatio {
		t.Errorf("fragR %.2f → %.2f", before.FragRatio, after.FragRatio)
	}
	for i := uint64(0); i < 2000; i += 4 {
		v, ok := e.Get(ctx, i)
		if !ok || len(v) != 128 || v[0] != byte(i) {
			t.Fatalf("post-defrag get %d failed", i)
		}
	}
}

// TestPmemKVConcurrent: four simulated threads, each with its own context and
// key range, take turns one operation at a time through inserts, reads and
// deletes.
func TestPmemKVConcurrent(t *testing.T) {
	cfg, _, p, ctx := newPool(t)
	k, err := kv.NewPmemKV(ctx, p, 1024)
	if err != nil {
		t.Fatal(err)
	}
	ctxs := make([]*sim.Ctx, 4)
	for w := range ctxs {
		ctxs[w] = sim.NewCtx(cfg)
	}
	base := func(w int) uint64 { return uint64(w) * 10000 }
	for i := uint64(0); i < 300; i++ {
		for w, c := range ctxs {
			if err := k.Insert(c, base(w)+i, []byte{byte(w), byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := uint64(0); i < 300; i++ {
		for w, c := range ctxs {
			if v, ok := k.Get(c, base(w)+i); !ok || v[0] != byte(w) {
				t.Fatalf("worker %d key %d bad", w, i)
			}
		}
	}
	for i := uint64(0); i < 300; i += 2 {
		for w, c := range ctxs {
			if ok, err := k.Delete(c, base(w)+i); !ok || err != nil {
				t.Fatalf("worker %d delete %d: %v %v", w, i, ok, err)
			}
		}
	}
	if k.Len() != 4*150 {
		t.Fatalf("len = %d, want 600", k.Len())
	}
}

func TestStoresInterface(t *testing.T) {
	_, _, p, ctx := newPool(t)
	for _, s := range stores(ctx, p, t) {
		if s.Name() == "" {
			t.Error("empty store name")
		}
	}
}

func TestPmemKVConcurrentWithDefragAndCrash(t *testing.T) {
	// Four writer threads over disjoint ranges while a defragmentation
	// epoch is open; crash mid-epoch; recover; verify all committed data.
	cfg, rt, p, ctx := newPool(t)
	k, err := kv.NewPmemKV(ctx, p, 2048)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 3000; i++ {
		k.Insert(ctx, i, []byte{byte(i), 0x77})
	}
	for i := uint64(0); i < 3000; i += 2 {
		k.Delete(ctx, i)
	}
	p.Device().FlushAll(ctx)

	opt := core.DefaultOptions()
	opt.Scheme = core.SchemeFFCCD
	opt.TriggerRatio, opt.TargetRatio = 1.05, 1.02
	eng := core.NewEngine(p, opt)
	if !eng.BeginCycle(ctx) {
		t.Skip("not fragmented enough")
	}
	// The writers take turns one insert at a time, with the mover stepping
	// between rounds.
	ctxs := make([]*sim.Ctx, 4)
	for w := range ctxs {
		ctxs[w] = sim.NewCtx(cfg)
	}
	for i := uint64(0); i < 80; i++ {
		for w, c := range ctxs {
			k.Insert(c, uint64(100000+w*10000)+i, []byte{byte(w), byte(i)})
		}
		eng.StepCompaction(ctx, 2)
	}

	rt.Device().Crash()
	if eng.RBB() != nil {
		eng.RBB().PowerLossFlush()
	}
	rt2, err := pmop.Attach(cfg, rt.Device())
	if err != nil {
		t.Fatal(err)
	}
	reg := pmop.NewRegistry()
	kv.RegisterTypes(reg)
	p2, err := rt2.Open("kv", reg)
	if err != nil {
		t.Fatal(err)
	}
	eng2, err := core.Recover(ctx, p2, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	k2, err := kv.NewPmemKV(ctx, p2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Old odd keys survive.
	for i := uint64(1); i < 3000; i += 2 {
		v, ok := k2.Get(ctx, i)
		if !ok || v[0] != byte(i) || v[1] != 0x77 {
			t.Fatalf("old key %d lost/corrupt", i)
		}
	}
	// Mid-epoch concurrent inserts survive (their txs committed).
	for w := 0; w < 4; w++ {
		base := uint64(100000 + w*10000)
		for i := uint64(0); i < 80; i++ {
			v, ok := k2.Get(ctx, base+i)
			if !ok || v[0] != byte(w) || v[1] != byte(i) {
				t.Fatalf("mid-epoch key %d lost/corrupt", base+i)
			}
		}
	}
}

func TestOverwriteSemantics(t *testing.T) {
	_, _, p, ctx := newPool(t)
	for _, s := range stores(ctx, p, t) {
		if err := s.Insert(ctx, 7, []byte("first")); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := s.Insert(ctx, 7, []byte("a-longer-second-value")); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		got, ok := s.Get(ctx, 7)
		if !ok || !bytes.Equal(got, []byte("a-longer-second-value")) {
			t.Errorf("%s: overwrite lost: %q", s.Name(), got)
		}
		if s.Len() != 1 {
			t.Errorf("%s: Len = %d after overwrite, want 1", s.Name(), s.Len())
		}
	}
}

func TestDeleteAbsentKey(t *testing.T) {
	_, _, p, ctx := newPool(t)
	for _, s := range stores(ctx, p, t) {
		found, err := s.Delete(ctx, 99999)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if found {
			t.Errorf("%s: deleting an absent key reported found", s.Name())
		}
		if _, ok := s.Get(ctx, 99999); ok {
			t.Errorf("%s: absent key readable", s.Name())
		}
	}
}

func TestLenTracksMixedOps(t *testing.T) {
	_, _, p, ctx := newPool(t)
	for _, s := range stores(ctx, p, t) {
		model := map[uint64]bool{}
		for i := 0; i < 300; i++ {
			k := uint64(i*i) % 97
			if i%3 == 2 {
				s.Delete(ctx, k)
				delete(model, k)
			} else {
				if err := s.Insert(ctx, k, []byte{byte(i)}); err != nil {
					t.Fatalf("%s: %v", s.Name(), err)
				}
				model[k] = true
			}
		}
		if s.Len() != len(model) {
			t.Errorf("%s: Len = %d, model has %d", s.Name(), s.Len(), len(model))
		}
	}
}

func TestEchoZeroLengthValueRejected(t *testing.T) {
	// Values live in sized heap objects whose header carries the length, so
	// a zero-length value has no representation; stores must reject it with
	// an error rather than corrupt state or panic.
	_, _, p, ctx := newPool(t)
	e, err := kv.NewEcho(ctx, p, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Insert(ctx, 5, nil); err == nil {
		t.Fatal("empty value accepted")
	}
	if _, ok := e.Get(ctx, 5); ok {
		t.Error("failed insert left a readable entry")
	}
	if e.Len() != 0 {
		t.Errorf("failed insert changed Len to %d", e.Len())
	}
	// The store must remain fully usable afterwards.
	if err := e.Insert(ctx, 5, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if got, ok := e.Get(ctx, 5); !ok || !bytes.Equal(got, []byte("x")) {
		t.Errorf("store unusable after rejected insert: %q %v", got, ok)
	}
}

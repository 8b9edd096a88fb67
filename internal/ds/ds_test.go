package ds_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"ffccd/internal/core"
	"ffccd/internal/ds"
	"ffccd/internal/pmop"
	"ffccd/internal/sim"
)

type builder struct {
	name   string
	build  func(ctx *sim.Ctx, p *pmop.Pool) (ds.Store, error)
	keyCap uint64 // key space bound (SS is slot-addressed)
}

func builders() []builder {
	return []builder{
		{"LL", func(ctx *sim.Ctx, p *pmop.Pool) (ds.Store, error) { return ds.NewList(ctx, p) }, 1 << 62},
		{"AVL", func(ctx *sim.Ctx, p *pmop.Pool) (ds.Store, error) { return ds.NewAVL(ctx, p) }, 1 << 62},
		{"SS", func(ctx *sim.Ctx, p *pmop.Pool) (ds.Store, error) { return ds.NewStringStore(ctx, p, 1024) }, 1024},
		{"BT", func(ctx *sim.Ctx, p *pmop.Pool) (ds.Store, error) { return ds.NewBPTree(ctx, p) }, 1 << 62},
		{"RBT", func(ctx *sim.Ctx, p *pmop.Pool) (ds.Store, error) { return ds.NewRBTree(ctx, p) }, 1 << 62},
		{"BzTree", func(ctx *sim.Ctx, p *pmop.Pool) (ds.Store, error) { return ds.NewBzTree(ctx, p) }, 1 << 62},
		{"FPTree", func(ctx *sim.Ctx, p *pmop.Pool) (ds.Store, error) { return ds.NewFPTree(ctx, p) }, 1 << 62},
	}
}

func newPool(t testing.TB) (*sim.Config, *pmop.Runtime, *pmop.Pool, *sim.Ctx) {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.CacheBytes = 256 * 1024
	rt := pmop.NewRuntime(&cfg, 128<<20)
	reg := pmop.NewRegistry()
	ds.RegisterTypes(reg)
	p, err := rt.Create("ds", 64<<20, 12, reg)
	if err != nil {
		t.Fatal(err)
	}
	return &cfg, rt, p, sim.NewCtx(&cfg)
}

func valFor(key uint64, n int) []byte {
	v := make([]byte, n)
	for i := range v {
		v[i] = byte(key>>uint(8*(i%8))) ^ byte(i)
	}
	return v
}

func TestInsertGetDelete(t *testing.T) {
	for _, b := range builders() {
		t.Run(b.name, func(t *testing.T) {
			_, _, p, ctx := newPool(t)
			s, err := b.build(ctx, p)
			if err != nil {
				t.Fatal(err)
			}
			const n = 300
			for i := uint64(0); i < n; i++ {
				if err := s.Insert(ctx, i, valFor(i, 64)); err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
			}
			if s.Len() != n {
				t.Fatalf("len = %d, want %d", s.Len(), n)
			}
			for i := uint64(0); i < n; i++ {
				v, ok := s.Get(ctx, i)
				if !ok || !bytes.Equal(v, valFor(i, 64)) {
					t.Fatalf("get %d: ok=%v", i, ok)
				}
			}
			if _, ok := s.Get(ctx, n+10); ok {
				t.Fatal("phantom key")
			}
			// Delete evens.
			for i := uint64(0); i < n; i += 2 {
				ok, err := s.Delete(ctx, i)
				if err != nil || !ok {
					t.Fatalf("delete %d: %v %v", i, ok, err)
				}
			}
			for i := uint64(0); i < n; i++ {
				_, ok := s.Get(ctx, i)
				if want := i%2 == 1; ok != want {
					t.Fatalf("after delete, get %d = %v", i, ok)
				}
			}
			if s.Len() != n/2 {
				t.Fatalf("len = %d, want %d", s.Len(), n/2)
			}
			if ok, _ := s.Delete(ctx, 0); ok {
				t.Fatal("double delete succeeded")
			}
		})
	}
}

func TestOverwrite(t *testing.T) {
	for _, b := range builders() {
		t.Run(b.name, func(t *testing.T) {
			_, _, p, ctx := newPool(t)
			s, _ := b.build(ctx, p)
			s.Insert(ctx, 7, []byte("old-value-old-value"))
			s.Insert(ctx, 7, []byte("new"))
			v, ok := s.Get(ctx, 7)
			if !ok || string(v) != "new" {
				t.Fatalf("overwrite failed: %q %v", v, ok)
			}
			if s.Len() != 1 {
				t.Fatalf("len = %d", s.Len())
			}
		})
	}
}

// churn runs a deterministic op mix mirrored against a Go map. A nil model
// starts fresh; passing an existing model continues a prior session.
func churn(t *testing.T, s ds.Store, ctx *sim.Ctx, keyCap uint64, ops int, seed int64, model map[uint64][]byte) map[uint64][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	if model == nil {
		model = make(map[uint64][]byte)
	}
	for i := 0; i < ops; i++ {
		key := rng.Uint64() % keyCap
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4, 5: // insert
			v := valFor(key^uint64(i), 16+rng.Intn(113))
			if err := s.Insert(ctx, key, v); err != nil {
				t.Fatalf("op %d insert: %v", i, err)
			}
			model[key] = v
		case 6, 7: // delete
			ok, err := s.Delete(ctx, key)
			if err != nil {
				t.Fatalf("op %d delete: %v", i, err)
			}
			_, want := model[key]
			if ok != want {
				t.Fatalf("op %d delete %d: got %v want %v", i, key, ok, want)
			}
			delete(model, key)
		default: // get
			v, ok := s.Get(ctx, key)
			want, wok := model[key]
			if ok != wok || (ok && !bytes.Equal(v, want)) {
				t.Fatalf("op %d get %d mismatch (ok=%v want %v)", i, key, ok, wok)
			}
		}
	}
	return model
}

func verifyModel(t *testing.T, s ds.Store, ctx *sim.Ctx, model map[uint64][]byte) {
	t.Helper()
	if s.Len() != len(model) {
		t.Fatalf("len = %d, model = %d", s.Len(), len(model))
	}
	for k, want := range model {
		v, ok := s.Get(ctx, k)
		if !ok || !bytes.Equal(v, want) {
			t.Fatalf("key %d: ok=%v", k, ok)
		}
	}
}

func TestChurnAgainstModel(t *testing.T) {
	for _, b := range builders() {
		t.Run(b.name, func(t *testing.T) {
			_, _, p, ctx := newPool(t)
			s, _ := b.build(ctx, p)
			keyCap := b.keyCap
			if keyCap > 500 {
				keyCap = 500
			}
			model := churn(t, s, ctx, keyCap, 1500, 42, nil)
			verifyModel(t, s, ctx, model)
		})
	}
}

func TestDefragPreservesData(t *testing.T) {
	for _, b := range builders() {
		t.Run(b.name, func(t *testing.T) {
			_, _, p, ctx := newPool(t)
			s, _ := b.build(ctx, p)
			keyCap := b.keyCap
			if keyCap > 800 {
				keyCap = 800
			}
			model := churn(t, s, ctx, keyCap, 2500, 7, nil)
			before := p.Heap().Frag(12)

			opt := core.DefaultOptions()
			opt.TriggerRatio = 1.01
			opt.TargetRatio = 1.05
			e := core.NewEngine(p, opt)
			defer e.Close()
			e.RunCycle(ctx)

			after := p.Heap().Frag(12)
			if before.FragRatio > 1.3 && after.FragRatio >= before.FragRatio {
				t.Errorf("fragR %.2f → %.2f", before.FragRatio, after.FragRatio)
			}
			verifyModel(t, s, ctx, model)

			// Keep operating after the cycle (stale-handle check).
			model = churn(t, s, ctx, keyCap, 500, 8, model)
			verifyModel(t, s, ctx, model)
		})
	}
}

func TestReopenAcrossRuns(t *testing.T) {
	for _, b := range builders() {
		t.Run(b.name, func(t *testing.T) {
			cfg, rt, p, ctx := newPool(t)
			s, _ := b.build(ctx, p)
			keyCap := b.keyCap
			if keyCap > 300 {
				keyCap = 300
			}
			model := churn(t, s, ctx, keyCap, 800, 13, nil)
			p.Device().FlushAll(ctx)

			rt2, err := pmop.Attach(cfg, rt.Device())
			if err != nil {
				t.Fatal(err)
			}
			reg := pmop.NewRegistry()
			ds.RegisterTypes(reg)
			p2, err := rt2.Open("ds", reg)
			if err != nil {
				t.Fatal(err)
			}
			e, err := core.Recover(ctx, p2, core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			s2, err := b.build(ctx, p2)
			if err != nil {
				t.Fatal(err)
			}
			verifyModel(t, s2, ctx, model)
			// And the reopened store still accepts writes.
			if err := s2.Insert(ctx, 1, []byte("post-reopen")); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCrashDuringDefragThroughAPI(t *testing.T) {
	for _, b := range builders() {
		for _, scheme := range []core.Scheme{core.SchemeSFCCD, core.SchemeFFCCD} {
			t.Run(fmt.Sprintf("%s/%s", b.name, scheme), func(t *testing.T) {
				cfg, rt, p, ctx := newPool(t)
				s, _ := b.build(ctx, p)
				keyCap := b.keyCap
				if keyCap > 400 {
					keyCap = 400
				}
				model := churn(t, s, ctx, keyCap, 1200, 17, nil)
				p.Device().FlushAll(ctx)

				opt := core.DefaultOptions()
				opt.Scheme = scheme
				opt.TriggerRatio = 1.01
				opt.TargetRatio = 1.05
				e := core.NewEngine(p, opt)
				// Start the epoch and do some API traffic mid-compaction,
				// then crash.
				if !e.BeginCycle(ctx) {
					t.Skip("heap too compact to start a cycle")
				}
				for i := uint64(0); i < 50; i++ {
					s.Get(ctx, i%keyCap)
				}
				rt.Device().Crash()
				if e.RBB() != nil {
					e.RBB().PowerLossFlush()
				}

				rt2, err := pmop.Attach(cfg, rt.Device())
				if err != nil {
					t.Fatal(err)
				}
				reg := pmop.NewRegistry()
				ds.RegisterTypes(reg)
				p2, err := rt2.Open("ds", reg)
				if err != nil {
					t.Fatal(err)
				}
				e2, err := core.Recover(ctx, p2, opt)
				if err != nil {
					t.Fatal(err)
				}
				defer e2.Close()
				s2, err := b.build(ctx, p2)
				if err != nil {
					t.Fatal(err)
				}
				verifyModel(t, s2, ctx, model)
			})
		}
	}
}

func TestStringStoreSwap(t *testing.T) {
	_, _, p, ctx := newPool(t)
	s, _ := ds.NewStringStore(ctx, p, 64)
	s.Insert(ctx, 1, []byte("one"))
	s.Insert(ctx, 2, []byte("two"))
	if err := s.Swap(ctx, 1, 2); err != nil {
		t.Fatal(err)
	}
	v1, _ := s.Get(ctx, 1)
	v2, _ := s.Get(ctx, 2)
	if string(v1) != "two" || string(v2) != "one" {
		t.Fatalf("swap failed: %q %q", v1, v2)
	}
}

func TestStringStoreOutOfRange(t *testing.T) {
	_, _, p, ctx := newPool(t)
	s, _ := ds.NewStringStore(ctx, p, 8)
	if err := s.Insert(ctx, 9, []byte("x")); err == nil {
		t.Fatal("expected range error")
	}
}

// TestConcurrentReaders: BzTree and FPTree advertise concurrent access (4T
// in the paper). Four simulated threads, each with its own context, take
// turns one operation at a time — two read the preloaded keys back, two
// insert into disjoint ranges — and every thread sees the others' effects
// and its own.
func TestConcurrentReaders(t *testing.T) {
	for _, b := range builders()[5:] {
		t.Run(b.name, func(t *testing.T) {
			cfg, _, p, ctx := newPool(t)
			s, _ := b.build(ctx, p)
			for i := uint64(0); i < 200; i++ {
				s.Insert(ctx, i, valFor(i, 32))
			}
			ctxs := make([]*sim.Ctx, 4)
			for w := range ctxs {
				ctxs[w] = sim.NewCtx(cfg)
			}
			for i := uint64(0); i < 200; i++ {
				for w, c := range ctxs {
					if w%2 == 0 {
						if v, ok := s.Get(c, i); !ok || !bytes.Equal(v, valFor(i, 32)) {
							t.Fatalf("reader %d: key %d bad", w, i)
						}
						continue
					}
					k := 1000 + uint64(w)*1000 + i
					if err := s.Insert(c, k, valFor(k, 32)); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, w := range []uint64{1, 3} {
				for i := uint64(0); i < 200; i++ {
					k := 1000 + w*1000 + i
					if v, ok := s.Get(ctx, k); !ok || !bytes.Equal(v, valFor(k, 32)) {
						t.Fatalf("writer %d: key %d bad", w, k)
					}
				}
			}
		})
	}
}

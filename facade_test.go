package ffccd_test

// Public-facade tests beyond the quickstart round trip: every scheme through
// the same fragment→defragment→verify path, huge-page pools, engine stats,
// and the stop-the-world comparator — all via the ffccd package only.

import (
	"bytes"
	"fmt"
	"testing"

	"ffccd"
)

func buildFragmentedList(t *testing.T, cfg *ffccd.Config) (*ffccd.Runtime, *ffccd.Pool, *ffccd.Ctx, *ffccd.List) {
	t.Helper()
	rt := ffccd.NewRuntime(cfg, 128<<20)
	ctx := ffccd.NewCtx(cfg)
	reg := ffccd.NewRegistry()
	ffccd.RegisterStoreTypes(reg)
	pool, err := rt.Create("facade", 64<<20, ffccd.Page4K, reg)
	if err != nil {
		t.Fatal(err)
	}
	list, err := ffccd.NewList(ctx, pool)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 2400; i++ {
		if err := list.Insert(ctx, i, []byte{byte(i), byte(i >> 8), 0xA5}); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 2400; i += 2 {
		list.Delete(ctx, i)
	}
	pool.Device().FlushAll(ctx)
	return rt, pool, ctx, list
}

func verifySurvivors(t *testing.T, ctx *ffccd.Ctx, list *ffccd.List) {
	t.Helper()
	if list.Len() != 1200 {
		t.Fatalf("len = %d, want 1200", list.Len())
	}
	for i := uint64(1); i < 2400; i += 2 {
		v, ok := list.Get(ctx, i)
		if !ok || !bytes.Equal(v, []byte{byte(i), byte(i >> 8), 0xA5}) {
			t.Fatalf("key %d lost or corrupt", i)
		}
	}
}

func TestEverySchemeDefragmentsViaFacade(t *testing.T) {
	for _, scheme := range []ffccd.Scheme{
		ffccd.SchemeEspresso, ffccd.SchemeSFCCD, ffccd.SchemeFFCCD, ffccd.SchemeFFCCDCheckLookup,
	} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := ffccd.DefaultConfig()
			_, pool, ctx, list := buildFragmentedList(t, &cfg)
			before := pool.Heap().Frag(ffccd.Page4K)

			opt := ffccd.DefaultEngineOptions()
			opt.Scheme = scheme
			opt.TriggerRatio, opt.TargetRatio = 1.05, 1.02
			eng := ffccd.NewEngine(pool, opt)
			defer eng.Close()
			if !eng.RunCycle(ctx) {
				t.Fatal("no cycle ran")
			}
			after := pool.Heap().Frag(ffccd.Page4K)
			if after.FragRatio >= before.FragRatio {
				t.Errorf("fragR %.3f → %.3f: no improvement", before.FragRatio, after.FragRatio)
			}
			st := eng.Stats()
			if st.Cycles != 1 || st.ObjectsMoved == 0 || st.FramesReleased == 0 {
				t.Errorf("stats not accounted: %+v", st)
			}
			verifySurvivors(t, ctx, list)
		})
	}
}

func TestHugePagePoolViaFacade(t *testing.T) {
	cfg := ffccd.DefaultConfig()
	rt := ffccd.NewRuntime(&cfg, 256<<20)
	ctx := ffccd.NewCtx(&cfg)
	reg := ffccd.NewRegistry()
	ffccd.RegisterStoreTypes(reg)
	pool, err := rt.Create("huge", 192<<20, ffccd.Page2M, reg)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := ffccd.NewBPTree(ctx, pool)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 4000; i++ {
		if err := bt.Insert(ctx, i, []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 4000; i += 4 {
		bt.Delete(ctx, i)
	}
	pool.Device().FlushAll(ctx)
	before := pool.Heap().Frag(ffccd.Page2M)

	opt := ffccd.DefaultEngineOptions()
	opt.Scheme = ffccd.SchemeFFCCDCheckLookup
	opt.TriggerRatio, opt.TargetRatio = 1.02, 1.01
	eng := ffccd.NewEngine(pool, opt)
	defer eng.Close()
	eng.RunCycle(ctx)
	after := pool.Heap().Frag(ffccd.Page2M)
	if after.FootprintBytes > before.FootprintBytes {
		t.Errorf("huge-page footprint grew: %d → %d", before.FootprintBytes, after.FootprintBytes)
	}
	for i := uint64(1); i < 4000; i += 4 {
		if v, ok := bt.Get(ctx, i); !ok || string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("key %d lost after huge-page defrag", i)
		}
	}
}

func TestSTWComparatorViaFacade(t *testing.T) {
	cfg := ffccd.DefaultConfig()
	_, pool, ctx, list := buildFragmentedList(t, &cfg)
	opt := ffccd.DefaultEngineOptions()
	opt.TriggerRatio, opt.TargetRatio = 1.05, 1.02
	eng := ffccd.NewEngine(pool, opt)
	defer eng.Close()
	pause, ran := eng.RunCycleSTW(ctx)
	if !ran || pause == 0 {
		t.Fatalf("STW cycle: ran=%v pause=%d", ran, pause)
	}
	verifySurvivors(t, ctx, list)
}

func TestRunCycleNoOpWhenCompact(t *testing.T) {
	cfg := ffccd.DefaultConfig()
	rt := ffccd.NewRuntime(&cfg, 64<<20)
	ctx := ffccd.NewCtx(&cfg)
	reg := ffccd.NewRegistry()
	ffccd.RegisterStoreTypes(reg)
	pool, err := rt.Create("dense", 32<<20, ffccd.Page4K, reg)
	if err != nil {
		t.Fatal(err)
	}
	list, err := ffccd.NewList(ctx, pool)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 500; i++ {
		list.Insert(ctx, i, []byte{1, 2, 3})
	}
	pool.Device().FlushAll(ctx)
	opt := ffccd.DefaultEngineOptions()
	opt.TriggerRatio = 1.5 // dense heap sits below the trigger
	eng := ffccd.NewEngine(pool, opt)
	defer eng.Close()
	if eng.RunCycle(ctx) {
		t.Error("cycle ran on a heap below the trigger ratio")
	}
	if st := eng.Stats(); st.Cycles != 0 {
		t.Errorf("stats recorded a phantom cycle: %+v", st)
	}
}

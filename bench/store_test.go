package main

import (
	"sync"
	"testing"

	"ffccd/internal/ds"
	"ffccd/internal/experiments"
	"ffccd/internal/kv"
	"ffccd/internal/sim"
)

func testEnv(t *testing.T) *experiments.Env {
	t.Helper()
	env, err := experiments.NewEnv(16<<20, 12)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(env.RT.Device().ReleaseMedia)
	return env
}

// The decorator must keep a store's optional interfaces exactly: redisws.Serve
// asserts for GetParallel/GetFootprint and silently serves serially without
// them, and the fork driver asserts for Fork.
func TestDecoratorKeepsOptionalInterfaces(t *testing.T) {
	env := testEnv(t)
	tr := newTracer("t", true)
	echo, err := kv.NewEcho(env.Ctx, env.Pool, 64)
	if err != nil {
		t.Fatal(err)
	}
	list, err := ds.NewList(env.Ctx, env.Pool)
	if err != nil {
		t.Fatal(err)
	}
	we, wl := wrapStore(echo, "kv", tr, 0, 0), wrapStore(list, "ds", tr, 0, 0)
	if _, ok := we.(parallelInner); !ok {
		t.Error("decorated kv.Echo lost GetParallel/GetFootprint: Serve would dispatch serially")
	}
	if _, ok := wl.(parallelInner); ok {
		t.Error("decorated ds.List gained GetParallel/GetFootprint it cannot serve")
	}
	for _, s := range []ds.Store{we, wl} {
		if _, ok := s.(ds.Forker); !ok {
			t.Errorf("decorated %s lost Fork", s.Name())
		}
	}

	// GetFootprint forwards: it must visit the same ranges as the bare store.
	if err := we.Insert(env.Ctx, 7, []byte("seven")); err != nil {
		t.Fatal(err)
	}
	var bare, wrapped int
	echo.GetFootprint(7, func(off, n uint64) { bare++ })
	we.(parallelInner).GetFootprint(7, func(off, n uint64) { wrapped++ })
	if bare == 0 || bare != wrapped {
		t.Errorf("GetFootprint visited %d ranges through the decorator, %d bare", wrapped, bare)
	}
}

// Workpool workers call GetParallel on one decorated store at once; the
// counters must not lose calls (run under -race).
func TestDecoratorCountsConcurrentGets(t *testing.T) {
	env := testEnv(t)
	echo, err := kv.NewEcho(env.Ctx, env.Pool, 64)
	if err != nil {
		t.Fatal(err)
	}
	s := wrapStore(echo, "kv", newTracer("t", true), 0, 0)
	const keys, workers, rounds = 32, 8, 200
	for k := uint64(0); k < keys; k++ {
		if err := s.Insert(env.Ctx, k, []byte{byte(k), 1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	// Warm every line, so the concurrent reads below are pure cache hits on
	// disjoint state (the condition Serve's batches guarantee).
	for k := uint64(0); k < keys; k++ {
		s.Get(env.Ctx, k)
	}
	par := s.(parallelInner)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := sim.NewCtx(&env.Cfg) // a private clock per worker, as each client has
			for i := 0; i < rounds; i++ {
				if v, ok := par.GetParallel(c, uint64((w+i)%keys)); !ok || len(v) != 4 {
					t.Errorf("GetParallel(%d) = %v, %v", (w+i)%keys, v, ok)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := traced(s).st
	if got := st.getParallel.n.Load(); got != workers*rounds {
		t.Errorf("counted %d GetParallel calls, made %d", got, workers*rounds)
	}
	if got := st.getParallel.hist.Count(); got != workers*rounds {
		t.Errorf("histogram holds %d GetParallel calls, made %d", got, workers*rounds)
	}
	if st.insert.n.Load() != keys || st.get.n.Load() != keys {
		t.Errorf("counted %d inserts and %d gets, made %d each", st.insert.n.Load(), st.get.n.Load(), keys)
	}
	if len(traced(s).model) != keys {
		t.Errorf("model holds %d keys, inserted %d", len(traced(s).model), keys)
	}
}

// A forked decorator shares the call statistics and starts from a copy of
// the model.
func TestDecoratorFork(t *testing.T) {
	env := testEnv(t)
	list, err := ds.NewList(env.Ctx, env.Pool)
	if err != nil {
		t.Fatal(err)
	}
	s := wrapStore(list, "ds", newTracer("t", true), 0, 0)
	if err := s.Insert(env.Ctx, 1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	f := s.(ds.Forker).Fork(env.Pool)
	ft := traced(f)
	if ft == nil {
		t.Fatalf("Fork returned a bare %T", f)
	}
	if err := f.Insert(env.Ctx, 2, []byte("two")); err != nil {
		t.Fatal(err)
	}
	if n := traced(s).st.insert.n.Load(); n != 2 {
		t.Errorf("parent and fork counted %d inserts together, made 2", n)
	}
	if len(ft.model) != 2 || len(traced(s).model) != 1 {
		t.Errorf("models hold %d (fork) and %d (parent) keys, want 2 and 1", len(ft.model), len(traced(s).model))
	}
}

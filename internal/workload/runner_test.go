package workload

import (
	"testing"
	"unsafe"

	"ffccd/internal/ds"
	"ffccd/internal/pmop"
	"ffccd/internal/sim"
)

// newList builds an empty list store on a fresh pool.
func newList(t *testing.T) (*sim.Ctx, *pmop.Pool, ds.Store) {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.CacheBytes = 256 * 1024
	rt := pmop.NewRuntime(&cfg, 64<<20)
	reg := pmop.NewRegistry()
	ds.RegisterTypes(reg)
	p, err := rt.Create("wl", 32<<20, 12, reg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewCtx(&cfg)
	s, err := ds.NewList(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	return ctx, p, s
}

// stepReserved steps r to the end of its run and fails if its live or free
// key list is ever moved or regrown, or was reserved larger than the run
// fills it.
func stepReserved(t *testing.T, r *Runner) {
	t.Helper()
	lists := [2]*[]uint64{&r.live, &r.freeKeys}
	var caps, peaks [2]int
	var data [2]*uint64
	for i, l := range lists {
		caps[i], data[i] = cap(*l), unsafe.SliceData(*l)
	}
	for done := false; !done; {
		var err error
		if _, done, err = r.Step(); err != nil {
			t.Fatal(err)
		}
		for i, l := range lists {
			if cap(*l) != caps[i] || unsafe.SliceData(*l) != data[i] {
				t.Fatalf("phase %d op %d: list %d regrew from capacity %d to %d", r.ph, r.i, i, caps[i], cap(*l))
			}
			peaks[i] = max(peaks[i], len(*l))
		}
	}
	if peaks != caps {
		t.Fatalf("the run filled its lists to %v of the %v reserved", peaks, caps)
	}
}

// TestRunnerReservesOnce: a runner reserves its live and free key lists once,
// for the most keys the rest of its run holds, so neither list regrows: over
// a whole run, and over the rest of a run resumed from a checkpoint taken at
// a Maintenance point mid-delete, where the insert phase after it is the peak.
func TestRunnerReservesOnce(t *testing.T) {
	for _, keyCap := range []uint64{0, 1 << 20} {
		cfg := Scaled(0.05) // 1000 init, 800 per phase
		cfg.KeyCap, cfg.SampleEvery = keyCap, 100

		ctx, p, s := newList(t)
		stepReserved(t, NewRunner(ctx, p, s, cfg))

		ctx, p, s = newList(t)
		var r *Runner
		cfg.Maintenance = func() {
			if r.ph == 1 && r.i == 300 {
				r.RequestStop()
			}
		}
		r = NewRunner(ctx, p, s, cfg)
		if _, done, err := r.Run(); done || err != nil {
			t.Fatalf("the run did not stop mid-delete: done %v, %v", done, err)
		}
		cfg.Maintenance = nil
		resumed, err := ResumeRunner(ctx, p, s, cfg, r.Checkpoint())
		if err != nil {
			t.Fatal(err)
		}
		stepReserved(t, resumed)
	}
}

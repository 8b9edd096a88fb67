package machine

import (
	"fmt"
	"testing"

	"ffccd/internal/core"
	"ffccd/internal/ds"
	"ffccd/internal/pmem"
	"ffccd/internal/pmop"
	"ffccd/internal/sim"
	"ffccd/internal/workpool"
)

// batchSpec is the geometry of a batch crash trial's machine.
func batchSpec() Spec {
	cfg := sim.DefaultConfig()
	cfg.CacheBytes = 256 * 1024
	return Spec{Name: "fi", PoolBytes: 64 << 20, PageShift: 12, Sim: cfg}
}

func value(k uint64) []byte { return []byte(fmt.Sprintf("value-%d", k)) }

// A pool whose objects a ds-only registry typed reads the same under the one
// registry: every ds type has the same id and layout in both.
func TestRegistryKeepsDSTypeIDs(t *testing.T) {
	dsOnly := pmop.NewRegistry()
	ds.RegisterTypes(dsOnly)
	n := 0
	for id := pmop.TypeID(1); ; id++ {
		want, ok := dsOnly.Lookup(id)
		if !ok {
			break
		}
		n++
		got, ok := Registry().LookupName(want.Name)
		if !ok || got.ID != want.ID || got.Kind != want.Kind || got.Size != want.Size || fmt.Sprint(got.PtrOffsets) != fmt.Sprint(want.PtrOffsets) {
			t.Errorf("ds type %q: %+v under the one registry, %+v under a ds-only one", want.Name, got, want)
		}
	}
	if n == 0 {
		t.Fatal("a ds-only registry has no types")
	}
	if _, ok := Registry().Lookup(pmop.TypeID(n + 1)); !ok {
		t.Error("the one registry has no kv types after the ds ones")
	}
}

// A batch-geometry machine that loses power reopens on its own device and
// reads back every committed operation of its store.
func TestReopenReadsBackStore(t *testing.T) {
	m, err := Build(batchSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	if m.Store, err = ds.NewBzTree(m.Ctx, m.Pool); err != nil {
		t.Fatal(err)
	}
	model := map[uint64][]byte{}
	for k := uint64(0); k < 300; k++ {
		if err := m.Store.Insert(m.Ctx, k, value(k)); err != nil {
			t.Fatal(err)
		}
		model[k] = value(k)
		if k%3 == 0 {
			if _, err := m.Store.Delete(m.Ctx, k/2); err != nil {
				t.Fatal(err)
			}
			delete(model, k/2)
		}
	}
	m.NewEngine(core.Options{Scheme: core.SchemeFFCCD})
	m.Device().SetCrashPolicy(pmem.DropAllInflight)
	m.Device().Crash()

	if err := m.Reopen(); err != nil {
		t.Fatal(err)
	}
	if m.Store != nil || m.Eng != nil {
		t.Fatal("the store and engine survived the power failure")
	}
	if m.Eng, err = core.Recover(m.Ctx, m.Pool, core.Options{Scheme: core.SchemeFFCCD}); err != nil {
		t.Fatal(err)
	}
	defer m.Eng.Close()
	if m.Store, err = ds.NewBzTree(m.Ctx, m.Pool); err != nil {
		t.Fatal(err)
	}
	if m.Store.Len() != len(model) {
		t.Errorf("reopened store holds %d keys, want %d", m.Store.Len(), len(model))
	}
	for k, v := range model {
		if got, ok := m.Store.Get(m.Ctx, k); !ok || string(got) != string(v) {
			t.Fatalf("key %d reads back %q, %v; want %q", k, got, ok, v)
		}
	}
}

// forkRun is what one fork of an image did: its media hash after the same
// writes, and the cycles they cost.
type forkRun struct {
	hash   uint64
	cycles uint64
}

// runFork forks img, checks the fork reads the image's store, writes the same
// keys every fork writes, and releases the fork.
func runFork(img *Image, keys uint64) (forkRun, error) {
	m, err := img.Fork()
	if err != nil {
		return forkRun{}, err
	}
	defer m.Release()
	if m.Store.Len() != int(keys) {
		return forkRun{}, fmt.Errorf("fork's store holds %d keys, want %d", m.Store.Len(), keys)
	}
	if got, ok := m.Store.Get(m.Ctx, keys/2); !ok || string(got) != string(value(keys/2)) {
		return forkRun{}, fmt.Errorf("fork reads key %d as %q, %v", keys/2, got, ok)
	}
	for k := keys; k < 2*keys; k++ {
		if err := m.Store.Insert(m.Ctx, k, value(k)); err != nil {
			return forkRun{}, err
		}
	}
	m.Device().FlushAll(m.Ctx)
	return forkRun{m.Device().HashMedia(), m.Ctx.Clock.Total()}, nil
}

// Four machines forked from one image at once on the worker pool (make race
// runs this at FFCCD_PARALLEL=4) write copy-on-write over the image's shared
// pages: each ends where a fork run alone ends, and the source machine the
// image was captured from is untouched.
func TestForksOfOneImageOnWorkers(t *testing.T) {
	const keys = 200
	m, err := Build(batchSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	if m.Store, err = ds.NewList(m.Ctx, m.Pool); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < keys; k++ {
		if err := m.Store.Insert(m.Ctx, k, value(k)); err != nil {
			t.Fatal(err)
		}
	}
	m.Device().FlushAll(m.Ctx)
	m.GC = sim.NewCtx(&m.Cfg)
	img := m.Capture()
	source := m.Device().HashMedia()

	alone, err := runFork(img, keys)
	if err != nil {
		t.Fatal(err)
	}
	var runs [4]forkRun
	if err := workpool.ForEach(len(runs), func(i int) (err error) {
		runs[i], err = runFork(img, keys)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for i, r := range runs {
		if r != alone {
			t.Errorf("fork %d on the pool: %+v, a fork alone: %+v", i, r, alone)
		}
	}
	if alone.hash == source {
		t.Error("the forks' writes left the media hash unchanged: the check is vacuous")
	}
	if got := m.Device().HashMedia(); got != source {
		t.Errorf("forking changed the source machine's media: %#x, was %#x", got, source)
	}
}

// Release gives back the TLB arrays of every context the machine holds, so
// each of them, and a context derived from one, fails on its next
// translation instead of translating for free.
func TestReleasedMachineContextsPanic(t *testing.T) {
	m, err := Build(batchSpec())
	if err != nil {
		t.Fatal(err)
	}
	m.GC = sim.NewCtx(&m.Cfg)
	if m.Store, err = ds.NewList(m.Ctx, m.Pool); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 50; k++ {
		if err := m.Store.Insert(m.Ctx, k, value(k)); err != nil {
			t.Fatal(err)
		}
	}
	m.NewEngine(core.Options{Scheme: core.SchemeFFCCD}).RunCycle(m.GC)
	m.Eng.Close()
	derived := m.Ctx.Derived(sim.CatCopy)
	m.Release()
	m.Release() // a second call does nothing
	for name, ctx := range map[string]*sim.Ctx{"application": m.Ctx, "defragmentation": m.GC, "derived": derived} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("the %s context translated after its machine was released", name)
				}
			}()
			ctx.TLB.Access(m.Pool.VA(0), 12)
		}()
	}
}

// An image holds none of an open epoch's volatile state, so capturing a
// machine whose engine is inside an epoch panics; once the epoch closes, the
// same machine captures.
func TestCaptureInsideOpenEpochPanics(t *testing.T) {
	m, err := Build(batchSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	m.GC = sim.NewCtx(&m.Cfg)
	if m.Store, err = ds.NewList(m.Ctx, m.Pool); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 2000; k++ {
		if err := m.Store.Insert(m.Ctx, k, value(k)); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 2000; k += 4 {
		if _, err := m.Store.Delete(m.Ctx, k); err != nil {
			t.Fatal(err)
		}
	}
	eng := m.NewEngine(core.Options{Scheme: core.SchemeFFCCDCheckLookup})
	defer eng.Close()
	if !eng.BeginCycle(m.GC) {
		t.Fatal("the fragmented heap opened no epoch")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a capture inside an open epoch did not panic")
			}
		}()
		m.Capture()
	}()
	eng.FinishCycle(m.GC)
	if img := m.Capture(); img.EngineStats.Cycles != 1 {
		t.Errorf("the image after the epoch counts %d engine cycles, want 1", img.EngineStats.Cycles)
	}
}

// An image counts its live forks: releasing it under one panics, since the
// fork still reads the pages the image would give back, and so does capturing
// into it. Once the source machine and every fork are released, Release
// returns every page the machines materialised, and a released image forks
// nothing.
func TestImageReleasePanicsWhileAForkIsLive(t *testing.T) {
	taken, returned := pmem.MaterializedPages(), pmem.ReturnedPages()
	m, err := Build(batchSpec())
	if err != nil {
		t.Fatal(err)
	}
	if m.Store, err = ds.NewList(m.Ctx, m.Pool); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 200; k++ {
		if err := m.Store.Insert(m.Ctx, k, value(k)); err != nil {
			t.Fatal(err)
		}
	}
	img := m.Capture()
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	mustPanic("releasing an image its source machine still holds the pages of", img.Release)
	m.Release()
	fork, err := img.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if err := fork.Store.Insert(fork.Ctx, 1000, value(1000)); err != nil {
		t.Fatal(err)
	}
	mustPanic("releasing an image under a live fork", img.Release)
	mustPanic("capturing into an image under a live fork", func() { fork.CaptureInto(img) })
	fork.Release()
	fork.Release() // a second call does not count the fork out twice
	img.Release()
	img.Release() // a second call does nothing
	mustPanic("forking a released image", func() { img.Fork() })
	if dt, dr := pmem.MaterializedPages()-taken, pmem.ReturnedPages()-returned; dt != dr || dt == 0 {
		t.Errorf("the source, its fork and their image materialised %d media pages and returned %d", dt, dr)
	}
}

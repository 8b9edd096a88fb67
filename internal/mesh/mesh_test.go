package mesh_test

import (
	"slices"
	"testing"

	"ffccd/internal/alloc"
	"ffccd/internal/core"
	"ffccd/internal/ds"
	"ffccd/internal/machine"
	"ffccd/internal/mesh"
	"ffccd/internal/pmem"
	"ffccd/internal/pmop"
	"ffccd/internal/sim"
)

func setup(t *testing.T) (*pmop.Pool, *sim.Ctx) {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.CacheBytes = 128 * 1024
	rt := pmop.NewRuntime(&cfg, 32<<20)
	reg := pmop.NewRegistry()
	ds.RegisterTypes(reg)
	p, err := rt.Create("mesh", 16<<20, 12, reg)
	if err != nil {
		t.Fatal(err)
	}
	return p, sim.NewCtx(&cfg)
}

// fragmentComplementary builds frames whose occupancy patterns are
// offset-disjoint: objects at even slots in some frames, odd-ish slots in
// others, by allocating pairs and freeing alternating halves.
func fragmentComplementary(t *testing.T, p *pmop.Pool, ctx *sim.Ctx) *ds.List {
	l, err := ds.NewList(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	var toDelete []uint64
	for i := uint64(0); i < 3000; i++ {
		if err := l.Insert(ctx, i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			toDelete = append(toDelete, i)
		}
	}
	for _, k := range toDelete {
		l.Delete(ctx, k)
	}
	return l
}

func TestMeshReducesPhysicalFootprint(t *testing.T) {
	p, ctx := setup(t)
	l := fragmentComplementary(t, p, ctx)
	d := mesh.New(p)
	before := d.PhysFrag(12)
	released := d.RunCycle(ctx)
	if released == 0 {
		t.Skip("no disjoint pairs found with this layout")
	}
	after := d.PhysFrag(12)
	if after.FootprintBytes >= before.FootprintBytes {
		t.Fatalf("physical footprint %d → %d despite %d meshes",
			before.FootprintBytes, after.FootprintBytes, released)
	}
	// All data still readable through the remapped pages.
	for i := uint64(1); i < 3000; i += 2 {
		v, ok := l.Get(ctx, i)
		if !ok || v[0] != byte(i) {
			t.Fatalf("key %d unreadable after meshing", i)
		}
	}
}

func TestMeshKeepsVirtualAddressesValid(t *testing.T) {
	p, ctx := setup(t)
	l := fragmentComplementary(t, p, ctx)
	d := mesh.New(p)
	d.RunCycle(ctx)
	// Mutations through old virtual addresses must land correctly.
	for i := uint64(1); i < 100; i += 2 {
		if err := l.Insert(ctx, i, []byte{0xEE}); err != nil {
			t.Fatal(err)
		}
		v, ok := l.Get(ctx, i)
		if !ok || v[0] != 0xEE {
			t.Fatalf("write-after-mesh readback failed for %d", i)
		}
	}
}

func TestMeshedFramesRejectAllocation(t *testing.T) {
	p, ctx := setup(t)
	fragmentComplementary(t, p, ctx)
	d := mesh.New(p)
	if d.RunCycle(ctx) == 0 {
		t.Skip("no meshes")
	}
	heap := p.Heap()
	meshed := -1
	for f := 0; f < heap.Frames(); f++ {
		if heap.State(f) == alloc.FrameMeshed {
			meshed = f
			break
		}
	}
	if meshed < 0 {
		t.Fatal("no meshed frame recorded")
	}
	// Allocations must avoid meshed frames.
	ti, _ := p.Types().LookupName("ds.value")
	for i := 0; i < 500; i++ {
		obj, err := p.Alloc(ctx, ti.ID, 64)
		if err != nil {
			t.Fatal(err)
		}
		if heap.FrameOf(obj.Offset()-pmop.HeaderSize) == meshed {
			t.Fatal("allocation landed in a meshed frame")
		}
	}
}

func TestMeshIdempotentWhenDense(t *testing.T) {
	p, ctx := setup(t)
	l, _ := ds.NewList(ctx, p)
	for i := uint64(0); i < 500; i++ {
		l.Insert(ctx, i, []byte{1})
	}
	d := mesh.New(p)
	if n := d.RunCycle(ctx); n != 0 {
		t.Fatalf("meshed %d pairs on a dense heap", n)
	}
	if d.MeshedFrames() != 0 {
		t.Fatal("phantom meshed frames")
	}
}

func TestMeshPhysFragAccounting(t *testing.T) {
	p, ctx := setup(t)
	l := fragmentComplementary(t, p, ctx)
	_ = l
	d := mesh.New(p)
	virt := p.Heap().Frag(12)
	released := d.RunCycle(ctx)
	phys := d.PhysFrag(12)
	// Physical footprint = virtual footprint − meshed frames.
	want := virt.FootprintBytes - uint64(released)*4096
	if phys.FootprintBytes != want {
		t.Errorf("phys footprint = %d, want %d", phys.FootprintBytes, want)
	}
	if released > 0 && phys.FragRatio >= virt.FragRatio {
		t.Errorf("phys fragR %.2f not below virtual %.2f", phys.FragRatio, virt.FragRatio)
	}
}

func TestMeshRepeatedCyclesConverge(t *testing.T) {
	p, ctx := setup(t)
	fragmentComplementary(t, p, ctx)
	d := mesh.New(p)
	total := 0
	for i := 0; i < 5; i++ {
		total += d.RunCycle(ctx)
	}
	// Meshed frames never unmesh; cycles must converge (identity-mapped
	// candidates run out).
	if d.MeshedFrames() != total {
		t.Errorf("meshed %d != total released %d", d.MeshedFrames(), total)
	}
	if again := d.RunCycle(ctx); again > 10 {
		t.Errorf("meshing did not converge: %d new pairs on 6th cycle", again)
	}
}

// installedRemap reads the virtual→physical heap-frame mapping p resolves
// addresses through, one physical frame per virtual frame.
func installedRemap(p *pmop.Pool) []uint64 {
	heapOff, frames := p.HeapRange()
	base := p.PA(0) + heapOff // offsets below the heap are never remapped
	m := make([]uint64, frames)
	for f := range m {
		m[f] = (p.PA(heapOff+uint64(f)*alloc.FrameSize) - base) / alloc.FrameSize
	}
	return m
}

// pairedFrames returns every frame a mapping pairs: each remapped frame and
// the frame it maps to.
func pairedFrames(m []uint64) map[int]bool {
	paired := map[int]bool{}
	for f, ph := range m {
		if ph != uint64(f) {
			paired[f], paired[int(ph)] = true, true
		}
	}
	return paired
}

// TestRecoverAtEveryCycleSite crashes one RunCycle at each of its sites — the
// Sfences of the pair copies, then those of persist's table copy and
// generation flip — and once after it returns, under the drop and keep
// policies. Each crashed machine is reopened and recovered as a restart does:
// mesh.Recover installs the persisted table, core.Recover rebuilds the
// allocator through it, and RestoreFrameStates re-pins the pairs. The
// recovered mapping must be the old generation (identity) or the new one, and
// the new one from the first crash that recovers it on; every list element
// reads back; exactly the paired frames are FrameMeshed; and a following
// RunCycle pairs none of them.
func TestRecoverAtEveryCycleSite(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.CacheBytes = 128 * 1024
	m, err := machine.Build(machine.Spec{Name: "mesh", PoolBytes: 16 << 20, PageShift: 12, Sim: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	fragmentComplementary(t, m.Pool, m.Ctx)
	img := m.Capture()
	m.Release()            // a checkpoint is released after its source
	t.Cleanup(img.Release) // after the cleanups of its forks

	// The uncrashed cycle maps the new generation.
	ref, err := img.Fork()
	if err != nil {
		t.Fatal(err)
	}
	old := installedRemap(ref.Pool)
	released := mesh.New(ref.Pool).RunCycle(ref.Ctx)
	next := installedRemap(ref.Pool)
	ref.Release()
	if released == 0 {
		t.Fatal("the complementary heap meshed no pair")
	}

	for _, policy := range []struct {
		name string
		fate pmem.CrashPolicy
	}{{"drop", pmem.DropAllInflight}, {"keep", pmem.KeepAllInflight}} {
		olds := 0
		// The first site past the cycle's last crashes after RunCycle returns.
		for site := int64(0); ; site++ {
			crashed, d, after := crashCycleAt(t, img, site, policy.fate)
			got := installedRemap(crashed.Pool)
			switch {
			case slices.Equal(got, old) && olds == int(site):
				olds++
			case !slices.Equal(got, next):
				t.Fatalf("%s, site %d: recovered a mapping that is neither the old generation nor the new one, or the old after the new",
					policy.name, site)
			}
			checkRecovered(t, crashed, d, site)
			crashed.Release()
			if after {
				t.Logf("%s: %d pairs; crashes at sites 0..%d recover the old generation, at %d..%d the new",
					policy.name, released, olds-1, olds, site)
				if olds == 0 || olds > int(site) {
					t.Errorf("%s: the crashes recover only one generation", policy.name)
				}
				break
			}
		}
	}
}

// crashCycleAt forks img and crashes a RunCycle on it at site under policy,
// or after the cycle returns if it passes fewer sites (after reports which).
// It reopens the machine and installs the persisted mapping with
// mesh.Recover. The caller releases the machine; a failed test leaves that
// to the cleanup.
func crashCycleAt(t *testing.T, img *machine.Image, site int64, policy pmem.CrashPolicy) (m *machine.Machine, d *mesh.Defragmenter, after bool) {
	t.Helper()
	m, err := img.Fork()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Release)
	dev := m.Device()
	dev.ArmSites(site)
	after = pmem.CatchCrash(func() { mesh.New(m.Pool).RunCycle(m.Ctx) }) == nil
	dev.DisarmSites()
	dev.SetCrashPolicy(policy)
	dev.Crash()
	if err := m.Reopen(); err != nil {
		t.Fatal(err)
	}
	if d, err = mesh.Recover(m.Ctx, m.Pool); err != nil {
		t.Fatalf("site %d: %v", site, err)
	}
	return m, d, after
}

// checkRecovered finishes the restart of m, crashed at site, whose mapping d
// holds, and checks what TestRecoverAtEveryCycleSite says of it.
func checkRecovered(t *testing.T, m *machine.Machine, d *mesh.Defragmenter, site int64) {
	t.Helper()
	ctx := m.Ctx
	var err error
	if m.Eng, err = core.Recover(ctx, m.Pool, core.Options{}); err != nil {
		t.Fatalf("site %d: %v", site, err)
	}
	d.RestoreFrameStates()
	l, err := ds.NewList(ctx, m.Pool)
	if err != nil {
		t.Fatal(err)
	}
	readBack := func(when string) {
		for k := uint64(1); k < 3000; k += 2 {
			if v, ok := l.Get(ctx, k); !ok || v[0] != byte(k) {
				t.Fatalf("site %d: key %d unreadable %s", site, k, when)
			}
		}
	}
	readBack("after recovery")
	got := installedRemap(m.Pool)
	paired := pairedFrames(got)
	heap := m.Pool.Heap()
	for f := 0; f < heap.Frames(); f++ {
		if meshed := heap.State(f) == alloc.FrameMeshed; meshed != paired[f] {
			t.Fatalf("site %d: frame %d is meshed=%v, paired=%v", site, f, meshed, paired[f])
		}
	}
	d.RunCycle(ctx)
	for f, ph := range installedRemap(m.Pool) {
		if ph != got[f] && (paired[f] || paired[int(ph)]) {
			t.Fatalf("site %d: the next cycle pairs frame %d with %d, one of them already paired", site, f, ph)
		}
	}
	readBack("after the next cycle")
}

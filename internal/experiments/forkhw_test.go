package experiments

import (
	"reflect"
	"testing"

	"ffccd/internal/arch"
	"ffccd/internal/core"
	"ffccd/internal/sim"
	"ffccd/internal/workload"
)

// stubFwd answers every lookup with a fixed displacement, giving a warm
// PMFTLB something functional to delegate to during probes.
type stubFwd struct{}

func (stubFwd) LookupAddr(_ *sim.Ctx, src uint64) (uint64, bool) { return src + 64, true }

// probeCLU drives a unit through a fixed trace — same-page runs inside the
// bloom ranges plus pages outside every range — and returns the cycles the
// trace charged. Two units in identical states must charge identical cycles.
func probeCLU(u *arch.CheckLookupUnit, cfg *sim.Config, bs *arch.BloomSet) uint64 {
	ctx := sim.NewCtx(cfg)
	for i := 0; i < 96; i++ {
		va := uint64(0x40000) + uint64(i%6)<<arch.FrameShift + uint64(i)*8
		u.CheckLookup(ctx, va, bs, stubFwd{})
	}
	return ctx.Clock.Total()
}

// TestForkInsideOpenEpoch captures a machine image while a defragmentation
// epoch is open — RBB armed and mid-compaction, a warm checklookup unit
// parked on the GC context — and verifies that a fork's engine starts from
// exactly that architectural hot state: bit-identical RBB and CLU state, no
// unit on the application context, and identical probe cycles from the
// restored unit.
func TestForkInsideOpenEpoch(t *testing.T) {
	spec := Spec{Store: "LL", Threads: 1, Scheme: core.SchemeFFCCDCheckLookup,
		Scale: 0.001, PageShift: 12, Seed: 11}
	spec.Trigger, spec.Target = core.NormalParams()
	wl := wlFor(spec)
	m, err := newRunMachine(spec, wl)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	opt := core.Options{Scheme: spec.Scheme, TriggerRatio: spec.Trigger, TargetRatio: spec.Target}
	eng := m.NewEngine(opt)
	var r *workload.Runner
	opened := false
	wl.Maintenance = func() {
		if opened || m.Pool.Heap().Frag(spec.PageShift).FragRatio <= spec.Trigger {
			return
		}
		if eng.BeginCycle(m.GC) {
			opened = true
			r.RequestStop()
		}
	}
	r = workload.NewRunner(m.Ctx, m.Pool, m.Store, wl)
	if _, finished, err := r.Run(); err != nil {
		t.Fatal(err)
	} else if finished || !opened {
		t.Fatalf("workload never opened an epoch (finished=%v opened=%v)", finished, opened)
	}

	// Mid-epoch: advance compaction so the RBB holds live state, and park a
	// warm checklookup unit on the GC context.
	eng.StepCompaction(m.GC, 50_000)
	if eng.RBB() == nil {
		t.Fatal("checklookup-scheme engine has no RBB")
	}
	bs := arch.NewBloomSetFromPages(
		[]uint64{0x40000, 0x40000 + 1<<arch.FrameShift, 0x40000 + 2<<arch.FrameShift}, 2, 256)
	warm := arch.NewCheckLookupUnit(&m.Cfg)
	probeCLU(warm, &m.Cfg, bs)
	m.GC.HW = warm

	img := m.Capture()
	fork, err := img.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer fork.Release()
	eng2 := fork.NewEngine(opt)

	if got, want := eng2.RBB().Checkpoint(), eng.RBB().Checkpoint(); !reflect.DeepEqual(got, want) {
		t.Errorf("restored RBB state diverges:\n  got  %+v\n  want %+v", got, want)
	}
	u2, ok := fork.GC.HW.(*arch.CheckLookupUnit)
	if !ok {
		t.Fatal("the fork's engine did not attach a checklookup unit to the GC context")
	}
	if got, want := u2.Checkpoint(), warm.Checkpoint(); !reflect.DeepEqual(got, want) {
		t.Errorf("restored checklookup unit diverges:\n  got  %+v\n  want %+v", got, want)
	}
	if fork.Ctx.HW != nil {
		t.Fatal("phantom app-context checklookup unit restored")
	}
	// From identical state, identical behaviour: the source unit and its
	// restored copy must charge the same cycles for the same probe trace.
	if a, b := probeCLU(warm, &m.Cfg, bs), probeCLU(u2, &fork.Cfg, bs); a != b {
		t.Errorf("probe cycles diverge: source %d, restored %d", a, b)
	}
}

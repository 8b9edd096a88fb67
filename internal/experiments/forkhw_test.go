package experiments

import (
	"reflect"
	"testing"

	"ffccd/internal/arch"
	"ffccd/internal/core"
	"ffccd/internal/ds"
	"ffccd/internal/kv"
	"ffccd/internal/pmop"
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

// TestForkInsideOpenEpoch captures a machine checkpoint while a
// defragmentation epoch is open — RBB armed and mid-compaction, a warm
// checklookup unit parked on the GC context — and verifies the checkpoint
// carries the architectural hot state and that restoreHW replants it exactly:
// bit-identical RBB and CLU state, and identical probe cycles from the
// restored unit.
func TestForkInsideOpenEpoch(t *testing.T) {
	spec := Spec{Store: "LL", Threads: 1, Scheme: core.SchemeFFCCDCheckLookup,
		Scale: 0.001, PageShift: 12, Seed: 11}
	spec.Trigger, spec.Target = core.NormalParams()
	wl := wlFor(spec)
	env, err := NewEnv(poolSizeFor(wl), spec.PageShift)
	if err != nil {
		t.Fatal(err)
	}
	store, err := BuildStore(env.Ctx, env.Pool, spec.Store, wl)
	if err != nil {
		t.Fatal(err)
	}
	gcCtx := sim.NewCtx(&env.Cfg)
	eng := core.NewEngine(env.Pool, core.Options{
		Scheme: spec.Scheme, TriggerRatio: spec.Trigger,
		TargetRatio: spec.Target, BatchObjects: 64,
	})
	var r *workload.Runner
	opened := false
	wl.Maintenance = func() {
		if opened || env.Pool.Heap().Frag(spec.PageShift).FragRatio <= spec.Trigger {
			return
		}
		if eng.BeginCycle(gcCtx) {
			opened = true
			r.RequestStop()
		}
	}
	r = workload.NewRunner(env.Ctx, env.Pool, store, wl)
	if _, finished, err := r.Run(); err != nil {
		t.Fatal(err)
	} else if finished || !opened {
		t.Fatalf("workload never opened an epoch (finished=%v opened=%v)", finished, opened)
	}

	// Mid-epoch: advance compaction so the RBB holds live state, and park a
	// warm checklookup unit on the GC context.
	eng.StepCompaction(gcCtx, 50_000)
	if eng.RBB() == nil {
		t.Fatal("checklookup-scheme engine has no RBB")
	}
	bs := arch.NewBloomSetFromPages(
		[]uint64{0x40000, 0x40000 + 1<<arch.FrameShift, 0x40000 + 2<<arch.FrameShift}, 2, 256)
	warm := arch.NewCheckLookupUnit(&env.Cfg)
	probeCLU(warm, &env.Cfg, bs)
	gcCtx.HW = warm

	var chk machineCheckpoint
	captureMachine(&chk, env, gcCtx, eng)
	if chk.rbb == nil {
		t.Fatal("machine checkpoint missed the RBB")
	}
	if chk.gcCLU == nil {
		t.Fatal("machine checkpoint missed the GC context's checklookup unit")
	}
	if chk.appCLU != nil {
		t.Fatal("phantom app-context checklookup unit captured")
	}

	// Restore into a brand-new machine, runFork-style.
	cfg := sim.DefaultConfig()
	reg := pmop.NewRegistry()
	ds.RegisterTypes(reg)
	kv.RegisterTypes(reg)
	_, pool, err := chk.img.Fork(&cfg, "bench", reg)
	if err != nil {
		t.Fatal(err)
	}
	dev := pool.Device()
	ctx2 := sim.NewCtx(&cfg)
	ctx2.Restore(&chk.appCtx)
	gcCtx2 := sim.NewCtx(&cfg)
	gcCtx2.Restore(&chk.gcCtx)
	eng2 := core.NewEngine(pool, core.Options{
		Scheme: spec.Scheme, TriggerRatio: spec.Trigger,
		TargetRatio: spec.Target, BatchObjects: 64,
	})
	restoreHW(&chk, eng2, ctx2, gcCtx2)

	if got := eng2.RBB().Checkpoint(); !reflect.DeepEqual(got, chk.rbb) {
		t.Errorf("restored RBB state diverges:\n  got  %+v\n  want %+v", got, chk.rbb)
	}
	u2, ok := gcCtx2.HW.(*arch.CheckLookupUnit)
	if !ok {
		t.Fatal("restoreHW did not attach a checklookup unit to the GC context")
	}
	if got := u2.Checkpoint(); !reflect.DeepEqual(got, chk.gcCLU) {
		t.Errorf("restored checklookup unit diverges:\n  got  %+v\n  want %+v", got, chk.gcCLU)
	}
	// From identical state, identical behaviour: the source unit and its
	// restored copy must charge the same cycles for the same probe trace.
	if a, b := probeCLU(warm, &env.Cfg, bs), probeCLU(u2, &cfg, bs); a != b {
		t.Errorf("probe cycles diverge: source %d, restored %d", a, b)
	}
	dev.ReleaseMedia()
	env.RT.Device().ReleaseMedia()
}

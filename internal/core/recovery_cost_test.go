package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"

	"ffccd/internal/obsv"
	"ffccd/internal/pmop"
)

// crashedEpochRecovery builds one fixed live set on a pool of poolBytes, opens
// an FFCCD epoch on it, moves a third of the epoch, loses power and recovers
// under opt. It returns the recovered engine, the stage labels the progress
// hook saw and the cycles Recover charged the driver's clock.
func crashedEpochRecovery(t *testing.T, poolBytes uint64, opt Options) (*Engine, []string, uint64) {
	t.Helper()
	fx := buildRandomHeapIn(t, poolBytes, 4, 12, 400, 3, 200)
	opt.Scheme = SchemeFFCCD
	e := NewEngine(fx.p, opt)
	ep := e.prepare(fx.ctx)
	if ep == nil {
		t.Fatal("no epoch")
	}
	e.StepCompaction(fx.ctx, len(ep.objects)/3)
	fx.rt.Device().Crash()
	e.RBB().PowerLossFlush()
	rt, err := pmop.Attach(fx.cfg, fx.rt.Device())
	if err != nil {
		t.Fatal(err)
	}
	p, err := rt.Open("frag", testRegistry())
	if err != nil {
		t.Fatal(err)
	}
	var stages []string
	opt.RecoveryProgress = func(s string) { stages = append(stages, s) }
	before := fx.ctx.Clock.Total()
	e2, err := Recover(fx.ctx, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	charged := fx.ctx.Clock.Total() - before
	t.Cleanup(e2.Close)
	checkVarList(t, p, fx.ctx, fx.n)
	return e2, stages, charged
}

// TestRecoveryCostAccountsForRecover: the per-stage cost covers every cycle
// Recover charged (rebuild's share is host work, zero cycles), one stage per
// progress label, and reading it charges nothing — the same recovery with observability on costs the same, and its
// "recovery" group reports the same numbers.
func TestRecoveryCostAccountsForRecover(t *testing.T) {
	opt := DefaultOptions()
	plain, stages, charged := crashedEpochRecovery(t, 16<<20, opt)
	want := append(RecoveryStages[:], "done")
	if !slices.Equal(stages, want) {
		t.Fatalf("progress labels %v, want %v", stages, want)
	}
	cost := plain.RecoveryCost()
	if cost.Total() != charged {
		t.Fatalf("stages sum to %d cycles, Recover charged %d", cost.Total(), charged)
	}
	opt.Obs = obsv.New(0)
	observed, _, obsCharged := crashedEpochRecovery(t, 16<<20, opt)
	if obsCharged != charged || observed.RecoveryCost() != cost {
		t.Fatalf("observed recovery charged %d cycles (%v), unobserved %d (%v)",
			obsCharged, observed.RecoveryCost(), charged, cost)
	}
	groups := opt.Obs.Metrics.Snapshot().Groups
	i := slices.IndexFunc(groups, func(g obsv.GroupSnapshot) bool { return g.Name == "recovery" })
	if i < 0 {
		t.Fatal("no recovery group in the metrics snapshot")
	}
	byStage := cost.Map()
	if g := groups[i]; len(g.Keys) != len(byStage) {
		t.Errorf("recovery group keys %v, want %d stages", g.Keys, len(byStage))
	}
	for j, k := range groups[i].Keys {
		if got := groups[i].Vals[j]; got != byStage[k] {
			t.Errorf("recovery.%s = %d, want %d", k, got, byStage[k])
		}
	}
}

// TestRecoveryCostIndependentOfCapacity recovers the same interrupted epoch
// of the same live set from pools of 16, 64 and 128 MB: the load stage must
// cost the same within 10 %, because loadEpoch reads the frames the epoch
// moved, not every PMFT entry. -v prints the per-stage table.
func TestRecoveryCostIndependentOfCapacity(t *testing.T) {
	sizes := []uint64{16 << 20, 64 << 20, 128 << 20}
	costs := make([]RecoveryCost, len(sizes))
	for i, size := range sizes {
		e, _, _ := crashedEpochRecovery(t, size, DefaultOptions())
		costs[i] = e.RecoveryCost()
	}
	var b strings.Builder
	row := func(label string, cell func(RecoveryCost) uint64) {
		fmt.Fprintf(&b, "\n%-9s", label)
		for _, c := range costs {
			fmt.Fprintf(&b, " %11d", cell(c))
		}
	}
	fmt.Fprintf(&b, "%-9s", "cycles")
	for _, size := range sizes {
		fmt.Fprintf(&b, " %8d MB", size>>20)
	}
	for i, stage := range RecoveryStages {
		row(stage, func(c RecoveryCost) uint64 { return c[i] })
	}
	row("total", RecoveryCost.Total)
	t.Log("per-stage recovery cycles:\n" + b.String())

	load := func(c RecoveryCost) uint64 { return c[slices.Index(RecoveryStages[:], "load")] }
	lo := slices.MinFunc(costs, func(a, b RecoveryCost) int { return cmp.Compare(load(a), load(b)) })
	hi := slices.MaxFunc(costs, func(a, b RecoveryCost) int { return cmp.Compare(load(a), load(b)) })
	if float64(load(hi)) > 1.1*float64(load(lo)) {
		t.Errorf("load stage costs %d to %d cycles across pool sizes: it scales with capacity", load(lo), load(hi))
	}
}

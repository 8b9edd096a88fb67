package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"ffccd/internal/core"
	"ffccd/internal/workpool"
)

// sameSimulatedMachine fails the test unless two outcomes agree on every
// simulated observable: per-category cycle totals,
// device counters, engine counters, op counts and frag ratios. Engine
// counters match because the fork driver folds the prefix engine's
// pre-divergence bookkeeping (failed-attempt leak reclamation) into each
// forked outcome.
func sameSimulatedMachine(t *testing.T, label string, scratch, fork Outcome) {
	t.Helper()
	if scratch.Cycles != fork.Cycles {
		t.Errorf("%s: cycle totals diverge\n  scratch %v\n  fork    %v", label, scratch.Cycles, fork.Cycles)
	}
	if scratch.Device != fork.Device {
		t.Errorf("%s: device counters diverge\n  scratch %+v\n  fork    %+v", label, scratch.Device, fork.Device)
	}
	if scratch.Engine != fork.Engine {
		t.Errorf("%s: engine counters diverge\n  scratch %+v\n  fork    %+v", label, scratch.Engine, fork.Engine)
	}
	if scratch.TotalOps != fork.TotalOps {
		t.Errorf("%s: total ops diverge: %d vs %d", label, scratch.TotalOps, fork.TotalOps)
	}
	if scratch.AvgFootprintMB != fork.AvgFootprintMB || scratch.AvgLiveMB != fork.AvgLiveMB {
		t.Errorf("%s: footprint diverges: %v/%v vs %v/%v", label,
			scratch.AvgFootprintMB, scratch.AvgLiveMB, fork.AvgFootprintMB, fork.AvgLiveMB)
	}
}

// TestForkMatchesScratch is the randomized property test for the fork
// driver: for arbitrary (store, scheme, scale, seed, trigger, page size)
// specs, a two-copy fork group (one prefix, two forks) must be bit-identical
// to running the workload from scratch.
func TestForkMatchesScratch(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	stores := []string{"LL", "AVL", "SS", "BT", "RBT", "BzTree", "FPTree", "Echo", "pmemkv"}
	schemes := []core.Scheme{core.SchemeEspresso, core.SchemeSFCCD,
		core.SchemeFFCCD, core.SchemeFFCCDCheckLookup}
	rng := rand.New(rand.NewSource(20260805))
	const cases = 10
	for n := 0; n < cases; n++ {
		spec := Spec{
			Store:     stores[rng.Intn(len(stores))],
			Threads:   1,
			Scheme:    schemes[rng.Intn(len(schemes))],
			Scale:     []float64{0.001, 0.002}[rng.Intn(2)],
			PageShift: []uint{12, 14}[rng.Intn(2)],
			Seed:      int64(rng.Intn(1000)),
		}
		if rng.Intn(2) == 0 {
			spec.Trigger, spec.Target = core.NormalParams()
		} else {
			spec.Trigger, spec.Target = core.RelaxedParams()
		}
		name := fmt.Sprintf("%s_%s_s%g_sh%d_seed%d_t%g",
			spec.Store, spec.Scheme, spec.Scale, spec.PageShift, spec.Seed, spec.Trigger)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			scratch, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			forks, err := RunSpecsForked([]Spec{spec, spec})
			if err != nil {
				t.Fatal(err)
			}
			for _, fork := range forks {
				sameSimulatedMachine(t, name, scratch, fork)
			}
		})
	}
}

// TestRunSpecsForkedMatchesRunSpecs pins the grouped driver end to end: a
// breakdown-shaped grid (baseline + full scheme axis per cell) must come
// back in spec order with every outcome bit-identical to the scratch
// driver's, and must actually have exercised the fork path.
func TestRunSpecsForkedMatchesRunSpecs(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	var specs []Spec
	for _, store := range []string{"LL", "SS"} {
		base := Spec{Store: store, Threads: 1, Scheme: core.SchemeNone,
			Scale: 0.002, PageShift: 12, Seed: 11}
		specs = append(specs, base)
		for _, scheme := range allSchemes {
			s := base
			s.Scheme = scheme
			s.Trigger, s.Target = core.NormalParams()
			specs = append(specs, s)
		}
	}
	scratch, err := RunSpecs(specs)
	if err != nil {
		t.Fatal(err)
	}
	ResetForkCounters()
	forked, err := RunSpecsForked(specs)
	if err != nil {
		t.Fatal(err)
	}
	prefixes, checkpoints, forks := ForkCounters()
	if len(forked) != len(specs) {
		t.Fatalf("got %d outcomes for %d specs", len(forked), len(specs))
	}
	for i := range specs {
		if forked[i].Spec != specs[i] {
			t.Errorf("outcome %d carries spec %+v, want %+v", i, forked[i].Spec, specs[i])
		}
		sameSimulatedMachine(t, fmt.Sprintf("spec %d (%s/%s)", i, specs[i].Store, specs[i].Scheme),
			scratch[i], forked[i])
	}
	// Both cells' scheme axes group; whether each group forks or completes
	// its prefix depends on the workload, but prefixes must have been built.
	if prefixes != 2 {
		t.Errorf("prefixes built = %d, want 2", prefixes)
	}
	t.Logf("fork counters: prefixes=%d checkpoints=%d forks=%d", prefixes, checkpoints, forks)
}

// fig14Cell is one Figure 14 cell: store's run under each scheme, which
// RunSpecsForked runs as one fork group.
func fig14Cell(store string, scale float64) []Spec {
	var specs []Spec
	for _, scheme := range allSchemes {
		s := Spec{Store: store, Threads: 1, Scheme: scheme, Scale: scale, PageShift: 12, Seed: 11}
		s.Trigger, s.Target = core.NormalParams()
		specs = append(specs, s)
	}
	return specs
}

// TestRunSpecsForkedWarmMatchesCold runs an LL and an AVL cell twice in one
// process. The second run captures into the images the first released and
// forks onto the pages and arrays its machines gave back, and must give
// bit-identical outcomes.
func TestRunSpecsForkedWarmMatchesCold(t *testing.T) {
	specs := append(fig14Cell("LL", testScale), fig14Cell("AVL", testScale)...)
	ResetForkCounters()
	cold, err := RunSpecsForked(specs)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, forks := ForkCounters(); forks == 0 {
		t.Fatal("no run forked: the test is vacuous")
	}
	warm, err := RunSpecsForked(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if warm[i] != cold[i] {
			t.Errorf("%s/%s: warm outcome %+v, cold %+v", specs[i].Store, specs[i].Scheme, warm[i], cold[i])
		}
	}
}

// TestWarmForkGroupAllocBudget runs an LL cell's fork group warm, on one
// worker, and fails if it allocates over the budget: a group that keeps its
// image — its pages, set blocks and heap tables — instead of handing it to
// the next group's capture allocates them again every time.
func TestWarmForkGroupAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector enlarges every allocation")
	}
	defer workpool.SetParallelism(workpool.Parallelism())
	workpool.SetParallelism(1)
	specs := fig14Cell("LL", testScale)
	for range 2 {
		if _, err := RunSpecsForked(specs); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if _, err := RunSpecsForked(specs); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d B per warm fork group (budget %d)", per, forkGroupAllocBudget)
	if per > forkGroupAllocBudget {
		t.Errorf("a warm fork group allocates %d B, budget %d B: an image, its pages or a machine's arrays are no longer handed on", per, forkGroupAllocBudget)
	}
}

// forkGroupAllocBudget bounds what one warm LL fork group allocates at the
// test scale: it makes 1.94 MB, and 3.44 MB when the group keeps its image.
const forkGroupAllocBudget = 2_300_000

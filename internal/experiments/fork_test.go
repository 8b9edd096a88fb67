package experiments

import (
	"fmt"
	"math/rand"
	"testing"

	"ffccd/internal/core"
)

// sameSimulatedMachine fails the test unless two outcomes agree on every
// simulated observable the golden contract pins: per-category cycle totals,
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
// specs, running the workload through buildPrefix+runFork must be
// bit-identical to running it from scratch.
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
			fork, err := runForked(spec)
			if err != nil {
				t.Fatal(err)
			}
			sameSimulatedMachine(t, name, scratch, fork)
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

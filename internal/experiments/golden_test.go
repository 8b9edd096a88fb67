package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ffccd/internal/core"
	"ffccd/internal/obsv"
	"ffccd/internal/workpool"
)

// updateGolden rewrites testdata/golden_cycles.json from the current
// simulator instead of comparing against it:
//
//	go test ./internal/experiments/ -run TestGoldenCycles -args -update-golden
//
// Only for INTENTIONAL sequence changes (the counter-based workload RNG that
// replaced the math/rand source is the canonical example — the workload's
// random stream changed, so every pinned cycle total moved). Regeneration
// still demands scratch/fork bit-identity on the new sequence before
// writing: a golden that the two execution paths disagree on pins nothing.
var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden_cycles.json from the current simulator")

// goldenRun mirrors one entry of testdata/golden_cycles.json — the exact
// per-category cycle totals and device counters captured before the host-side
// performance refactor (sharded stats, per-set in-flight state,
// allocation-free relocate). The simulated machine must keep producing these
// numbers bit-for-bit: host optimisations may change wall-clock, never cycles.
type goldenRun struct {
	Store        string   `json:"store"`
	Scheme       string   `json:"scheme"`
	Threads      int      `json:"threads"`
	Scale        float64  `json:"scale"`
	PageShift    uint     `json:"page_shift"`
	Seed         int64    `json:"seed"`
	Trigger      float64  `json:"trigger"`
	Target       float64  `json:"target"`
	Cycles       []uint64 `json:"cycles"`
	FragRatio    string   `json:"frag_ratio"`
	Loads        uint64   `json:"loads"`
	Stores       uint64   `json:"stores"`
	MediaWrites  uint64   `json:"media_writes"`
	MediaReads   uint64   `json:"media_reads"`
	Clwbs        uint64   `json:"clwbs"`
	Sfences      uint64   `json:"sfences"`
	RelocateOps  uint64   `json:"relocate_ops"`
	PendingReach uint64   `json:"pending_reach"`
}

func schemeByName(name string) (core.Scheme, bool) {
	for s := core.SchemeNone; s <= core.SchemeFFCCDCheckLookup; s++ {
		if s.String() == name {
			return s, true
		}
	}
	return 0, false
}

// TestGoldenCycles replays the committed pre-refactor runs and demands
// byte-identical simulated results. Any drift here means a host-side change
// leaked into simulation semantics.
func TestGoldenCycles(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "golden_cycles.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden []goldenRun
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	if len(golden) == 0 {
		t.Fatal("empty golden file")
	}
	// Run every golden spec with observability ENABLED. Tracing and metrics
	// read simulated clocks but never charge them, so the goldens must hold
	// bit-for-bit with a collector installed — this is the package's
	// non-perturbation contract under its heaviest consumer.
	col := obsv.NewCollector(0)
	SetObsCollector(col)
	t.Cleanup(func() { SetObsCollector(nil) })
	if *updateGolden {
		regenerateGolden(t, golden)
		return
	}
	for _, g := range golden {
		g := g
		name := fmt.Sprintf("%s_%s_shift%d_seed%d", g.Store, g.Scheme, g.PageShift, g.Seed)
		scheme, ok := schemeByName(g.Scheme)
		if !ok {
			t.Fatalf("unknown scheme %q", g.Scheme)
		}
		spec := Spec{
			Store: g.Store, Threads: g.Threads, Scheme: scheme,
			Trigger: g.Trigger, Target: g.Target,
			Scale: g.Scale, PageShift: g.PageShift, Seed: g.Seed,
		}
		// Every golden spec must reproduce through both execution paths:
		// from scratch, and via the checkpoint/fork driver.
		t.Run(name+"/scratch", func(t *testing.T) {
			t.Parallel()
			out, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, out, g)
		})
		t.Run(name+"/fork", func(t *testing.T) {
			t.Parallel()
			out, err := runForked(spec)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, out, g)
		})
	}
}

// regenerateGolden re-runs every golden spec through BOTH execution paths,
// demands they agree bit-for-bit, and rewrites the file with the scratch
// path's numbers. The spec fields (store, scheme, scale, seed, …) are kept;
// only the pinned measurements move.
func regenerateGolden(t *testing.T, golden []goldenRun) {
	for i := range golden {
		g := &golden[i]
		scheme, ok := schemeByName(g.Scheme)
		if !ok {
			t.Fatalf("unknown scheme %q", g.Scheme)
		}
		spec := Spec{
			Store: g.Store, Threads: g.Threads, Scheme: scheme,
			Trigger: g.Trigger, Target: g.Target,
			Scale: g.Scale, PageShift: g.PageShift, Seed: g.Seed,
		}
		scratch, err := Run(spec)
		if err != nil {
			t.Fatalf("%s/%s: scratch run: %v", g.Store, g.Scheme, err)
		}
		forked, err := runForked(spec)
		if err != nil {
			t.Fatalf("%s/%s: forked run: %v", g.Store, g.Scheme, err)
		}
		if scratch.Cycles != forked.Cycles || scratch.Device != forked.Device {
			t.Fatalf("%s/%s: scratch and fork disagree on the new sequence:\n  scratch %v %+v\n  fork    %v %+v",
				g.Store, g.Scheme, scratch.Cycles, scratch.Device, forked.Cycles, forked.Device)
		}
		g.Cycles = scratch.Cycles[:]
		g.FragRatio = fmt.Sprintf("%.9f", scratch.FragRatio())
		dev := scratch.Device
		g.Loads, g.Stores = dev.Loads, dev.Stores
		g.MediaWrites, g.MediaReads = dev.MediaWrites, dev.MediaReads
		g.Clwbs, g.Sfences = dev.Clwbs, dev.Sfences
		g.RelocateOps, g.PendingReach = dev.RelocateOps, dev.PendingReach
		t.Logf("regenerated %s/%s seed %d", g.Store, g.Scheme, g.Seed)
	}
	out, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden_cycles.json")
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d specs)", path, len(golden))
}

// checkGolden compares an outcome against one golden entry.
func checkGolden(t *testing.T, out Outcome, g goldenRun) {
	t.Helper()
	for cat, want := range g.Cycles {
		if got := out.Cycles[cat]; got != want {
			t.Errorf("cycles[%d] = %d, golden %d", cat, got, want)
		}
	}
	if got := fmt.Sprintf("%.9f", out.FragRatio()); got != g.FragRatio {
		t.Errorf("fragRatio = %s, golden %s", got, g.FragRatio)
	}
	dev := out.Device
	counters := []struct {
		name string
		got  uint64
		want uint64
	}{
		{"loads", dev.Loads, g.Loads},
		{"stores", dev.Stores, g.Stores},
		{"mediaWrites", dev.MediaWrites, g.MediaWrites},
		{"mediaReads", dev.MediaReads, g.MediaReads},
		{"clwbs", dev.Clwbs, g.Clwbs},
		{"sfences", dev.Sfences, g.Sfences},
		{"relocateOps", dev.RelocateOps, g.RelocateOps},
		{"pendingReach", dev.PendingReach, g.PendingReach},
	}
	for _, c := range counters {
		if c.got != c.want {
			t.Errorf("device.%s = %d, golden %d", c.name, c.got, c.want)
		}
	}
}

// TestTracingDoesNotPerturb runs the same spec with observability off and
// on and demands identical simulated results, while also proving the trace
// actually recorded activity (an accidentally-dead tracer would make the
// comparison vacuous). A 4-thread spec runs too: its threads are runners
// interleaved in a fixed order, so it carries the same repeatability
// contract as a 1-thread one.
func TestTracingDoesNotPerturb(t *testing.T) {
	for _, spec := range []Spec{
		{Store: "SS", Threads: 1, Scheme: core.SchemeFFCCDCheckLookup, Scale: 0.001, PageShift: 12, Seed: 5},
		{Store: "BzTree", Threads: 4, Scheme: core.SchemeFFCCDCheckLookup, Scale: 0.001, PageShift: 12, Seed: 5},
	} {
		spec.Trigger, spec.Target = core.NormalParams()
		t.Run(fmt.Sprintf("%s/%dT", spec.Store, spec.Threads), func(t *testing.T) {
			tracingDoesNotPerturb(t, spec)
		})
	}
}

func tracingDoesNotPerturb(t *testing.T, spec Spec) {
	SetObsCollector(nil)
	off, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}

	col := obsv.NewCollector(0)
	SetObsCollector(col)
	defer SetObsCollector(nil)
	on, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}

	if off.Cycles != on.Cycles {
		t.Errorf("tracing perturbed cycles:\n  off %v\n  on  %v", off.Cycles, on.Cycles)
	}
	if off.Device != on.Device {
		t.Errorf("tracing perturbed device counters:\n  off %+v\n  on  %+v", off.Device, on.Device)
	}
	if off.Engine != on.Engine {
		t.Errorf("tracing perturbed engine counters:\n  off %+v\n  on  %+v", off.Engine, on.Engine)
	}
	// The tracer and the STW pause histogram must both have recorded
	// activity — they share the non-perturbation contract this test pins.
	_, procs := col.Processes()
	var events, pauses uint64
	stwSpans, epochSpans := 0, 0
	for _, o := range procs {
		events += o.Tracer.EventCount()
		for _, h := range o.Metrics.Snapshot().Hists {
			if h.Name == "stw_pause_cycles" {
				pauses += h.Count
			}
		}
		for _, b := range o.Tracer.Threads() {
			for _, e := range b.Events() {
				if e.Kind != obsv.KindSTW && e.Kind != obsv.KindEpoch {
					continue
				}
				if e.End <= e.Start {
					t.Errorf("degenerate %s span %+v", e.Kind, e)
				}
				if e.Kind == obsv.KindSTW {
					stwSpans++
				} else {
					epochSpans++
				}
			}
		}
	}
	if events == 0 {
		t.Error("collector recorded no trace events — tracer was dead, comparison vacuous")
	}
	if pauses == 0 {
		t.Error("no STW pauses recorded; FFCCD run should have triggered epochs")
	}
	if stwSpans == 0 || epochSpans == 0 {
		t.Errorf("GC spans missing (stw=%d epoch=%d); span taps were dead", stwSpans, epochSpans)
	}
}

// TestCycleDeterminism runs each spec twice at each of two worker-pool sizes
// in one process and demands identical outcomes: cycle totals, device and
// engine counters, footprints. This pins the deterministic drain order of the
// per-set in-flight state — map-iteration or scheduling nondeterminism
// anywhere in the device would show up here as cycle drift — and, for the
// 4-thread spec, the fixed interleaving of its threads.
func TestCycleDeterminism(t *testing.T) {
	for _, spec := range []Spec{
		{Store: "LL", Threads: 1, Scheme: core.SchemeFFCCDCheckLookup, Scale: 0.001, PageShift: 12, Seed: 7},
		{Store: "FPTree", Threads: 4, Scheme: core.SchemeFFCCDCheckLookup, Scale: 0.001, PageShift: 12, Seed: 7},
	} {
		spec.Trigger, spec.Target = core.NormalParams()
		t.Run(fmt.Sprintf("%s/%dT", spec.Store, spec.Threads), func(t *testing.T) {
			var outs []Outcome
			prev := workpool.Parallelism()
			defer workpool.SetParallelism(prev)
			for _, workers := range []int{1, 4} {
				workpool.SetParallelism(workers)
				got, err := RunSpecs([]Spec{spec, spec})
				if err != nil {
					t.Fatal(err)
				}
				outs = append(outs, got...)
			}
			for i, o := range outs[1:] {
				if o != outs[0] {
					t.Errorf("run %d differs from run 0 (runs 0-1 on 1 worker, 2-3 on 4):\n  %+v\n  %+v", i+1, outs[0], o)
				}
			}
		})
	}
}

package experiments

import (
	"fmt"
	"testing"

	"ffccd/internal/core"
	"ffccd/internal/obsv"
	"ffccd/internal/workpool"
)

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

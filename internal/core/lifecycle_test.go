package core_test

import (
	"testing"

	"ffccd/internal/core"
	"ffccd/internal/machine"
	"ffccd/internal/obsv"
)

// TestRunCycleSTWIsRunCycleInOnePause forks two machines per scheme from one
// fragmented image and runs RunCycle on one, RunCycleSTW on the other. The
// simulated machines must end the same — every clock category of the cycle's
// context and the engine's, the engine and device counters and the media —
// and the pause RunCycleSTW returns must be exactly what it charged. With
// observability on, a concurrent cycle records two pauses (mark+summary,
// terminate) and an STW cycle one, as long as the returned pause; every
// stw_pause_cycles observation has its KindSTW span.
func TestRunCycleSTWIsRunCycleInOnePause(t *testing.T) {
	img := fragmentedMachine(t, 3000).Capture()
	for _, s := range []core.Scheme{core.SchemeEspresso, core.SchemeSFCCD, core.SchemeFFCCD, core.SchemeFFCCDCheckLookup} {
		t.Run(s.String(), func(t *testing.T) {
			// run forks a machine and runs cycle on it under observability;
			// it returns the machine's outcome, the KindSTW span lengths and
			// the stw_pause_cycles observation count.
			run := func(cycle func(*machine.Machine) bool) (outcome, []uint64, uint64) {
				m, err := img.Fork()
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(m.Release)
				o := obsv.New(0)
				opt := core.DefaultOptions()
				opt.Scheme, opt.TargetRatio, opt.Obs = s, 1, o
				m.NewEngine(opt)
				if !cycle(m) {
					t.Fatal("no cycle ran")
				}
				var spans []uint64
				for _, b := range o.Tracer.Threads() {
					for _, e := range b.Events() {
						if e.Kind == obsv.KindSTW {
							spans = append(spans, e.End-e.Start)
						}
					}
				}
				return outcomeOf(m), spans, o.Metrics.Hist("stw_pause_cycles").Count()
			}

			conc, concSpans, concPauses := run(func(m *machine.Machine) bool { return m.Eng.RunCycle(m.Ctx) })
			var pause, charged uint64
			stw, stwSpans, stwPauses := run(func(m *machine.Machine) bool {
				before := m.Ctx.Clock.Total()
				pause, _ = m.Eng.RunCycleSTW(m.Ctx)
				charged = m.Ctx.Clock.Total() - before
				return pause > 0
			})
			if stw != conc {
				t.Errorf("RunCycleSTW's machine differs from RunCycle's:\n  stw  %+v\n  conc %+v", stw, conc)
			}
			if stw.engine.Cycles != 1 || stw.engine.ObjectsMoved == 0 {
				t.Errorf("one cycle left Stats() = %+v", stw.engine)
			}
			if pause != charged {
				t.Errorf("RunCycleSTW returned a pause of %d cycles and charged %d", pause, charged)
			}
			if concPauses != 2 || len(concSpans) != 2 {
				t.Errorf("a concurrent cycle recorded %d pauses and %d KindSTW spans, want 2 and 2", concPauses, len(concSpans))
			}
			if stwPauses != 1 || len(stwSpans) != 1 || stwSpans[0] != pause {
				t.Errorf("an STW cycle recorded %d pauses and KindSTW spans %v, want 1 and [%d]", stwPauses, stwSpans, pause)
			}
		})
	}
}

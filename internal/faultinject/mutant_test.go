package faultinject

import (
	"testing"

	"ffccd/internal/core"
)

// TestCampaignKillsNamedMutants puts each named mutant back into the engine
// and runs the batch campaign at make crashmatrix's budget (seed 1, 56 sites,
// 16 nested) on a setting that exercises the mutated code: the campaign must
// report a failing schedule. The settings are the cheapest of those that
// kill each mutant in the full matrix (EXPERIMENTS.md §7.1). A mutant no
// setting kills is a hole in the campaign's coverage: it is listed in holes
// with the reason, and must still survive there, so a campaign that closes
// the hole moves it to killer.
func TestCampaignKillsNamedMutants(t *testing.T) {
	killer := map[core.Mutant]string{
		core.MutantNoTombstone:    "LL/1T/sfccd",
		core.MutantUndoAfterFixup: "BT/1T/sfccd",
		core.MutantReachedEarly:   "AVL/1T/ffccd",
	}
	// A trial runs no epoch after its recovery, so a summary crashed before
	// its flip is never followed by the epoch that would reuse its number.
	holes := map[core.Mutant]string{
		core.MutantEpochPastPhaseOnly: "LL/1T/ffccd",
	}
	co := CampaignOptions{Seed: 1, MaxSites: 56, Nested: true, MaxNested: 16}
	// explore runs the named setting's campaign with m in every engine.
	explore := func(m core.Mutant, name string) CampaignOutcome {
		setting, err := ParseSetting(name)
		if err != nil {
			t.Fatal(err)
		}
		core.SetMutant(m)
		defer core.SetMutant("")
		return ExploreSetting(setting, co)
	}
	for _, m := range core.Mutants {
		if name, ok := holes[m]; ok {
			if out := explore(m, name); len(out.Failures) > 0 {
				t.Errorf("mutant %s, a recorded coverage hole, fails %s's campaign: move it to killer", m, name)
			}
			continue
		}
		name, ok := killer[m]
		if !ok {
			t.Errorf("mutant %s has no setting that kills it", m)
			continue
		}
		if out := explore("", name); out.Skipped || len(out.Failures) > 0 {
			t.Fatalf("%s fails without a mutant: skipped=%v, %d failures", name, out.Skipped, len(out.Failures))
		}
		out := explore(m, name)
		if len(out.Failures) == 0 {
			t.Errorf("mutant %s survives %s's campaign (%d schedules)", m, name, out.Scheduled)
			continue
		}
		t.Logf("mutant %s: %s fails %d of %d schedules, first: %s", m, name, len(out.Failures), out.Scheduled, out.Failures[0].Err)
	}
}

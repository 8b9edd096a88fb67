package faultinject

import (
	"testing"

	"ffccd/internal/core"
)

// TestCampaignKillsNamedMutants puts each named mutant back into the engine
// and runs the batch campaign at make crashmatrix's budget (seed 1, 56 sites,
// 16 nested) on a setting that exercises the mutated code: the campaign must
// report a failing schedule or a trial whose recovery cost other simulated
// cycles than the unmutated campaign's. The settings are the cheapest of
// those that kill each mutant in the full matrix (EXPERIMENTS.md §7.1). A
// mutant no setting kills is a hole in the campaign's coverage: it is listed
// in holes with the reason, and must still survive there, so a campaign that
// closes the hole moves it to killer.
func TestCampaignKillsNamedMutants(t *testing.T) {
	killer := map[core.Mutant]string{
		core.MutantNoTombstone:    "LL/1T/sfccd",
		core.MutantUndoAfterFixup: "BT/1T/sfccd",
		core.MutantReachedEarly:   "AVL/1T/ffccd",
		core.MutantSharedLineTear: "LL/1T/ffccd",
		// It corrupts nothing; recovery runs on the crashed context's cold
		// TLB and costs other cycles.
		core.MutantRecoverOnCrashedContext: "LL/1T/sfccd",
	}
	holes := map[core.Mutant]string{
		// A trial runs no epoch after its recovery, so a summary crashed
		// before its flip is never followed by the epoch that would reuse
		// its number.
		core.MutantEpochPastPhaseOnly: "LL/1T/ffccd",
		// No churned heap places an object in its destination frame's last
		// slot.
		core.MutantSlot255: "LL/1T/ffccd",
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
	// costed counts the trials of out whose recovery cost other cycles than
	// in ref, every trial past the shorter campaign's end included.
	costed := func(ref, out CampaignOutcome) int {
		n := max(len(ref.Recovery), len(out.Recovery)) - min(len(ref.Recovery), len(out.Recovery))
		for i := range min(len(ref.Recovery), len(out.Recovery)) {
			if ref.Recovery[i] != out.Recovery[i] {
				n++
			}
		}
		return n
	}
	for _, m := range core.Mutants {
		if name, ok := holes[m]; ok {
			ref := explore("", name)
			if out := explore(m, name); len(out.Failures) > 0 || costed(ref, out) > 0 {
				t.Errorf("mutant %s, a recorded coverage hole, fails %s's campaign: move it to killer", m, name)
			}
			continue
		}
		name, ok := killer[m]
		if !ok {
			t.Errorf("mutant %s has no setting that kills it", m)
			continue
		}
		ref := explore("", name)
		if ref.Skipped || len(ref.Failures) > 0 {
			t.Fatalf("%s fails without a mutant: skipped=%v, %d failures", name, ref.Skipped, len(ref.Failures))
		}
		out := explore(m, name)
		switch costs := costed(ref, out); {
		case len(out.Failures) > 0:
			t.Logf("mutant %s: %s fails %d of %d schedules, first: %s", m, name, len(out.Failures), out.Scheduled,
				out.Failures[0].Err)
		case costs > 0:
			t.Logf("mutant %s: %s passes, but %d of %d trials recover at another cost", m, name, costs, len(out.Recovery))
		default:
			t.Errorf("mutant %s survives %s's campaign (%d schedules)", m, name, out.Scheduled)
		}
	}
}

package faultinject

import (
	"testing"

	"ffccd/internal/core"
)

// TestCampaignKillsNamedMutants puts each named mutant back into the engine
// and runs the batch campaign at make crashmatrix's budget (seed 1, 56 sites,
// 16 nested) on a setting that exercises the mutated code: the campaign must
// report a failing schedule. The settings are the cheapest of those that
// kill each mutant in the full matrix (CHANGES.md); a mutant no setting kills
// is a hole in the campaign's coverage.
func TestCampaignKillsNamedMutants(t *testing.T) {
	killer := map[core.Mutant]string{
		core.MutantNoTombstone:    "LL/1T/sfccd",
		core.MutantUndoAfterFixup: "BT/1T/sfccd",
	}
	co := CampaignOptions{Seed: 1, MaxSites: 56, Nested: true, MaxNested: 16}
	defer core.SetMutant("")
	for _, m := range core.Mutants {
		name, ok := killer[m]
		if !ok {
			t.Errorf("mutant %s has no setting that kills it", m)
			continue
		}
		setting, err := ParseSetting(name)
		if err != nil {
			t.Fatal(err)
		}
		if out := ExploreSetting(setting, co); out.Skipped || len(out.Failures) > 0 {
			t.Fatalf("%s fails without a mutant: skipped=%v, %d failures", name, out.Skipped, len(out.Failures))
		}
		core.SetMutant(m)
		out := ExploreSetting(setting, co)
		core.SetMutant("")
		if len(out.Failures) == 0 {
			t.Errorf("mutant %s survives %s's campaign (%d schedules)", m, name, out.Scheduled)
			continue
		}
		t.Logf("mutant %s: %s fails %d of %d schedules, first: %s", m, name, len(out.Failures), out.Scheduled, out.Failures[0].Err)
	}
}

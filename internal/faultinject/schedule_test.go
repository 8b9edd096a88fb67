package faultinject_test

// Crash points across the compaction pipeline for one representative store,
// per scheme — Espresso included, which the paper treats as prior art but
// which must be crash consistent here too.

import (
	"fmt"
	"testing"

	"ffccd/internal/core"
	"ffccd/internal/faultinject"
)

// TestCrashPointSchedule crashes each seed's trial at one fraction of its
// site space — 0, 1/4, 1/2, 3/4 or the last site, rotating with the seed —
// under a rotating crash policy.
func TestCrashPointSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	for _, scheme := range []core.Scheme{core.SchemeEspresso, core.SchemeSFCCD, core.SchemeFFCCD} {
		for i := 0; i < 12; i++ {
			s := faultinject.Setting{Store: "LL", Threads: 1, Scheme: scheme}
			t.Run(fmt.Sprintf("%s/seed%d", scheme, i), func(t *testing.T) {
				rep := faultinject.NewRepro(s, int64(2000+i*37)).(faultinject.Repro)
				census, err := rep.Run(faultinject.TrialOptions{})
				if err != nil || !census.Began {
					t.Fatalf("census: began=%v err=%v", census.Began, err)
				}
				last := int64(census.Census.Total) - 1
				rep.Site = last * int64(i%5) / 4
				rep.Policy, rep.Salt = faultinject.Policies[i%3], uint64(i)
				res, err := rep.Run(faultinject.TrialOptions{})
				if err != nil {
					t.Fatalf("%s: %v", rep.Command(), err)
				}
				if res.Crash == nil {
					t.Fatalf("%s: no crash fired", rep.Command())
				}
			})
		}
	}
}

func TestEspressoInCampaign(t *testing.T) {
	// The paper validates SFCCD and FFCCD (Espresso is the prior art), but
	// our Espresso implementation must be crash consistent too.
	for _, store := range []string{"AVL", "BT"} {
		s := faultinject.Setting{Store: store, Threads: 1, Scheme: core.SchemeEspresso}
		out := faultinject.ExploreSetting(s, faultinject.CampaignOptions{Seed: 31, MaxSites: 8, Nested: true, MaxNested: 2})
		if out.Skipped || out.Scheduled == 0 || len(out.Failures) > 0 {
			t.Fatalf("%s: %d/%d passed, skipped=%v; failures %v", s, out.Passed, out.Scheduled, out.Skipped, out.Failures)
		}
	}
}

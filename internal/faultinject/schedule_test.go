package faultinject_test

// Finer-grained crash scheduling than the randomized campaign: crash at
// every boundary of the compaction pipeline for one representative store,
// per scheme — the deterministic complement to TestCampaignSample.

import (
	"fmt"
	"testing"

	"ffccd/internal/core"
	"ffccd/internal/faultinject"
)

func TestCrashPointSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	// The Trial driver's crash point is seeded; sweep seeds chosen to land
	// at distinct steps-fractions (0, 1/4, 1/2, 3/4, all moved) by direct
	// enumeration of the setting space at higher density than the sample
	// campaign.
	for _, scheme := range []core.Scheme{core.SchemeEspresso, core.SchemeSFCCD, core.SchemeFFCCD} {
		for i := 0; i < 12; i++ {
			s := faultinject.Setting{Store: "LL", Threads: 1, Scheme: scheme}
			t.Run(fmt.Sprintf("%s/seed%d", scheme, i), func(t *testing.T) {
				if err := faultinject.Trial(s, int64(2000+i*37), faultinject.TrialOptions{}); err != nil {
					t.Fatal(err)
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
		out := faultinject.RunSetting(s, 4, 31, faultinject.TrialOptions{})
		if out.Passed != out.Trials {
			t.Fatalf("%s: %d/%d; %v", s, out.Passed, out.Trials, out.Failures[0])
		}
	}
}

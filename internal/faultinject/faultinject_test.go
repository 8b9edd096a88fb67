package faultinject_test

import (
	"testing"

	"ffccd/internal/core"
	"ffccd/internal/faultinject"
)

func TestAllSettingsEnumerates26(t *testing.T) {
	settings := faultinject.AllSettings()
	if len(settings) != 26 {
		t.Fatalf("settings = %d, want 26 (paper §7.1)", len(settings))
	}
	schemes := map[core.Scheme]int{}
	threads := map[int]int{}
	for _, s := range settings {
		schemes[s.Scheme]++
		threads[s.Threads]++
	}
	if schemes[core.SchemeSFCCD] != 13 || schemes[core.SchemeFFCCD] != 13 {
		t.Errorf("scheme split wrong: %v", schemes)
	}
	if threads[8] != 4 { // BzTree+FPTree ×2 schemes
		t.Errorf("thread split wrong: %v", threads)
	}
}

// TestCampaignSample runs a scaled-down injection campaign: a few trials of
// a representative subset of the 26 settings. The full campaign (1000 trials
// per setting) is cmd/ffccd-crashtest.
func TestCampaignSample(t *testing.T) {
	if testing.Short() {
		t.Skip("fault injection campaign is slow")
	}
	subset := []faultinject.Setting{
		{Store: "LL", Threads: 1, Scheme: core.SchemeSFCCD},
		{Store: "LL", Threads: 1, Scheme: core.SchemeFFCCD},
		{Store: "AVL", Threads: 1, Scheme: core.SchemeFFCCD},
		{Store: "BT", Threads: 1, Scheme: core.SchemeSFCCD},
		{Store: "RBT", Threads: 1, Scheme: core.SchemeFFCCD},
		{Store: "SS", Threads: 1, Scheme: core.SchemeSFCCD},
		{Store: "BzTree", Threads: 4, Scheme: core.SchemeFFCCD},
		{Store: "FPTree", Threads: 4, Scheme: core.SchemeSFCCD},
		{Store: "FPTree", Threads: 2, Scheme: core.SchemeFFCCD},
	}
	for _, s := range subset {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			out := faultinject.RunSetting(s, 4, 1000, faultinject.TrialOptions{})
			if out.Passed != out.Trials {
				t.Fatalf("%d/%d passed; first failure: %s", out.Passed, out.Trials, out.Failures[0])
			}
		})
	}
}

func TestSingleTrialDeterministic(t *testing.T) {
	s := faultinject.Setting{Store: "LL", Threads: 1, Scheme: core.SchemeFFCCD}
	if err := faultinject.Trial(s, 42, faultinject.TrialOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestSettingString(t *testing.T) {
	s := faultinject.Setting{Store: "BzTree", Threads: 4, Scheme: core.SchemeFFCCD}
	if got := s.String(); got != "BzTree/4T/ffccd" {
		t.Errorf("Setting.String = %q", got)
	}
}

func TestAllSettingsCoverBothSchemes(t *testing.T) {
	bySch := map[core.Scheme]int{}
	byStore := map[string]bool{}
	for _, s := range faultinject.AllSettings() {
		bySch[s.Scheme]++
		byStore[s.Store] = true
		if s.Threads < 1 || s.Threads > 8 {
			t.Errorf("setting %s has bad thread count", s)
		}
	}
	if bySch[core.SchemeSFCCD] != 13 || bySch[core.SchemeFFCCD] != 13 {
		t.Errorf("scheme split %v, want 13/13", bySch)
	}
	for _, st := range append(append([]string{}, faultinject.MicroStores...), faultinject.ConcurrentStores...) {
		if !byStore[st] {
			t.Errorf("store %s missing from campaign", st)
		}
	}
}

func TestRunSettingAggregatesOutcome(t *testing.T) {
	out := faultinject.RunSetting(faultinject.Setting{Store: "LL", Threads: 1, Scheme: core.SchemeFFCCD}, 3, 101, faultinject.TrialOptions{})
	if out.Trials != 3 {
		t.Fatalf("trials = %d", out.Trials)
	}
	if out.Passed+len(out.Failures) != out.Trials {
		t.Fatalf("pass/fail don't sum: %d + %d != %d", out.Passed, len(out.Failures), out.Trials)
	}
	if out.Passed != 3 {
		t.Fatalf("expected all trials to pass, failures: %v", out.Failures)
	}
}

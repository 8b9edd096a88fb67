package faultinject_test

import (
	"reflect"
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

// TestCampaignSample runs a scaled-down scheduled campaign over a
// representative subset of the 26 settings, 2T and 4T ones included: each
// site class's first crash site plus a few more, with nested crashes. The
// full campaign is cmd/ffccd-crashtest.
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
		t.Run(s.String(), func(t *testing.T) {
			out := faultinject.ExploreSetting(s, faultinject.CampaignOptions{
				Seed: 1000, MaxSites: 8, Nested: true, MaxNested: 2,
			})
			if out.Skipped || out.Scheduled == 0 {
				t.Fatalf("vacuous campaign: %+v", out)
			}
			if len(out.Failures) > 0 {
				t.Fatalf("%d/%d passed; first failure: %s", out.Passed, out.Scheduled, out.Failures[0])
			}
		})
	}
}

// TestSingleTrialDeterministic: a campaign is a pure function of its setting
// and options — run twice, it schedules, crashes and covers exactly the same
// sites, whatever the worker pool does.
func TestSingleTrialDeterministic(t *testing.T) {
	s := faultinject.Setting{Store: "LL", Threads: 1, Scheme: core.SchemeFFCCD}
	co := faultinject.CampaignOptions{Seed: 42, MaxSites: 6, Nested: true, MaxNested: 2}
	a := faultinject.ExploreSetting(s, co)
	b := faultinject.ExploreSetting(s, co)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs of one campaign differ:\n  %+v\n  %+v", a, b)
	}
	if a.Scheduled == 0 || len(a.Failures) > 0 {
		t.Fatalf("campaign: %d/%d passed, failures %v", a.Passed, a.Scheduled, a.Failures)
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

// TestRunSettingAggregatesOutcome: a campaign's outcome adds up — every
// scheduled trial passed or failed, and each first-level crash that passed is
// counted once under its site class.
func TestRunSettingAggregatesOutcome(t *testing.T) {
	out := faultinject.ExploreSetting(faultinject.Setting{Store: "LL", Threads: 1, Scheme: core.SchemeFFCCD},
		faultinject.CampaignOptions{Seed: 101, MaxSites: 3, Nested: true, MaxNested: 2})
	if out.Scheduled == 0 {
		t.Fatalf("no trials scheduled: %+v", out)
	}
	if out.Passed+len(out.Failures) != out.Scheduled {
		t.Fatalf("pass/fail don't sum: %d + %d != %d", out.Passed, len(out.Failures), out.Scheduled)
	}
	if out.Passed != out.Scheduled {
		t.Fatalf("expected all trials to pass, failures: %v", out.Failures)
	}
	covered := 0
	for _, n := range out.Covered {
		covered += n
	}
	if covered == 0 || covered > out.Scheduled {
		t.Fatalf("%d covered crashes of %d trials", covered, out.Scheduled)
	}
}

package faultinject

import (
	"slices"
	"testing"

	"ffccd/internal/core"
)

// TestCampaignKillsNamedMutants puts each named mutant back into the engine
// and runs the campaign, at make crashmatrix's budget for a batch setting and
// make servecrash's for a serving one, on settings that run the mutated code:
// serve/ffccd for every mutant, serve/stw too where the mutated code runs
// under Espresso, and one batch setting: the cheapest that kills the mutant in
// the full matrix (EXPERIMENTS.md §7.1), LL/1T/ffccd where none does. Each
// setting's unmutated campaign runs once. A setting kills a mutant when its
// campaign reports a failing schedule or a trial whose recovery cost other
// simulated cycles than the unmutated campaign's; killer lists those
// settings. A setting the mutant survives is a hole in the campaign's
// coverage: it is listed in holes with the reason, and the mutant must still
// survive there, so a campaign that closes the hole moves it to killer.
func TestCampaignKillsNamedMutants(t *testing.T) {
	// The serving settings kill by recovery cost alone: no serving verdict
	// fails under any mutant.
	killer := map[core.Mutant][]string{
		core.MutantNoTombstone:    {"LL/1T/sfccd"},
		core.MutantUndoAfterFixup: {"BT/1T/sfccd", "serve/ffccd", "serve/stw"},
		core.MutantReachedEarly:   {"AVL/1T/ffccd"},
		core.MutantSharedLineTear: {"LL/1T/ffccd", "serve/ffccd"},
		// It corrupts nothing; recovery runs on the crashed context's cold
		// TLB and costs other cycles.
		core.MutantRecoverOnCrashedContext: {"LL/1T/sfccd"},
	}
	holes := map[core.Mutant]map[string]string{
		core.MutantNoTombstone: {
			"serve/ffccd": "the tombstone is SFCCD's, and no serving scheme runs SFCCD",
		},
		core.MutantReachedEarly: {
			"serve/ffccd": "only a crash inside the repair of a line-sharing component shows it; 3 nested schedules reach none",
		},
		core.MutantEpochPastPhaseOnly: {
			"LL/1T/ffccd": "a trial runs no epoch after its recovery, so a summary crashed before its flip " +
				"is never followed by the epoch that would reuse its number",
			"serve/ffccd": "it needs a summary crashed before its flip and a resumed epoch after it; 10 sites reach none",
			"serve/stw":   "it needs a summary crashed before its flip and a resumed epoch after it; 10 sites reach none",
		},
		core.MutantSlot255: {
			"LL/1T/ffccd": "no churned heap places an object in its destination frame's last slot",
			"serve/ffccd": "no served heap moves an object into its destination frame's last slot",
			"serve/stw":   "no served heap moves an object into its destination frame's last slot",
		},
		core.MutantRecoverOnCrashedContext: {
			"serve/ffccd": "a serving machine loses power on a client's or the compactor's context, and the mutant " +
				"recovers on the dispatcher's, which holds no unfenced clwbs",
			"serve/stw": "a serving machine loses power on a client's or the compactor's context, and the mutant " +
				"recovers on the dispatcher's, which holds no unfenced clwbs",
		},
	}
	batch := CampaignOptions{Seed: 1, MaxSites: 56, Nested: true, MaxNested: 16}
	serve := CampaignOptions{Seed: 1, MaxSites: 10, Nested: true, MaxNested: 3}
	// explore runs the named setting's campaign with m in every engine.
	explore := func(m core.Mutant, name string) CampaignOutcome {
		setting, err := ParseSetting(name)
		if err != nil {
			t.Fatal(err)
		}
		co := batch
		if setting.Serve != "" {
			co = serve
		}
		core.SetMutant(m)
		defer core.SetMutant("")
		return ExploreSetting(setting, co)
	}
	// refs holds each setting's unmutated outcome, run once.
	refs := map[string]CampaignOutcome{}
	ref := func(name string) CampaignOutcome {
		out, ok := refs[name]
		if !ok {
			if out = explore("", name); out.Skipped || len(out.Failures) > 0 {
				t.Fatalf("%s fails without a mutant: skipped=%v, %d failures", name, out.Skipped, len(out.Failures))
			}
			refs[name] = out
		}
		return out
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
		if len(killer[m])+len(holes[m]) == 0 {
			t.Errorf("mutant %s is run on no setting", m)
		}
		for _, name := range killer[m] {
			r := ref(name)
			out := explore(m, name)
			switch costs := costed(r, out); {
			case len(out.Failures) > 0:
				t.Logf("mutant %s: %s fails %d of %d schedules, first: %s", m, name, len(out.Failures), out.Scheduled,
					out.Failures[0].Err)
			case costs > 0:
				t.Logf("mutant %s: %s passes, but %d of %d trials recover at another cost", m, name, costs, len(out.Recovery))
			default:
				t.Errorf("mutant %s survives %s's campaign (%d schedules)", m, name, out.Scheduled)
			}
		}
		names := make([]string, 0, len(holes[m]))
		for name := range holes[m] {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			r := ref(name)
			out := explore(m, name)
			if costs := costed(r, out); len(out.Failures) > 0 || costs > 0 {
				t.Errorf("mutant %s, a recorded coverage hole, fails %s's campaign (%d failures, %d recovery costs moved): move it to killer",
					m, name, len(out.Failures), costs)
			}
			t.Logf("mutant %s: %s passes at the unmutated cost: %s", m, name, holes[m][name])
		}
	}
}

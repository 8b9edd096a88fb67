package faultinject

import (
	"slices"
	"testing"

	"ffccd/internal/core"
	"ffccd/internal/workpool"
)

// TestPooledTrialsMatchSerial runs batch and serving crash trials of five
// machines at once on four pool workers, so a trial copies its prefix's
// model or LRU tables into what a trial of another machine gave back, and
// checks every verdict and Result against the same trial run alone on one
// worker: pooled tables carry nothing from one trial into the next.
func TestPooledTrialsMatchSerial(t *testing.T) {
	old := workpool.Parallelism()
	defer workpool.SetParallelism(old)
	c := new(campaign)
	var scheds []Schedule
	crash := func(i int, sites uint64) CrashPoint {
		cp := CrashPoint{Site: int64(uint64(i) * 7919 % sites), Nested: -1, Policy: Policies[i%len(Policies)], Salt: uint64(i)}
		if i%2 == 1 {
			cp.Nested = int64(5 * i)
		}
		return cp
	}
	for _, s := range []Setting{{Store: "LL", Threads: 1, Scheme: core.SchemeFFCCD}, {Store: "BzTree", Threads: 2, Scheme: core.SchemeSFCCD}, {Store: "SS", Threads: 1, Scheme: core.SchemeSFCCD}} {
		base := NewRepro(s, 5).(Repro)
		census, err := c.runScheduled(base, TrialOptions{})
		if err != nil || !census.Began {
			t.Fatalf("%s census: began=%v err=%v", s, census.Began, err)
		}
		for i := 0; i < 6; i++ {
			scheds = append(scheds, base.At(0, crash(i, census.Census.Total)))
		}
	}
	for _, scheme := range []string{"ffccd", "stw"} {
		base := NewRepro(Setting{Serve: scheme}, 5).(ServeRepro)
		base.Clients, base.Ops, base.Keys = 4, 600, 200
		census, err := c.runServe(base, TrialOptions{})
		if err != nil {
			t.Fatalf("serve/%s census: %v", scheme, err)
		}
		for i := 0; i < 4; i++ {
			scheds = append(scheds, base.At(0, crash(i, census.Census.Total)))
		}
	}

	workpool.SetParallelism(1)
	want := make([]trialOut, len(scheds))
	crashed := 0
	for i, s := range scheds {
		if want[i] = c.runTrial(s, TrialOptions{}); want[i].res.Crash != nil {
			crashed++
		}
	}
	if crashed < len(scheds)/2 {
		t.Fatalf("only %d of %d trials crashed", crashed, len(scheds))
	}
	// Backwards, so each machine's trials take other machines' tables.
	workpool.SetParallelism(4)
	slices.Reverse(scheds)
	got := c.runAll(scheds, CampaignOptions{})
	for i, s := range scheds {
		w := want[len(want)-1-i]
		sameTrial(t, s, got[i].res, got[i].err, w.res, w.err)
	}
}

package faultinject

import (
	"testing"

	"ffccd/internal/core"
	"ffccd/internal/pmem"
	"ffccd/internal/workpool"
)

// TestEqualCrashImagesRecoverAtEqualCost runs the first-level schedules of a
// batch and a sharded serving campaign on the worker pool and fails if two
// trials that crash into the same media image report different recovery
// cycles: recovery inherits nothing from the machine before the crash, so
// equal crashed images recover at equal cost.
func TestEqualCrashImagesRecoverAtEqualCost(t *testing.T) {
	serve := NewRepro(Setting{Serve: "ffccd", Shards: 2}, 1).(ServeRepro)
	serve.Clients, serve.Ops, serve.Keys = 4, 1200, 400
	for _, c := range []struct {
		base     Schedule
		maxSites int
	}{{NewRepro(Setting{Store: "LL", Threads: 1, Scheme: core.SchemeFFCCD}, 1), 6}, {serve, 4}} {
		base := c.base
		census, err := base.Run(TrialOptions{})
		if err != nil {
			t.Fatal(err)
		}
		shardCensus := census.ShardCensus
		if len(shardCensus) == 0 {
			shardCensus = []pmem.SiteCensus{census.Census}
		}
		firsts, _ := firstLevel(base, shardCensus, CampaignOptions{Seed: 1, MaxSites: c.maxSites})
		results := make([]Result, len(firsts))
		if err := workpool.ForEach(len(firsts), func(i int) (err error) {
			results[i], err = firsts[i].Run(TrialOptions{})
			return err
		}); err != nil {
			t.Fatal(err)
		}
		recovery, shared := map[uint64]uint64{}, 0
		for i, res := range results {
			if cycles, ok := recovery[res.PostCrashHash]; ok {
				shared++
				if cycles != res.RecoveryCycles {
					t.Errorf("%s: recovery took %d cycles, another trial's recovery of the same crashed image %d",
						firsts[i].MarshalLine(), res.RecoveryCycles, cycles)
				}
			}
			recovery[res.PostCrashHash] = res.RecoveryCycles
		}
		if shared == 0 {
			t.Errorf("%s: no two of %d trials crash into the same image; the check is vacuous", base.MarshalLine(), len(firsts))
		}
	}
}

package main

import (
	"testing"

	"ffccd/internal/core"
	"ffccd/internal/experiments"
	"ffccd/internal/workpool"
)

// The harness builds its own machines (machine.go). These pins keep them the
// machines the experiments measure: same simulated cycles, same device
// traffic, same latency percentiles for the same store, scheme, scale, seed.

func sumCycles(m map[string]float64) uint64 {
	var n float64
	for _, cat := range []string{"app", "mark", "summary", "copy", "checklookup", "gcmisc", "client_barrier"} {
		n += m["sim.cycles_"+cat]
	}
	return uint64(n)
}

func TestMicroBuilderMatchesExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs eight small machines; skipped under -short")
	}
	workpool.SetParallelism(2)
	const scale, seed = 0.0005, 11
	trigger, target := core.NormalParams()
	for _, tc := range []struct {
		store  string
		scheme core.Scheme
	}{
		{"LL", core.SchemeNone},
		{"BT", core.SchemeFFCCDCheckLookup},
		{"SS", core.SchemeFFCCDCheckLookup},
		{"AVL", core.SchemeSFCCD},
	} {
		spec := experiments.Spec{Store: tc.store, Threads: 1, Scheme: tc.scheme, Scale: scale, PageShift: 12, Seed: seed}
		if tc.scheme != core.SchemeNone {
			spec.Trigger, spec.Target = trigger, target
		}
		want, err := experiments.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer("t", false)
		got, err := runMicro(params{Stores: []string{tc.store}, Scheme: tc.scheme, Scale: scale}, seed, tr, tr.begin("bench.run", -1))
		if err != nil {
			t.Fatal(err)
		}
		if len(got.checks) > 0 {
			t.Errorf("%s/%s: output checks failed: %v", tc.store, tc.scheme, got.checks)
		}
		m := got.metrics
		if c := sumCycles(m); c != want.TotalCycles() {
			t.Errorf("%s/%s: harness machine ran %d cycles, experiments.Run %d", tc.store, tc.scheme, c, want.TotalCycles())
		}
		if got.ops != int64(want.TotalOps) {
			t.Errorf("%s/%s: %d ops vs %d", tc.store, tc.scheme, got.ops, want.TotalOps)
		}
		for name, w := range map[string]uint64{
			"pmem.loads": want.Device.Loads, "pmem.stores": want.Device.Stores, "pmem.clwbs": want.Device.Clwbs,
			"pmem.sfences": want.Device.Sfences, "pmem.media_writes": want.Device.MediaWrites,
			"core.objects_moved": want.Engine.ObjectsMoved, "core.epochs": want.Engine.Cycles,
		} {
			if uint64(m[name]) != w {
				t.Errorf("%s/%s: %s = %v, experiments.Run %d", tc.store, tc.scheme, name, m[name], w)
			}
		}
		if tc.scheme != core.SchemeNone && want.Engine.ObjectsMoved == 0 {
			t.Errorf("%s/%s: no object moved at this scale; the pin does not exercise the hooks", tc.store, tc.scheme)
		}
	}
}

func TestServeBuilderMatchesExperimentsServing(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four small serving deployments; skipped under -short")
	}
	workpool.SetParallelism(2)
	opts := experiments.ServingOptions{Scale: 0.002, Clients: 8, Ops: 12000, Keyspace: 1500, Seed: 7, Schemes: []string{"ffccd"}}
	for _, shards := range []int{1, 2} {
		opts.Shards = shards
		res, err := experiments.Serving(opts)
		if err != nil {
			t.Fatal(err)
		}
		want := res.Variants[0]
		tr := newTracer("t", false)
		// GET 0.9 and an auto-calibrated rate are experiments.Serving's config.
		spec := serveSpec{Shards: shards, Clients: opts.Clients, Keys: opts.Keyspace, Ops: opts.Ops, GetFraction: 0.9}
		got, err := runServe(params{Serve: spec}, opts.Seed, tr, tr.begin("bench.run", -1))
		if err != nil {
			t.Fatal(err)
		}
		if len(got.checks) > 0 {
			t.Errorf("shards=%d: output checks failed: %v", shards, got.checks)
		}
		m := got.metrics
		if c := sumCycles(m); c != want.SimCycles {
			t.Errorf("shards=%d: harness machine ran %d cycles, experiments.Serving %d", shards, c, want.SimCycles)
		}
		if m["sim_p50_cycles"] != want.P50 || m["sim_p999_cycles"] != want.P999 {
			t.Errorf("shards=%d: p50/p999 %v/%v, experiments.Serving %v/%v", shards, m["sim_p50_cycles"], m["sim_p999_cycles"], want.P50, want.P999)
		}
		if m["sim_frag_ratio"] != want.FinalFragR || int(m["redisws.evictions"]) != want.Evictions {
			t.Errorf("shards=%d: frag %v evictions %v, experiments.Serving %v %d", shards, m["sim_frag_ratio"], m["redisws.evictions"], want.FinalFragR, want.Evictions)
		}
		if m["core.epochs"] == 0 {
			t.Errorf("shards=%d: no epoch ran; the pin does not exercise the hooks", shards)
		}
	}
}

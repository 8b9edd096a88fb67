package redisws_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"ffccd/internal/obsv"
	"ffccd/internal/pins"
	"ffccd/internal/redisws"
	"ffccd/internal/sim"
	"ffccd/internal/workpool"
)

// TestServeGolden pins what a serving run does, not just that it is
// self-consistent, as the serve section of testdata/pins.txt: an FFCCD
// machine served through Serve ("serve ffccd") and a three-shard FFCCD
// deployment ("serve ffccd/3S"), each a summary (counters, dispatch shape,
// cycle sums, latency percentiles) and an FNV digest of its time series,
// which must come out the same at workpool parallelism 1 and 4. A change to
// how the dispatcher executes what it dispatches must move neither line;
// `make pins` rewrites them for an intentional change of the simulated
// machine or of the dispatch order.
func TestServeGolden(t *testing.T) {
	p := pins.Open(t, "serve")
	defer workpool.SetParallelism(workpool.Parallelism())
	workpool.SetParallelism(1)
	one, sharded := serveLine(t, 1), serveLine(t, 3)
	workpool.SetParallelism(4)
	if one4, sharded4 := serveLine(t, 1), serveLine(t, 3); one4 != one || sharded4 != sharded {
		t.Errorf("serving at parallelism 4 prints\n\t%s\n\t%s\nat 1\n\t%s\n\t%s", one4, sharded4, one, sharded)
	}
	p.Expect(t, "serve ffccd", one)
	p.Expect(t, "serve ffccd/3S", sharded)
	p.Close(t, []string{"serve ffccd", "serve ffccd/3S"})
}

// serveLine serves serveCfg's LRU-churning run on one FFCCD machine through
// Serve, or on shards machines through ServeSharded, each with a time series
// of narrow windows and four exemplars, so the digest covers a few hundred
// requests' stall causes.
func serveLine(t *testing.T, shards int) string {
	cfg := serveCfg()
	const window, k = 20_000, 4
	keys, err := redisws.ShardKeys(cfg.Keyspace, shards)
	if err != nil {
		t.Fatal(err)
	}
	machines := make([]redisws.Shard, shards)
	series := make([]*obsv.TimeSeries, shards)
	for i := range machines {
		simCfg := sim.DefaultConfig()
		simCfg.CacheBytes = 256 * 1024
		m, err := redisws.NewMachine(simCfg, "ffccd", "pins", keys[i], 8<<20)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Release)
		t.Cleanup(m.Eng.Close)
		m.Hooks.Series = obsv.NewTimeSeries("ffccd", window, k)
		machines[i], series[i] = m.Shard(), m.Hooks.Series
	}
	if shards == 1 {
		m := machines[0]
		res, err := redisws.Serve(m.Ctx, m.Pool, m.Store, cfg, m.Hooks)
		if err != nil {
			t.Fatal(err)
		}
		return summaryLine(res) + seriesDigest(series[0])
	}
	out, err := redisws.ServeSharded(machines, redisws.ShardConfigs(cfg, shards))
	if err != nil {
		t.Fatal(err)
	}
	merged, err := redisws.MergeShardSeries("ffccd", window, k, series)
	if err != nil {
		t.Fatal(err)
	}
	var perShard []string
	for _, r := range out.Shards {
		perShard = append(perShard, summaryLine(r))
	}
	return summaryLine(out.Merged) + seriesDigest(merged, perShard...)
}

func summaryLine(r redisws.ServeResult) string {
	return fmt.Sprintf("ops=%d gets=%d sets=%d hits=%d misses=%d evictions=%d parallel=%d serial=%d batches=%d "+
		"app=%d interf=%d stall=%d queue=%d sim_cycles=%d makespan=%d rate=%v lat=%d p50=%v p99=%v p999=%v",
		r.Ops, r.Gets, r.Sets, r.Hits, r.Misses, r.Evictions, r.ParallelOps, r.SerialOps, r.Batches,
		r.AppCycles, r.InterfCycles, r.StallWaitCycles, r.QueueWaitCycles, r.SimCycles, r.Makespan, r.RateUsed,
		r.Lat.Hist.Count(), r.Lat.Percentile(50), r.Lat.Percentile(99), r.Lat.Percentile(99.9))
}

// seriesDigest is " series=<FNV-64a>" over extra's lines, then the series'
// overlay intervals and windows, each window followed by its exemplars
// (stall cause, STW chain reference and cache set included), worst first.
func seriesDigest(ts *obsv.TimeSeries, extra ...string) string {
	h := fnv.New64a()
	for _, l := range extra {
		fmt.Fprintln(h, l)
	}
	for _, iv := range ts.Intervals() {
		fmt.Fprintf(h, "interval %+v\n", iv)
	}
	for _, w := range ts.Windows() {
		exs := w.Exemplars
		w.Exemplars = nil
		fmt.Fprintf(h, "window %+v\n", w)
		for _, ex := range exs {
			fmt.Fprintf(h, "  exemplar latency=%d arrival=%d start=%d complete=%d cause=%+v\n",
				ex.Latency, ex.Arrival, ex.Start, ex.Complete, ex.Cause)
		}
	}
	return fmt.Sprintf(" series=%016x", h.Sum64())
}

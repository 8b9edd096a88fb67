package redisws_test

// TestServeGolden pins what a serving run does, not just that it is
// self-consistent: for an FFCCD machine served with a time series (at workpool
// parallelism 1 and 4) and for a three-shard FFCCD deployment, the flattened
// serveSummary (counters, dispatch shape, cycle sums, histogram snapshots),
// the overlay intervals and every window with every exemplar line — stall
// cause, STW chain reference and cache set included. A change to how the
// dispatcher executes what it dispatches must leave testdata/serve.golden
// untouched; regenerate it only for an intentional change of the simulated
// machine or of the dispatch order:
//
//	go test ./internal/redisws/ -run TestServeGolden -args -update

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"ffccd/internal/obsv"
	"ffccd/internal/redisws"
	"ffccd/internal/sim"
	"ffccd/internal/workpool"
)

var updateServeGolden = flag.Bool("update", false, "rewrite testdata/serve.golden from the current code")

const serveGoldenPath = "testdata/serve.golden"

// Narrow windows with four exemplars each, so the golden holds a few hundred
// requests' stall causes rather than a handful.
const (
	goldenWindow = 20_000
	goldenK      = 4
)

// goldenMachine builds one FFCCD serving machine owning keys keys, with a
// time series, and closes its engine when the test ends.
func goldenMachine(t *testing.T, keys int) (*redisws.Machine, *obsv.TimeSeries) {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.CacheBytes = 256 * 1024
	m, err := redisws.NewMachine(&cfg, "ffccd", "golden", keys, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Eng.Close)
	ts := obsv.NewTimeSeries("ffccd", goldenWindow, goldenK)
	m.Hooks.Series = ts
	return m, ts
}

// writeSeries appends a series' overlay intervals and windows, each window
// followed by its exemplars, worst first.
func writeSeries(b *strings.Builder, ts *obsv.TimeSeries) {
	for _, iv := range ts.Intervals() {
		fmt.Fprintf(b, "interval %+v\n", iv)
	}
	for _, w := range ts.Windows() {
		exs := w.Exemplars
		w.Exemplars = nil
		fmt.Fprintf(b, "window %+v\n", w)
		for _, ex := range exs {
			fmt.Fprintf(b, "  exemplar latency=%d arrival=%d start=%d complete=%d cause=%+v\n",
				ex.Latency, ex.Arrival, ex.Start, ex.Complete, ex.Cause)
		}
	}
}

func goldenServe(t *testing.T, b *strings.Builder, par int) {
	old := workpool.Parallelism()
	defer workpool.SetParallelism(old)
	workpool.SetParallelism(par)

	cfg := serveCfg()
	m, ts := goldenMachine(t, cfg.Keyspace)
	res, err := redisws.Serve(m.Ctx, m.Pool, m.Store, cfg, m.Hooks)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(b, "== serve ffccd parallelism=%d\nsummary %+v\n", par, summarize(res))
	writeSeries(b, ts)
}

func goldenSharded(t *testing.T, b *strings.Builder, n int) {
	cfg := serveCfg()
	keys, err := redisws.ShardKeys(cfg.Keyspace, n)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]redisws.Shard, n)
	series := make([]*obsv.TimeSeries, n)
	for i := range shards {
		m, ts := goldenMachine(t, keys[i])
		shards[i], series[i] = m.Shard, ts
	}
	out, err := redisws.ServeSharded(shards, redisws.ShardConfigs(cfg, n))
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(b, "== sharded ffccd shards=%d\nmerged %+v\n", n, summarize(out.Merged))
	for i, r := range out.Shards {
		fmt.Fprintf(b, "shard %d %+v\n", i, summarize(r))
	}
	merged, err := redisws.MergeShardSeries("ffccd", goldenWindow, goldenK, series)
	if err != nil {
		t.Fatal(err)
	}
	writeSeries(b, merged)
}

func TestServeGolden(t *testing.T) {
	var b strings.Builder
	goldenServe(t, &b, 1)
	goldenServe(t, &b, 4)
	goldenSharded(t, &b, 3)
	got := b.String()
	if *updateServeGolden {
		if err := os.WriteFile(serveGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(serveGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("serving output drifted from %s (rerun with -args -update only for an intentional change)\n got:\n%s\nwant:\n%s",
			serveGoldenPath, got, want)
	}
}

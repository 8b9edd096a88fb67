package redisws_test

import (
	"errors"
	"reflect"
	"testing"

	"ffccd/internal/kv"
	"ffccd/internal/obsv"
	"ffccd/internal/redisws"
	"ffccd/internal/workpool"
)

// TestOwnedKeysPartition pins the shard routing: the per-shard owned-key
// lists are ascending, their union is an exact partition of the keyspace, and
// ShardKeys counts them — or refuses the deployment when a shard owns none.
func TestOwnedKeysPartition(t *testing.T) {
	const keyspace, shards = 1000, 4
	counts, err := redisws.ShardKeys(keyspace, shards)
	if err != nil || len(counts) != shards {
		t.Fatalf("ShardKeys(%d, %d) = %v, %v", keyspace, shards, counts, err)
	}
	owner := make(map[uint64]int)
	for s := 0; s < shards; s++ {
		owned := redisws.OwnedKeys(keyspace, s, shards)
		if len(owned) == 0 || len(owned) != counts[s] {
			t.Fatalf("shard %d owns %d keys, ShardKeys says %d", s, len(owned), counts[s])
		}
		for i, k := range owned {
			if i > 0 && owned[i-1] >= k {
				t.Fatalf("shard %d owned keys not ascending at %d: %d >= %d", s, i, owned[i-1], k)
			}
			if prev, dup := owner[k]; dup {
				t.Fatalf("key %d owned by both shard %d and %d", k, prev, s)
			}
			owner[k] = s
		}
	}
	if len(owner) != keyspace {
		t.Fatalf("union covers %d of %d keys", len(owner), keyspace)
	}
	// shards=1 is the identity partition.
	if got := redisws.OwnedKeys(10, 0, 1); len(got) != 10 || got[0] != 0 || got[9] != 9 {
		t.Fatalf("one-shard OwnedKeys = %v", got)
	}
	if got, err := redisws.ShardKeys(10, 1); err != nil || !reflect.DeepEqual(got, []int{10}) {
		t.Fatalf("ShardKeys(10, 1) = %v, %v", got, err)
	}
	// Six keys hash to only five of six shards; no deployment has zero shards
	// or more shards than keys.
	for _, bad := range [][2]int{{6, 6}, {1000, 0}, {1000, -3}, {300, 400}, {0, 1}} {
		if got, err := redisws.ShardKeys(bad[0], bad[1]); !errors.Is(err, redisws.ErrShards) {
			t.Errorf("ShardKeys(%d, %d) = %v, %v; want ErrShards", bad[0], bad[1], got, err)
		}
	}
}

// TestShardConfigsSplit pins the deployment-wide split: op and client budgets
// are conserved, shard 0 keeps the base seed, and n<=1 returns the config
// verbatim (the unsharded dispatcher is the one-shard special case).
func TestShardConfigsSplit(t *testing.T) {
	cfg := serveCfg()
	one := redisws.ShardConfigs(cfg, 1)
	if len(one) != 1 || !reflect.DeepEqual(one[0], cfg) {
		t.Fatalf("ShardConfigs(cfg, 1) altered the config: %+v", one)
	}
	const n = 4
	cfgs := redisws.ShardConfigs(cfg, n)
	ops, clients := 0, 0
	for i, c := range cfgs {
		if c.ShardIndex != i || c.ShardCount != n {
			t.Fatalf("shard %d mislabeled: index=%d count=%d", i, c.ShardIndex, c.ShardCount)
		}
		ops += c.Ops
		clients += c.Clients
		if c.MaintEvery < 1 || c.Clients < 1 {
			t.Fatalf("shard %d degenerate split: %+v", i, c)
		}
	}
	if ops != cfg.Ops || clients != cfg.Clients {
		t.Fatalf("split not conserved: ops %d/%d clients %d/%d", ops, cfg.Ops, clients, cfg.Clients)
	}
	if cfgs[0].Seed != cfg.Seed {
		t.Fatalf("shard 0 seed %d != base %d", cfgs[0].Seed, cfg.Seed)
	}
	if cfgs[1].Seed == cfg.Seed {
		t.Fatal("shard 1 seed not decorrelated")
	}
}

// buildShards constructs n independent machines (pool, ctx, store) for a
// sharded run, optionally with a per-shard time series.
func buildShards(t *testing.T, n int, window uint64) ([]redisws.Shard, []*obsv.TimeSeries) {
	t.Helper()
	shards := make([]redisws.Shard, n)
	var series []*obsv.TimeSeries
	for i := range shards {
		p, ctx := setup(t)
		store, _ := kv.NewEcho(ctx, p, 1024)
		shards[i] = redisws.Shard{Ctx: ctx, Pool: p, Store: store}
		if window > 0 {
			ts := obsv.NewTimeSeries("none", window, 0)
			shards[i].Hooks.Series = ts
			series = append(series, ts)
		}
	}
	return shards, series
}

// TestServeShardedOneShardMatchesServe is the regression pin for the
// "sharding replaces, not forks, the old path" requirement: a one-shard
// deployment must reproduce the direct unsharded Serve bit-identically.
func TestServeShardedOneShardMatchesServe(t *testing.T) {
	direct := summarize(runServe(t, serveCfg(), redisws.ServeHooks{}))

	shards, _ := buildShards(t, 1, 0)
	out, err := redisws.ServeSharded(shards, redisws.ShardConfigs(serveCfg(), 1))
	if err != nil {
		t.Fatal(err)
	}
	sharded := summarize(out.Merged)
	if !reflect.DeepEqual(direct, sharded) {
		t.Errorf("one-shard deployment differs from direct Serve:\n  direct : %+v\n  sharded: %+v", direct, sharded)
	}
}

// shardedRun executes a 4-shard deployment and flattens everything
// deterministic about it: merged summary, per-shard summaries, merged series
// windows and worst exemplar.
type shardedOutcome struct {
	Merged   serveSummary
	PerShard []serveSummary
	Windows  []obsv.WindowSnap
	Worst    obsv.Exemplar
}

func shardedRun(t *testing.T, n int) shardedOutcome {
	t.Helper()
	const window = 2_000_000
	shards, series := buildShards(t, n, window)
	out, err := redisws.ServeSharded(shards, redisws.ShardConfigs(serveCfg(), n))
	if err != nil {
		t.Fatal(err)
	}
	merged, err := redisws.MergeShardSeries("none", window, 0, series)
	if err != nil {
		t.Fatal(err)
	}
	oc := shardedOutcome{Merged: summarize(out.Merged), Windows: merged.Windows()}
	for _, r := range out.Shards {
		oc.PerShard = append(oc.PerShard, summarize(r))
	}
	if ex, ok := merged.WorstExemplar(); ok {
		oc.Worst = ex
	}
	return oc
}

// TestServeShardedDeterministicAcrossHostParallelism is the tentpole
// acceptance pin: a sharded deployment's merged summary, per-shard rows,
// time-series windows, and exemplars must be bit-identical whether the
// shards run on one host thread or several.
func TestServeShardedDeterministicAcrossHostParallelism(t *testing.T) {
	old := workpool.Parallelism()
	defer workpool.SetParallelism(old)

	workpool.SetParallelism(1)
	serial := shardedRun(t, 4)
	workpool.SetParallelism(4)
	parallel := shardedRun(t, 4)

	if serial.Merged.Ops != 4000 {
		t.Fatalf("merged ops %d, want the full deployment budget", serial.Merged.Ops)
	}
	if len(serial.Windows) == 0 {
		t.Fatal("no merged windows; the series pin is vacuous")
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("sharded outcome differs across host parallelism:\n  1 thread : %+v\n  4 threads: %+v", serial, parallel)
	}
}

// TestServeShardedRaceHammer drives 8 shards at workpool parallelism 8 — under
// `go test -race` this is the isolation proof that no state is shared across
// shard clock domains.
func TestServeShardedRaceHammer(t *testing.T) {
	old := workpool.Parallelism()
	defer workpool.SetParallelism(old)
	workpool.SetParallelism(8)

	const n = 8
	shards, _ := buildShards(t, n, 0)
	out, err := redisws.ServeSharded(shards, redisws.ShardConfigs(serveCfg(), n))
	if err != nil {
		t.Fatal(err)
	}
	if out.Merged.Ops != 4000 {
		t.Fatalf("merged ops %d, want 4000", out.Merged.Ops)
	}
	for i, r := range out.Shards {
		if r.Ops == 0 {
			t.Errorf("shard %d served no ops", i)
		}
	}
}

// TestLatencyRecorderMergeMatchesSingleStream is the merge-layer property
// test: latencies partitioned across per-shard recorders and merged must
// reproduce the single-stream reference exactly for everything the histogram
// answers (count, percentiles, snapshot), since the histogram merge is exact.
func TestLatencyRecorderMergeMatchesSingleStream(t *testing.T) {
	const n, vals = 3, 5000
	ref := redisws.NewLatencyRecorder(256, 0)
	parts := make([]*redisws.LatencyRecorder, n)
	for i := range parts {
		parts[i] = redisws.NewLatencyRecorder(256, 0)
	}
	// Deterministic pseudo-random latencies (LCG), partitioned round-robin.
	x := uint64(0x2545F4914F6CDD1D)
	for i := 0; i < vals; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		v := (x >> 33) % 1_000_000
		ref.Observe(v)
		parts[i%n].Observe(v)
	}
	merged := redisws.NewLatencyRecorder(256, 0)
	for _, p := range parts {
		merged.Merge(p)
	}
	if merged.Count() != ref.Count() {
		t.Fatalf("merged count %d != %d", merged.Count(), ref.Count())
	}
	for _, q := range []float64{50, 90, 99, 99.9} {
		if m, r := merged.Percentile(q), ref.Percentile(q); m != r {
			t.Errorf("p%g: merged %v != reference %v", q, m, r)
		}
	}
	if !reflect.DeepEqual(merged.Hist.Snapshot(""), ref.Hist.Snapshot("")) {
		t.Error("merged histogram snapshot differs from single-stream reference")
	}
	if merged.Max() != ref.Max() {
		t.Errorf("merged max %v != %v", merged.Max(), ref.Max())
	}
}

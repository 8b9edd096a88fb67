package redisws

import (
	"errors"
	"fmt"
	"slices"

	"ffccd/internal/ds"
	"ffccd/internal/obsv"
	"ffccd/internal/pmop"
	"ffccd/internal/sim"
	"ffccd/internal/workpool"
)

// Sharded serving: the keyspace is partitioned by key-hash across N fully
// independent simulated machines. Each shard has its own pmem.Device,
// alloc.Heap, sim.Ctx clock domain, scheme engine, and counter-RNG stream —
// a SET, conflict, or open defrag epoch on shard A never serializes shard B.
// Whole shards run as workpool jobs, so serving throughput scales with host
// cores instead of one device's lock domain.
//
// Determinism. Every shard is a pure function of its own config and seed
// (redisws.Serve's existing guarantee), and the merge folds per-shard results
// in shard-index order with order-insensitive (histogram sums) or
// explicitly-ordered (exemplar sort keyed latency/arrival/key/shard)
// operations — so the merged summary, histogram snapshots, time-series
// windows, and exemplars are bit-identical at any host thread count and any
// FFCCD_PARALLEL (pinned by TestServeShardedDeterministicAcrossHostParallelism).

// shardSeedMix spreads per-shard seeds across the counter-RNG space
// (golden-ratio multiplier); shard 0 keeps the base seed so a one-shard
// deployment draws the exact unsharded stream.
const shardSeedMix = 0x9E3779B97F4A7C15

// shardOfKey routes key k to one of shards machines with a 64-bit
// finalizer-mixed hash (splitmix64/murmur3 finalizer), so consecutive keys
// spread instead of striping.
func shardOfKey(k uint64, shards int) int {
	h := k
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return int(h % uint64(shards))
}

// OwnedKeys lists, ascending, the keys of [0, keyspace) that hash to shard
// (of shards). The union over all shards is an exact partition of the
// keyspace.
func OwnedKeys(keyspace uint64, shard, shards int) []uint64 {
	if shards <= 1 {
		out := make([]uint64, keyspace)
		for k := range out {
			out[k] = uint64(k)
		}
		return out
	}
	out := make([]uint64, 0, keyspace/uint64(shards)+1)
	for k := uint64(0); k < keyspace; k++ {
		if shardOfKey(k, shards) == shard {
			out = append(out, k)
		}
	}
	return out
}

// ErrShards marks a deployment no machine can be built for: fewer than one
// shard, or a shard that would own no key. It is a usage error (the CLIs exit
// 2 on it), reported before any machine exists.
var ErrShards = errors.New("redisws: every shard must own at least one key")

// ShardKeys returns how many keys of [0, keyspace) each of shards machines
// owns — len(OwnedKeys) per shard, counted in one pass — or an ErrShards
// error. Deployments are sized from it.
func ShardKeys(keyspace, shards int) ([]int, error) {
	if shards >= 1 && shards <= keyspace {
		owned := make([]int, shards)
		for k := 0; k < keyspace; k++ {
			owned[shardOfKey(uint64(k), shards)]++
		}
		if !slices.Contains(owned, 0) {
			return owned, nil
		}
	}
	return nil, fmt.Errorf("%w: got %d shards over %d keys", ErrShards, shards, keyspace)
}

// Shard is one independent simulated machine of a sharded deployment. Ctx is
// its loader context; all four fields live in the shard's private clock
// domain and must not be shared between shards.
type Shard struct {
	Ctx   *sim.Ctx
	Pool  *pmop.Pool
	Store ds.Store
	Hooks ServeHooks
}

// ShardedResult is a completed sharded serving run: the deterministic merge
// plus the per-shard rows it was folded from.
type ShardedResult struct {
	Merged ServeResult
	Shards []ServeResult
}

// ShardConfigs derives the per-shard configs of an n-shard deployment from
// the deployment-wide config: clients, op counts, LRU budget, maintenance
// cadence, and offered load are split across shards; seeds decorrelate via
// shardSeedMix (shard 0 keeps cfg.Seed). n <= 1 returns cfg verbatim — the
// unsharded dispatcher is the one-shard special case, not a separate path.
func ShardConfigs(cfg ServeConfig, n int) []ServeConfig {
	if n <= 1 {
		return []ServeConfig{cfg}
	}
	share := func(total, i int) int {
		s := total / n
		if i < total%n {
			s++
		}
		return max(s, 1)
	}
	maint := cfg.MaintEvery
	if maint <= 0 {
		maint = cfg.Keyspace / 4
	}
	out := make([]ServeConfig, n)
	for i := 0; i < n; i++ {
		c := cfg
		c.ShardIndex, c.ShardCount = i, n
		c.Clients = share(cfg.Clients, i)
		c.Ops = share(cfg.Ops, i)
		c.MaxLiveBytes = cfg.MaxLiveBytes / uint64(n)
		c.MaintEvery = max(maint/n, 1)
		if cfg.RatePerSec > 0 {
			c.RatePerSec = cfg.RatePerSec / float64(n)
		}
		c.Seed = cfg.Seed ^ int64(uint64(i)*shardSeedMix)
		out[i] = c
	}
	return out
}

// ServeSharded runs one serving config per shard machine (len(shards) must
// equal len(cfgs); use ShardConfigs to derive cfgs) and merges the results.
// Shards execute as workpool jobs — host-parallel when the pool has helpers,
// strictly in shard order when it does not — and the merge is identical
// either way.
func ServeSharded(shards []Shard, cfgs []ServeConfig) (ShardedResult, error) {
	if len(shards) == 0 || len(shards) != len(cfgs) {
		return ShardedResult{}, fmt.Errorf("redisws.ServeSharded: %d shards vs %d configs", len(shards), len(cfgs))
	}
	return runShards(shards, func(i int, sh Shard) (ServeResult, error) {
		return Serve(sh.Ctx, sh.Pool, sh.Store, cfgs[i], sh.Hooks)
	})
}

// RunSharded is ServeSharded from loaded shards: shard i runs from loaded[i],
// which Load returned on that shard's machine, or which a LoadedImage forked
// for it when the machine is a fork.
func RunSharded(shards []Shard, loaded []*Loaded) (ShardedResult, error) {
	if len(shards) == 0 || len(shards) != len(loaded) {
		return ShardedResult{}, fmt.Errorf("redisws.RunSharded: %d shards vs %d loaded states", len(shards), len(loaded))
	}
	return runShards(shards, func(i int, sh Shard) (ServeResult, error) {
		return loaded[i].Run(sh.Ctx, sh.Pool, sh.Store, sh.Hooks)
	})
}

// runShards runs every shard's serving run as a workpool job and merges the
// results.
func runShards(shards []Shard, run func(i int, sh Shard) (ServeResult, error)) (ShardedResult, error) {
	out := ShardedResult{Shards: make([]ServeResult, len(shards))}
	err := workpool.ForEach(len(shards), func(i int) error {
		r, err := run(i, shards[i])
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		out.Shards[i] = r
		return nil
	})
	if err != nil {
		return out, err
	}
	out.Merged = MergeServeResults(out.Shards)
	return out, nil
}

// MergeServeResults folds per-shard results, in shard-index order, into one
// deployment-wide result: counters and cycle sums add, the latency
// histograms merge exactly (obsv.Histogram.Merge), makespan is the slowest
// shard's, offered load sums, and crash fields surface the crashed shard's
// outage. One input is returned as-is, so a one-shard deployment is
// bit-identical to the unsharded run it wraps.
func MergeServeResults(rs []ServeResult) ServeResult {
	if len(rs) == 0 {
		return ServeResult{}
	}
	if len(rs) == 1 {
		return rs[0]
	}
	m := ServeResult{Lat: NewLatencyRecorder(0, 0)}
	for i := range rs {
		r := &rs[i]
		m.Ops += r.Ops
		m.Gets += r.Gets
		m.Sets += r.Sets
		m.Hits += r.Hits
		m.Misses += r.Misses
		m.Evictions += r.Evictions
		m.Lat.Merge(r.Lat)
		m.AppCycles += r.AppCycles
		m.InterfCycles += r.InterfCycles
		m.StallWaitCycles += r.StallWaitCycles
		m.QueueWaitCycles += r.QueueWaitCycles
		m.RateUsed += r.RateUsed
		if r.Makespan > m.Makespan {
			m.Makespan = r.Makespan
		}
		m.SimCycles += r.SimCycles
		m.ParallelOps += r.ParallelOps
		m.SerialOps += r.SerialOps
		m.Batches += r.Batches
		m.Crashes += r.Crashes
		if r.Crashes > 0 && r.CrashCycle >= m.CrashCycle {
			m.CrashCycle = r.CrashCycle
			m.ResumeCycle = r.ResumeCycle
			m.TimeToFirstAck = r.TimeToFirstAck
		}
		m.BlackoutCycles += r.BlackoutCycles
		m.Retries += r.Retries
		m.Rejects += r.Rejects
		m.Admitted += r.Admitted
		m.Final.FootprintBytes += r.Final.FootprintBytes
		m.Final.LiveBytes += r.Final.LiveBytes
		m.Final.UsedFrames += r.Final.UsedFrames
	}
	if m.Final.FootprintBytes > 0 {
		m.Final.FragRatio = float64(m.Final.FootprintBytes) / float64(m.Final.LiveBytes)
	}
	return m
}

// MergeShardSeries folds per-shard time series into one deployment-wide
// series (see obsv.TimeSeries.Merge); fold order is shard index, and the
// exemplar order is fully keyed (latency, arrival, key, shard), so the
// merged series is independent of host scheduling.
func MergeShardSeries(scheme string, windowCycles uint64, k int, shardSeries []*obsv.TimeSeries) (*obsv.TimeSeries, error) {
	merged := obsv.NewTimeSeries(scheme, windowCycles, k)
	for i, ts := range shardSeries {
		if ts == nil {
			continue
		}
		if err := merged.Merge(ts); err != nil {
			return nil, fmt.Errorf("shard %d series: %w", i, err)
		}
	}
	return merged, nil
}

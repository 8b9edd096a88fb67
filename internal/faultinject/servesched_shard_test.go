package faultinject_test

// Tests for sharded serving crash trials: the per-shard census pass, the
// one-shard-blackout crash semantics (siblings keep serving), the sharded
// repro round trip, and bit-identity of a sharded trial across host
// parallelism.

import (
	"testing"

	"ffccd/internal/faultinject"
	"ffccd/internal/workpool"
)

// shardedServe returns fast sharded trial volumes for one scheme.
func shardedServe(scheme string, seed int64, shards, target int) faultinject.ServeRepro {
	rep := smallServe(scheme, seed)
	rep.Shards, rep.Shard = shards, target
	return rep
}

func TestServeReproShardRoundTrip(t *testing.T) {
	rep := shardedServe("ffccd", 7, 4, 2)
	rep.Site = 55
	got, err := faultinject.ParseServeRepro(rep.MarshalLine())
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if got != rep {
		t.Fatalf("round trip: got %+v want %+v", got, rep)
	}
	// Pre-sharding lines parse as a one-shard deployment.
	legacy, err := faultinject.ParseServeRepro(`{"scheme":"ffccd","clients":4,"ops":100,"keys":64,"seed":1,"site":-1,"nested":-1,"policy":"drop","salt":0}`)
	if err != nil {
		t.Fatalf("legacy line: %v", err)
	}
	if legacy.Shards != 1 || legacy.Shard != 0 {
		t.Fatalf("legacy line normalized to shards=%d shard=%d", legacy.Shards, legacy.Shard)
	}
	if _, err := faultinject.ParseServeRepro(`{"scheme":"ffccd","shards":2,"shard":2}`); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
}

// TestServeShardedCensusPerShard checks a sharded census pass yields every
// shard's own site space in one run.
func TestServeShardedCensusPerShard(t *testing.T) {
	rep := shardedServe("ffccd", 11, 2, 0)
	res, err := faultinject.RunServeScheduled(rep, faultinject.TrialOptions{})
	if err != nil {
		t.Fatalf("census: %v", err)
	}
	if len(res.ShardCensus) != 2 {
		t.Fatalf("ShardCensus len %d, want 2", len(res.ShardCensus))
	}
	for s, sc := range res.ShardCensus {
		if sc.Total == 0 {
			t.Errorf("shard %d census found no sites", s)
		}
	}
	if res.Census.Total != res.ShardCensus[rep.Shard].Total {
		t.Errorf("Census (target shard) %d != ShardCensus[%d] %d",
			res.Census.Total, rep.Shard, res.ShardCensus[rep.Shard].Total)
	}
	if len(res.ShardHashes) != 2 || res.ShardHashes[0] == res.ShardHashes[1] {
		t.Errorf("per-shard hashes %v should be present and distinct", res.ShardHashes)
	}
	if len(res.PerShard) != 2 {
		t.Fatalf("PerShard len %d, want 2", len(res.PerShard))
	}
	if got := res.PerShard[0].Ops + res.PerShard[1].Ops; got != rep.Ops {
		t.Errorf("per-shard ops sum %d != deployment budget %d", got, rep.Ops)
	}
}

// TestServeShardedCrashSiblingsKeepServing is the one-shard-blackout pin:
// the armed crash fires only on the target shard, the sibling never crashes,
// and the merged run still completes the whole deployment budget.
func TestServeShardedCrashSiblingsKeepServing(t *testing.T) {
	base := shardedServe("ffccd", 11, 2, 1)
	census, err := faultinject.RunServeScheduled(base, faultinject.TrialOptions{})
	if err != nil {
		t.Fatalf("census: %v", err)
	}
	armed := base
	armed.Site = int64(census.ShardCensus[1].Total / 2)
	res, err := faultinject.RunServeScheduled(armed, faultinject.TrialOptions{})
	if err != nil {
		t.Fatalf("armed: %v", err)
	}
	if res.Crash == nil {
		t.Fatal("armed crash did not fire")
	}
	if got := res.PerShard[1].Crashes; got != 1 {
		t.Errorf("target shard crashes = %d, want 1", got)
	}
	if got := res.PerShard[0].Crashes; got != 0 {
		t.Errorf("sibling shard crashed %d times; the blackout must stay shard-local", got)
	}
	if res.PerShard[0].BlackoutCycles != 0 {
		t.Errorf("sibling blackout %d cycles, want 0", res.PerShard[0].BlackoutCycles)
	}
	sv := res.Serve
	if sv.Crashes != 1 || sv.Ops != base.Ops {
		t.Errorf("merged crashes=%d ops=%d, want 1 crash and the full %d ops", sv.Crashes, sv.Ops, base.Ops)
	}
	if sv.BlackoutCycles == 0 || sv.TimeToFirstAck == 0 {
		t.Errorf("merged availability fields empty: blackout=%d ttfa=%d", sv.BlackoutCycles, sv.TimeToFirstAck)
	}
}

// TestServeShardedDeterministicAcrossHostParallelism pins the sharded trial's
// bit-identity witness: same armed sharded schedule, same folded media hash
// and merged counters at host parallelism 1 and 4.
func TestServeShardedDeterministicAcrossHostParallelism(t *testing.T) {
	base := shardedServe("stw", 23, 2, 0)
	census, err := faultinject.RunServeScheduled(base, faultinject.TrialOptions{})
	if err != nil {
		t.Fatalf("census: %v", err)
	}
	armed := base
	armed.Site = int64(census.ShardCensus[0].Total / 2)

	old := workpool.Parallelism()
	defer workpool.SetParallelism(old)

	type pin struct {
		final, h0, h1 uint64
		ops, retries  int
		sim           uint64
	}
	run := func(par int) pin {
		workpool.SetParallelism(par)
		res, err := faultinject.RunServeScheduled(armed, faultinject.TrialOptions{})
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		if res.Crash == nil {
			t.Fatalf("par=%d: crash did not fire", par)
		}
		return pin{res.FinalHash, res.ShardHashes[0], res.ShardHashes[1],
			res.Serve.Ops, res.Serve.Retries, res.Serve.SimCycles}
	}
	p1 := run(1)
	p4 := run(4)
	if p1 != p4 {
		t.Fatalf("sharded trial differs across host parallelism:\n 1: %+v\n 4: %+v", p1, p4)
	}
}

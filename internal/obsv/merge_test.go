package obsv

import (
	"reflect"
	"testing"
)

// TestTimeSeriesMergeMatchesSingleStream is the merge-layer property test:
// a completion log partitioned across per-shard series and merged must equal
// the single-stream reference — windows, counts, percentiles, cycle sums,
// exemplars, and overlay intervals.
func TestTimeSeriesMergeMatchesSingleStream(t *testing.T) {
	const shards, nops, width = 4, 3000, 10_000
	ref := NewTimeSeries("ffccd", width, 3)
	parts := make([]*TimeSeries, shards)
	for i := range parts {
		parts[i] = NewTimeSeries("ffccd", width, 3)
	}

	// Deterministic pseudo-random completion log (LCG); each op routes to one
	// shard and lands in both the reference and that shard's series.
	x := uint64(0x9E3779B97F4A7C15)
	next := func(mod uint64) uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return (x >> 33) % mod
	}
	for i := 0; i < nops; i++ {
		arrival := next(width * 20)
		lat := 1 + next(50_000)
		s := int(next(shards))
		op := OpSample{
			Arrival:  arrival,
			Start:    arrival + lat/4,
			Complete: arrival + lat,
			App:      lat / 2,
			Interf:   lat / 8,
			Stall:    lat / 8,
			Queue:    lat / 4,
			Cause: StallCause{
				App: lat / 2, QueueWait: lat / 4, Phase: "idle",
				Key: next(500), Shard: s, CacheSet: -1,
			},
		}
		ref.ObserveOp(op)
		parts[s].ObserveOp(op)
	}
	// Overlay intervals: one per shard, all present in the reference.
	for s, ts := range parts {
		start := uint64(s+1) * width
		ts.AddInterval(IntervalEpoch, start, start+width/2, uint64(s))
		ref.AddInterval(IntervalEpoch, start, start+width/2, uint64(s))
	}

	merged := NewTimeSeries("ffccd", width, 3)
	for _, ts := range parts {
		if err := merged.Merge(ts); err != nil {
			t.Fatal(err)
		}
	}

	if merged.Count() != ref.Count() {
		t.Fatalf("merged count %d != reference %d", merged.Count(), ref.Count())
	}
	mw, rw := merged.Windows(), ref.Windows()
	if len(mw) == 0 {
		t.Fatal("no windows; the property is vacuous")
	}
	if !reflect.DeepEqual(mw, rw) {
		t.Errorf("merged windows differ from single-stream reference (%d vs %d windows)", len(mw), len(rw))
		for i := range mw {
			if i < len(rw) && !reflect.DeepEqual(mw[i], rw[i]) {
				t.Errorf("first divergence at window %d:\n  merged:    %+v\n  reference: %+v", i, mw[i], rw[i])
				break
			}
		}
	}
	me, mok := merged.WorstExemplar()
	re, rok := ref.WorstExemplar()
	if mok != rok || me != re {
		t.Errorf("worst exemplar differs: merged %+v vs reference %+v", me, re)
	}
	if !reflect.DeepEqual(merged.Intervals(), ref.Intervals()) {
		t.Error("merged overlay intervals differ from reference")
	}
}

// TestTimeSeriesMergeOrderInvariant pins the fold-order independence the
// sharded dispatcher relies on: merging the same per-shard series in any
// order yields identical windows and exemplars (the exCmp shard tie-break
// makes worst-K selection total).
func TestTimeSeriesMergeOrderInvariant(t *testing.T) {
	const shards, nops, width = 3, 600, 5_000
	parts := make([]*TimeSeries, shards)
	for i := range parts {
		parts[i] = NewTimeSeries("stw", width, 2)
	}
	x := uint64(7)
	next := func(mod uint64) uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return (x >> 33) % mod
	}
	for i := 0; i < nops; i++ {
		arrival := next(width * 8)
		// Coarse latencies force cross-shard exemplar ties, exercising the
		// shard tie-break.
		lat := (1 + next(4)) * 1000
		s := int(next(shards))
		parts[s].ObserveOp(OpSample{
			Arrival: arrival, Start: arrival, Complete: arrival + lat,
			App:   lat,
			Cause: StallCause{App: lat, Key: next(10), Shard: s, CacheSet: -1},
		})
	}
	fold := func(order []int) *TimeSeries {
		m := NewTimeSeries("stw", width, 2)
		for _, i := range order {
			if err := m.Merge(parts[i]); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	a := fold([]int{0, 1, 2})
	b := fold([]int{2, 0, 1})
	if !reflect.DeepEqual(a.Windows(), b.Windows()) {
		t.Error("merge result depends on fold order")
	}
}

// TestTimeSeriesMergeWidthMismatch pins the error path: shard series of
// different window widths must refuse to merge rather than mis-bucket.
func TestTimeSeriesMergeWidthMismatch(t *testing.T) {
	a := NewTimeSeries("none", 1000, 0)
	b := NewTimeSeries("none", 2000, 0)
	if err := a.Merge(b); err == nil {
		t.Fatal("width mismatch merged silently")
	}
	if err := a.Merge(nil); err != nil {
		t.Fatalf("nil merge should be a no-op, got %v", err)
	}
}

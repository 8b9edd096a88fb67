package experiments

import (
	"errors"
	"strings"
	"testing"
	"time"

	"ffccd/internal/obsv"
	"ffccd/internal/redisws"
)

// servingTestOpts is a small serving grid that still triggers defrag on both
// schemes, sized for test wall-clock.
func servingTestOpts() ServingOptions {
	return ServingOptions{
		Scale:    0.002,
		Clients:  8,
		Ops:      12000,
		Keyspace: 1500,
		Seed:     7,
		Schemes:  []string{"ffccd", "stw"},
		Shards:   1,
	}
}

// windowOnlyKey reports metric keys that exist only when the time series is
// enabled; everything else must be bit-identical with windows on or off.
func windowOnlyKey(k string) bool {
	return strings.HasSuffix(k, ".windows") || strings.HasSuffix(k, ".worst_window_p999_cycles")
}

// TestServingWindowsDoNotPerturb is the experiment-level bit-identity pin:
// the windowed time series (including the epoch tap into core.Engine and the
// device drain probe) must not change any simulated metric of the serving
// grid, while the enabled run actually produces windows and CSV rows.
func TestServingWindowsDoNotPerturb(t *testing.T) {
	opts := servingTestOpts()

	opts.NoWindows = true
	off, err := Serving(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.NoWindows = false
	on, err := Serving(opts)
	if err != nil {
		t.Fatal(err)
	}

	mOff, mOn := off.Metrics(), on.Metrics()
	for k, v := range mOff {
		if windowOnlyKey(k) {
			t.Fatalf("windows-off run emitted window metric %s", k)
		}
		if mOn[k] != v {
			t.Errorf("windows perturbed %s: off %v, on %v", k, v, mOn[k])
		}
	}
	for k := range mOn {
		if _, ok := mOff[k]; !ok && !windowOnlyKey(k) {
			t.Errorf("unexpected extra metric %s in windowed run", k)
		}
	}

	for _, v := range off.Variants {
		if v.Series != nil {
			t.Fatalf("%s: NoWindows run still built a series", v.Name)
		}
	}
	csv := on.CSV()
	for _, v := range on.Variants {
		key := v.Scheme
		if v.Series == nil || v.Series.Count() == 0 {
			t.Fatalf("%s: windowed run captured nothing", v.Name)
		}
		if len(v.Series.Windows()) == 0 {
			t.Errorf("%s: the series has no window rows", v.Name)
		}
		if !strings.Contains(csv, "\n"+key+",") && !strings.HasPrefix(csv, key+",") {
			t.Errorf("%s: CSV has no rows for scheme %q:\n%s", v.Name, key, csv)
		}
		if mOn["serving."+key+".windows"] == 0 {
			t.Errorf("%s: windows metric is zero", v.Name)
		}
	}
	if !strings.HasPrefix(csv, obsv.CSVHeader+"\n") {
		t.Errorf("CSV missing header:\n%.120s", csv)
	}
}

// TestShardedServingRendersLanes: a sharded run's table is followed by one
// timeline lane per shard and then the merged timeline.
func TestShardedServingRendersLanes(t *testing.T) {
	opts := servingTestOpts()
	opts.Schemes, opts.Shards = []string{"ffccd"}, 2
	res, err := Serving(opts)
	if err != nil {
		t.Fatal(err)
	}
	out := res.String()
	last := 0
	for _, want := range []string{"FFCCD shard 0 lane:\n", "FFCCD shard 1 lane:\n", "per-window p999 — FFCCD:\n"} {
		i := strings.Index(out, want)
		if i < last {
			t.Fatalf("%q missing or out of order:\n%s", want, out)
		}
		last = i
	}
	if n := strings.Count(out, "ffccd: "); n != 3 {
		t.Errorf("%d timelines rendered, want two lanes and the merge:\n%s", n, out)
	}
}

// TestShardCountCheckedBeforeMachines: a deployment some shard of which would
// own no key, or with fewer than one shard, is refused by Serving and
// ServingCrash before either builds a machine (1 501 shards is more than
// either keyspace has keys) — each of the 1 501 machines asked for here has a
// 32 MB pool, so building even a few would blow the time
// bound (it used to end in an OOM kill or in redisws.Serve's complaint).
func TestShardCountCheckedBeforeMachines(t *testing.T) {
	for _, shards := range []int{1501, 0, -3} {
		start := time.Now()
		opts := servingTestOpts()
		opts.Shards = shards
		res, err := Serving(opts)
		if !errors.Is(err, redisws.ErrShards) || len(res.Variants) != 0 {
			t.Errorf("Serving with %d shards over 1500 keys: err %v, %d variants; want ErrShards and none", shards, err, len(res.Variants))
		}
		cres, err := ServingCrash(ServingCrashOptions{Shards: shards})
		if !errors.Is(err, redisws.ErrShards) || len(cres.Variants) != 0 {
			t.Errorf("ServingCrash with %d shards over its default keyspace: err %v, %d variants; want ErrShards and none", shards, err, len(cres.Variants))
		}
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Errorf("%d shards: refused after %v — machines were built first", shards, d)
		}
	}
}

// TestServingSTWExemplarAttribution is the acceptance pin for tail
// attribution: at the working scale, every p999-class exemplar the STW run
// captures must blame its wait on an STW pause (directly or through the
// queue chain), referencing a pause interval the overlay log independently
// recorded — and for direct stalls, one that actually covers the wait.
func TestServingSTWExemplarAttribution(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale serving run; skipped under -short")
	}
	res, err := Serving(ServingOptions{Scale: 0.002, Schemes: []string{"stw"}, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	v := res.Variants[0]
	if v.Series == nil {
		t.Fatal("no series on the stw variant")
	}

	type span struct{ start, end uint64 }
	ends := map[uint64]span{}
	for _, iv := range v.Series.Intervals() {
		if iv.Kind == obsv.IntervalSTW {
			ends[iv.End] = span{iv.Start, iv.End}
		}
	}
	if len(ends) == 0 {
		t.Fatal("stw run recorded no pause intervals")
	}

	p999 := uint64(v.P999)
	checked := 0
	for _, w := range v.Series.Windows() {
		for _, ex := range w.Exemplars {
			if ex.Latency < p999 {
				continue
			}
			checked++
			c := ex.Cause
			if dom := c.Dominant(); dom != "stw" && dom != "queue" {
				t.Errorf("p999 exemplar (lat %d, window %d) dominated by %q, want stw/queue: %+v",
					ex.Latency, w.Index, dom, c)
				continue
			}
			if c.STWRef == 0 {
				t.Errorf("p999 exemplar (lat %d, window %d) has no STW chain ref: %+v",
					ex.Latency, w.Index, c)
				continue
			}
			iv, ok := ends[c.STWRef]
			if !ok {
				t.Errorf("exemplar stw_ref %d matches no recorded pause interval", c.STWRef)
				continue
			}
			// A directly-stalled request waited [Start-STWWait, Start) for
			// exactly that pause to lift.
			if c.STWWait > 0 && c.Dominant() == "stw" {
				if ex.Start != iv.end || ex.Start-c.STWWait < iv.start {
					t.Errorf("stall [%d,%d) not covered by its pause [%d,%d)",
						ex.Start-c.STWWait, ex.Start, iv.start, iv.end)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no p999-class exemplars captured; attribution check vacuous")
	}
}

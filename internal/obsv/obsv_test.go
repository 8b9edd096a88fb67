package obsv

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"ffccd/internal/sim"
)

func TestHistogramSnapshot(t *testing.T) {
	h := &Histogram{}
	for i := uint64(1); i <= 100; i++ {
		h.Observe(i)
	}
	s := h.Snapshot("lat")
	if s.Count != 100 || s.Min != 1 || s.Max != 100 {
		t.Fatalf("count/min/max = %d/%d/%d", s.Count, s.Min, s.Max)
	}
	if got, want := s.Mean(), 50.5; got != want {
		t.Fatalf("mean = %v want %v", got, want)
	}
	// Log-linear buckets: the p50 estimate must bound the true median (50)
	// from above within 1/16 relative error, and p99 lands in 100's bucket,
	// clamped to the observed max.
	if s.P50 < 50 || s.P50 > 63 {
		t.Fatalf("p50 = %d, want within [50,63]", s.P50)
	}
	if s.P99 != 100 {
		t.Fatalf("p99 = %d, want clamped to max 100", s.P99)
	}
	if zero := (&Histogram{}).Snapshot("z"); zero.Count != 0 || zero.Mean() != 0 {
		t.Fatalf("empty snapshot = %+v", zero)
	}
}

// TestHistogramResolution pins the HDR-style log-linear bucket contract:
// every quantile estimate is an upper bound on the true value with relative
// error at most 2^-histSubBits, across the full uint64 range.
func TestHistogramResolution(t *testing.T) {
	// Bucket geometry: index and upper bound must be mutually consistent.
	probe := []uint64{0, 1, 15, 16, 17, 31, 32, 33, 63, 64, 100, 1023, 1024,
		1<<20 + 12345, 1<<40 + 987654321, 1<<63 + 12345, ^uint64(0)}
	for _, v := range probe {
		i := bucketIndex(v)
		if i < 0 || i >= histBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, i)
		}
		u := bucketUpper(i)
		if v > u {
			t.Fatalf("value %d above its bucket upper %d (idx %d)", v, u, i)
		}
		if i+1 < histBuckets && bucketUpper(i+1) <= u {
			t.Fatalf("bucket uppers not increasing at idx %d", i)
		}
		// Relative width bound: upper/v - 1 <= 2^-histSubBits for v >= 16.
		if v >= histSubCount {
			if err := float64(u-v) / float64(v); err > 1.0/histSubCount {
				t.Fatalf("bucket relative error %v for value %d (upper %d)", err, v, u)
			}
		} else if u != v {
			t.Fatalf("small value %d not exact (upper %d)", v, u)
		}
	}

	// End-to-end: a geometric sweep of observations; each quantile estimate
	// must be >= the true order statistic and within 1/16 above it.
	h := &Histogram{}
	var vals []uint64
	v := uint64(1)
	for v < 1<<50 {
		vals = append(vals, v)
		h.Observe(v)
		v += v/7 + 1
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		idx := int(q * float64(len(vals)))
		if idx >= len(vals) {
			idx = len(vals) - 1
		}
		truth := vals[idx] // vals is sorted by construction
		got := h.Quantile(q)
		if got < truth {
			t.Fatalf("q=%v: estimate %d below true %d", q, got, truth)
		}
		if float64(got-truth)/float64(truth) > 1.0/histSubCount {
			t.Fatalf("q=%v: estimate %d exceeds true %d by more than 1/%d", q, got, truth, histSubCount)
		}
	}

	// Merge is exact: two halves merged equal one histogram of the union.
	a, b, all := &Histogram{}, &Histogram{}, &Histogram{}
	for i, x := range vals {
		if i%2 == 0 {
			a.Observe(x)
		} else {
			b.Observe(x)
		}
		all.Observe(x)
	}
	a.Merge(b)
	sa, sall := a.Snapshot("m"), all.Snapshot("m")
	if sa != sall {
		t.Fatalf("merged snapshot %+v != direct %+v", sa, sall)
	}
}

func TestRingOverwrites(t *testing.T) {
	cfg := sim.DefaultConfig()
	ctx := sim.NewCtx(&cfg)
	tr := NewTracer(4)
	for i := uint64(0); i < 10; i++ {
		tr.Instant(ctx, KindWPQDrain, i)
	}
	bufs := tr.Threads()
	if len(bufs) != 1 {
		t.Fatalf("threads = %d", len(bufs))
	}
	ev := bufs[0].Events()
	if len(ev) != 4 || bufs[0].Dropped != 6 {
		t.Fatalf("len=%d dropped=%d", len(ev), bufs[0].Dropped)
	}
	for i, e := range ev {
		if want := uint64(6 + i); e.Arg != want {
			t.Fatalf("ring order: ev[%d].Arg = %d want %d", i, e.Arg, want)
		}
	}
	if tr.EventCount() != 10 {
		t.Fatalf("event count = %d", tr.EventCount())
	}
}

func TestDerivedCtxSharesThreadBuffer(t *testing.T) {
	cfg := sim.DefaultConfig()
	ctx := sim.NewCtx(&cfg)
	other := sim.NewCtx(&cfg)
	tr := NewTracer(0)
	tr.Name(ctx, "app")
	tr.Instant(ctx, KindTrigger, 1)
	tr.Instant(ctx.Derived(sim.CatMark), KindMark, 2)
	tr.Instant(other, KindTrigger, 3)
	bufs := tr.Threads()
	if len(bufs) != 2 {
		t.Fatalf("threads = %d, want derived ctx to share its parent buffer", len(bufs))
	}
	if bufs[0].Name != "app" || len(bufs[0].Events()) != 2 {
		t.Fatalf("buf0 = %q/%d events", bufs[0].Name, len(bufs[0].Events()))
	}
}

func TestSpanUsesSimulatedCycles(t *testing.T) {
	cfg := sim.DefaultConfig()
	ctx := sim.NewCtx(&cfg)
	tr := NewTracer(0)
	start := Now(ctx)
	ctx.Clock.Add(sim.CatMark, 1234)
	tr.Span(ctx, KindMark, start, 7)
	e := tr.Threads()[0].Events()[0]
	if e.Start != start || e.End != start+1234 || e.Arg != 7 {
		t.Fatalf("span = %+v", e)
	}
}

func TestMarkCrashPlacesInstantAtLatestCycle(t *testing.T) {
	cfg := sim.DefaultConfig()
	ctx := sim.NewCtx(&cfg)
	tr := NewTracer(0)
	ctx.Clock.Add(sim.CatApp, 500)
	tr.Instant(ctx, KindTrigger, 0)
	tr.MarkCrash()
	if !tr.Crashed() {
		t.Fatal("Crashed() = false")
	}
	bufs := tr.Threads()
	last := bufs[len(bufs)-1]
	if last.Name != "machine" {
		t.Fatalf("crash buffer name = %q", last.Name)
	}
	if e := last.Events()[0]; e.Kind != KindCrash || e.Start != 500 {
		t.Fatalf("crash event = %+v", e)
	}
}

func TestRegistrySnapshotUnifiesGroups(t *testing.T) {
	r := NewRegistry()
	r.Hist("read_barrier_cycles").Observe(40)
	r.RegisterGroup("device", func() map[string]uint64 {
		return map[string]uint64{"loads": 10, "clwbs": 2}
	})
	s := r.Snapshot()
	if len(s.Hists) != 1 || len(s.Groups) != 1 {
		t.Fatalf("snapshot shape = %d/%d", len(s.Hists), len(s.Groups))
	}
	if s.Groups[0].Keys[0] != "clwbs" || s.Groups[0].Vals[0] != 2 {
		t.Fatalf("group not sorted: %+v", s.Groups[0])
	}
	if s.Groups[0].Name != "device" || s.Groups[0].Vals[1] != 10 ||
		s.Hists[0].Name != "read_barrier_cycles" || s.Hists[0].Count != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	// Stable pointers: a second lookup must return the same histogram.
	if r.Hist("read_barrier_cycles").Snapshot("x").Count != 1 {
		t.Fatal("Hist() did not return the existing histogram")
	}
}

func TestChromeTraceExport(t *testing.T) {
	cfg := sim.DefaultConfig()
	col := NewCollector(0)
	o := col.NewObs("fig14/FFCCD")
	ctx := sim.NewCtx(&cfg)
	o.Tracer.Name(ctx, "gc")
	start := Now(ctx)
	ctx.Clock.Add(sim.CatMark, 2600) // 1µs at 2.6GHz
	o.Tracer.Span(ctx, KindMark, start, 11)
	o.Tracer.Instant(ctx, KindTrigger, 1)

	var buf bytes.Buffer
	if err := col.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, buf.String())
	}
	var sawProc, sawSpan, sawInstant, sawMarkLane, sawEpochLane bool
	for _, e := range evs {
		switch e["ph"] {
		case "M":
			if e["name"] == "process_name" {
				sawProc = e["args"].(map[string]any)["name"] == "fig14/FFCCD"
			}
			if e["name"] == "thread_name" {
				n := e["args"].(map[string]any)["name"].(string)
				sawMarkLane = sawMarkLane || n == "gc/mark"
				sawEpochLane = sawEpochLane || n == "gc/epoch"
			}
		case "X":
			if e["name"] == "mark" && e["dur"].(float64) == 1.0 {
				sawSpan = true
			}
		case "i":
			sawInstant = sawInstant || e["name"] == "trigger"
		}
	}
	if !sawProc || !sawSpan || !sawInstant || !sawMarkLane || !sawEpochLane {
		t.Fatalf("missing trace pieces: proc=%v span=%v instant=%v markLane=%v epochLane=%v",
			sawProc, sawSpan, sawInstant, sawMarkLane, sawEpochLane)
	}
}

func TestTimelineAndFlightRecorderDump(t *testing.T) {
	cfg := sim.DefaultConfig()
	o := New(2)
	ctx := sim.NewCtx(&cfg)
	o.Tracer.Name(ctx, "app")
	for i := uint64(0); i < 5; i++ {
		ctx.Clock.Add(sim.CatApp, 100)
		o.Tracer.Instant(ctx, KindWPQDrain, i)
	}
	o.Tracer.MarkCrash()
	var buf bytes.Buffer
	if err := WriteFlightRecorder(&buf, o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"crashed=true", "overwritten by ring", "wpq-drain", "crash"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
}

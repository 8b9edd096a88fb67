package obsv

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"ffccd/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden fixtures")

// goldenTraceCollector builds a fully deterministic two-thread trace covering
// every lane class (epoch/stw/mark/copy/barrier/persist), instants, spans, and
// a crash buffer — the byte-for-byte fixture for the Chrome-trace exporter.
func goldenTraceCollector() *Collector {
	cfg := sim.DefaultConfig()
	col := NewCollector(0)
	o := col.NewObs("fig14/FFCCD")

	gc := sim.NewCtx(&cfg)
	o.Tracer.Name(gc, "gc")
	o.Tracer.Instant(gc, KindTrigger, 1)
	epochStart := Now(gc)
	stwStart := Now(gc)
	gc.Clock.Add(sim.CatMark, 2600)
	o.Tracer.Span(gc, KindMark, stwStart, 11)
	o.Tracer.Span(gc, KindSTW, stwStart, 0)
	copyStart := Now(gc)
	gc.Clock.Add(sim.CatCopy, 5200)
	o.Tracer.Span(gc, KindCopy, copyStart, 7)
	fixStart := Now(gc)
	gc.Clock.Add(sim.CatGCMisc, 1300)
	o.Tracer.Span(gc, KindBarrierFix, fixStart, 0)
	o.Tracer.Span(gc, KindEpoch, epochStart, 1)

	app := sim.NewCtx(&cfg)
	o.Tracer.Name(app, "app")
	app.Clock.Add(sim.CatApp, 999)
	o.Tracer.Instant(app, KindWPQDrain, 3)

	o.Tracer.MarkCrash()
	return col
}

// TestChromeTraceGolden pins the exporter's exact output — event ordering,
// lane assignment, metadata emission order, field formatting — against a
// committed fixture. Run `go test ./internal/obsv/ -run Golden -update` after
// an intentional format change.
func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTraceCollector().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()
	path := filepath.Join("testdata", "chrome_trace.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden fixture unreadable (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Chrome trace drifted from golden fixture %s.\ngot:\n%s\nwant:\n%s\n(run with -update if the change is intentional)",
			path, got, want)
	}
	// The fixture itself must also stay valid, loadable trace JSON — the
	// structural checks TestChromeTraceExport applies to a live export.
	var evs []map[string]any
	if err := json.Unmarshal(want, &evs); err != nil {
		t.Fatalf("golden fixture is not valid JSON: %v", err)
	}
	if len(evs) == 0 || evs[0]["ph"] != "M" {
		t.Fatalf("fixture shape unexpected: %v", evs[:1])
	}
}

package main

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"ffccd/internal/experiments"
	"ffccd/internal/obsv"
)

// capture runs run(args) with the process's stdout and stderr redirected and
// returns the exit code and what was printed to each.
func capture(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	dir := t.TempDir()
	files := [2]*os.File{}
	for i, name := range []string{"stdout", "stderr"} {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		files[i] = f
	}
	oldOut, oldErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = files[0], files[1]
	defer func() { os.Stdout, os.Stderr = oldOut, oldErr }()
	code = run(args)
	var text [2]string
	for i, f := range files {
		b, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		text[i] = string(b)
	}
	return code, text[0], text[1]
}

func TestListPrintsEveryExperiment(t *testing.T) {
	code, out, _ := capture(t, "-list")
	want := []string{"table1", "table2", "fig1", "fig5", "table3", "fig14", "table4", "fig15", "fig16",
		"serving", "servingcrash", "ablation-rbb", "ablation-pmft", "ablation-writes"}
	if got := strings.Fields(out); code != 0 || !slices.Equal(got, want) {
		t.Errorf("-list exited %d and printed %q, want 0 and %q", code, got, want)
	}
}

// TestUsageErrorsExitTwo: what the command line gets wrong is reported before
// any experiment runs, with the usage exit code. A -scale must be finite and
// positive (NaN passes a plain <= 0 test). -fork and -repeat are flags this
// command no longer has. An unknown -scheme is refused before table1
// runs under -experiment all, and so is mesh: Figure 16 runs Mesh, the
// serving experiments do not.
func TestUsageErrorsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-experiment", "fig99"},
		{"-experiment", "table1", "-scale", "-1"},
		{"-experiment", "table1", "-scale", "big"},
		{"-experiment", "fig5", "-scale", "NaN"},
		{"-experiment", "fig1", "-scale", "Inf"},
		{"-experiment", "fig1", "-scale", "-Inf"},
		{"-experiment", "serving", "-shards", "0"},
		{"-experiment", "serving", "-scale", "0.0002", "-shards", "5000"},
		{"-experiment", "table1", "-fork=false"},
		{"-experiment", "table1", "-repeat", "2"},
		{"-experiment", "serving", "-scheme", "bogus"},
		{"-experiment", "all", "-scheme", "bogus"},
		{"-experiment", "fig5", "-scale", "0.0005", "-shards", "3000", "-scheme", "stw"},
		{"-experiment", "serving", "-scheme", "mesh"},
		{"-experiment", "servingcrash", "-scheme", "mesh"},
		{"-experiment", "table1", "-shards", "2"},
		{"-experiment", "table1", "-scheme", "ffccd"},
		{"-experiment", "table1", "-parallel", "-1"},
		{"-experiment", "table1", "-trace-ring", "-8", "-trace", os.DevNull},
	} {
		code, out, stderr := capture(t, args...)
		if code != 2 || strings.Contains(out, "====") || stderr == "" {
			t.Errorf("run(%q) = %d, stdout %q, stderr %q; want 2, no experiment output and a message", args, code, out, stderr)
		}
	}
}

// TestServingCrashExperiment: the availability grid runs as an experiment id
// of its own and honours -scheme.
func TestServingCrashExperiment(t *testing.T) {
	code, out, stderr := capture(t, "-experiment", "servingcrash", "-scheme", "ffccd")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, want := range []string{"==== servingcrash", "ServingCrash — availability", "blackout(cyc)", "\nffccd ", "per-window p999 — ffccd"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "\nstw ") {
		t.Errorf("-scheme ffccd also ran stw:\n%s", out)
	}
}

// TestJSONRecordFields: the -json record has exactly the fields something
// still reads (scripts/benchscale.sh, scripts/serveshard.sh, make benchsmoke).
func TestJSONRecordFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rec.json")
	if code, _, stderr := capture(t, "-experiment", "table1", "-json", path); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var recs []map[string]any
	if err := json.Unmarshal(b, &recs); err != nil || len(recs) != 1 {
		t.Fatalf("want one record, got %d (%v):\n%s", len(recs), err, b)
	}
	var keys []string
	for k := range recs[0] {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"experiment", "host_seconds", "metrics", "parallel", "scale"}; !slices.Equal(keys, want) {
		t.Errorf("record fields %q, want %q", keys, want)
	}
}

// TestFailingRunKeepsItsProfile: a run that fails after the CPU profile was
// started still stops the profile and closes its file (main used to os.Exit
// under the pending defers and leave an empty file).
func TestFailingRunKeepsItsProfile(t *testing.T) {
	dir := t.TempDir()
	prof := filepath.Join(dir, "cpu.prof")
	code, _, _ := capture(t, "-experiment", "table1", "-cpuprofile", prof, "-json", filepath.Join(dir, "missing", "rec.json"))
	if code != 1 {
		t.Fatalf("an unwritable -json exited %d, want 1", code)
	}
	f, err := os.Open(prof)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("profile is not a gzip stream (truncated?): %v", err)
	}
	if b, err := io.ReadAll(zr); err != nil || len(b) == 0 {
		t.Errorf("profile does not decompress: %d bytes, %v", len(b), err)
	}
}

// TestMetricsScrapeDuringRun scrapes /metrics in a loop while a small fig5
// runs with observability on, and once after it. The handler may only ever
// see a finished experiment's collection: a collection's snapshot groups read
// its machines' clocks and counters, plain data the run's goroutines write
// without synchronization, so a collection published before its run returns
// is a data race that go test -race reports (Clock.Merge on the scrape
// goroutine against Clock.Add on a run goroutine).
func TestMetricsScrapeDuringRun(t *testing.T) {
	var finished atomic.Pointer[obsv.Collector]
	srv := httptest.NewServer(metricsHandler(&finished))
	defer srv.Close()

	scrape := func() int {
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Error(err)
			return 0
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Error(err)
		}
		if resp.StatusCode == http.StatusOK && !strings.HasSuffix(string(b), "# EOF\n") {
			t.Errorf("scrape answered 200 with %d bytes and no # EOF", len(b))
		}
		return resp.StatusCode
	}
	done := make(chan struct{})
	scrapes := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-done:
				scrapes <- n
				return
			default:
				scrape()
				n++
			}
		}
	}()
	_, err := observe(obsv.NewCollector(0), &finished, func() (fmt.Stringer, error) { return experiments.Figure5(0.0005) })
	close(done)
	t.Logf("%d scrapes during the run", <-scrapes)
	if err != nil {
		t.Fatal(err)
	}
	if code := scrape(); code != http.StatusOK {
		t.Errorf("scrape after the run answered %d, want 200", code)
	}
}

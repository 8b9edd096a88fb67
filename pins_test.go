package ffccd_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"ffccd/internal/faultinject"
)

var updatePins = flag.Bool("update-pins", false, "rewrite testdata/pins.txt and name the lines that moved")

const pinsPath = "testdata/pins.txt"

// pinnedOutputs returns every line `make crashmatrix` and `make servecrash`
// print, wall times stripped, keyed by "<target> <setting>" (the closing
// totals line is "<target> total"). The settings and campaign options are
// those two Makefile targets' ffccd-crashtest flags.
func pinnedOutputs() (keys, lines []string) {
	var serving []faultinject.Setting
	for _, scheme := range faultinject.ServeSchemes {
		serving = append(serving, faultinject.Setting{Serve: scheme})
	}
	for _, target := range []struct {
		name     string
		settings []faultinject.Setting
		co       faultinject.CampaignOptions
	}{
		{"crashmatrix", faultinject.AllSettings(),
			faultinject.CampaignOptions{Seed: 1, MaxSites: 56, Nested: true, MaxNested: 16, Timeout: 2 * time.Minute}},
		{"servecrash", serving,
			faultinject.CampaignOptions{Seed: 1, MaxSites: 10, Nested: true, MaxNested: 3, Timeout: 2 * time.Minute}},
	} {
		failures := 0
		for _, s := range target.settings {
			out := faultinject.ExploreSetting(s, target.co)
			failures += len(out.Failures)
			keys = append(keys, target.name+" "+s.String())
			lines = append(lines, out.Summary())
		}
		keys = append(keys, target.name+" total")
		lines = append(lines, fmt.Sprintf("crash campaign: %d failures", failures))
	}
	return keys, lines
}

// TestPins recomputes testdata/pins.txt, one SHA-256 per line of the
// crashmatrix and servecrash outputs, and fails on every line whose hash
// moved. A host-side change must move none; an intentional change of the
// simulated machine rewrites the manifest with `make pins`, which lists the
// lines that moved. -short skips it: the pins do not depend on -short, and
// its 3 s of campaigns take many times that under the race detector, which
// `make race` runs with -short.
func TestPins(t *testing.T) {
	if testing.Short() {
		t.Skip("runs both crash campaigns; the pins do not depend on -short")
	}
	keys, lines := pinnedOutputs()
	want := map[string]string{}
	if text, err := os.ReadFile(pinsPath); err == nil {
		for _, l := range strings.Split(string(text), "\n") {
			if l == "" || strings.HasPrefix(l, "#") {
				continue
			}
			i := strings.LastIndexByte(l, ' ')
			want[l[:i]] = l[i+1:]
		}
	} else if !*updatePins {
		t.Fatal(err)
	}
	for k := range want {
		if !slices.Contains(keys, k) && !*updatePins {
			t.Errorf("%s is pinned but no longer printed", k)
		}
	}
	var b strings.Builder
	b.WriteString("# SHA-256 of each line `make crashmatrix` and `make servecrash` print, wall times\n")
	b.WriteString("# stripped. TestPins checks it; `make pins` rewrites it.\n")
	for i, k := range keys {
		sum := fmt.Sprintf("%x", sha256.Sum256([]byte(lines[i])))
		fmt.Fprintf(&b, "%s %s\n", k, sum)
		if want[k] == sum {
			continue
		}
		if *updatePins {
			t.Logf("moved: %s: %s", k, lines[i])
		} else {
			t.Errorf("%s moved: %s (pinned %.12s, now %.12s)", k, lines[i], want[k], sum)
		}
	}
	if *updatePins {
		if err := os.WriteFile(pinsPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

package ffccd_test

import (
	"fmt"
	"testing"
	"time"

	"ffccd/internal/faultinject"
	"ffccd/internal/pins"
)

// TestPins recomputes the crash-campaign sections of testdata/pins.txt and
// fails on every line that moved (package pins lists the other sections and
// their tests): every line `make crashmatrix` and `make servecrash` print,
// wall times stripped, keyed "<target> <setting>" (the closing totals line is
// "<target> total"), with the settings and campaign options of those two
// Makefile targets' ffccd-crashtest flags, and the one campaign neither
// target runs, sharded serving, as "campaign serve/2S/ffccd". A host-side
// change must move none; an intentional change of the simulated machine
// rewrites the file with `make pins`. -short skips it: the pins do not depend
// on -short, and its campaigns take many times their 2 s under the race
// detector, which `make race` runs with -short.
func TestPins(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every pinned campaign; the pins do not depend on -short")
	}
	p := pins.Open(t, "crashmatrix", "servecrash", "campaign")
	var keys []string
	pin := func(key, text string) {
		keys = append(keys, key)
		p.Expect(t, key, text)
	}
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
			pin(target.name+" "+s.String(), out.Summary())
		}
		pin(target.name+" total", fmt.Sprintf("crash campaign: %d failures", failures))
	}
	s := faultinject.Setting{Serve: "ffccd", Shards: 2}
	out := faultinject.ExploreSetting(s, faultinject.CampaignOptions{
		Seed: 1, Clients: 4, Ops: 1200, Keys: 400, MaxSites: 4, Nested: true, MaxNested: 2})
	pin("campaign "+s.String(), out.Summary())
	p.Close(t, keys)
}

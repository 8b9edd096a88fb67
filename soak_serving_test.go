package ffccd_test

// Serving-path soak: a wide double-crash campaign — for every scheme, a
// first power failure mid-dispatch at many stratified sites, each paired
// with a second failure injected DURING the recovery from the first — with
// durable-ack validation, online resume, and a final graph check per
// schedule. The stratified version in internal/faultinject's tests and
// `make servecrash` runs a handful of sites; this is the long form, skipped
// under -short.

import (
	"testing"
	"time"

	"ffccd/internal/faultinject"
)

func TestSoakServingDoubleCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	co := faultinject.CampaignOptions{
		Seed:    77,
		Clients: 4,
		Ops:     1600,
		Keys:    400,
		// 24 first-level sites per scheme, every one of them also exercised
		// as the base of a crash-during-recovery schedule.
		MaxSites:  24,
		Nested:    true,
		MaxNested: 24,
		Timeout:   2 * time.Minute,
		Shrink:    true,
	}
	for _, scheme := range faultinject.ServeSchemes {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			t.Parallel()
			out := faultinject.ExploreSetting(faultinject.Setting{Serve: scheme}, co)
			if out.Scheduled == 0 {
				t.Fatalf("%s: no schedules ran (census %d sites)", scheme, out.SitesTotal)
			}
			for _, f := range out.Failures {
				t.Errorf("%s: %s", scheme, f)
			}
			t.Logf("%s: %d/%d schedules passed over %d sites, coverage %s",
				scheme, out.Passed, out.Scheduled, out.SitesTotal, out.CoverageString())
		})
	}
}

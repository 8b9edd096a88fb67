package faultinject

// TestCampaignGolden pins what a campaign does, not just that it passes: for
// three batch settings and two serving schemes, the summary line a campaign
// prints and every first-level schedule it runs — the repro line, the
// media hashes right after the crash and at the end of the trial, and what
// recovery cost in simulated cycles. A refactor
// of the campaign, the trial drivers or the restart sequence must leave
// testdata/campaign.golden untouched; regenerate it only for an intentional
// change of the schedule space or the simulated machine:
//
//	go test ./internal/faultinject/ -run TestCampaignGolden -args -update

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"ffccd/internal/pmem"
)

var updateCampaignGolden = flag.Bool("update", false, "rewrite testdata/campaign.golden from the current code")

const campaignGoldenPath = "testdata/campaign.golden"

// goldenCampaign appends a campaign's summary under label and, rerunning
// them, each of its first-level schedules.
func goldenCampaign(t *testing.T, b *strings.Builder, label string, out CampaignOutcome, base Schedule, co CampaignOptions) {
	census, err := base.Run(TrialOptions{})
	if err != nil {
		t.Fatalf("%s census: %v", label, err)
	}
	shardCensus := census.ShardCensus
	if len(shardCensus) == 0 {
		shardCensus = []pmem.SiteCensus{census.Census}
	}
	fmt.Fprintf(b, "== %s passed=%d/%d sites=%d skipped=%v failures=%d coverage=%s\n", label, out.Passed, out.Scheduled,
		out.SitesTotal, out.Skipped, len(out.Failures), out.CoverageString())
	firsts, _ := firstLevel(base, shardCensus, co)
	// Recovery inherits nothing from the machine before the crash, so equal
	// crashed images recover at equal cost.
	recovery := map[uint64]uint64{}
	for _, s := range firsts {
		res, err := s.Run(TrialOptions{})
		if err != nil {
			t.Fatalf("%s: %v", s.MarshalLine(), err)
		}
		if c, ok := recovery[res.PostCrashHash]; ok && c != res.RecoveryCycles {
			t.Errorf("%s: recovery took %d cycles, another trial's recovery of the same crashed image %d",
				s.MarshalLine(), res.RecoveryCycles, c)
		}
		recovery[res.PostCrashHash] = res.RecoveryCycles
		fmt.Fprintf(b, "%s post=%#x final=%#x recovery=%d\n", s.MarshalLine(), res.PostCrashHash, res.FinalHash,
			res.RecoveryCycles)
	}
}

func goldenBatch(t *testing.T, b *strings.Builder, name string) {
	setting, err := ParseSetting(name)
	if err != nil {
		t.Fatal(err)
	}
	co := CampaignOptions{Seed: 1, MaxSites: 6, Nested: true, MaxNested: 2}
	goldenCampaign(t, b, name, ExploreSetting(setting, co), NewRepro(setting, co.Seed), co)
}

// goldenServe appends the campaign of scheme's serving setting on shards
// machines (0 = unsharded), under the label "serve/<scheme>" whatever the
// shard count.
func goldenServe(t *testing.T, b *strings.Builder, scheme string, shards int) {
	setting := Setting{Serve: scheme, Shards: shards}
	co := CampaignOptions{Seed: 1, Clients: 4, Ops: 1200, Keys: 400, MaxSites: 4, Nested: true, MaxNested: 2}
	base := NewRepro(setting, co.Seed).(ServeRepro)
	base.Clients, base.Ops, base.Keys = co.Clients, co.Ops, co.Keys
	goldenCampaign(t, b, "serve/"+scheme, ExploreSetting(setting, co), base, co)
}

func TestCampaignGolden(t *testing.T) {
	var b strings.Builder
	for _, s := range []string{"LL/1T/ffccd", "BT/1T/sfccd", "FPTree/2T/ffccd"} {
		goldenBatch(t, &b, s)
	}
	goldenServe(t, &b, "ffccd", 2)
	got := b.String()
	if *updateCampaignGolden {
		if err := os.WriteFile(campaignGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(campaignGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("campaign output drifted from %s (rerun with -args -update only for an intentional change)\n got:\n%s\nwant:\n%s",
			campaignGoldenPath, got, want)
	}
}

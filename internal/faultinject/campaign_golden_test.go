package faultinject

// TestCampaignGolden pins what a campaign does, not just that it passes: for
// three batch settings and two serving schemes, the summary line a campaign
// prints and every first-level schedule it runs — the repro line and the
// media hashes right after the crash and at the end of the trial. A refactor
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

func goldenBatch(t *testing.T, b *strings.Builder, name string) {
	setting, err := ParseSetting(name)
	if err != nil {
		t.Fatal(err)
	}
	co := CampaignOptions{Seed: 1, MaxSites: 6, Nested: true, MaxNested: 2}
	out := ExploreSetting(setting, co)
	base := NewRepro(setting, co.Seed)
	census, err := RunScheduled(base, TrialOptions{})
	if err != nil {
		t.Fatalf("%s census: %v", name, err)
	}
	var cov [pmem.NumSiteClasses]int
	var lines []string
	for i, site := range selectSites(census.Census, co.MaxSites) {
		r := base
		r.Site = site
		r.Policy = Policies[i%len(Policies)]
		r.Salt = uint64(site)*0x9E3779B97F4A7C15 + uint64(co.Seed)
		res, err := RunScheduled(r, TrialOptions{})
		if err != nil {
			t.Fatalf("%s: %v", r.MarshalLine(), err)
		}
		if res.Crash != nil {
			cov[res.Crash.Class]++
		}
		lines = append(lines, fmt.Sprintf("%s post=%#x final=%#x", r.MarshalLine(), res.PostCrashHash, res.FinalHash))
	}
	fmt.Fprintf(b, "== %s passed=%d/%d sites=%d skipped=%v failures=%d coverage=%s\n", name, out.Passed, out.Scheduled,
		out.SitesTotal, out.Skipped, len(out.Failures), ServeCampaignOutcome{Covered: cov}.CoverageString())
	b.WriteString(strings.Join(lines, "\n") + "\n")
}

func goldenServe(t *testing.T, b *strings.Builder, scheme string, shards int) {
	co := ServeCampaignOptions{Seed: 1, Clients: 4, Ops: 1200, Keys: 400, MaxSites: 4, Shards: shards,
		Nested: true, MaxNested: 2}
	out := ExploreServeScheme(scheme, co)
	base := NewServeRepro(scheme, co.Seed)
	base.Clients, base.Ops, base.Keys, base.Shards = co.Clients, co.Ops, co.Keys, shards
	census, err := RunServeScheduled(base, ServeTrialOptions{})
	if err != nil {
		t.Fatalf("serve/%s census: %v", scheme, err)
	}
	shardCensus := []pmem.SiteCensus{census.Census}
	if shards > 1 {
		shardCensus = census.ShardCensus
	}
	var lines []string
	n := 0
	for sh, sc := range shardCensus {
		for _, site := range selectSites(sc, co.MaxSites/shards) {
			r := base
			r.Shard, r.Site = sh, site
			r.Policy = Policies[n%len(Policies)]
			r.Salt = uint64(site)*0x9E3779B97F4A7C15 + uint64(co.Seed) + uint64(sh)
			n++
			res, err := RunServeScheduled(r, ServeTrialOptions{})
			if err != nil {
				t.Fatalf("%s: %v", r.MarshalLine(), err)
			}
			lines = append(lines, fmt.Sprintf("%s post=%#x final=%#x", r.MarshalLine(), res.PostCrashHash, res.FinalHash))
		}
	}
	fmt.Fprintf(b, "== serve/%s passed=%d/%d sites=%d skipped=%v failures=%d coverage=%s\n", scheme, out.Passed, out.Scheduled,
		out.SitesTotal, false, len(out.Failures), out.CoverageString())
	b.WriteString(strings.Join(lines, "\n") + "\n")
}

func TestCampaignGolden(t *testing.T) {
	var b strings.Builder
	for _, s := range []string{"LL/1T/ffccd", "BT/1T/sfccd", "FPTree/2T/ffccd"} {
		goldenBatch(t, &b, s)
	}
	goldenServe(t, &b, "ffccd", 2)
	goldenServe(t, &b, "mesh", 1)
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

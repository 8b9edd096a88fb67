package faultinject_test

// Tests for the deterministic crash-schedule driver, the campaign runner,
// the repro artifact round trip, and the shrinker.

import (
	"strings"
	"testing"
	"time"

	"ffccd/internal/core"
	"ffccd/internal/ds"
	"ffccd/internal/faultinject"
	"ffccd/internal/pmem"
	"ffccd/internal/pmop"
	"ffccd/internal/sim"
)

func ffccdSetting() faultinject.Setting {
	return faultinject.Setting{Store: "LL", Threads: 1, Scheme: core.SchemeFFCCD}
}

// plantPhaseCorruption is the synthetic checker-failure hook: it flips the
// recovered pool's phase word back to "compacting", which checker step 2
// rejects deterministically. It proves the failure→repro→replay loop with
// a corruption no real code path produces.
func plantPhaseCorruption(ctx *sim.Ctx, p *pmop.Pool, _ ds.Store) {
	p.SetGCPhase(ctx, 1)
}

func TestScheduledTrialDeterministic(t *testing.T) {
	rep := faultinject.NewRepro(ffccdSetting(), 3).(faultinject.Repro)
	census, err := rep.Run(faultinject.TrialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !census.Began || census.Census.Total == 0 {
		t.Fatalf("census pass opened no epoch: %+v", census)
	}
	rep.Site = int64(census.Census.Total) / 2
	rep.Policy = faultinject.PolicySalt
	rep.Salt = 0xfeed
	a, errA := rep.Run(faultinject.TrialOptions{})
	b, errB := rep.Run(faultinject.TrialOptions{})
	if errA != nil || errB != nil {
		t.Fatalf("scheduled runs failed: %v / %v", errA, errB)
	}
	if a.Crash == nil || b.Crash == nil {
		t.Fatalf("scheduled crash did not fire: %+v / %+v", a.Crash, b.Crash)
	}
	if *a.Crash != *b.Crash {
		t.Errorf("crash differs across replays: %+v vs %+v", a.Crash, b.Crash)
	}
	if a.Census != b.Census || a.RecoveryCensus != b.RecoveryCensus {
		t.Errorf("census differs across replays")
	}
	if a.PostCrashHash != b.PostCrashHash {
		t.Errorf("post-crash media hash differs: %#x vs %#x", a.PostCrashHash, b.PostCrashHash)
	}
	if a.FinalHash != b.FinalHash {
		t.Errorf("final media hash differs: %#x vs %#x", a.FinalHash, b.FinalHash)
	}
}

func TestSiteClassCoverage(t *testing.T) {
	// The census of one FFCCD trial must contain every compaction-side site
	// class; a crash's recovery census must contain recovery steps.
	rep := faultinject.NewRepro(ffccdSetting(), 1).(faultinject.Repro)
	res, err := rep.Run(faultinject.TrialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, cl := range []pmem.SiteClass{
		pmem.SiteSfence, pmem.SiteWPQDrain, pmem.SiteRelocate,
		pmem.SiteRelocateLine, pmem.SiteMovedBit, pmem.SiteBarrierFixup,
		pmem.SiteEpochTransition,
	} {
		if res.Census.FirstIndex[cl] < 0 {
			t.Errorf("site class %s never hit in census: %+v", cl, res.Census)
		}
	}
	rep.Site = int64(res.Census.Total) / 2
	crashed, err := rep.Run(faultinject.TrialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if crashed.Crash == nil {
		t.Fatal("mid-census site did not fire")
	}
	if crashed.RecoveryCensus.FirstIndex[pmem.SiteRecoveryStep] < 0 {
		t.Errorf("recovery census missing recovery-step sites: %+v", crashed.RecoveryCensus)
	}
}

func TestGoldenUnaffectedByDisarmedSites(t *testing.T) {
	// With no schedule armed the site hooks must not perturb the machine:
	// two plain trials and one scheduled census of the same seed must agree
	// on the final media image.
	rep := faultinject.NewRepro(ffccdSetting(), 11).(faultinject.Repro)
	a, errA := rep.Run(faultinject.TrialOptions{})
	b, errB := rep.Run(faultinject.TrialOptions{})
	if errA != nil || errB != nil {
		t.Fatalf("census runs failed: %v / %v", errA, errB)
	}
	if a.FinalHash == 0 || a.FinalHash != b.FinalHash {
		t.Fatalf("disarmed runs not bit-identical: %#x vs %#x", a.FinalHash, b.FinalHash)
	}
}

func TestSyntheticFailureReproReplaysBitIdentically(t *testing.T) {
	// Plant a corruption after recovery, watch the campaign fail, then
	// replay the emitted repro line and demand the same error and the same
	// media images — the acceptance test for the repro artifact.
	opts := faultinject.TrialOptions{AfterRecovery: plantPhaseCorruption}
	co := faultinject.CampaignOptions{
		Seed:     5,
		MaxSites: 3,
		Trial:    opts,
	}
	out := faultinject.ExploreSetting(ffccdSetting(), co)
	if out.Skipped || out.Scheduled == 0 {
		t.Fatalf("campaign did not run: %+v", out)
	}
	if len(out.Failures) == 0 {
		t.Fatal("planted corruption produced no failures")
	}
	f := out.Failures[0]
	if !strings.Contains(f.Err, "phase") {
		t.Fatalf("unexpected failure mode: %s", f.Err)
	}
	if !strings.Contains(f.Repro.Command(), "ffccd-crashtest -repro '") {
		t.Fatalf("failure carries no repro command: %q", f.Repro.Command())
	}

	line := f.Repro.MarshalLine()
	parsed, err := faultinject.ParseSchedule(line)
	if err != nil {
		t.Fatalf("emitted repro line does not parse: %v", err)
	}
	if parsed != f.Repro {
		t.Fatalf("repro round trip drifted: %+v vs %+v", parsed, f.Repro)
	}
	r1, err1 := parsed.Run(opts)
	r2, err2 := parsed.Run(opts)
	if err1 == nil || err2 == nil {
		t.Fatalf("replay did not reproduce the failure: %v / %v", err1, err2)
	}
	if err1.Error() != f.Err || err2.Error() != f.Err {
		t.Fatalf("replay error drifted:\n campaign: %s\n replay:   %s", f.Err, err1)
	}
	if r1.PostCrashHash != r2.PostCrashHash || r1.Census != r2.Census {
		t.Fatal("replays not bit-identical")
	}
}

func TestShrinkFindsSmallerFailingSchedule(t *testing.T) {
	opts := faultinject.TrialOptions{AfterRecovery: plantPhaseCorruption}
	rep := faultinject.NewRepro(ffccdSetting(), 5).(faultinject.Repro)
	census, err := rep.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	rep.Site = int64(census.Census.Total) / 2
	if _, err := rep.Run(opts); err == nil {
		t.Fatal("seed schedule unexpectedly passes")
	}
	shrunk, ok := faultinject.Shrink(rep, opts, 0, faultinject.ShrinkBudget)
	if !ok {
		t.Fatal("shrinker found nothing smaller")
	}
	min := shrunk.(faultinject.Repro)
	if min.Ops > rep.Ops || min.Site > rep.Site {
		t.Fatalf("shrunk schedule is not smaller: %+v vs %+v", min, rep)
	}
	if _, err := min.Run(opts); err == nil {
		t.Fatalf("shrunk schedule does not fail: %+v", min)
	}
}

func TestWatchdogReportsHangAsFailure(t *testing.T) {
	stall := func(*sim.Ctx, *pmop.Pool, ds.Store) { time.Sleep(10 * time.Second) }
	co := faultinject.CampaignOptions{
		Seed:     5,
		MaxSites: 1, // class-first floor still applies; keep the wave small
		Timeout:  300 * time.Millisecond,
		Trial:    faultinject.TrialOptions{AfterRecovery: stall},
	}
	out := faultinject.ExploreSetting(ffccdSetting(), co)
	if len(out.Failures) == 0 {
		t.Fatal("hung trials produced no failures")
	}
	hung := 0
	for _, f := range out.Failures {
		if f.Hung {
			hung++
			if !strings.Contains(f.Err, "watchdog") {
				t.Errorf("hung failure lacks watchdog error: %s", f.Err)
			}
		}
	}
	if hung == 0 {
		t.Fatalf("no failure marked hung: %+v", out.Failures)
	}
}

func TestCampaignCleanSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, s := range []faultinject.Setting{
		{Store: "LL", Threads: 1, Scheme: core.SchemeFFCCD},
		{Store: "BT", Threads: 1, Scheme: core.SchemeSFCCD},
		{Store: "BzTree", Threads: 2, Scheme: core.SchemeFFCCD},
	} {
		co := faultinject.CampaignOptions{Seed: 7, MaxSites: 8, Nested: true, MaxNested: 3}
		out := faultinject.ExploreSetting(s, co)
		if out.Skipped {
			t.Errorf("%s: campaign skipped (store not fragmented)", s)
			continue
		}
		if out.Scheduled == 0 || out.Passed != out.Scheduled {
			t.Errorf("%s: %d/%d passed, failures: %+v", s, out.Passed, out.Scheduled, out.Failures)
		}
	}
}

// SS caps its keys at its slot count, so the threads of an SS/nT setting
// draw keys that collide once wrapped: a delete by one thread removes a key
// another inserted. The census check and every crash trial must still pass,
// which takes one model of the whole store, not one per thread.
func TestThreadsSharingSlotKeysCheckClean(t *testing.T) {
	s := faultinject.Setting{Store: "SS", Threads: 2, Scheme: core.SchemeFFCCD}
	out := faultinject.ExploreSetting(s, faultinject.CampaignOptions{Seed: 1, MaxSites: 4, Nested: true, MaxNested: 2})
	if out.Skipped || out.Scheduled == 0 || out.Passed != out.Scheduled || len(out.Failures) > 0 {
		t.Fatalf("%s: skipped=%v, %d/%d passed, failures: %+v", s, out.Skipped, out.Passed, out.Scheduled, out.Failures)
	}
}

func TestNestedCrashAllSettings(t *testing.T) {
	// Crash mid-compaction, crash again mid-recovery, then demand the final
	// unscheduled recovery satisfies the two-step checker — for all 26
	// settings of the paper. Along the way, the recovered media image of
	// every crashing run is hashed word by word and compared with the
	// device's dirty-page HashMedia: real recovered heaps, not synthetic
	// write patterns, must uphold the clean-pages-are-zero invariant.
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, s := range faultinject.AllSettings() {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			t.Parallel()
			hashed := 0
			checkHash := faultinject.TrialOptions{AfterRecovery: func(_ *sim.Ctx, p *pmop.Pool, _ ds.Store) {
				dev := p.Device()
				if got, want := dev.HashMedia(), denseMediaHash(dev.SnapshotMedia()); got != want {
					t.Errorf("HashMedia %#016x, dense hash of the snapshot %#016x", got, want)
				}
				hashed++
			}}
			rep := faultinject.NewRepro(s, 9).(faultinject.Repro)
			census, err := rep.Run(faultinject.TrialOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !census.Began {
				t.Fatal("no epoch opened")
			}
			rep.Site = int64(census.Census.Total) / 2
			first, err := rep.Run(checkHash)
			if err != nil {
				t.Fatal(err)
			}
			if first.Crash == nil {
				t.Fatal("first-level crash did not fire")
			}
			if first.RecoveryCensus.Total == 0 {
				t.Fatal("recovery exposed no crash sites")
			}
			rep.Nested = int64(first.RecoveryCensus.Total) / 2
			nested, err := rep.Run(checkHash)
			if err != nil {
				t.Fatal(err)
			}
			if nested.NestedCrash == nil {
				t.Fatal("nested crash did not fire")
			}
			if hashed != 2 {
				t.Fatalf("media hash compared %d times, want 2", hashed)
			}
		})
	}
}

func TestParseSettingRoundTrip(t *testing.T) {
	settings := append(faultinject.AllSettings(), faultinject.Setting{Serve: "stw", Shards: 4})
	for _, scheme := range faultinject.ServeSchemes {
		settings = append(settings, faultinject.Setting{Serve: scheme})
	}
	for _, s := range settings {
		got, err := faultinject.ParseSetting(s.String())
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if got != s {
			t.Fatalf("round trip drifted: %+v vs %+v", got, s)
		}
	}
	for _, name := range []string{"serve/ffccd", "serve/4S/stw"} {
		if s, err := faultinject.ParseSetting(name); err != nil || s.String() != name {
			t.Errorf("ParseSetting(%q) = %v, %v", name, s, err)
		}
	}
	for _, bad := range []string{"", "LL", "LL/1T", "LL/xT/ffccd", "LL/0T/ffccd",
		"LL/1T/bogus", "LL/1T/ffccd/extra", "ll/1T/ffccd",
		// The canonical unsharded form has no shard count, and 3000 shards
		// leave some of the default keyspace's shards without a key.
		"serve/", "serve/bogus", "serve/1S/ffccd", "serve/0S/ffccd", "serve/3000S/ffccd",
		"serve/4S", "serve/4S/ffccd/extra", "serve/xS/ffccd",
		// Mesh is Figure 16's comparator, not a serving scheme.
		"serve/mesh", "serve/2S/mesh"} {
		if _, err := faultinject.ParseSetting(bad); err == nil {
			t.Errorf("ParseSetting(%q) accepted", bad)
		}
	}
}

func TestParseReproRejectsGarbage(t *testing.T) {
	good := faultinject.NewRepro(ffccdSetting(), 1).MarshalLine()
	if _, err := faultinject.ParseSchedule(good); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{
		"",
		"{",
		`{"setting":"LL/1T/ffccd","seed":1,"ops":1,"tail_ops":0,"site":-1,"nested":-1,"policy":"bogus","salt":0}`,
		`{"setting":"nope","seed":1,"ops":1,"tail_ops":0,"site":-1,"nested":-1,"policy":"drop","salt":0}`,
		`{"setting":"serve/ffccd","seed":1,"ops":1,"tail_ops":0,"site":-1,"nested":-1,"policy":"drop","salt":0}`,
		`{"setting":"LL/1T/ffccd","seed":1,"typo_field":3}`,
		// A serving line that names Mesh, which is no serving scheme.
		`{"scheme":"mesh","clients":4,"ops":1200,"keys":400,"seed":1,"site":651,"nested":-1,"policy":"salt","salt":6274229748162464104,"shards":1,"shard":0}`,
	} {
		if _, err := faultinject.ParseSchedule(bad); err == nil {
			t.Errorf("ParseSchedule(%q) accepted", bad)
		}
	}
}

package faultinject_test

// Tests for the trial media life cycle and the media digest: README.md's
// repro lines pinned to the images they name, and trial devices released
// exactly when their trial is done with them. denseMediaHash, the whole-media
// digest HashMedia must agree with, is checked in sched_test.go.

import (
	"fmt"
	"testing"

	"ffccd/internal/ds"
	"ffccd/internal/faultinject"
	"ffccd/internal/pins"
	"ffccd/internal/pmem"
	"ffccd/internal/pmop"
	"ffccd/internal/sim"
)

// denseMediaHash is the digest HashMedia computed before it walked the pages
// a device holds: every word of the image, then the avalanche.
func denseMediaHash(b []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for len(b) >= 8 {
		w := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
		h = (h ^ w) * 0x100000001b3
		b = b[8:]
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// TestReproHashesPinned replays README.md's worked repro lines (the batch
// failure artifact, its shrunk form, and the serving schedule) as the repro
// section of testdata/pins.txt, keyed "repro <line>", each with the line
// ffccd-crashtest -repro prints and what its last recovery cost: a repro line
// pasted from an old report must still name the same media images.
func TestReproHashesPinned(t *testing.T) {
	p := pins.Open(t, "repro")
	var keys []string
	for _, line := range []string{
		`{"setting":"LL/1T/ffccd","seed":1,"ops":600,"tail_ops":120,"site":489,"nested":7,"policy":"salt","salt":5807}`,
		`{"setting":"LL/1T/ffccd","seed":1,"ops":75,"tail_ops":0,"site":61,"nested":7,"policy":"salt","salt":5807}`,
		`{"scheme":"ffccd","clients":4,"ops":1200,"keys":400,"seed":1,"site":1500,"nested":3,"policy":"salt","salt":99}`,
	} {
		rep, err := faultinject.ParseSchedule(line)
		if err != nil {
			t.Fatal(err)
		}
		res, err := rep.Run(faultinject.TrialOptions{})
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		keys = append(keys, "repro "+line)
		p.Expect(t, "repro "+line, fmt.Sprintf("%s recovery_cycles=%d", res.Summary(), res.RecoveryCycles))
	}
	p.Close(t, keys)
}

// TestTrialMediaReleasedAndRecycled pins the trial device life cycle: a
// trial that returns has released its media (the device is unusable, so any
// later touch would fault rather than scribble on pages and cache arrays the
// next trial adopted), and campaigns, batch and serving, pass on recycled
// pages and arrays. Under -race this is also the check that no trial
// goroutine still writes a page or an array after another trial adopted it;
// that a trial materialises only the pages it writes is
// TestForkedTrialMaterialisesOnlyItsWrites.
func TestTrialMediaReleasedAndRecycled(t *testing.T) {
	var batchDev, serveDev *pmem.Device
	rep := faultinject.NewRepro(ffccdSetting(), 3).(faultinject.Repro)
	rep.Site = 40
	if _, err := rep.Run(faultinject.TrialOptions{
		AfterRecovery: func(_ *sim.Ctx, p *pmop.Pool, _ ds.Store) { batchDev = p.Device() },
	}); err != nil {
		t.Fatal(err)
	}
	srep := faultinject.NewRepro(faultinject.Setting{Serve: "ffccd"}, 3).(faultinject.ServeRepro)
	srep.Clients, srep.Ops, srep.Keys, srep.Site = 4, 1200, 400, 700
	sres, err := srep.Run(faultinject.TrialOptions{
		AfterRecovery: func(_ *sim.Ctx, p *pmop.Pool, _ ds.Store) { serveDev = p.Device() },
	})
	if err != nil {
		t.Fatal(err)
	}
	if sres.Serve.Crashes != 1 || sres.Serve.Ops != srep.Ops {
		t.Fatalf("serving trial did not crash and resume: %d crashes, %d/%d ops", sres.Serve.Crashes, sres.Serve.Ops, srep.Ops)
	}
	for name, dev := range map[string]*pmem.Device{"batch": batchDev, "serving": serveDev} {
		if dev == nil {
			t.Fatalf("%s trial never reached recovery", name)
		}
		if dev.Size() != 0 {
			t.Errorf("%s trial returned without releasing its %d-byte media", name, dev.Size())
		}
	}

	out := faultinject.ExploreSetting(ffccdSetting(), faultinject.CampaignOptions{
		Seed: 7, MaxSites: 10, Nested: true, MaxNested: 4,
	})
	if out.Scheduled < 10 || out.Passed != out.Scheduled {
		t.Fatalf("campaign: %d/%d passed, failures: %+v", out.Passed, out.Scheduled, out.Failures)
	}

	// A serving campaign too: its census pass builds and releases the loaded
	// machine, and every trial forks it.
	sout := faultinject.ExploreSetting(faultinject.Setting{Serve: "ffccd"}, faultinject.CampaignOptions{
		Seed: 7, Clients: 4, Ops: 1200, Keys: 400, MaxSites: 10, Nested: true, MaxNested: 4,
	})
	if sout.Scheduled < 10 || sout.Passed != sout.Scheduled {
		t.Fatalf("serving campaign: %d/%d passed, failures: %+v", sout.Passed, sout.Scheduled, sout.Failures)
	}
}

package faultinject_test

// Tests for the trial media life cycle and the media digest: hashes pinned
// to the values the dense (whole-media) HashMedia produced, and trial
// devices released exactly when their trial is done with them.

import (
	"testing"

	"ffccd/internal/ds"
	"ffccd/internal/faultinject"
	"ffccd/internal/pmem"
	"ffccd/internal/pmop"
	"ffccd/internal/sim"
)

// denseMediaHash is the digest HashMedia computed before it walked the
// dirty-page bitmap: every word of the image, then the avalanche.
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
// failure artifact, its shrunk form, and the serving schedule) and pins
// their media hashes to the values recorded with the dense HashMedia — a
// repro line pasted from an old report must still name the same images.
func TestReproHashesPinned(t *testing.T) {
	for _, tc := range []struct {
		line        string
		post, final uint64
	}{
		{`{"setting":"LL/1T/ffccd","seed":1,"ops":600,"tail_ops":120,"site":489,"nested":7,"policy":"salt","salt":5807}`,
			0xf47dbdb12e3fbf2e, 0x5891cd118c984885},
		{`{"setting":"LL/1T/ffccd","seed":1,"ops":75,"tail_ops":0,"site":61,"nested":7,"policy":"salt","salt":5807}`,
			0x22fc2a729207472e, 0x797d1598964c38},
	} {
		rep, err := faultinject.ParseRepro(tc.line)
		if err != nil {
			t.Fatal(err)
		}
		res, err := faultinject.RunScheduled(rep, faultinject.TrialOptions{})
		if err != nil {
			t.Fatalf("%s: %v", tc.line, err)
		}
		if res.PostCrashHash != tc.post || res.FinalHash != tc.final {
			t.Errorf("%s:\n  post_crash_hash=%#x final_hash=%#x, pinned %#x / %#x",
				tc.line, res.PostCrashHash, res.FinalHash, tc.post, tc.final)
		}
	}

	const serveLine = `{"scheme":"ffccd","clients":4,"ops":1200,"keys":400,"seed":1,"site":1500,"nested":3,"policy":"salt","salt":99}`
	srep, err := faultinject.ParseServeRepro(serveLine)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := faultinject.RunServeScheduled(srep, faultinject.TrialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sres.PostCrashHash != 0x4e8a92ebb88ae1eb || sres.FinalHash != 0x173759f358a139dd {
		t.Errorf("%s:\n  post_crash_hash=%#x final_hash=%#x, pinned 0x4e8a92ebb88ae1eb / 0x173759f358a139dd",
			serveLine, sres.PostCrashHash, sres.FinalHash)
	}
}

// TestTrialMediaReleasedAndRecycled pins the trial device life cycle: a
// trial that returns has released its media (the device is unusable, so any
// later touch would fault rather than scribble on the next trial's array),
// and a campaign's steady state, batch or serving, allocates no fresh media
// beyond one array per worker. Under -race this is also the check that no
// trial goroutine still writes an array after another trial adopted it.
func TestTrialMediaReleasedAndRecycled(t *testing.T) {
	var batchDev, serveDev *pmem.Device
	rep := faultinject.NewRepro(ffccdSetting(), 3)
	rep.Site = 40
	if _, err := faultinject.RunScheduled(rep, faultinject.TrialOptions{
		AfterRecovery: func(_ *sim.Ctx, p *pmop.Pool, _ ds.Store) { batchDev = p.Device() },
	}); err != nil {
		t.Fatal(err)
	}
	srep := faultinject.NewServeRepro("ffccd", 3)
	srep.Clients, srep.Ops, srep.Keys, srep.Site = 4, 1200, 400, 700
	sres, err := faultinject.RunServeScheduled(srep, faultinject.TrialOptions{
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

	workers := faultinject.Parallelism()
	fresh := pmem.FreshMediaAllocs()
	out := faultinject.ExploreSetting(ffccdSetting(), faultinject.CampaignOptions{
		Seed: 7, MaxSites: 10, Nested: true, MaxNested: 4,
	})
	if out.Scheduled < 10 || out.Passed != out.Scheduled {
		t.Fatalf("campaign: %d/%d passed, failures: %+v", out.Passed, out.Scheduled, out.Failures)
	}
	if n := pmem.FreshMediaAllocs() - fresh; n > uint64(workers) {
		t.Errorf("%d trials allocated %d fresh media arrays; want at most one per worker (%d)",
			1+out.Scheduled, n, workers)
	}

	// A serving campaign too: its census pass builds and releases the loaded
	// machine, and every trial forks it into a recycled array.
	fresh = pmem.FreshMediaAllocs()
	sout := faultinject.ExploreServeScheme("ffccd", faultinject.CampaignOptions{
		Seed: 7, Clients: 4, Ops: 1200, Keys: 400, MaxSites: 10, Nested: true, MaxNested: 4,
	})
	if sout.Scheduled < 10 || sout.Passed != sout.Scheduled {
		t.Fatalf("serving campaign: %d/%d passed, failures: %+v", sout.Passed, sout.Scheduled, sout.Failures)
	}
	if n := pmem.FreshMediaAllocs() - fresh; n > uint64(workers) {
		t.Errorf("%d serving trials allocated %d fresh media arrays; want at most one per worker (%d)",
			1+sout.Scheduled, n, workers)
	}
}

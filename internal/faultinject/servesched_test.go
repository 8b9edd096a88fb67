package faultinject_test

// Tests for the serving-path crash schedules: the online
// crash-recovery-resume loop, the durable-ack checker integration, resumed-run
// determinism across host parallelism, double-crash idempotence, the serving
// campaign (watchdog, coverage, shrinking), and the ServeRepro round trip.

import (
	"strings"
	"testing"
	"time"

	"ffccd/internal/ds"
	"ffccd/internal/faultinject"
	"ffccd/internal/obsv"
	"ffccd/internal/pmop"
	"ffccd/internal/sim"
	"ffccd/internal/workpool"
)

// smallServe returns fast trial volumes for one scheme.
func smallServe(scheme string, seed int64) faultinject.ServeRepro {
	rep := faultinject.NewRepro(faultinject.Setting{Serve: scheme}, seed).(faultinject.ServeRepro)
	rep.Clients, rep.Ops, rep.Keys = 4, 1200, 400
	return rep
}

func TestServeReproRoundTrip(t *testing.T) {
	rep := faultinject.NewRepro(faultinject.Setting{Serve: "ffccd"}, 7).(faultinject.ServeRepro)
	rep.Site, rep.Nested, rep.Policy, rep.Salt = 123, 4, faultinject.PolicySalt, 99
	line := rep.MarshalLine()
	got, err := faultinject.ParseSchedule(line)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if got != rep {
		t.Fatalf("round trip: got %+v want %+v", got, rep)
	}
	if want := "ffccd-crashtest -repro '" + line + "'"; rep.Command() != want {
		t.Fatalf("command %q, want %q: a serving line replays like a batch one", rep.Command(), want)
	}
	if _, err := faultinject.ParseSchedule(`{"scheme":"ffccd","bogus":1}`); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := faultinject.ParseSchedule(`{"scheme":"espresso"}`); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

// TestServeTrialObsFiresAtTheCrash: a serving trial installs TrialOptions.Obs
// on its crash-target shard, whose injected crash fires the bundle's OnCrash
// exactly once, and observing changes nothing the trial simulates.
func TestServeTrialObsFiresAtTheCrash(t *testing.T) {
	for _, rep := range []faultinject.ServeRepro{smallServe("ffccd", 11), shardedServe("ffccd", 11, 2, 1)} {
		census, err := rep.Run(faultinject.TrialOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rep.Site = int64(census.Census.Total / 2)
		plain, err := rep.Run(faultinject.TrialOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var fired int
		var named []faultinject.Setting
		observed, err := rep.Run(faultinject.TrialOptions{Obs: func(s faultinject.Setting, _ int64) *obsv.Obs {
			named = append(named, s)
			o := obsv.New(8)
			o.OnCrash = func(*obsv.Obs) { fired++ }
			return o
		}})
		if err != nil {
			t.Fatal(err)
		}
		want := "serve/ffccd"
		if rep.Shards > 1 {
			want = "serve/2S/ffccd"
		}
		if fired != 1 || len(named) != 1 || named[0].String() != want {
			t.Errorf("%s: OnCrash fired %d times, Obs asked for %v; want once, for %s", rep.MarshalLine(), fired, named, want)
		}
		if observed.PostCrashHash != plain.PostCrashHash || observed.FinalHash != plain.FinalHash ||
			observed.RecoveryCycles != plain.RecoveryCycles {
			t.Errorf("%s: observed trial %s, unobserved %s", rep.MarshalLine(), observed.Summary(), plain.Summary())
		}
	}
}

// TestServeScheduledCrashAllSchemes fires one mid-run crash per scheme and
// checks the trial recovers, resumes, and completes its full op budget.
func TestServeScheduledCrashAllSchemes(t *testing.T) {
	for _, scheme := range faultinject.ServeSchemes {
		rep := smallServe(scheme, 11)
		census, err := rep.Run(faultinject.TrialOptions{})
		if err != nil {
			t.Fatalf("%s census: %v", scheme, err)
		}
		if census.Census.Total == 0 {
			t.Fatalf("%s: census found no sites", scheme)
		}
		armed := rep
		armed.Site = int64(census.Census.Total / 2)
		res, err := armed.Run(faultinject.TrialOptions{})
		if err != nil {
			t.Fatalf("%s armed: %v", scheme, err)
		}
		if res.Crash == nil {
			t.Fatalf("%s armed: crash did not fire", scheme)
		}
		sv := res.Serve
		if sv.Crashes != 1 || sv.Ops != rep.Ops {
			t.Fatalf("%s: crashes=%d ops=%d, want 1 crash and %d ops", scheme, sv.Crashes, sv.Ops, rep.Ops)
		}
		if sv.BlackoutCycles == 0 || sv.ResumeCycle != sv.CrashCycle+sv.BlackoutCycles {
			t.Fatalf("%s: blackout=%d crash=%d resume=%d inconsistent", scheme, sv.BlackoutCycles, sv.CrashCycle, sv.ResumeCycle)
		}
		if sv.TimeToFirstAck == 0 || sv.TimeToFirstAck < sv.BlackoutCycles {
			t.Fatalf("%s: time-to-first-ack %d should cover the blackout %d", scheme, sv.TimeToFirstAck, sv.BlackoutCycles)
		}
		if sv.Retries == 0 {
			t.Fatalf("%s: no retries — lost in-flight requests were not rescheduled", scheme)
		}
		if res.RecoveryCycles == 0 || res.RecoveryCycles >= sv.BlackoutCycles {
			t.Fatalf("%s: recovery %d cycles of a %d-cycle blackout", scheme, res.RecoveryCycles, sv.BlackoutCycles)
		}
	}
}

// TestServeResumedDeterministicAcrossHostParallelism pins the acceptance
// criterion: the same armed schedule produces bit-identical post-resume
// counters and media at host parallelism 1 and 4.
func TestServeResumedDeterministicAcrossHostParallelism(t *testing.T) {
	rep := smallServe("ffccd", 23)
	census, err := rep.Run(faultinject.TrialOptions{})
	if err != nil {
		t.Fatalf("census: %v", err)
	}
	armed := rep
	armed.Site = int64(census.Census.Total / 2)
	armed.Policy = faultinject.PolicySalt
	armed.Salt = 77

	old := workpool.Parallelism()
	defer workpool.SetParallelism(old)

	type pin struct {
		post, final uint64
		ops, ret    int
		rej, adm    int
		black, ttfa uint64
		mksp, sim   uint64
	}
	run := func(par int) pin {
		workpool.SetParallelism(par)
		res, err := armed.Run(faultinject.TrialOptions{})
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		if res.Crash == nil {
			t.Fatalf("par=%d: crash did not fire", par)
		}
		sv := res.Serve
		return pin{res.PostCrashHash, res.FinalHash, sv.Ops, sv.Retries,
			sv.Rejects, sv.Admitted, sv.BlackoutCycles, sv.TimeToFirstAck,
			sv.Makespan, sv.SimCycles}
	}
	p1 := run(1)
	p4 := run(4)
	if p1 != p4 {
		t.Fatalf("resumed run differs across host parallelism:\n 1: %+v\n 4: %+v", p1, p4)
	}
}

// TestServeScheduledDoubleCrash injects a second power failure inside
// recovery for every scheme and checks double-recovery idempotence on the
// serving path: same final op count, clean checkers, deterministic media.
func TestServeScheduledDoubleCrash(t *testing.T) {
	for _, scheme := range faultinject.ServeSchemes {
		rep := smallServe(scheme, 31)
		census, err := rep.Run(faultinject.TrialOptions{})
		if err != nil {
			t.Fatalf("%s census: %v", scheme, err)
		}
		armed := rep
		armed.Site = int64(census.Census.Total / 2)
		first, err := armed.Run(faultinject.TrialOptions{})
		if err != nil {
			t.Fatalf("%s armed: %v", scheme, err)
		}
		if first.RecoveryCensus.Total == 0 {
			t.Fatalf("%s: recovery exposed no sites", scheme)
		}
		nested := armed
		nested.Nested = int64(first.RecoveryCensus.Total / 2)
		res, err := nested.Run(faultinject.TrialOptions{})
		if err != nil {
			t.Fatalf("%s nested: %v", scheme, err)
		}
		if res.NestedCrash == nil {
			t.Fatalf("%s nested: second crash did not fire", scheme)
		}
		if res.Serve.Ops != rep.Ops {
			t.Fatalf("%s nested: completed %d ops, want %d", scheme, res.Serve.Ops, rep.Ops)
		}
		// Determinism witness: the same nested schedule twice, bit-identical.
		res2, err := nested.Run(faultinject.TrialOptions{})
		if err != nil {
			t.Fatalf("%s nested replay: %v", scheme, err)
		}
		if res.FinalHash != res2.FinalHash || res.PostCrashHash != res2.PostCrashHash {
			t.Fatalf("%s nested: replay media mismatch", scheme)
		}
	}
}

// deleteAcked removes n present keys from the recovered store — a synthetic
// ack-loss bug (acknowledged writes gone after recovery). Two keys defeat the
// single-pending-op tolerance.
func deleteAcked(ctx *sim.Ctx, s ds.Store, keys, n int) int {
	removed := 0
	for k := 0; k < keys && removed < n; k++ {
		if ok, err := s.Delete(ctx, uint64(k)); err == nil && ok {
			removed++
		}
	}
	return removed
}

// TestServeAckLossCaught proves the durable-ack checker end to end: a planted
// loss of acknowledged writes turns the trial into a failure naming the
// check.
func TestServeAckLossCaught(t *testing.T) {
	rep := smallServe("none", 41)
	census, err := rep.Run(faultinject.TrialOptions{})
	if err != nil {
		t.Fatalf("census: %v", err)
	}
	armed := rep
	armed.Site = int64(census.Census.Total / 2)
	opts := faultinject.TrialOptions{
		AfterRecovery: func(ctx *sim.Ctx, p *pmop.Pool, s ds.Store) {
			if deleteAcked(ctx, s, rep.Keys, 2) != 2 {
				t.Fatal("fixture: could not remove two acked keys")
			}
		},
	}
	_, err = armed.Run(opts)
	if err == nil {
		t.Fatal("planted ack loss not caught")
	}
	if !strings.Contains(err.Error(), "durable-ack") {
		t.Fatalf("wrong verdict for ack loss: %v", err)
	}
}

// TestServeCampaignWatchdog proves hung serving trials are reported, not
// waited for: AfterRecovery blocks forever, the watchdog converts it into a
// Hung failure.
func TestServeCampaignWatchdog(t *testing.T) {
	block := make(chan struct{}) // never closed; trial goroutine abandoned
	co := faultinject.CampaignOptions{
		Seed: 5, Clients: 4, Ops: 600, Keys: 256,
		MaxSites: 1,
		Timeout:  200 * time.Millisecond,
		Trial: faultinject.TrialOptions{
			AfterRecovery: func(*sim.Ctx, *pmop.Pool, ds.Store) { <-block },
		},
	}
	out := faultinject.ExploreSetting(faultinject.Setting{Serve: "none"}, co)
	if len(out.Failures) == 0 {
		t.Fatal("hung trial not reported")
	}
	hung := false
	for _, f := range out.Failures {
		if f.Hung {
			hung = true
		}
	}
	if !hung {
		t.Fatalf("failures carry no watchdog expiry: %+v", out.Failures)
	}
}

// TestServeCampaignStratified runs a small stratified campaign for one scheme
// and checks scheduling, class coverage, and the coverage summary.
func TestServeCampaignStratified(t *testing.T) {
	co := faultinject.CampaignOptions{
		Seed: 9, Clients: 4, Ops: 1200, Keys: 400,
		MaxSites: 6, Nested: true, MaxNested: 2,
	}
	out := faultinject.ExploreSetting(faultinject.Setting{Serve: "ffccd"}, co)
	if len(out.Failures) != 0 {
		t.Fatalf("campaign failures:\n%v", out.Failures)
	}
	if out.SitesTotal == 0 || out.Scheduled < 6 {
		t.Fatalf("sites=%d scheduled=%d, want a populated stratified sweep", out.SitesTotal, out.Scheduled)
	}
	if out.Passed != out.Scheduled {
		t.Fatalf("passed=%d scheduled=%d", out.Passed, out.Scheduled)
	}
	covered := 0
	for _, n := range out.Covered {
		covered += n
	}
	if covered == 0 || out.CoverageString() == "none" {
		t.Fatalf("no class coverage recorded: %q", out.CoverageString())
	}
}

// TestServeShrinkStillFails checks the shrinker contract on the serving path:
// the minimized schedule still fails and is no more expensive.
func TestServeShrinkStillFails(t *testing.T) {
	rep := smallServe("none", 41)
	census, err := rep.Run(faultinject.TrialOptions{})
	if err != nil {
		t.Fatalf("census: %v", err)
	}
	armed := rep
	armed.Site = int64(census.Census.Total / 2)
	opts := faultinject.TrialOptions{
		AfterRecovery: func(ctx *sim.Ctx, p *pmop.Pool, s ds.Store) {
			deleteAcked(ctx, s, rep.Keys, 2)
		},
	}
	if _, err := armed.Run(opts); err == nil {
		t.Fatal("fixture schedule does not fail")
	}
	min, ok := faultinject.Shrink(armed, opts, 0, 12)
	if !ok {
		t.Fatal("shrink made no progress on a failing schedule")
	}
	if _, err := min.Run(opts); err == nil {
		t.Fatalf("shrunk schedule passes: %s", min.Command())
	}
}

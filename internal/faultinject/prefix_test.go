package faultinject

// A forked trial against the trial it replaced. scratchRunScheduled is the
// sequence RunScheduled ran before campaigns shared a built prefix — its own
// machine, every thread's build churn, the flush — kept here as the oracle:
// whatever a schedule names, the forked trial must report what this one does.

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ffccd/internal/core"
	"ffccd/internal/ds"
	"ffccd/internal/pmem"
	"ffccd/internal/pmop"
	"ffccd/internal/sim"
)

// scratchMachine builds, churns and flushes a machine in place.
func scratchMachine(setting Setting, seed int64, ops int) (*machine, *churner, error) {
	m, err := newMachine(setting)
	if err != nil {
		return nil, nil, err
	}
	churn := newChurner(m, uint64(4*ops))
	for t := 0; t < setting.Threads; t++ {
		if err := churn.build(m.ctx, t, ops, rand.New(rand.NewSource(seed+int64(t)+1))); err != nil {
			m.dev.ReleaseMedia()
			return nil, nil, err
		}
	}
	m.dev.FlushAll(m.ctx)
	return m, churn, nil
}

func scratchRunScheduled(rep Repro, opts TrialOptions) (Result, error) {
	setting, err := ParseSetting(rep.Setting)
	if err != nil {
		return Result{}, err
	}
	rep = rep.normalized()
	policy, err := PolicyFor(rep.Policy, rep.Salt)
	if err != nil {
		return Result{}, err
	}
	m, churn, err := scratchMachine(setting, rep.Seed, rep.Ops)
	if err != nil {
		return Result{}, err
	}
	defer m.dev.ReleaseMedia()
	return m.runArmed(rep, policy, churn, opts)
}

// machineProbe is what a trial's Result leaves out of the simulated machine:
// the driver's cycles by category, its TLB counters and the device's counters,
// read when recovery has finished.
type machineProbe struct {
	cycles    [sim.NumCategories]uint64
	tlbMisses [2]uint64
	dev       pmem.Stats
}

func (mp *machineProbe) options() TrialOptions {
	return TrialOptions{AfterRecovery: func(ctx *sim.Ctx, p *pmop.Pool, _ ds.Store) {
		*mp = machineProbe{ctx.Clock.Snapshot(), [2]uint64{ctx.TLB.L1Misses, ctx.TLB.L2Misses}, p.Device().Stats()}
	}}
}

// sameTrial compares everything two runs of one schedule report.
func sameTrial(t *testing.T, rep Repro, got Result, gotErr error, want Result, wantErr error) {
	t.Helper()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s\n forked verdict %v\nscratch verdict %v", rep.MarshalLine(), gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s\n forked %s %+v\nscratch %s %+v", rep.MarshalLine(), got.Summary(), got, want.Summary(), want)
	}
}

func TestForkedTrialMatchesScratch(t *testing.T) {
	settings := []Setting{
		{"LL", 1, core.SchemeFFCCD}, {"AVL", 1, core.SchemeSFCCD}, {"SS", 1, core.SchemeFFCCD},
		{"BT", 1, core.SchemeSFCCD}, {"RBT", 1, core.SchemeFFCCD}, {"BzTree", 1, core.SchemeSFCCD},
		{"FPTree", 2, core.SchemeFFCCD}, {"BzTree", 4, core.SchemeFFCCD}, {"FPTree", 4, core.SchemeSFCCD},
	}
	campaigns := 18
	if testing.Short() {
		campaigns = 9
	}
	const crashesPer = 2
	r := rand.New(rand.NewSource(23))
	lines, crashed, nested := 0, 0, 0
	for i := 0; i < campaigns; i++ {
		base := NewRepro(settings[i%len(settings)], r.Int63n(1<<40))
		base.Ops, base.TailOps = 80+r.Intn(320), r.Intn(40)
		c := new(campaign)
		census, cerr := c.runScheduled(base, TrialOptions{})
		want, werr := scratchRunScheduled(base, TrialOptions{})
		sameTrial(t, base, census, cerr, want, werr)
		lines++
		if cerr != nil || !census.Began {
			continue
		}
		// The crash trials fork the prefix the census pass built, at once on
		// the worker pool, as a campaign's do.
		var reps [crashesPer]Repro
		for k := range reps {
			reps[k] = base
			reps[k].CrashPoint = CrashPoint{Site: r.Int63n(int64(census.Census.Total)), Nested: -1,
				Policy: Policies[r.Intn(len(Policies))], Salt: r.Uint64()}
			if r.Intn(2) == 0 {
				reps[k].Nested = r.Int63n(80)
			}
		}
		var got [crashesPer]Result
		var gotErr [crashesPer]error
		var gotProbe [crashesPer]machineProbe
		parallelFor(crashesPer, func(k int) { got[k], gotErr[k] = c.runScheduled(reps[k], gotProbe[k].options()) })
		for k, rep := range reps {
			var wantProbe machineProbe
			want, werr := scratchRunScheduled(rep, wantProbe.options())
			sameTrial(t, rep, got[k], gotErr[k], want, werr)
			if gotProbe[k] != wantProbe {
				t.Fatalf("%s\n forked machine after recovery %+v\nscratch machine after recovery %+v", rep.MarshalLine(), gotProbe[k], wantProbe)
			}
			lines++
			if got[k].Crash != nil {
				crashed++
			}
			if got[k].NestedCrash != nil {
				nested++
			}
		}
	}
	if !testing.Short() && lines < 40 || crashed < lines/2 || nested == 0 {
		t.Errorf("%d lines compared, %d crashed, %d inside recovery: the comparison is thinner than it claims", lines, crashed, nested)
	}
}

// What a trial's Result and probe cannot see of the fork point itself: a forked
// machine against one built in place, state by state.
func TestForkReproducesTheBuiltMachine(t *testing.T) {
	for _, setting := range []Setting{{"LL", 1, core.SchemeFFCCD}, {"SS", 1, core.SchemeSFCCD}, {"BzTree", 4, core.SchemeFFCCD}} {
		const seed, ops = 5, 150
		built, churn, err := scratchMachine(setting, seed, ops)
		if err != nil {
			t.Fatal(err)
		}
		pre, err := buildPrefix(setting, seed, ops)
		if err != nil {
			t.Fatal(err)
		}
		forked, forkedChurn, err := pre.fork()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			what      string
			got, want any
		}{
			{"device", forked.dev.Checkpoint(), built.dev.Checkpoint()},
			{"media hash", forked.dev.HashMedia(), built.dev.HashMedia()},
			{"heap", forked.pool.Heap().Checkpoint(), built.pool.Heap().Checkpoint()},
			{"context", forked.ctx.Checkpoint(), built.ctx.Checkpoint()},
			{"pool ops", forked.pool.Ops.Load(), built.pool.Ops.Load()},
			{"tx slot order", forked.pool.TxSlotOrder(), built.pool.TxSlotOrder()},
			{"pool VA base", forked.pool.VA(0), built.pool.VA(0)},
			{"store length", forked.store.Len(), built.store.Len()},
			{"models", forkedChurn.models, churn.models},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Errorf("%s: forked %s differs from the built machine's", setting, c.what)
			}
		}
		forked.dev.ReleaseMedia()
		built.dev.ReleaseMedia()
	}
}

// A prefix that cannot be built fails every trial on its machine with the
// build's error, is not built again per trial, and leaks no media — and a
// schedule naming another machine gets that machine's verdict, not the error.
func TestPrefixBuildErrorReachesEveryTrial(t *testing.T) {
	c := new(campaign)
	setting := Setting{"LL", 1, core.SchemeFFCCD}
	base := NewRepro(setting, 1)
	builds := 0
	buildErr := errors.New("planted prefix build failure")
	for range 2 {
		if _, err := buildOnce(c, &c.batch, batchMachine{setting, base.Seed, base.Ops}, func() (*prefix, error) {
			builds++
			return nil, buildErr
		}); err != buildErr {
			t.Fatalf("planted build: %v", err)
		}
	}
	if builds != 1 {
		t.Fatalf("a failed prefix was built %d times", builds)
	}
	fresh := pmem.FreshMediaAllocs()
	scheds := []Schedule{base}
	for site := int64(0); site < 3; site++ {
		scheds = append(scheds, base.At(0, CrashPoint{Site: site, Nested: -1, Policy: PolicyDrop}))
	}
	for i, o := range c.runAll(scheds, CampaignOptions{Timeout: time.Minute}) {
		if o.err != buildErr {
			t.Errorf("trial %d: verdict %v, want the build's %v", i, o.err, buildErr)
		}
	}
	if got := pmem.FreshMediaAllocs(); got != fresh {
		t.Errorf("%d media arrays allocated by trials that had no machine to run on", got-fresh)
	}
	// In a campaign proper the census pass meets the error, and it is the
	// campaign's one failure.
	out := c.explore("poisoned", base, CampaignOptions{})
	if len(out.Failures) != 1 || out.Failures[0].Err != buildErr.Error() || out.Scheduled != 0 {
		t.Errorf("campaign on a failed build: %+v", out)
	}
	other := base
	other.Seed, other.Site = 4, 30
	got, gerr := c.runScheduled(other, TrialOptions{})
	want, werr := scratchRunScheduled(other, TrialOptions{})
	sameTrial(t, other, got, gerr, want, werr)
}

// A schedule that names another machine than the campaign's does not run on
// the campaign's: it gets the machine its own line names.
func TestCampaignRunsAnotherMachinesScheduleOnItsOwn(t *testing.T) {
	c := new(campaign)
	mine := NewRepro(Setting{"LL", 1, core.SchemeFFCCD}, 4)
	mine.Ops = 100
	if _, err := c.runScheduled(mine, TrialOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, other := range []Repro{
		{Setting: "LL/1T/ffccd", Seed: 5, Ops: 100, TailOps: 40, CrashPoint: CrashPoint{Site: 30, Nested: -1}},
		{Setting: "LL/1T/ffccd", Seed: 4, Ops: 140, TailOps: 40, CrashPoint: CrashPoint{Site: 30, Nested: -1}},
		{Setting: "AVL/1T/ffccd", Seed: 4, Ops: 100, TailOps: 40, CrashPoint: CrashPoint{Site: 30, Nested: -1}},
	} {
		got, gerr := c.runScheduled(other, TrialOptions{})
		want, werr := scratchRunScheduled(other, TrialOptions{})
		sameTrial(t, other, got, gerr, want, werr)
	}
	if _, ok := c.batch[batchMachine{Setting{"LL", 1, core.SchemeFFCCD}, mine.Seed, mine.Ops}]; !ok || len(c.batch) != 4 {
		t.Errorf("%d prefixes for 4 machines, the campaign's own among them: %v", len(c.batch), ok)
	}
}

// A campaign's prefix dies with the campaign: once explore has returned and
// its campaign is dropped, nothing — no cache, no forked machine, no store
// handed to a hook — still reaches the snapshot, and every media array the
// build and the trials used is back on the free list.
func TestCampaignLeavesNoPrefixBehind(t *testing.T) {
	co := CampaignOptions{Seed: 3, Ops: 120, MaxSites: 4, Nested: true, MaxNested: 1}
	run := func(freed *atomic.Int32) {
		for _, setting := range []Setting{{"LL", 1, core.SchemeFFCCD}, {"FPTree", 2, core.SchemeSFCCD}} {
			c := new(campaign)
			base := NewRepro(setting, co.Seed)
			base.Ops = co.Ops
			out := c.explore(setting.String(), base, co)
			if len(out.Failures) > 0 || out.Scheduled == 0 {
				t.Fatalf("%s: %+v", setting, out)
			}
			if len(c.batch) != 1 {
				t.Fatalf("%s: the campaign built %d prefixes", setting, len(c.batch))
			}
			for _, b := range c.batch {
				runtime.SetFinalizer(b.pre, func(*prefix) { freed.Add(1) })
			}
		}
	}
	var warm, freed atomic.Int32
	run(&warm) // fills the media free list
	fresh := pmem.FreshMediaAllocs()
	run(&freed)
	if n := pmem.FreshMediaAllocs() - fresh; n > uint64(Parallelism()) {
		t.Errorf("%d fresh media arrays in two warm campaigns on %d workers: a machine was not released", n, Parallelism())
	}
	for i := 0; i < 50 && freed.Load() < 2; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if freed.Load() != 2 {
		t.Errorf("%d of 2 prefixes were collected after their campaigns returned", freed.Load())
	}
}

// forkedTrials runs n crash trials of campaign c, spread over the sites of its
// census.
func forkedTrials(tb testing.TB, c *campaign, base Repro, sites uint64, n int) {
	for i := 0; i < n; i++ {
		rep := base
		rep.Site, rep.Policy = int64(uint64(i)*7919%sites), Policies[i%len(Policies)]
		if _, err := c.runScheduled(rep, TrialOptions{}); err != nil {
			tb.Fatal(err)
		}
	}
}

// trialAllocBudget is what one warm forked LL/1T/ffccd trial may allocate:
// about a quarter over the 0.87 MB it does (0.92 MB under the race detector),
// most of which is the cache arrays and TLBs of the trial's own device and
// contexts. The from-scratch trial it replaced allocated about 5 MB — three
// heaps' worth of capacity-sized bitmaps at 1.1 MB each, a 512 KB mark bitset
// per engine, a 292 KB buffer of zeros, the full free-frame list per epoch.
// One such allocation back in the trial path is over the budget.
const trialAllocBudget = 1_100_000

func TestTrialAllocBudget(t *testing.T) {
	const trials = 20
	c := new(campaign)
	base := NewRepro(Setting{"LL", 1, core.SchemeFFCCD}, 11)
	census, err := c.runScheduled(base, TrialOptions{})
	if err != nil || !census.Began {
		t.Fatalf("census: began=%v err=%v", census.Began, err)
	}
	forkedTrials(t, c, base, census.Census.Total, 3)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	forkedTrials(t, c, base, census.Census.Total, trials)
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / trials
	t.Logf("%d B per warm forked trial (budget %d)", per, trialAllocBudget)
	if per > trialAllocBudget {
		t.Errorf("a warm forked trial allocates %d B, budget %d B: something sized by the pool's capacity is back in the trial path", per, trialAllocBudget)
	}
}

// BenchmarkCampaignTrial is the reduced campaign `go run ./bench` runs for one
// batch setting, per trial: the census pass (which builds the prefix), the
// first-level crashes and a nested one.
func BenchmarkCampaignTrial(b *testing.B) {
	setting := Setting{"LL", 1, core.SchemeFFCCD}
	co := CampaignOptions{Seed: 11, MaxSites: 3, Nested: true, MaxNested: 1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	trials := 0
	for i := 0; i < b.N; i++ {
		out := ExploreSetting(setting, co)
		if len(out.Failures) > 0 || out.Skipped {
			b.Fatalf("%+v", out)
		}
		trials += 1 + out.Scheduled
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(trials), "ms/trial")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(trials), "B/trial")
}

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
func scratchMachine(setting Setting, seed int64, ops int) (*trial, *churner, error) {
	m, err := newTrial(setting)
	if err != nil {
		return nil, nil, err
	}
	churn := newChurner(m, uint64(4*ops))
	for t := 0; t < setting.Threads; t++ {
		if err := churn.build(m.Ctx, t, ops, rand.New(rand.NewSource(seed+int64(t)+1))); err != nil {
			m.Release()
			return nil, nil, err
		}
	}
	m.Device().FlushAll(m.Ctx)
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
	defer m.Release()
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
			{"device", forked.Device().Checkpoint(), built.Device().Checkpoint()},
			{"media hash", forked.Device().HashMedia(), built.Device().HashMedia()},
			{"heap", forked.Pool.Heap().Checkpoint(), built.Pool.Heap().Checkpoint()},
			{"context", forked.Ctx.Checkpoint(), built.Ctx.Checkpoint()},
			{"pool ops", forked.Pool.Ops.Load(), built.Pool.Ops.Load()},
			{"tx slot order", forked.Pool.TxSlotOrder(), built.Pool.TxSlotOrder()},
			{"pool VA base", forked.Pool.VA(0), built.Pool.VA(0)},
			{"store length", forked.Store.Len(), built.Store.Len()},
			{"models", forkedChurn.models, churn.models},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Errorf("%s: forked %s differs from the built machine's", setting, c.what)
			}
		}
		forked.Release()
		built.Release()
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
	materialized := pmem.MaterializedPages()
	scheds := []Schedule{base}
	for site := int64(0); site < 3; site++ {
		scheds = append(scheds, base.At(0, CrashPoint{Site: site, Nested: -1, Policy: PolicyDrop}))
	}
	for i, o := range c.runAll(scheds, CampaignOptions{Timeout: time.Minute}) {
		if o.err != buildErr {
			t.Errorf("trial %d: verdict %v, want the build's %v", i, o.err, buildErr)
		}
	}
	if got := pmem.MaterializedPages(); got != materialized {
		t.Errorf("%d media pages materialised by trials that had no machine to run on", got-materialized)
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
// handed to a hook — still reaches the snapshot.
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
	var freed atomic.Int32
	run(&freed)
	for i := 0; i < 50 && freed.Load() < 2; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if freed.Load() != 2 {
		t.Errorf("%d of 2 prefixes were collected after their campaigns returned", freed.Load())
	}
}

// sharedPages splits the pages dev holds into those that are still chk's and
// those it has written since it was forked from chk.
func sharedPages(chk *pmem.DeviceCheckpoint, dev *pmem.Device) (kept, written int) {
	refs := make(map[uint32]*[pmem.DirtyPageSize]byte, len(chk.Pages))
	for k, p := range chk.Pages {
		refs[p] = chk.Refs[k]
	}
	now := dev.Checkpoint()
	for k, p := range now.Pages {
		if refs[p] == now.Refs[k] {
			kept++
		} else {
			written++
		}
	}
	return kept, written
}

// A warm forked trial, batch or serving, materialises exactly the pages it
// writes: its machine shares every page of the prefix it leaves alone, and
// allocates or copies one page per page it writes, up to recovery.
func TestForkedTrialMaterialisesOnlyItsWrites(t *testing.T) {
	var kept, written int
	check := func(what string, chk *pmem.DeviceCheckpoint, run func(TrialOptions) error) {
		t.Helper()
		k, w, materialized := -1, 0, uint64(0)
		before := pmem.MaterializedPages()
		err := run(TrialOptions{AfterRecovery: func(_ *sim.Ctx, p *pmop.Pool, _ ds.Store) {
			materialized = pmem.MaterializedPages() - before
			k, w = sharedPages(chk, p.Device())
		}})
		if err != nil || k < 0 {
			t.Fatalf("%s: no recovery (%v)", what, err)
		}
		if materialized != uint64(w) {
			t.Errorf("%s: %d pages materialised, %d written, of a prefix of %d", what, materialized, w, len(chk.Pages))
		}
		kept += k
		written += w
	}
	c := new(campaign)
	base := NewRepro(Setting{"LL", 1, core.SchemeFFCCD}, 11)
	census, err := c.runScheduled(base, TrialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pre, err := c.prefixOf(Setting{"LL", 1, core.SchemeFFCCD}, base.Seed, base.Ops)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		rep := base
		rep.Site, rep.Policy = int64(uint64(i)*7919%census.Census.Total), Policies[i%len(Policies)]
		if i%2 == 1 {
			rep.Nested = int64(3 * i)
		}
		check(rep.MarshalLine(), &pre.img.Pool.Dev, func(o TrialOptions) error {
			_, err := c.runScheduled(rep, o)
			return err
		})
	}

	srep := NewServeRepro("ffccd", 3)
	srep.Clients, srep.Ops, srep.Keys = 4, 1200, 400
	if _, err := c.runServe(srep, TrialOptions{}); err != nil {
		t.Fatal(err)
	}
	nrep, shardKeys, err := srep.normalized()
	if err != nil {
		t.Fatal(err)
	}
	pres, err := c.servePrefixOf(nrep, shardKeys)
	if err != nil {
		t.Fatal(err)
	}
	for i, site := range []int64{300, 700, 1500} {
		rep := srep
		rep.Site, rep.Nested, rep.Policy = site, int64(i)-1, Policies[i%len(Policies)]
		check(rep.MarshalLine(), &pres[0].img.Pool.Dev, func(o TrialOptions) error {
			_, err := c.runServe(rep, o)
			return err
		})
	}
	t.Logf("the trials wrote %d pages and still shared %d of their prefixes", written, kept)
	if written == 0 || kept == 0 {
		t.Errorf("the trials wrote %d pages and shared %d: the check is vacuous", written, kept)
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
// about a quarter over the 0.23 MB it does (0.28 MB under the race detector),
// most of which is the engine's epoch tables and mark scratch and the
// churner's operations and model. Its heap
// incarnations' tables and placement indexes are sized to the frames they
// reach, and its device's cache arrays, media pages and its contexts' TLB
// arrays come from the pools. The from-scratch trial it replaced allocated
// about 5 MB — three heaps' worth of capacity-sized bitmaps at 1.1 MB each, a
// 512 KB mark bitset per engine, a 292 KB buffer of zeros, the full
// free-frame list per epoch. One such allocation back in the trial path, a
// placement index sized by the pool's 16 384 frames (64 KB per heap), or a
// device that does not take pooled cache arrays (0.3 MB), is over the budget.
const trialAllocBudget = 300_000

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

package faultinject

// A forked trial against the same driver on a machine of its own.
// scratchRunScheduled runs a schedule the way Repro.Run does, on a machine
// built in place (buildTrial) instead of forked from a campaign's prefix, as
// the oracle: whatever a schedule names, the forked trial must report what
// this one does.

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ffccd/internal/core"
	"ffccd/internal/ds"
	"ffccd/internal/obsv"
	"ffccd/internal/pmem"
	"ffccd/internal/pmop"
	"ffccd/internal/redisws"
	"ffccd/internal/sim"
	"ffccd/internal/workpool"
)

// deviceState is the device state a checkpoint of d captures: its exported
// fields, without which pages the checkpoint owns and of which device.
func deviceState(d *pmem.Device) []any {
	v := reflect.ValueOf(d.Checkpoint()).Elem()
	var state []any
	for i := range v.NumField() {
		if v.Type().Field(i).IsExported() {
			state = append(state, v.Field(i).Interface())
		}
	}
	return state
}

func scratchRunScheduled(rep Repro, opts TrialOptions, dp *ctxProbe) (Result, error) {
	return runProbed(rep, opts, dp, func(setting Setting, rep Repro) (*trial, *churner, error) {
		return buildTrial(setting, rep.Seed, rep.Ops)
	})
}

// forkedRunScheduled is c.runScheduled with the driver probe.
func forkedRunScheduled(c *campaign, rep Repro, opts TrialOptions, dp *ctxProbe) (Result, error) {
	return runProbed(rep, opts, dp, func(setting Setting, rep Repro) (*trial, *churner, error) {
		pre, err := c.prefixOf(setting, rep.Seed, rep.Ops)
		if err != nil {
			return nil, nil, err
		}
		return pre.fork()
	})
}

// runProbed runs rep as runScheduled does, on the machine newMachine returns.
// When dp is non-nil it probes the driver context at the end of the trial —
// over the build, the armed run and the final flush — before the machine is
// released.
func runProbed(rep Repro, opts TrialOptions, dp *ctxProbe, newMachine func(Setting, Repro) (*trial, *churner, error)) (Result, error) {
	setting, err := ParseSetting(rep.Setting)
	if err != nil {
		return Result{}, err
	}
	rep = rep.normalized()
	policy, err := PolicyFor(rep.Policy, rep.Salt)
	if err != nil {
		return Result{}, err
	}
	m, churn, err := newMachine(setting, rep)
	if err != nil {
		return Result{}, err
	}
	defer m.Release()
	res, err := m.runArmed(rep, policy, churn, opts)
	if dp != nil {
		*dp = probeCtx(m.Ctx)
	}
	return res, err
}

// ctxProbe is what a trial's Result leaves out of one of its contexts: its
// cycles by category and its TLB misses.
type ctxProbe struct {
	cycles    [sim.NumCategories]uint64
	tlbMisses [2]uint64
}

func probeCtx(ctx *sim.Ctx) ctxProbe {
	return ctxProbe{ctx.Clock.Snapshot(), [2]uint64{ctx.TLB.L1Misses, ctx.TLB.L2Misses}}
}

// machineProbe is the restarted machine when recovery has finished: its
// recovery context and its device's counters.
type machineProbe struct {
	recovery ctxProbe
	dev      pmem.Stats
}

func (mp *machineProbe) options() TrialOptions {
	return TrialOptions{AfterRecovery: func(ctx *sim.Ctx, p *pmop.Pool, _ ds.Store) {
		*mp = machineProbe{probeCtx(ctx), p.Device().Stats()}
	}}
}

// sameTrial compares everything two runs of one schedule report.
func sameTrial(t *testing.T, rep Schedule, got Result, gotErr error, want Result, wantErr error) {
	t.Helper()
	same(t, rep, "verdict", fmt.Sprint(gotErr), fmt.Sprint(wantErr))
	same(t, rep, "result", got, want)
}

// same fails t when two runs of rep differ in what.
func same(t *testing.T, rep Schedule, what string, got, want any) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s\n got %s %+v\nwant %s %+v", rep.MarshalLine(), what, got, what, want)
	}
}

func TestForkedTrialMatchesScratch(t *testing.T) {
	settings := []Setting{
		{Store: "LL", Threads: 1, Scheme: core.SchemeFFCCD}, {Store: "AVL", Threads: 1, Scheme: core.SchemeSFCCD},
		{Store: "SS", Threads: 1, Scheme: core.SchemeFFCCD}, {Store: "BT", Threads: 1, Scheme: core.SchemeSFCCD},
		{Store: "RBT", Threads: 1, Scheme: core.SchemeFFCCD}, {Store: "BzTree", Threads: 1, Scheme: core.SchemeSFCCD},
		{Store: "FPTree", Threads: 2, Scheme: core.SchemeFFCCD}, {Store: "BzTree", Threads: 4, Scheme: core.SchemeFFCCD},
		{Store: "FPTree", Threads: 4, Scheme: core.SchemeSFCCD},
	}
	campaigns := 18
	if testing.Short() {
		campaigns = 9
	}
	const crashesPer = 2
	r := rand.New(rand.NewSource(23))
	lines, crashed, nested := 0, 0, 0
	for i := 0; i < campaigns; i++ {
		base := NewRepro(settings[i%len(settings)], r.Int63n(1<<40)).(Repro)
		base.Ops, base.TailOps = 80+r.Intn(320), r.Intn(40)
		c := new(campaign)
		var censusDriver, wantDriver ctxProbe
		census, cerr := forkedRunScheduled(c, base, TrialOptions{}, &censusDriver)
		want, werr := scratchRunScheduled(base, TrialOptions{}, &wantDriver)
		sameTrial(t, base, census, cerr, want, werr)
		same(t, base, "driver context", censusDriver, wantDriver)
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
		var gotDriver [crashesPer]ctxProbe
		_ = workpool.ForEach(crashesPer, func(k int) error {
			got[k], gotErr[k] = forkedRunScheduled(c, reps[k], gotProbe[k].options(), &gotDriver[k])
			return nil
		})
		for k, rep := range reps {
			var wantProbe machineProbe
			var wantDriver ctxProbe
			want, werr := scratchRunScheduled(rep, wantProbe.options(), &wantDriver)
			sameTrial(t, rep, got[k], gotErr[k], want, werr)
			same(t, rep, "driver context", gotDriver[k], wantDriver)
			same(t, rep, "machine after recovery", gotProbe[k], wantProbe)
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
	for _, setting := range []Setting{{Store: "LL", Threads: 1, Scheme: core.SchemeFFCCD}, {Store: "SS", Threads: 1, Scheme: core.SchemeSFCCD}, {Store: "BzTree", Threads: 4, Scheme: core.SchemeFFCCD}} {
		const seed, ops = 5, 150
		built, churn, err := buildTrial(setting, seed, ops)
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
			{"device", deviceState(forked.Device()), deviceState(built.Device())},
			{"media hash", forked.Device().HashMedia(), built.Device().HashMedia()},
			{"heap", forked.Pool.Heap().Checkpoint(), built.Pool.Heap().Checkpoint()},
			{"context", forked.Ctx.Checkpoint(), built.Ctx.Checkpoint()},
			{"pool ops", forked.Pool.Ops.Load(), built.Pool.Ops.Load()},
			{"tx slot order", forked.Pool.TxSlotOrder(), built.Pool.TxSlotOrder()},
			{"pool VA base", forked.Pool.VA(0), built.Pool.VA(0)},
			{"store length", forked.Store.Len(), built.Store.Len()},
			{"model", forkedChurn.model, churn.model},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Errorf("%s: forked %s differs from the built machine's", setting, c.what)
			}
		}
		forked.Release()
		built.Release()
	}
}

// Recovery inherits nothing from the crashed driver: clwbs planted on the
// driver context at the power failure, as if issued and never fenced, cost
// recovery nothing, so every trial reports what it reports without them. The
// trials crash at the last sites of the epoch, where recovery's first fence
// finds nothing in flight: an inherited clwb count would make it stall a full
// PM write there.
func TestRecoveryInheritsNothingFromTheDriver(t *testing.T) {
	base := NewRepro(Setting{Store: "LL", Threads: 1, Scheme: core.SchemeFFCCD}, 11).(Repro)
	census, err := scratchRunScheduled(base, TrialOptions{}, nil)
	if err != nil || !census.Began {
		t.Fatalf("census: began=%v err=%v", census.Began, err)
	}
	for i := uint64(1); i <= 8; i++ {
		rep := base
		rep.Site, rep.Policy = int64(census.Census.Total-i), Policies[i%uint64(len(Policies))]
		var driver *trial
		planted := TrialOptions{Obs: func(Setting, int64) *obsv.Obs {
			o := obsv.New(0)
			o.OnCrash = func(*obsv.Obs) { driver.Ctx.PendingFlushes += 64 }
			return o
		}}
		got, gerr := runProbed(rep, planted, nil, func(setting Setting, rep Repro) (*trial, *churner, error) {
			m, churn, err := buildTrial(setting, rep.Seed, rep.Ops)
			driver = m
			return m, churn, err
		})
		want, werr := scratchRunScheduled(rep, TrialOptions{}, nil)
		if got.Crash == nil || got.RecoveryCycles == 0 {
			t.Fatalf("%s: no crash and recovery to check (%v)", rep.MarshalLine(), gerr)
		}
		sameTrial(t, rep, got, gerr, want, werr)
	}
}

// A prefix that cannot be built fails every trial on its machine with the
// build's error, is not built again per trial, and leaks no media — and a
// schedule naming another machine gets that machine's verdict, not the error.
func TestPrefixBuildErrorReachesEveryTrial(t *testing.T) {
	c := new(campaign)
	setting := Setting{Store: "LL", Threads: 1, Scheme: core.SchemeFFCCD}
	base := NewRepro(setting, 1).(Repro)
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
	out := c.explore(setting, base, CampaignOptions{})
	if len(out.Failures) != 1 || out.Failures[0].Err != buildErr.Error() || out.Scheduled != 0 {
		t.Errorf("campaign on a failed build: %+v", out)
	}
	other := base
	other.Seed, other.Site = 4, 30
	got, gerr := c.runScheduled(other, TrialOptions{})
	want, werr := scratchRunScheduled(other, TrialOptions{}, nil)
	sameTrial(t, other, got, gerr, want, werr)
}

// A schedule that names another machine than the campaign's does not run on
// the campaign's: it gets the machine its own line names.
func TestCampaignRunsAnotherMachinesScheduleOnItsOwn(t *testing.T) {
	c := new(campaign)
	mine := NewRepro(Setting{Store: "LL", Threads: 1, Scheme: core.SchemeFFCCD}, 4).(Repro)
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
		want, werr := scratchRunScheduled(other, TrialOptions{}, nil)
		sameTrial(t, other, got, gerr, want, werr)
	}
	if _, ok := c.batch[batchMachine{Setting{Store: "LL", Threads: 1, Scheme: core.SchemeFFCCD}, mine.Seed, mine.Ops}]; !ok || len(c.batch) != 4 {
		t.Errorf("%d prefixes for 4 machines, the campaign's own among them: %v", len(c.batch), ok)
	}
}

// A campaign's prefix dies with the campaign: once explore has returned and
// its campaign is dropped, nothing — no cache, no forked machine, no store
// handed to a hook — still reaches the snapshot.
func TestCampaignLeavesNoPrefixBehind(t *testing.T) {
	co := CampaignOptions{Seed: 3, Ops: 120, MaxSites: 4, Nested: true, MaxNested: 1}
	run := func(freed *atomic.Int32) {
		for _, setting := range []Setting{{Store: "LL", Threads: 1, Scheme: core.SchemeFFCCD}, {Store: "FPTree", Threads: 2, Scheme: core.SchemeSFCCD}} {
			c := new(campaign)
			base := NewRepro(setting, co.Seed).(Repro)
			base.Ops = co.Ops
			out := c.explore(setting, base, co)
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
	base := NewRepro(Setting{Store: "LL", Threads: 1, Scheme: core.SchemeFFCCD}, 11).(Repro)
	census, err := c.runScheduled(base, TrialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pre, err := c.prefixOf(Setting{Store: "LL", Threads: 1, Scheme: core.SchemeFFCCD}, base.Seed, base.Ops)
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

	srep := NewRepro(Setting{Serve: "ffccd"}, 3).(ServeRepro)
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
// about a seventh over the 22.5 KB it does (72 KB under the race detector,
// whose budget is trialAllocBudgetRace), most of which is the engine's and
// the contexts' small structs and the checker's tables. Its values are
// windows of one shared table, the checker reads every value into one
// buffer, its model is a pooled map its prefix's model is copied into, its
// tail churn's random sources are pooled, its heap incarnations' placement
// indexes are sized to the frames they reach, and its device's cache arrays,
// media pages, its contexts' TLB arrays, its engines' epoch tables and its
// pools' heap tables and transaction slots come from the pools. The margin
// is tight enough that each of these copies alone is over the budget: pools
// that build their heap tables and transaction slots afresh at every fork
// and reopen (37.5 KB per trial), a checker that reads a fresh copy of every
// value, a model cloned per trial, a fresh value per insert, a placement
// index sized by the pool's 16 384 frames (64 KB per heap), or a device that
// does not take pooled cache arrays (0.3 MB).
const (
	trialAllocBudget     = 26_000
	trialAllocBudgetRace = 80_000
)

func TestTrialAllocBudget(t *testing.T) {
	const trials = 20
	c := new(campaign)
	base := NewRepro(Setting{Store: "LL", Threads: 1, Scheme: core.SchemeFFCCD}, 11).(Repro)
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
	budget := uint64(trialAllocBudget)
	if raceEnabled {
		budget = trialAllocBudgetRace
	}
	t.Logf("%d B per warm forked trial (budget %d)", per, budget)
	if per > budget {
		t.Errorf("a warm forked trial allocates %d B, budget %d B: something sized by the pool's capacity, or a copy of what the checker only compares, is back in the trial path", per, budget)
	}
}

// The value tables are shared by every trial and every machine: the stores
// copy from them, and the models and in-flight writes hold windows of them.
// A store, model or checker that wrote through a window would change the
// values of every later trial, so a batch and a serving campaign must leave
// both tables as they found them.
func TestValueTablesStayUnwritten(t *testing.T) {
	hash := func() uint64 {
		h := fnv.New64a()
		for r := range churnValues {
			h.Write(churnValues[r][:])
		}
		h.Write(redisws.Value(0, redisws.MaxValue))
		h.Write(redisws.Value(255, redisws.MaxValue))
		return h.Sum64()
	}
	before := hash()
	co := CampaignOptions{Seed: 3, MaxSites: 4, Nested: true, MaxNested: 1}
	batch := ExploreSetting(Setting{Store: "BzTree", Threads: 2, Scheme: core.SchemeFFCCD}, co)
	co.Clients, co.Ops, co.Keys = 4, 600, 200
	serve := ExploreSetting(Setting{Serve: "ffccd"}, co)
	for _, out := range []CampaignOutcome{batch, serve} {
		if out.Skipped || out.Scheduled == 0 || len(out.Failures) > 0 {
			t.Fatalf("%s: skipped=%v, %d scheduled, failures: %+v", out.Setting, out.Skipped, out.Scheduled, out.Failures)
		}
	}
	if after := hash(); after != before {
		t.Errorf("the value tables hash to %#x after the campaigns, %#x before: something wrote through a value window", after, before)
	}
}

// BenchmarkCampaignTrial is the reduced campaign `go run ./bench` runs for one
// batch setting, per trial: the census pass (which builds the prefix), the
// first-level crashes and a nested one.
func BenchmarkCampaignTrial(b *testing.B) {
	setting := Setting{Store: "LL", Threads: 1, Scheme: core.SchemeFFCCD}
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

// A campaign gives back every media page it materialises, its prefixes' as
// well as its trials': batch and sharded serving alike.
func TestCampaignsReturnTheirPages(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func() CampaignOutcome
	}{
		{"LL/1T/ffccd", func() CampaignOutcome {
			return ExploreSetting(Setting{Store: "LL", Threads: 1, Scheme: core.SchemeFFCCD}, CampaignOptions{Seed: 3, Ops: 120, MaxSites: 4, Nested: true, MaxNested: 1})
		}},
		{"serve/ffccd, 2 shards", func() CampaignOutcome {
			return ExploreSetting(Setting{Serve: "ffccd", Shards: 2},
				CampaignOptions{Seed: 3, Clients: 4, Ops: 600, Keys: 256, MaxSites: 4, Nested: true, MaxNested: 1})
		}},
	} {
		taken, returned := pmem.MaterializedPages(), pmem.ReturnedPages()
		if out := c.run(); len(out.Failures) > 0 || out.Scheduled == 0 {
			t.Fatalf("%s: %+v", c.name, out)
		}
		if dt, dr := pmem.MaterializedPages()-taken, pmem.ReturnedPages()-returned; dt != dr || dt == 0 {
			t.Errorf("%s materialised %d media pages and returned %d", c.name, dt, dr)
		}
	}
}

// A campaign whose trial hung keeps its prefixes: the abandoned trial's fork
// may still read their pages, and releasing an image under a live fork
// panics. The census trial blocks in its Obs hook past the watchdog.
func TestHungCampaignKeepsItsPrefixes(t *testing.T) {
	block := make(chan struct{}) // never closed: the abandoned trial keeps its fork for good
	forked := make(chan struct{})
	var calls atomic.Int32
	setting := Setting{Store: "LL", Threads: 1, Scheme: core.SchemeFFCCD}
	co := CampaignOptions{Seed: 3, Ops: 120, MaxSites: 4, Timeout: 100 * time.Millisecond,
		Trial: TrialOptions{Obs: func(Setting, int64) *obsv.Obs {
			if calls.Add(1) == 1 {
				close(forked)
				<-block
			}
			return nil
		}}}
	base := NewRepro(setting, co.Seed).(Repro)
	base.Ops = co.Ops
	c := new(campaign)
	out := c.explore(setting, base, co)
	if len(out.Failures) != 1 || !out.Failures[0].Hung {
		t.Fatalf("the blocked census is not the campaign's one hung failure: %+v", out.Failures)
	}
	<-forked // the abandoned trial built the prefix before it blocked
	if len(c.batch) != 1 {
		t.Fatalf("the campaign built %d prefixes", len(c.batch))
	}
	for _, b := range c.batch {
		if b.pre == nil || len(b.pre.img.Pool.Dev.Pages) == 0 {
			t.Error("the campaign released the prefix its hung trial forked")
		}
	}
}

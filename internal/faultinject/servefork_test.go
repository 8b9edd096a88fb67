package faultinject

// A forked serving trial against the same driver on machines of its own.
// scratchRunServe runs a serving line the way ServeRepro.Run does, on
// machines built and loaded in place instead of forked from a campaign's
// prefixes, as the oracle: whatever a serving line names, the forked trial
// must report what this one does.

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ffccd/internal/ds"
	"ffccd/internal/obsv"
	"ffccd/internal/pmop"
	"ffccd/internal/redisws"
	"ffccd/internal/sim"
	"ffccd/internal/workpool"
)

// scratchRunServe runs rep on machines built and loaded in place, as
// buildServePrefixes builds them before it captures them.
func scratchRunServe(rep ServeRepro, opts TrialOptions) (Result, error) {
	rep, shardKeys, err := rep.normalized()
	if err != nil {
		return Result{Began: true}, err
	}
	cfgs := redisws.ShardConfigs(serveConfigFor(rep), rep.Shards)
	machines := make([]*redisws.Machine, len(cfgs))
	loaded := make([]*redisws.Loaded, len(cfgs))
	for i, cfg := range cfgs {
		if machines[i], loaded[i], err = loadServeMachine(rep.Scheme, shardKeys[i], cfg); err != nil {
			for _, m := range machines[:i] {
				m.Release()
			}
			return Result{Began: true, Shard: rep.Shard}, err
		}
	}
	return runServeOn(rep, shardKeys, opts, machines, loaded)
}

// smallServeRepro is a serving line at trial volumes a test can afford.
func smallServeRepro(r *rand.Rand, scheme string, shards int) ServeRepro {
	rep := NewRepro(Setting{Serve: scheme}, r.Int63n(1<<40)).(ServeRepro)
	rep.Shards = shards
	rep.Clients, rep.Ops, rep.Keys = 2+r.Intn(5), 400+r.Intn(800), 160+r.Intn(240)
	return rep
}

func TestForkedServeTrialMatchesScratch(t *testing.T) {
	campaigns := 12
	if testing.Short() {
		campaigns = 8
	}
	const crashesPer = 2
	r := rand.New(rand.NewSource(29))
	lines, crashed, nested, sharded := 0, 0, 0, 0
	for i := 0; i < campaigns; i++ {
		base := smallServeRepro(r, ServeSchemes[i%len(ServeSchemes)], 1+i/len(ServeSchemes)%3)
		c := new(campaign)
		census, cerr := c.runServe(base, TrialOptions{})
		want, werr := scratchRunServe(base, TrialOptions{})
		sameTrial(t, base, census, cerr, want, werr)
		lines++
		if cerr != nil {
			continue
		}
		// The crash trials fork the prefixes the census pass built, at once
		// on the worker pool, as a campaign's do.
		var reps [crashesPer]ServeRepro
		for k := range reps {
			sh, sites := 0, census.Census.Total
			if base.Shards > 1 {
				sh = r.Intn(base.Shards)
				sites = census.ShardCensus[sh].Total
			}
			cp := CrashPoint{Site: r.Int63n(int64(sites)), Nested: -1,
				Policy: Policies[r.Intn(len(Policies))], Salt: r.Uint64()}
			switch {
			case k == 0:
				// A recovery passes two sites at least, so this one fires.
				cp.Nested = r.Int63n(2)
			case r.Intn(2) == 0:
				// Most of these fire only in a recovery that resumes an
				// epoch; an idle pool's passes 2 to 8 sites.
				cp.Nested = r.Int63n(60)
			}
			reps[k] = base.At(sh, cp).(ServeRepro)
		}
		var got [crashesPer]Result
		var gotErr [crashesPer]error
		var gotProbe [crashesPer]machineProbe
		_ = workpool.ForEach(crashesPer, func(k int) error {
			got[k], gotErr[k] = c.runServe(reps[k], gotProbe[k].options())
			return nil
		})
		for k, rep := range reps {
			var wantProbe machineProbe
			want, werr := scratchRunServe(rep, wantProbe.options())
			sameTrial(t, rep, got[k], gotErr[k], want, werr)
			same(t, rep, "machine after recovery", gotProbe[k], wantProbe)
			lines++
			if got[k].Crash != nil {
				crashed++
				if rep.Shards > 1 {
					sharded++
				}
			}
			if got[k].NestedCrash != nil {
				nested++
			}
		}
	}
	t.Logf("%d lines compared, %d crashed (%d sharded), %d inside recovery", lines, crashed, sharded, nested)
	if crashed < lines/2 || nested == 0 || sharded == 0 {
		t.Errorf("%d lines compared, %d crashed (%d sharded), %d inside recovery: the comparison is thinner than it claims",
			lines, crashed, sharded, nested)
	}
}

// What a trial's Result and probe cannot see of the fork point itself: every
// shard of a forked deployment against one loaded in place, state by state.
func TestServeForkReproducesTheLoadedMachine(t *testing.T) {
	const scheme = "ffccd"
	rep := NewRepro(Setting{Serve: scheme}, 5).(ServeRepro)
	rep.Clients, rep.Ops, rep.Keys, rep.Shards = 4, 600, 300, 2
	rep, shardKeys, err := rep.normalized()
	if err != nil {
		t.Fatal(err)
	}
	pres, err := buildServePrefixes(rep, shardKeys)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := redisws.ShardConfigs(serveConfigFor(rep), rep.Shards)
	for i, pre := range pres {
		built, loaded, err := loadServeMachine(scheme, shardKeys[i], cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		forked, forkedLoaded, err := pre.fork(scheme)
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
			{"loader context", forked.Ctx.Checkpoint(), built.Ctx.Checkpoint()},
			{"defrag context", forked.GC.Checkpoint(), built.GC.Checkpoint()},
			{"pool ops", forked.Pool.Ops.Load(), built.Pool.Ops.Load()},
			{"tx slot order", forked.Pool.TxSlotOrder(), built.Pool.TxSlotOrder()},
			{"pool VA base", forked.Pool.VA(0), built.Pool.VA(0)},
			{"store length", forked.Store.Len(), built.Store.Len()},
			{"engine", forked.Eng != nil, built.Eng != nil},
			{"loaded state", forkedLoaded.Capture(), loaded.Capture()},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Errorf("%s shard %d: forked %s differs from the loaded machine's", scheme, i, c.what)
			}
		}
		forked.Release()
		forkedLoaded.Release()
		built.Release()
		loaded.Release()
	}
}

// A serving campaign's prefixes die with the campaign, like a batch one's.
func TestServeCampaignLeavesNoPrefixBehind(t *testing.T) {
	co := CampaignOptions{Seed: 3, Clients: 4, Ops: 600, Keys: 256, MaxSites: 4, Nested: true, MaxNested: 1}
	run := func(freed *atomic.Int32) {
		for shards := 1; shards <= 2; shards++ {
			c := new(campaign)
			setting := Setting{Serve: "ffccd", Shards: shards}
			base := NewRepro(setting, co.Seed).(ServeRepro)
			base.Clients, base.Ops, base.Keys = co.Clients, co.Ops, co.Keys
			out := c.explore(setting, base, co)
			if len(out.Failures) > 0 || out.Scheduled == 0 {
				t.Fatalf("%d shards: %+v", shards, out)
			}
			if len(c.serve) != 1 {
				t.Fatalf("%d shards: the campaign built %d deployments", shards, len(c.serve))
			}
			for _, b := range c.serve {
				for _, pre := range b.pre {
					runtime.SetFinalizer(pre, func(*servePrefix) { freed.Add(1) })
				}
			}
		}
	}
	var freed atomic.Int32
	run(&freed)
	for i := 0; i < 50 && freed.Load() < 3; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if freed.Load() != 3 {
		t.Errorf("%d of 3 shard prefixes were collected after their campaigns returned", freed.Load())
	}
}

// One campaign runs a whole shrink: a candidate that changes only the crash
// point forks a prefix already built, so the shrink builds exactly one
// deployment per distinct machine its candidates name.
func TestShrinkBuildsOnePrefixPerMachine(t *testing.T) {
	rep := NewRepro(Setting{Serve: "none"}, 41).(ServeRepro)
	rep.Clients, rep.Ops, rep.Keys = 4, 1200, 400
	census, err := rep.Run(TrialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	armed := rep
	armed.Site = int64(census.Census.Total / 2)
	var mu sync.Mutex
	trials, machines := 0, map[ServeRepro]bool{}
	opts := TrialOptions{
		// A planted loss of two acknowledged writes fails every crashing
		// candidate.
		AfterRecovery: func(ctx *sim.Ctx, _ *pmop.Pool, s ds.Store) {
			for k, removed := 0, 0; k < rep.Keys && removed < 2; k++ {
				if ok, err := s.Delete(ctx, uint64(k)); err == nil && ok {
					removed++
				}
			}
		},
		Series: func(r ServeRepro, shard int) *obsv.TimeSeries {
			if shard == 0 {
				r.CrashPoint, r.Shard = CrashPoint{}, 0
				mu.Lock()
				trials++
				machines[r] = true
				mu.Unlock()
			}
			return nil
		},
	}
	c := new(campaign)
	min, ok := c.shrink(armed, opts, 0, 16)
	if !ok {
		t.Fatal("shrink made no progress on a failing schedule")
	}
	t.Logf("%d trials on %d machines shrank %s to %s", trials, len(machines), armed.MarshalLine(), min.MarshalLine())
	if len(c.serve) != len(machines) || trials <= len(machines) {
		t.Errorf("%d trials on %d machines built %d deployments; want one per machine", trials, len(machines), len(c.serve))
	}
}

// BenchmarkServeCampaignTrial is the reduced serving campaign `go run ./bench`
// runs for one scheme, per trial: the census pass (which builds and loads the
// prefix), the first-level crashes and a nested one.
func BenchmarkServeCampaignTrial(b *testing.B) {
	co := CampaignOptions{Seed: 11, Clients: 4, Ops: 1200, Keys: 400, MaxSites: 2, Nested: true, MaxNested: 1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	trials := 0
	for i := 0; i < b.N; i++ {
		out := ExploreSetting(Setting{Serve: "ffccd"}, co)
		if len(out.Failures) > 0 {
			b.Fatalf("%+v", out)
		}
		trials += 1 + out.Scheduled
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(trials), "ms/trial")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(trials), "B/trial")
}

// serveTrialAllocBudget is what one warm forked ffccd serving trial, run the
// way a campaign runs it, may allocate: about a ninth over the 31–33 KB it
// does (108 KB under the race detector, whose budget is
// serveTrialAllocBudgetRace). Most of that is the serving run itself: the
// mark passes of its epochs and its contexts' small structs. Its values are
// windows of one shared table, the checker reads every value into one
// buffer, its LRU tables are pooled tables its prefix's are copied into, its
// heaps' placement indexes are sized to the frames they reach, its store's
// read buffers grow once per doubling of the values they read, and its
// device's cache arrays, media pages, its contexts' TLB arrays, its pools'
// heap tables and transaction slots and its latency histogram (8 KB) come
// from the pools. Each of these alone is over the budget: pools that build
// their heap tables afresh (45 KB per trial), a latency histogram per run
// (39.6 KB), store buffers that regrow for every larger value (39.6 KB), LRU
// tables cloned per trial, or a checker that reads a fresh copy of every
// value.
const (
	serveTrialAllocBudget     = 37_000
	serveTrialAllocBudgetRace = 122_000
)

func TestServeTrialAllocBudget(t *testing.T) {
	const trials = 10
	c := new(campaign)
	base := NewRepro(Setting{Serve: "ffccd"}, 11).(ServeRepro)
	base.Clients, base.Ops, base.Keys = 4, 1200, 400
	census, err := c.runServe(base, TrialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	run := func(n int) {
		for i := 0; i < n; i++ {
			rep := base
			rep.Site, rep.Policy = int64(uint64(i)*7919%census.Census.Total), Policies[i%len(Policies)]
			if o := c.runTrial(rep, TrialOptions{}); o.err != nil {
				t.Fatal(o.err)
			}
		}
	}
	run(3)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(trials)
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / trials
	budget := uint64(serveTrialAllocBudget)
	if raceEnabled {
		budget = serveTrialAllocBudgetRace
	}
	t.Logf("%d B per warm forked serving trial (budget %d)", per, budget)
	if per > budget {
		t.Errorf("a warm forked serving trial allocates %d B, budget %d B: something a trial is done with is not going back to its pool, or a value is copied again", per, budget)
	}
}

package faultinject

// A forked serving trial against the trial it replaced. scratchRunServeScheduled
// is RunServeScheduled as it was before serving campaigns shared loaded
// prefixes — its own machines, each loaded inside redisws.ServeSharded — kept
// here as the oracle: whatever a serving line names, the forked trial must
// report what this one does.

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ffccd/internal/checker"
	"ffccd/internal/ds"
	"ffccd/internal/mesh"
	"ffccd/internal/obsv"
	"ffccd/internal/pmem"
	"ffccd/internal/pmop"
	"ffccd/internal/redisws"
	"ffccd/internal/sim"
)

func scratchRunServeScheduled(rep ServeRepro, opts TrialOptions) (Result, error) {
	res := Result{Began: true}
	rep, shardKeys, err := rep.normalized()
	if err != nil {
		return res, err
	}
	policy, err := PolicyFor(rep.Policy, rep.Salt)
	if err != nil {
		return res, err
	}
	res.Shard = rep.Shard

	// The machines of the SLO grid (experiments.Serving) over a smaller pool
	// and cache, so scheduled trials crash the machine the grid measures.
	nsh := rep.Shards
	machines := make([]*redisws.Machine, nsh)
	for i := range machines {
		if machines[i], err = redisws.NewMachine(trialSimConfig(), rep.Scheme, "serve", shardKeys[i], 16<<20); err != nil {
			return res, err
		}
		if opts.Series != nil {
			machines[i].Hooks.Series = opts.Series(rep, i)
		}
	}

	// The crash plan arms only the target shard; siblings never lose power.
	// The pre-crash engine is abandoned wholesale at a crash, like the batch
	// driver: its volatile state is exactly what the power failure destroys.
	target := machines[rep.Shard]
	dev := target.Device()
	crashed := false
	target.Hooks.Crash = &redisws.CrashPlan{
		Arm: func() { dev.ArmSites(rep.Site) },
		Recover: func(crash *pmem.CrashAtSite, acked map[uint64][]byte, pending *redisws.PendingWrite) (*redisws.Recovered, error) {
			crashed = true
			res.Crash = crash
			res.Census = dev.DisarmSites()

			// recCtx bills the blackout — the cycles the server is gone.
			recCtx := sim.NewCtx(&target.Cfg)
			var d2 *mesh.Defragmenter
			rs := restart{
				label: rep.Scheme, m: target.Machine, policy: policy, nested: rep.Nested,
				ctx: recCtx, opt: redisws.SchemeOptions(rep.Scheme),
			}
			if rep.Scheme == "mesh" {
				// Mesh's remap table must be installed before reference
				// marking reads the heap (see mesh.Recover).
				rs.prepare = func(p *pmop.Pool) (err error) {
					if d2, err = mesh.Recover(recCtx, p); err != nil {
						err = fmt.Errorf("mesh recovery (%s): %w", rep.Scheme, err)
					}
					return err
				}
			}
			if err := rs.run(&res); err != nil {
				return nil, err
			}
			p2, e2 := target.Pool, target.Eng
			// After the allocator rebuild, re-pin meshed frames so later
			// cycles cannot re-mesh over resident neighbours.
			if d2 != nil {
				d2.RestoreFrameStates()
			}
			s2, err := redisws.OpenStore(recCtx, p2, shardKeys[rep.Shard])
			if err != nil {
				return nil, err
			}
			if opts.AfterRecovery != nil {
				opts.AfterRecovery(recCtx, p2, s2)
			}
			// Durable-ack and graph checks run on a non-billed context: the
			// blackout bill is the restart work, not the validation harness.
			chkCtx := sim.NewCtx(&target.Cfg)
			var pw *checker.PendingWrite
			if pending != nil {
				pw = &checker.PendingWrite{Key: pending.Key, Val: pending.Val}
			}
			var model map[uint64][]byte
			if nsh > 1 {
				model, err = checker.DurableAcksShard(chkCtx, rep.Shard, s2, acked, pw)
			} else {
				model, err = checker.DurableAcks(chkCtx, s2, acked, pw)
			}
			if err != nil {
				return nil, fmt.Errorf("durable-ack check (%s): %w", rep.Scheme, err)
			}
			if _, err := checker.CheckGraph(chkCtx, p2); err != nil {
				return nil, fmt.Errorf("post-recovery graph check (%s): %w", rep.Scheme, err)
			}
			return &redisws.Recovered{
				Store:  s2,
				Pool:   p2,
				Hooks:  redisws.SchemeHooks(rep.Scheme, p2, e2, d2, target.GC),
				Cycles: recCtx.Clock.Total(),
				Model:  model,
			}, nil
		},
	}
	// A sharded census pass census-arms the sibling shards too, so a single
	// run yields every shard's site census. Arming charges no simulated
	// cycles, so sibling behaviour is bit-identical to an armed pass.
	if nsh > 1 && rep.Site < 0 {
		for i, m := range machines {
			if md := m.Device(); i != rep.Shard {
				m.Hooks.Crash = &redisws.CrashPlan{Arm: func() { md.ArmSites(-1) }}
			}
		}
	}

	shards := make([]redisws.Shard, nsh)
	for i, m := range machines {
		shards[i] = m.Shard()
	}
	sharded, err := redisws.ServeSharded(shards, redisws.ShardConfigs(serveConfigFor(rep), nsh))
	// Every shard job has returned, so this goroutine is the machines' only
	// user from here on: give their pages and arrays back on the way out. (Not
	// registered earlier — a panic leaving ServeSharded could leave sibling
	// shards running — and never by a watchdog that gave up on the trial.)
	defer func() {
		for _, m := range machines {
			m.Release()
		}
	}()
	res.Serve = &sharded.Merged
	if nsh > 1 {
		res.PerShard = sharded.Shards
	}
	if err != nil {
		return res, err
	}
	if !crashed {
		// Census pass, or the armed site was past the end of the run.
		res.Census = dev.DisarmSites()
	}
	if nsh > 1 && rep.Site < 0 {
		res.ShardCensus = make([]pmem.SiteCensus, nsh)
		for i, m := range machines {
			if i == rep.Shard {
				res.ShardCensus[i] = res.Census
			} else {
				res.ShardCensus[i] = m.Device().DisarmSites()
			}
		}
	}
	// FinalHash of a sharded trial folds the per-shard hashes in shard order
	// (FNV-1a over the shard digests) — one bit-identity witness for the
	// whole deployment.
	fold := uint64(1469598103934665603)
	for _, m := range machines {
		if m.Eng != nil {
			m.Eng.Close()
		}
		m.Device().FlushAll(m.Ctx)
	}
	for _, m := range machines {
		h := m.Device().HashMedia()
		res.FinalHash = h
		if nsh > 1 {
			res.ShardHashes = append(res.ShardHashes, h)
			fold = (fold ^ h) * 1099511628211
			res.FinalHash = fold
		}
	}
	chkCtx := sim.NewCtx(&target.Cfg)
	for i, m := range machines {
		if _, err := checker.CheckGraph(chkCtx, m.Pool); err != nil {
			if nsh > 1 {
				return res, fmt.Errorf("final graph check (%s, shard %d): %w", rep.Scheme, i, err)
			}
			return res, fmt.Errorf("final graph check (%s): %w", rep.Scheme, err)
		}
	}
	return res, nil
}

// sameServeTrial compares everything two runs of one serving line report.
func sameServeTrial(t *testing.T, rep ServeRepro, got Result, gotErr error, want Result, wantErr error) {
	t.Helper()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s\n forked verdict %v\nscratch verdict %v", rep.MarshalLine(), gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s\n forked %s\nscratch %s", rep.MarshalLine(), got.Summary(), want.Summary())
	}
}

// smallServeRepro is a serving line at trial volumes a test can afford.
func smallServeRepro(r *rand.Rand, scheme string, shards int) ServeRepro {
	rep := NewServeRepro(scheme, r.Int63n(1<<40))
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
		want, werr := scratchRunServeScheduled(base, TrialOptions{})
		sameServeTrial(t, base, census, cerr, want, werr)
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
			if r.Intn(2) == 0 {
				cp.Nested = r.Int63n(60)
			}
			reps[k] = base.At(sh, cp).(ServeRepro)
		}
		var got [crashesPer]Result
		var gotErr [crashesPer]error
		var gotProbe [crashesPer]machineProbe
		parallelFor(crashesPer, func(k int) { got[k], gotErr[k] = c.runServe(reps[k], gotProbe[k].options()) })
		for k, rep := range reps {
			var wantProbe machineProbe
			want, werr := scratchRunServeScheduled(rep, wantProbe.options())
			sameServeTrial(t, rep, got[k], gotErr[k], want, werr)
			if gotProbe[k] != wantProbe {
				t.Fatalf("%s\n forked machine after recovery %+v\nscratch machine after recovery %+v", rep.MarshalLine(), gotProbe[k], wantProbe)
			}
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
	for _, scheme := range []string{"ffccd", "mesh"} {
		rep := NewServeRepro(scheme, 5)
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
			built, err := redisws.NewMachine(trialSimConfig(), scheme, "serve", shardKeys[i], 16<<20)
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := redisws.Load(built.Ctx, built.Pool, built.Store, cfgs[i], redisws.ServeHooks{Crash: &redisws.CrashPlan{}})
			if err != nil {
				t.Fatal(err)
			}
			forked, err := pre.fork(scheme)
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
				{"loader context", forked.Ctx.Checkpoint(), built.Ctx.Checkpoint()},
				{"defrag context", forked.GC.Checkpoint(), built.GC.Checkpoint()},
				{"pool ops", forked.Pool.Ops.Load(), built.Pool.Ops.Load()},
				{"tx slot order", forked.Pool.TxSlotOrder(), built.Pool.TxSlotOrder()},
				{"pool VA base", forked.Pool.VA(0), built.Pool.VA(0)},
				{"store length", forked.Store.Len(), built.Store.Len()},
				{"engine", forked.Eng != nil, built.Eng != nil},
				{"mesh", forked.Mesh != nil, built.Mesh != nil},
				{"loaded state", pre.loaded, loaded},
			} {
				if !reflect.DeepEqual(c.got, c.want) {
					t.Errorf("%s shard %d: forked %s differs from the loaded machine's", scheme, i, c.what)
				}
			}
			forked.Release()
			built.Release()
		}
	}
}

// A serving campaign's prefixes die with the campaign, like a batch one's.
func TestServeCampaignLeavesNoPrefixBehind(t *testing.T) {
	co := CampaignOptions{Seed: 3, Clients: 4, Ops: 600, Keys: 256, MaxSites: 4, Nested: true, MaxNested: 1}
	run := func(freed *atomic.Int32) {
		for shards := 1; shards <= 2; shards++ {
			c := new(campaign)
			base := NewServeRepro("ffccd", co.Seed)
			base.Clients, base.Ops, base.Keys, base.Shards = co.Clients, co.Ops, co.Keys, shards
			out := c.explore(fmt.Sprintf("serve/ffccd/%ds", shards), base, co)
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
	rep := NewServeRepro("none", 41)
	rep.Clients, rep.Ops, rep.Keys = 4, 1200, 400
	census, err := RunServeScheduled(rep, TrialOptions{})
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
		out := ExploreServeScheme("ffccd", co)
		if len(out.Failures) > 0 {
			b.Fatalf("%+v", out)
		}
		trials += 1 + out.Scheduled
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(trials), "ms/trial")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(trials), "B/trial")
}

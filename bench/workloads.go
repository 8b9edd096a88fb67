package main

import (
	"fmt"
	"hash/fnv"
	"sync/atomic"
	"time"

	"ffccd/internal/checker"
	"ffccd/internal/core"
	"ffccd/internal/experiments"
	"ffccd/internal/faultinject"
	"ffccd/internal/obsv"
	"ffccd/internal/pmem"
	"ffccd/internal/redisws"
	"ffccd/internal/sim"
	"ffccd/internal/workload"
)

// params is one workload at one size. Only the fields of the workload's kind
// are set.
type params struct {
	// micro-*: the stores run one after another at Scale (relative to the
	// paper's 5M inserts) under Scheme with the Normal trigger/target.
	Stores []string
	Scheme core.Scheme
	Scale  float64

	// serve-*
	Serve serveSpec

	// crash-campaign
	Settings                []string
	MaxSites, MaxNested     int
	ServeSchemes            []string
	ServeSites, ServeNested int
	CrashClients, CrashOps  int
	CrashKeys               int
}

// workloadDef is one benchmark workload. Names are permanent: later issues
// cite them.
type workloadDef struct {
	Name string
	// Why is the reason the workload exists (BENCHMARK.json and README.md
	// carry the same line).
	Why string
	// Full is the frozen size; Smoke is about 1/20 of it, for CI.
	Full, Smoke params
	// Measured names the spans whose summed duration is the measured call:
	// host_ns_per_sim_op is that over the sim ops.
	Measured []string
	run      func(p params, seed int64, tr *tracer, root int) (*result, error)
}

var microStores = []string{"LL", "SS", "BT", "AVL"}

var crashSettings = []string{
	"LL/1T/ffccd", "AVL/1T/ffccd", "BzTree/1T/ffccd",
	"BT/1T/sfccd", "SS/1T/sfccd", "FPTree/1T/sfccd",
}

var workloads = []workloadDef{
	{
		Name:     "micro-nodefrag",
		Why:      "ds-pmop-pmem-sim hot path with no core/arch work and a working set larger than the modelled cache: the bypass for engine optimisations",
		Full:     params{Stores: microStores, Scheme: core.SchemeNone, Scale: 0.003},
		Smoke:    params{Stores: microStores, Scheme: core.SchemeNone, Scale: 0.0003},
		Measured: []string{"workload.run"},
		run:      runMicro,
	},
	{
		Name:     "micro-defrag",
		Why:      "same stores, seed and scale under FFCCD+checklookup: the difference to micro-nodefrag is core mark/summary/copy, the read barrier and arch checklookup",
		Full:     params{Stores: microStores, Scheme: core.SchemeFFCCDCheckLookup, Scale: 0.003},
		Smoke:    params{Stores: microStores, Scheme: core.SchemeFFCCDCheckLookup, Scale: 0.0003},
		Measured: []string{"workload.run"},
		run:      runMicro,
	},
	{
		Name:     "fig14-grid",
		Why:      "five stores x (none + 4 schemes) through experiments fork, pmem checkpoint/restore and workpool fan-out, small enough to fit the modelled cache",
		Full:     params{Scale: 0.001},
		Smoke:    params{Scale: 0.0002},
		Measured: []string{"experiments.grid"},
		run:      runGrid,
	},
	{
		Name:     "serve-read",
		Why:      "open-loop serving with 90% of requests on the peek-predicted batched GET path: where in-run batching must show",
		Full:     params{Serve: serveSpec{Shards: 1, Clients: 32, Keys: 40000, Ops: 200000, GetFraction: 0.9, RatePerSec: 12e6}},
		Smoke:    params{Serve: serveSpec{Shards: 1, Clients: 32, Keys: 2000, Ops: 12000, GetFraction: 0.9, RatePerSec: 12e6}},
		Measured: []string{"redisws.serve"},
		run:      runServe,
	},
	{
		Name:     "serve-write",
		Why:      "same machine with half the requests on the serial SET path (Tx, clwb/sfence, LRU eviction, more epochs): host time is allocator-bound",
		Full:     params{Serve: serveSpec{Shards: 1, Clients: 32, Keys: 40000, Ops: 80000, GetFraction: 0.5, RatePerSec: 4e6}},
		Smoke:    params{Serve: serveSpec{Shards: 1, Clients: 32, Keys: 2000, Ops: 12000, GetFraction: 0.5, RatePerSec: 4e6}},
		Measured: []string{"redisws.serve"},
		run:      runServe,
	},
	{
		Name:     "serve-sharded",
		Why:      "four whole machines as workpool jobs plus the deterministic merge: the only place shard imbalance, merge and pool scheduling cost anything",
		Full:     params{Serve: serveSpec{Shards: 4, Clients: 32, Keys: 80000, Ops: 320000, GetFraction: 0.9, RatePerSec: 24e6}},
		Smoke:    params{Serve: serveSpec{Shards: 4, Clients: 32, Keys: 4000, Ops: 24000, GetFraction: 0.9, RatePerSec: 24e6}},
		Measured: []string{"redisws.serve", "redisws.merge"},
		run:      runServe,
	},
	{
		Name: "crash-campaign",
		Why:  "scheduled crash, recovery and checking over six batch settings and two serving schemes: the only workload through Device.Crash, core.Recover and checker",
		Full: params{
			Settings: crashSettings, MaxSites: 3, MaxNested: 1,
			ServeSchemes: []string{"ffccd", "stw"}, ServeSites: 2, ServeNested: 1,
			CrashClients: 4, CrashOps: 1200, CrashKeys: 400,
		},
		Smoke: params{
			Settings: crashSettings[:2], MaxSites: 2, MaxNested: 1,
			ServeSchemes: []string{"ffccd"}, ServeSites: 2, ServeNested: 1,
			CrashClients: 4, CrashOps: 600, CrashKeys: 200,
		},
		Measured: []string{"faultinject.campaign"},
		run:      runCrash,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// result is what one run of a workload produced, before host metrics are
// added. metrics holds every simulated end-to-end metric and every per-layer
// metric that applies to the workload; one that does not apply is absent,
// never 0.
type result struct {
	ops       int64 // sim ops: store operations, dispatched requests or crash trials
	attempted int64
	failed    int64
	checks    []string // what failed; empty when every output check passed
	metrics   map[string]float64
	digest    digest
}

func (r *result) fail(n int64, format string, a ...any) {
	r.failed += n
	r.checks = append(r.checks, fmt.Sprintf(format, a...))
}

// digest hashes every simulated value of a run in a fixed order. All
// repetitions of a workload at one seed, traced or not, must agree on it.
type digest struct{ parts []string }

func (d *digest) add(name string, v any) { d.parts = append(d.parts, fmt.Sprintf("%s=%v", name, v)) }

func (d *digest) sum() string {
	h := fnv.New64a()
	for _, p := range d.parts {
		h.Write([]byte(p))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// simTotals accumulates the simulated-machine counters of the machines of one
// run (four stores in sequence, or the shards of a deployment).
type simTotals struct {
	cycles        [sim.NumCategories]uint64
	clientBarrier uint64 // serving: barrier work on client clocks, not separable by category from outside
	dev           pmem.Stats
	eng           core.EngineStats
	tlbAcc        uint64
	tlbL2Miss     uint64
	endFoot       uint64
	endLive       uint64
	endFrames     int
}

func (t *simTotals) addClock(c *sim.Clock) {
	s := c.Snapshot()
	for i := range s {
		t.cycles[i] += s[i]
	}
}

func (t *simTotals) addTLB(ctxs ...*sim.Ctx) {
	for _, c := range ctxs {
		t.tlbAcc += c.TLB.AccessCount()
		t.tlbL2Miss += c.TLB.L2Misses
	}
}

func (t *simTotals) gcCycles() uint64 {
	return t.cycles[sim.CatMark] + t.cycles[sim.CatSummary] + t.cycles[sim.CatCopy] +
		t.cycles[sim.CatCheckLookup] + t.cycles[sim.CatGCMisc] + t.clientBarrier
}

func (t *simTotals) totalCycles() uint64 {
	var n uint64
	for _, c := range t.cycles {
		n += c
	}
	return n + t.clientBarrier
}

// emit writes the sim and pmem layers' metrics and the simulated end-to-end
// metrics they determine, and folds every value into the digest.
func (t *simTotals) emit(r *result, withGCShare bool) {
	m, ops := r.metrics, float64(r.ops)
	total := t.totalCycles()
	m["sim_cycles_per_op"] = float64(total) / ops
	m["sim_pm_writes_per_op"] = float64(t.dev.MediaWrites) / ops
	if withGCShare {
		m["sim_gc_cycle_share"] = float64(t.gcCycles()) / float64(total)
	}
	for cat, name := range map[sim.Category]string{
		sim.CatApp: "app", sim.CatMark: "mark", sim.CatSummary: "summary",
		sim.CatCopy: "copy", sim.CatCheckLookup: "checklookup", sim.CatGCMisc: "gcmisc",
	} {
		m["sim.cycles_"+name] = float64(t.cycles[cat])
	}
	if t.clientBarrier > 0 {
		m["sim.cycles_client_barrier"] = float64(t.clientBarrier)
	}
	if t.tlbAcc > 0 {
		m["sim.tlb_accesses"] = float64(t.tlbAcc)
		m["sim.tlb_l2_miss_ratio"] = float64(t.tlbL2Miss) / float64(t.tlbAcc)
	}
	d := t.dev
	m["pmem.loads"] = float64(d.Loads)
	m["pmem.stores"] = float64(d.Stores)
	m["pmem.clwbs"] = float64(d.Clwbs)
	m["pmem.sfences"] = float64(d.Sfences)
	m["pmem.relocate_ops"] = float64(d.RelocateOps)
	m["pmem.media_reads"] = float64(d.MediaReads)
	m["pmem.media_writes"] = float64(d.MediaWrites)
	m["pmem.evictions"] = float64(d.Evictions)
	m["pmem.cache_hits"] = float64(d.CacheHits)
	m["pmem.cache_misses"] = float64(d.CacheMisses)
	if acc := d.CacheHits + d.CacheMisses; acc > 0 {
		m["pmem.cache_miss_ratio"] = float64(d.CacheMisses) / float64(acc)
	}
	m["core.epochs"] = float64(t.eng.Cycles)
	m["core.objects_moved"] = float64(t.eng.ObjectsMoved)
	m["core.barrier_moves"] = float64(t.eng.BarrierMoves)
	m["core.frames_released"] = float64(t.eng.FramesReleased)
	if t.endLive > 0 {
		m["alloc.frag_ratio_end"] = float64(t.endFoot) / float64(t.endLive)
		m["alloc.used_frames_end"] = float64(t.endFrames)
	}
	r.digest.add("cycles", t.cycles)
	r.digest.add("client_barrier", t.clientBarrier)
	r.digest.add("dev", t.dev)
	r.digest.add("eng", t.eng)
	r.digest.add("tlb", []uint64{t.tlbAcc, t.tlbL2Miss})
	r.digest.add("end", []uint64{t.endFoot, t.endLive, uint64(t.endFrames)})
}

// layerTrace accumulates what the traced run's span boundaries saw: the store
// decorators, the engine hooks and the alloc-call counter of every machine.
type layerTrace struct {
	layer      string // "ds" or "kv"
	stores     []*tracedStore
	calls      []*engineCalls
	allocCalls atomic.Uint64
	// runStoreNs is the store time inside the measured call alone; the
	// decorators' own totals also hold the Gets of the micro workloads'
	// verification, which is the only place the §6 driver's stores are read.
	runStoreNs uint64
}

// emit writes the ds/kv and core layers' traced metrics.
func (l *layerTrace) emit(m map[string]float64) {
	var st storeStats
	merge := func(dst, src *callStats) {
		dst.n.Add(src.n.Load())
		dst.ns.Add(src.ns.Load())
		dst.hist.Merge(&src.hist)
	}
	for _, s := range l.stores {
		merge(&st.insert, &s.st.insert)
		merge(&st.del, &s.st.del)
		merge(&st.get, &s.st.get)
		merge(&st.getParallel, &s.st.getParallel)
	}
	for name, c := range map[string]*callStats{
		"insert": &st.insert, "delete": &st.del, "get": &st.get, "get_parallel": &st.getParallel,
	} {
		if n := c.n.Load(); n > 0 {
			k := l.layer + "." + name
			m[k+"_ns"] = float64(c.ns.Load()) / float64(n)
			m[k+"_calls"] = float64(n)
			m[k+"_p99_ns"] = float64(c.hist.Quantile(0.99))
		}
	}
	m["trace.store_ns"] = float64(l.runStoreNs)
	m["alloc.calls"] = float64(l.allocCalls.Load())

	if len(l.calls) == 0 {
		return
	}
	var begin, step, finish hookStats
	var pauseMax uint64
	for _, c := range l.calls {
		begin.add(&c.begin)
		step.add(&c.step)
		finish.add(&c.finish)
		if c.pauseMax > pauseMax {
			pauseMax = c.pauseMax
		}
	}
	m["core.begin_s"] = float64(begin.ns) / 1e9
	m["core.step_s"] = float64(step.ns) / 1e9
	m["core.finish_s"] = float64(finish.ns) / 1e9
	m["core.pause_max_cycles"] = float64(pauseMax)
	m["trace.hook_ns"] = float64(begin.ns + step.ns + finish.ns)
	// Objects are moved by StepCompaction and by whatever FinishCycle still
	// has to move; the fence and flush counts are the deltas across exactly
	// those calls (barrier moves happen inside store calls and are not in
	// them).
	step.add(&finish)
	if moved := step.objectsMoved - step.barrierMoves; moved > 0 {
		n := float64(moved)
		m["core.host_ns_per_moved_object"] = float64(step.ns) / n
		m["core.sfences_per_moved_object"] = float64(step.sfences) / n
		m["core.clwbs_per_moved_object"] = float64(step.clwbs) / n
		m["core.media_writes_per_moved_object"] = float64(step.mediaWrites) / n
	}
}

// ---- micro-nodefrag, micro-defrag -------------------------------------------

func runMicro(p params, seed int64, tr *tracer, root int) (*result, error) {
	r := &result{metrics: map[string]float64{}}
	var tot simTotals
	lt := &layerTrace{layer: "ds"}
	var sumFoot, sumLive float64
	trigger, target := core.NormalParams()

	for _, name := range p.Stores {
		spec := microSpec{Store: name, Scheme: p.Scheme, Trigger: trigger, Target: target, Scale: p.Scale, Seed: seed}
		m, err := buildMicro(spec, tr, root)
		if err != nil {
			return nil, err
		}
		store := m.store
		runID := tr.begin("workload.run", root)
		if tr.detail {
			store = wrapStore(store, "ds", tr, runID, m.wl.InitInserts)
			lt.stores = append(lt.stores, traced(store))
			m.env.Pool.SetAllocHook(func() { lt.allocCalls.Add(1) })
			if m.calls != nil {
				m.calls.parent = runID
				lt.calls = append(lt.calls, m.calls)
			}
		}
		res, err := workload.Run(m.env.Ctx, m.env.Pool, store, m.wl)
		tr.end(runID)
		if ts := traced(store); ts != nil {
			lt.runStoreNs += ts.st.totalNs()
		}
		ops := int64(m.wl.InitInserts + 3*m.wl.PhaseOps)
		r.attempted += ops
		if err != nil {
			r.fail(ops, "%s: workload.Run: %v", name, err)
			continue
		}
		r.ops += int64(res.TotalOps + res.Phases[0].Ops)

		// Read the clocks and counters in experiments.assembleOutcome's
		// order: clocks and engine stats, then Close, then the device.
		tot.addClock(m.env.Ctx.Clock)
		tot.addTLB(m.env.Ctx)
		if m.calls != nil {
			tot.addClock(m.calls.gc.Clock)
			tot.addClock(m.calls.eng.GCClock())
			tot.addTLB(m.calls.gc)
			tot.eng.Add(m.calls.eng.Stats())
			m.calls.eng.Close()
		}
		addDev(&tot.dev, m.env.RT.Device().Stats())
		sumFoot += res.AvgFootprint
		sumLive += res.AvgLive
		end := res.Phases[len(res.Phases)-1].End
		tot.endFoot += end.FootprintBytes
		tot.endLive += end.LiveBytes
		tot.endFrames += end.UsedFrames
		r.digest.add(name+".len", m.store.Len())

		// Output checks, on a context of their own so they charge nothing
		// the metrics above have read.
		vid := tr.begin("checker.verify", root)
		vctx := sim.NewCtx(&m.env.Cfg)
		if _, err := checker.CheckGraph(vctx, m.env.Pool); err != nil {
			r.fail(ops, "%s: %v", name, err)
		}
		if want := m.wl.InitInserts - m.wl.PhaseOps; m.store.Len() != want {
			r.fail(ops, "%s: %d live keys, expected %d", name, m.store.Len(), want)
		}
		if ts := traced(store); ts != nil {
			if err := checker.CheckStore(vctx, store, ts.model); err != nil {
				r.fail(ops, "%s: %v", name, err)
			}
		}
		tr.end(vid)
		m.env.RT.Device().ReleaseMedia()
	}
	if r.ops == 0 {
		return r, nil
	}
	r.metrics["sim_frag_ratio"] = sumFoot / sumLive
	r.digest.add("frag", []float64{sumFoot, sumLive})
	tot.emit(r, p.Scheme != core.SchemeNone)
	if tr.detail {
		lt.emit(r.metrics)
		self := float64(tr.total("workload.run")) - r.metrics["trace.store_ns"] - r.metrics["trace.hook_ns"]
		r.metrics["workload.self_s"] = self / 1e9
	}
	return r, nil
}

// ---- fig14-grid -------------------------------------------------------------

func runGrid(p params, seed int64, tr *tracer, root int) (*result, error) {
	r := &result{metrics: map[string]float64{}}
	schemes := []core.Scheme{core.SchemeEspresso, core.SchemeSFCCD, core.SchemeFFCCD, core.SchemeFFCCDCheckLookup}
	var specs []experiments.Spec
	for _, store := range experiments.Micros {
		base := experiments.Spec{Store: store, Threads: 1, Scheme: core.SchemeNone, Scale: p.Scale, PageShift: 12, Seed: seed}
		specs = append(specs, base)
		for _, sc := range schemes {
			s := base
			s.Scheme = sc
			s.Trigger, s.Target = core.NormalParams()
			specs = append(specs, s)
		}
	}
	experiments.SetFork(true)
	experiments.ResetForkCounters()
	wl := microWorkload(microSpec{Scale: p.Scale})
	perRun := int64(wl.InitInserts + 3*wl.PhaseOps)
	r.attempted = perRun * int64(len(specs))

	id := tr.begin("experiments.grid", root)
	outs, err := experiments.RunSpecsForked(specs)
	tr.end(id)
	if err != nil {
		r.fail(r.attempted, "RunSpecsForked: %v", err)
		return r, nil
	}
	var tot simTotals
	var foot, live float64
	for i, o := range outs {
		r.ops += int64(o.TotalOps)
		if int64(o.TotalOps) != perRun {
			r.fail(perRun, "%s/%s: %d ops, expected %d", specs[i].Store, specs[i].Scheme, o.TotalOps, perRun)
		}
		for c := range o.Cycles {
			tot.cycles[c] += o.Cycles[c]
		}
		addDev(&tot.dev, o.Device)
		tot.eng.Add(o.Engine)
		foot += o.AvgFootprintMB
		live += o.AvgLiveMB
	}
	r.metrics["sim_frag_ratio"] = foot / live
	r.digest.add("frag", []float64{foot, live})
	tot.emit(r, true)

	_, _, forks := experiments.ForkCounters()
	captured, _ := experiments.ForkCheckpointBytes()
	r.metrics["experiments.fork_runs"] = float64(forks)
	r.metrics["experiments.fork_restore_s"] = experiments.ForkRestoreSeconds()
	r.metrics["experiments.fork_checkpoint_mb"] = float64(captured) / 1e6
	r.digest.add("forks", forks)
	return r, nil
}

// ---- serve-read, serve-write, serve-sharded ---------------------------------

func runServe(p params, seed int64, tr *tracer, root int) (*result, error) {
	r := &result{metrics: map[string]float64{}}
	spec := p.Serve
	spec.Seed = seed
	n := spec.Shards
	cfgs := redisws.ShardConfigs(serveConfig(spec), n)
	machines := make([]*serveMachine, n)
	shards := make([]redisws.Shard, n)
	lt := &layerTrace{layer: "kv"}
	owned := make([]int, n)
	for i := range machines {
		owned[i] = spec.Keys
		if n > 1 {
			owned[i] = len(redisws.OwnedKeys(uint64(spec.Keys), i, n))
		}
		m, err := buildServe(owned[i], tr, root)
		if err != nil {
			return nil, err
		}
		machines[i] = m
		shards[i] = redisws.Shard{Ctx: m.env.Ctx, Pool: m.env.Pool, Store: m.store, Hooks: m.hooks}
	}

	r.attempted = int64(spec.Ops)
	serveID := tr.begin("redisws.serve", root)
	if tr.detail {
		for i, m := range machines {
			shards[i].Store = wrapStore(m.store, "kv", tr, serveID, owned[i])
			ts := traced(shards[i].Store)
			ts.loadInserts = uint64(owned[i])
			lt.stores = append(lt.stores, ts)
			m.env.Pool.SetAllocHook(func() { lt.allocCalls.Add(1) })
			m.calls.parent = serveID
			lt.calls = append(lt.calls, m.calls)
		}
	}
	sh, err := redisws.ServeSharded(shards, cfgs)
	tr.end(serveID)
	if err != nil {
		r.fail(r.attempted, "ServeSharded: %v", err)
		return r, nil
	}
	out := sh.Merged
	if n > 1 {
		id := tr.begin("redisws.merge", root)
		series := make([]*obsv.TimeSeries, n)
		for i, m := range machines {
			series[i] = m.series
		}
		merged, err := redisws.MergeShardSeries("ffccd", serveWindowCycles, 0, series)
		tr.end(id)
		if err != nil {
			r.fail(r.attempted, "MergeShardSeries: %v", err)
		} else if merged.Count() != uint64(out.Ops) {
			r.fail(r.attempted, "merged series holds %d requests, served %d", merged.Count(), out.Ops)
		}
	}
	r.ops = int64(out.Ops)

	// Simulated totals as experiments.runServingVariant adds them up: the
	// loader and client clocks (ServeResult.SimCycles) plus each machine's
	// defrag thread. Client clocks are internal to Serve, so their barrier
	// work is known only as a sum (InterfCycles).
	var tot simTotals
	tot.cycles[sim.CatApp] = out.SimCycles - out.InterfCycles
	tot.clientBarrier = out.InterfCycles
	var maxSim, sumSim uint64
	for i, m := range machines {
		tot.addClock(m.calls.gc.Clock)
		tot.addTLB(m.env.Ctx, m.calls.gc)
		tot.eng.Add(m.calls.eng.Stats())
		m.calls.eng.Close()
		addDev(&tot.dev, m.env.RT.Device().Stats())
		s := sh.Shards[i].SimCycles + m.calls.gc.Clock.Total()
		sumSim += s
		if s > maxSim {
			maxSim = s
		}
		r.digest.add(fmt.Sprintf("shard%d.len", i), m.store.Len())
	}
	tot.endFoot, tot.endLive, tot.endFrames = out.Final.FootprintBytes, out.Final.LiveBytes, out.Final.UsedFrames
	m := r.metrics
	m["sim_frag_ratio"] = out.Final.FragRatio
	m["sim_p50_cycles"] = out.Lat.Percentile(50)
	m["sim_p999_cycles"] = out.Lat.Percentile(99.9)
	tot.emit(r, true)
	m["redisws.parallel_op_ratio"] = float64(out.ParallelOps) / float64(out.Ops)
	if out.Batches > 0 {
		m["redisws.ops_per_batch"] = float64(out.ParallelOps) / float64(out.Batches)
	}
	m["redisws.hit_ratio"] = float64(out.Hits) / float64(out.Gets)
	m["redisws.evictions"] = float64(out.Evictions)
	lat := float64(out.Lat.Hist.Snapshot("").Sum)
	m["redisws.stall_cycle_share"] = float64(out.StallWaitCycles) / lat
	m["redisws.queue_cycle_share"] = float64(out.QueueWaitCycles) / lat
	if n > 1 {
		m["redisws.shard_sim_imbalance"] = float64(maxSim) * float64(n) / float64(sumSim)
	}
	r.digest.add("serve", []any{out.Ops, out.Gets, out.Sets, out.Hits, out.Misses, out.Evictions,
		out.ParallelOps, out.SerialOps, out.Batches, out.Makespan, out.StallWaitCycles, out.QueueWaitCycles,
		m["sim_p50_cycles"], m["sim_p999_cycles"], out.Lat.Max(), out.RateUsed})

	// Output checks.
	vid := tr.begin("checker.verify", root)
	switch {
	case out.Ops != spec.Ops:
		r.fail(r.attempted, "served %d requests, expected %d", out.Ops, spec.Ops)
	case out.Ops != out.Gets+out.Sets:
		r.fail(r.attempted, "Ops %d != Gets %d + Sets %d", out.Ops, out.Gets, out.Sets)
	case out.Hits+out.Misses != out.Gets:
		r.fail(r.attempted, "Hits %d + Misses %d != Gets %d", out.Hits, out.Misses, out.Gets)
	case out.Rejects != 0 || out.Crashes != 0:
		r.fail(r.attempted, "%d rejects, %d crashes on a crash-free run", out.Rejects, out.Crashes)
	}
	for i, mc := range machines {
		vctx := sim.NewCtx(&mc.env.Cfg)
		if _, err := checker.CheckGraph(vctx, mc.env.Pool); err != nil {
			r.fail(int64(sh.Shards[i].Ops), "shard %d: %v", i, err)
		}
		if l := mc.store.Len(); l < 1 || l > owned[i] {
			r.fail(int64(sh.Shards[i].Ops), "shard %d: %d live keys of %d owned", i, l, owned[i])
		}
		if tr.detail {
			if err := checker.CheckStore(vctx, mc.store, lt.stores[i].model); err != nil {
				r.fail(int64(sh.Shards[i].Ops), "shard %d: %v", i, err)
			}
		}
		mc.env.RT.Device().ReleaseMedia()
	}
	tr.end(vid)

	if tr.detail {
		for _, ts := range lt.stores {
			lt.runStoreNs += ts.st.totalNs()
		}
		lt.emit(m)
		// A machine's serving window runs from its first store call to its
		// last store or hook call; the load is the part up to its
		// Keyspace-th Insert. Shards run concurrently, so the sums are busy
		// time, not wall-clock.
		var load, dispatch float64
		for i, ts := range lt.stores {
			c := lt.calls[i]
			load += float64(ts.loadEnd - ts.first)
			hooks := c.begin.ns + c.step.ns + c.finish.ns
			dispatch += float64(ts.last.Load()-ts.loadEnd) - float64(ts.st.totalNs()-ts.loadStoreNs) - float64(hooks)
		}
		m["redisws.load_s"] = load / 1e9
		m["redisws.dispatch_self_s"] = dispatch / 1e9
		if n > 1 {
			m["redisws.merge_s"] = tr.total("redisws.merge").Seconds()
		}
	}
	return r, nil
}

// ---- crash-campaign ---------------------------------------------------------

func runCrash(p params, seed int64, tr *tracer, root int) (*result, error) {
	r := &result{metrics: map[string]float64{}}
	id := tr.begin("faultinject.campaign", root)
	var sites uint64
	var hung int
	var slowest time.Duration
	note := func(label string, trials, failed int, t0 time.Time) {
		r.ops += int64(trials)
		r.attempted += int64(trials)
		r.failed += int64(failed)
		if d := time.Since(t0); d > slowest {
			slowest = d
		}
		r.digest.add(label, []int{trials, failed})
	}
	for _, s := range p.Settings {
		setting, err := faultinject.ParseSetting(s)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		out := faultinject.ExploreSetting(setting, faultinject.CampaignOptions{
			Seed: seed, MaxSites: p.MaxSites, Nested: true, MaxNested: p.MaxNested, Timeout: 2 * time.Minute,
		})
		// The census pass is a trial too: a full run, checked, with no crash.
		note(s, 1+out.Scheduled, len(out.Failures), t0)
		sites += out.SitesTotal
		if out.Skipped {
			r.fail(1, "%s: census opened no epoch, nothing was crash-tested", s)
		}
		for _, f := range out.Failures {
			r.checks = append(r.checks, s+": "+f.Err)
			if f.Hung {
				hung++
			}
		}
	}
	for _, sc := range p.ServeSchemes {
		t0 := time.Now()
		out := faultinject.ExploreServeScheme(sc, faultinject.ServeCampaignOptions{
			Seed: seed, Clients: p.CrashClients, Ops: p.CrashOps, Keys: p.CrashKeys,
			MaxSites: p.ServeSites, Nested: true, MaxNested: p.ServeNested, Timeout: 2 * time.Minute,
		})
		note("serve/"+sc, 1+out.Scheduled, len(out.Failures), t0)
		sites += out.SitesTotal
		for _, f := range out.Failures {
			r.checks = append(r.checks, "serve/"+sc+": "+f.Err)
			if f.Hung {
				hung++
			}
		}
	}
	wall := tr.end(id)
	m := r.metrics
	m["faultinject.trials"] = float64(r.ops)
	m["faultinject.sites_total"] = float64(sites)
	m["faultinject.trial_ms_mean"] = wall.Seconds() * 1e3 / float64(r.ops)
	m["faultinject.setting_s_max"] = slowest.Seconds()
	m["faultinject.hung"] = float64(hung)
	r.digest.add("sites", sites)
	return r, nil
}

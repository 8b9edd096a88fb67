package main

import (
	"time"

	"ffccd/internal/core"
	"ffccd/internal/ds"
	"ffccd/internal/experiments"
	"ffccd/internal/kv"
	"ffccd/internal/obsv"
	"ffccd/internal/pmem"
	"ffccd/internal/redisws"
	"ffccd/internal/sim"
	"ffccd/internal/workload"
)

// The harness builds its machines itself, from the layers' public
// constructors, because that is the only way to own the callbacks that drive
// core (workload.Config hooks, redisws.ServeHooks) and the store handed to the
// driver. The sizing and hook wiring below therefore repeat what
// experiments.Run and experiments.Serving do privately; machine_test.go pins
// both builders to the experiments' simulated results so the benchmark cannot
// drift onto a different machine.

// hookStats is the exact record of one kind of engine call made from the
// harness hooks: calls, host ns, and the device and engine counter deltas
// across them that the per-moved-object metrics are made of.
type hookStats struct {
	n, ns                       uint64
	sfences, clwbs, mediaWrites uint64
	objectsMoved, barrierMoves  uint64
}

func (h *hookStats) add(o *hookStats) {
	h.n += o.n
	h.ns += o.ns
	h.sfences += o.sfences
	h.clwbs += o.clwbs
	h.mediaWrites += o.mediaWrites
	h.objectsMoved += o.objectsMoved
	h.barrierMoves += o.barrierMoves
}

func addDev(a *pmem.Stats, b pmem.Stats) {
	a.Loads += b.Loads
	a.Stores += b.Stores
	a.CacheHits += b.CacheHits
	a.CacheMisses += b.CacheMisses
	a.Evictions += b.Evictions
	a.MediaWrites += b.MediaWrites
	a.MediaReads += b.MediaReads
	a.Clwbs += b.Clwbs
	a.Sfences += b.Sfences
	a.RelocateOps += b.RelocateOps
	a.PendingReach += b.PendingReach
}

// engineCalls is the span boundary for the core layer: every BeginCycle,
// StepCompaction and FinishCycle the hooks make goes through it. Untraced it
// adds nothing to the call. All calls of one machine come from one goroutine.
type engineCalls struct {
	eng    *core.Engine
	gc     *sim.Ctx
	dev    *pmem.Device
	tr     *tracer
	parent int

	begin, step, finish hookStats
	// pauseMax is the longest stop-the-world interval in simulated cycles:
	// mark+summary of one BeginCycle, or the terminate part of one
	// FinishCycle.
	pauseMax uint64
}

func (e *engineCalls) timed(h *hookStats, name string, f func()) {
	if !e.tr.detail {
		f()
		return
	}
	d0, s0 := e.dev.Stats(), e.eng.Stats()
	t0 := time.Now()
	f()
	d := time.Since(t0)
	d1, s1 := e.dev.Stats(), e.eng.Stats()
	call := hookStats{
		n: 1, ns: uint64(d),
		sfences: d1.Sfences - d0.Sfences, clwbs: d1.Clwbs - d0.Clwbs, mediaWrites: d1.MediaWrites - d0.MediaWrites,
		objectsMoved: s1.ObjectsMoved - s0.ObjectsMoved, barrierMoves: s1.BarrierMoves - s0.BarrierMoves,
	}
	h.add(&call)
	// Steps are per-operation on the serving path; keep one span in
	// sampleEvery of them. Begin and finish are rare and all kept.
	if h != &e.step || h.n%sampleEvery == 1 {
		e.tr.add(name, t0, d, e.parent, map[string]float64{
			"objects_moved": float64(call.objectsMoved), "sfences": float64(call.sfences),
			"clwbs": float64(call.clwbs), "media_writes": float64(call.mediaWrites),
		})
	}
}

func (e *engineCalls) notePause(cycles uint64) {
	if cycles > e.pauseMax {
		e.pauseMax = cycles
	}
}

func (e *engineCalls) beginCycle() (opened bool) {
	before := e.gc.Clock.Total()
	e.timed(&e.begin, "core.begin", func() { opened = e.eng.BeginCycle(e.gc) })
	e.notePause(e.gc.Clock.Total() - before)
	return opened
}

func (e *engineCalls) stepCompaction(n int) {
	e.timed(&e.step, "core.step", func() { e.eng.StepCompaction(e.gc, n) })
}

func (e *engineCalls) finishCycle() {
	before := e.gc.Clock.Total()
	e.timed(&e.finish, "core.finish", func() { e.eng.FinishCycle(e.gc) })
	e.notePause(e.gc.Clock.Total() - before)
}

// ---- micro machine ---------------------------------------------------------

// microSpec is one §6 microbenchmark run: the fields of experiments.Spec the
// harness varies (Threads is always 1, PageShift always 12).
type microSpec struct {
	Store   string
	Scheme  core.Scheme
	Trigger float64
	Target  float64
	Scale   float64
	Seed    int64
}

const microPageShift = 12

// microWorkload repeats experiments.wlFor.
func microWorkload(s microSpec) workload.Config {
	wl := workload.Scaled(s.Scale / experiments.DefaultScale)
	wl.Seed = s.Seed + 1
	wl.SampleEvery = wl.PhaseOps / 40
	if wl.SampleEvery < 25 {
		wl.SampleEvery = 25
	}
	if s.Store == "SS" {
		wl.KeyCap = uint64(wl.InitInserts + 16)
		wl.ValueJitter = 64
	}
	return wl
}

// microPoolBytes repeats experiments.poolSizeFor.
func microPoolBytes(wl workload.Config) uint64 {
	need := uint64(wl.InitInserts+wl.PhaseOps) * 512 * 4
	if need < 16<<20 {
		need = 16 << 20
	}
	return need
}

// microMachine is one exclusive-device, one-thread simulated machine with a
// store and, unless the scheme is none, an engine driven by the harness's
// PreSample/Maintenance hooks exactly as experiments.Run drives it.
type microMachine struct {
	wl    workload.Config
	env   *experiments.Env
	store ds.Store
	calls *engineCalls // nil for SchemeNone
}

func buildMicro(spec microSpec, tr *tracer, parent int) (*microMachine, error) {
	id := tr.begin("experiments.build", parent)
	defer tr.end(id)
	wl := microWorkload(spec)
	env, err := experiments.NewEnv(microPoolBytes(wl), microPageShift)
	if err != nil {
		return nil, err
	}
	env.RT.Device().SetExclusive(true)
	store, err := experiments.BuildStore(env.Ctx, env.Pool, spec.Store, wl)
	if err != nil {
		return nil, err
	}
	m := &microMachine{env: env, store: store}
	if spec.Scheme != core.SchemeNone {
		eng := core.NewEngine(env.Pool, core.Options{
			Scheme: spec.Scheme, TriggerRatio: spec.Trigger, TargetRatio: spec.Target, BatchObjects: 64,
		})
		c := &engineCalls{eng: eng, gc: sim.NewCtx(&env.Cfg), dev: env.RT.Device(), tr: tr}
		m.calls = c
		// An epoch spans exactly one inter-sample window: opened after one
		// sample, completed before the next, so application traffic inside
		// it runs through the read barrier and samples see quiesced state.
		open := false
		wl.PreSample = func() {
			if open {
				c.stepCompaction(1 << 30)
				c.finishCycle()
				open = false
			}
		}
		wl.Maintenance = func() {
			if !open && env.Pool.Heap().Frag(microPageShift).FragRatio > spec.Trigger {
				open = c.beginCycle()
			}
		}
	}
	m.wl = wl
	return m, nil
}

// ---- serving machine -------------------------------------------------------

// serveSpec is one serving deployment: what experiments.ServingOptions and
// servingConfig fix, with the traffic mix and the offered load exposed.
type serveSpec struct {
	Shards      int
	Clients     int
	Keys        int
	Ops         int
	GetFraction float64
	// RatePerSec is pinned per workload (not auto-calibrated per run), so a
	// change to modelled service time cannot move the offered load. <= 0
	// auto-calibrates; only the drift pin against experiments.Serving uses
	// that.
	RatePerSec float64
	Seed       int64
}

// serveWindowCycles is experiments.Serving's window width at scale 0.002
// (Scale·500M cycles), kept fixed so the time-series layer does the same work
// per request at every size.
const serveWindowCycles = 1_000_000

// serveConfig repeats experiments.servingConfig: the Figure 16 fragmentation
// regime — LRU churn near the cap plus a value-size drift halfway through.
func serveConfig(s serveSpec) redisws.ServeConfig {
	cfg := redisws.DefaultServeConfig()
	cfg.Clients = s.Clients
	cfg.Ops = s.Ops
	cfg.Keyspace = s.Keys
	cfg.RatePerSec = s.RatePerSec
	cfg.GetFraction = s.GetFraction
	cfg.ZipfTheta = 0.99
	cfg.Seed = s.Seed
	cfg.MinVal, cfg.MaxVal = 240, 366
	cfg.MinVal2, cfg.MaxVal2 = 367, 492
	cfg.MaxLiveBytes = uint64(s.Keys) * 300 / 2
	cfg.MaintEvery = s.Keys / 8
	return cfg
}

// serveMachine is one FFCCD+checklookup serving machine (kv.Echo, trigger
// 1.10, target 1.01), as experiments.Serving builds for scheme "ffccd".
type serveMachine struct {
	env    *experiments.Env
	store  ds.Store
	calls  *engineCalls
	hooks  redisws.ServeHooks
	series *obsv.TimeSeries
}

// buildServe builds the machine that owns keys keys (the whole keyspace, or
// one shard's hash-owned subset).
func buildServe(keys int, tr *tracer, parent int) (*serveMachine, error) {
	id := tr.begin("experiments.build", parent)
	defer tr.end(id)
	env, err := experiments.NewEnv(uint64(keys)*512*6+(32<<20), 12)
	if err != nil {
		return nil, err
	}
	store, err := kv.NewEcho(env.Ctx, env.Pool, keys/2+64)
	if err != nil {
		return nil, err
	}
	opt := core.Options{Scheme: core.SchemeFFCCDCheckLookup, TriggerRatio: 1.10, TargetRatio: 1.01, BatchObjects: 64}
	eng := core.NewEngine(env.Pool, opt)
	gc := sim.NewCtx(&env.Cfg)
	c := &engineCalls{eng: eng, gc: gc, dev: env.RT.Device(), tr: tr}
	m := &serveMachine{env: env, store: store, calls: c, series: obsv.NewTimeSeries("ffccd", serveWindowCycles, 0)}

	open := false
	m.hooks.Maintenance = func(uint64) uint64 {
		if open || env.Pool.Heap().Frag(12).FragRatio <= opt.TriggerRatio {
			return 0
		}
		before := gc.Clock.Cycles(sim.CatMark) + gc.Clock.Cycles(sim.CatSummary)
		if !c.beginCycle() {
			return 0
		}
		open = true
		// Only mark+summary stall the application (§2.3.2); compaction
		// proceeds concurrently behind the read barrier.
		return gc.Clock.Cycles(sim.CatMark) + gc.Clock.Cycles(sim.CatSummary) - before
	}
	m.hooks.EpochOpen = func() bool { return open }
	m.hooks.Step = func(n int) (bool, uint64) {
		c.stepCompaction(n)
		if eng.EpochPending() > 0 {
			return true, 0
		}
		// Terminate: reference fixup + flush run stop-the-world.
		t0 := gc.Clock.Total()
		c.finishCycle()
		open = false
		return false, gc.Clock.Total() - t0
	}
	m.hooks.Series = m.series
	m.hooks.EpochInfo = eng.OpenEpoch
	return m, nil
}

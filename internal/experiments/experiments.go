// Package experiments regenerates every table and figure of the paper's
// evaluation (§6–§7) on the simulated machine. Each experiment returns a
// structured result with a String() rendering; cmd/ffccd-bench and the
// repo-root benchmarks drive them. Workload sizes are scaled from the
// paper's 5M-insertion setup by a configurable factor (fragmentation ratios
// are scale-invariant; see DESIGN.md).
package experiments

import (
	"fmt"

	"ffccd/internal/core"
	"ffccd/internal/ds"
	"ffccd/internal/kv"
	"ffccd/internal/obsv"
	"ffccd/internal/pmem"
	"ffccd/internal/pmop"
	"ffccd/internal/redisws"
	"ffccd/internal/sim"
	"ffccd/internal/workload"
	"ffccd/internal/workpool"
)

// DefaultScale is the workload scale factor relative to the paper
// (5M inserts × DefaultScale).
const DefaultScale = 0.004 // 20k inserts

// Env is one simulated machine + pool.
type Env struct {
	Cfg  sim.Config
	RT   *pmop.Runtime
	Pool *pmop.Pool
	Ctx  *sim.Ctx
}

// NewEnv builds a fresh environment. pageShift selects footprint/TLB
// granularity.
func NewEnv(poolBytes uint64, pageShift uint) (*Env, error) {
	cfg := sim.DefaultConfig()
	rt := pmop.NewRuntime(&cfg, poolBytes*2)
	p, err := rt.Create("bench", poolBytes, pageShift, redisws.ServeRegistry())
	if err != nil {
		return nil, err
	}
	env := &Env{Cfg: cfg, RT: rt, Pool: p}
	env.Ctx = sim.NewCtx(&env.Cfg)
	return env, nil
}

// BuildStore constructs a named store (the §6 workloads).
func BuildStore(ctx *sim.Ctx, p *pmop.Pool, name string, wl workload.Config) (ds.Store, error) {
	switch name {
	case "LL":
		return ds.NewList(ctx, p)
	case "AVL":
		return ds.NewAVL(ctx, p)
	case "SS":
		slots := wl.InitInserts + 16
		return ds.NewStringStore(ctx, p, slots)
	case "BT":
		return ds.NewBPTree(ctx, p)
	case "RBT":
		return ds.NewRBTree(ctx, p)
	case "BzTree":
		return ds.NewBzTree(ctx, p)
	case "FPTree":
		return ds.NewFPTree(ctx, p)
	case "Echo":
		return kv.NewEcho(ctx, p, wl.InitInserts/4+64)
	case "pmemkv":
		return kv.NewPmemKV(ctx, p, wl.InitInserts/4+64)
	}
	return nil, fmt.Errorf("experiments: unknown store %q", name)
}

// Micros are the five §6 microbenchmarks.
var Micros = []string{"LL", "AVL", "SS", "BT", "RBT"}

// Spec describes one measured run.
type Spec struct {
	Store     string
	Threads   int
	Scheme    core.Scheme
	Trigger   float64
	Target    float64
	Scale     float64
	PageShift uint
	Seed      int64
}

// Outcome is the measurement of one run.
type Outcome struct {
	Spec           Spec
	AvgFootprintMB float64
	AvgLiveMB      float64
	TotalOps       int
	// Cycle attribution, merged across application and GC threads.
	Cycles [sim.NumCategories]uint64
	Engine core.EngineStats
	// Device traffic over the whole run (PM write endurance, §3.3.3's
	// "fewer PM writes" claim).
	Device pmem.Stats
}

// AppCycles is application work including read-barrier costs charged to GC
// categories on the app thread.
func (o Outcome) AppCycles() uint64 { return o.Cycles[sim.CatApp] }

// GCCycles is all defragmentation work.
func (o Outcome) GCCycles() uint64 {
	return o.Cycles[sim.CatMark] + o.Cycles[sim.CatSummary] + o.Cycles[sim.CatCopy] +
		o.Cycles[sim.CatCheckLookup] + o.Cycles[sim.CatGCMisc]
}

// TotalCycles is everything.
func (o Outcome) TotalCycles() uint64 { return o.AppCycles() + o.GCCycles() }

// FragRatio is footprint over live.
func (o Outcome) FragRatio() float64 {
	if o.AvgLiveMB == 0 {
		return 0
	}
	return o.AvgFootprintMB / o.AvgLiveMB
}

// wlFor builds the workload config for a spec.
func wlFor(spec Spec) workload.Config {
	// Scaled() multiplies the default (which is DefaultScale of the paper's
	// 5M-insert setup), so convert the paper-relative factor.
	wl := workload.Scaled(spec.Scale / DefaultScale)
	wl.Seed = spec.Seed + 1
	// Keep ~40 maintenance ticks per phase regardless of scale.
	wl.SampleEvery = wl.PhaseOps / 40
	if wl.SampleEvery < 25 {
		wl.SampleEvery = 25
	}
	if spec.Store == "SS" {
		wl.KeyCap = uint64(wl.InitInserts + 16)
		wl.ValueJitter = 64 // string swap exercises varied sizes
	}
	return wl
}

// poolSizeFor picks a pool comfortably larger than the workload's peak.
func poolSizeFor(wl workload.Config) uint64 {
	// Peak live ≈ InitInserts × (value+node+header overheads ≈ 280 B),
	// fragmentation can triple it; PMFT metadata adds ~8 %.
	need := uint64(wl.InitInserts+wl.PhaseOps) * 512 * 4
	if need < 16<<20 {
		need = 16 << 20
	}
	return need
}

// Host-side fan-out runs on the process-wide worker pool shared with the
// fault-injection campaign (internal/workpool). Every Run builds its own Env
// (device, pool, runtime), so runs are hermetic; the pool size changes host
// wall-clock only, never a simulated result. Defaults to GOMAXPROCS,
// overridable with the FFCCD_PARALLEL environment variable or
// SetParallelism.

// SetParallelism sets the shared pool's worker count (values < 1 mean
// serial).
func SetParallelism(n int) { workpool.SetParallelism(n) }

// Parallelism returns the shared pool's current worker count.
func Parallelism() int { return workpool.Parallelism() }

// RunSpecs executes every spec, fanning them out across Parallelism()
// workers, and returns the outcomes in spec order (the output is
// deterministic regardless of worker count). The first error in spec order
// is returned.
func RunSpecs(specs []Spec) ([]Outcome, error) {
	outs := make([]Outcome, len(specs))
	err := parallelFor(len(specs), func(i int) error {
		var err error
		outs[i], err = Run(specs[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// parallelFor runs f(0..n-1) on the shared worker pool and returns the first
// error in index order. It is the fan-out primitive for experiments whose
// units of work are not plain Specs (custom envs, multi-run series); nested
// calls — the fork driver fans a group's schemes out from inside the
// per-cell fan-out — share the pool's slots instead of oversubscribing.
func parallelFor(n int, f func(i int) error) error {
	return workpool.ForEach(n, f)
}

// Run executes one spec and returns its outcome.
func Run(spec Spec) (Outcome, error) {
	wl := wlFor(spec)
	env, err := NewEnv(poolSizeFor(wl), spec.PageShift)
	if err != nil {
		return Outcome{}, err
	}
	store, err := BuildStore(env.Ctx, env.Pool, spec.Store, wl)
	if err != nil {
		return Outcome{}, err
	}

	var eng *core.Engine
	gcCtx := sim.NewCtx(&env.Cfg)
	obs := newRunObs(spec, "", env.RT.Device(), env.Ctx, gcCtx)
	if spec.Scheme != core.SchemeNone {
		eng = core.NewEngine(env.Pool, engineOptions(spec, spec.Scheme, obs))
		installSchemeHooks(&wl, spec, env.Pool, eng, gcCtx)
	}

	registerRunGroups(obs, env.Ctx, gcCtx, eng)

	var res workload.Result
	if spec.Threads <= 1 {
		res, err = workload.Run(env.Ctx, env.Pool, store, wl)
	} else {
		res, err = runInterleaved(env, store, wl, spec.Threads)
	}
	if err != nil {
		return Outcome{}, err
	}
	out := assembleOutcome(spec, res, env.Ctx, gcCtx, eng, env.RT.Device())
	env.RT.Device().ReleaseMedia()
	return out, nil
}

// engineOptions is the engine configuration of a batch run of spec under
// scheme (the fork prefix runs spec under a neutral scheme of its own).
func engineOptions(spec Spec, scheme core.Scheme, obs *obsv.Obs) core.Options {
	return core.Options{
		Scheme:       scheme,
		TriggerRatio: spec.Trigger,
		TargetRatio:  spec.Target,
		BatchObjects: 64,
		Obs:          obs,
	}
}

// installSchemeHooks wires eng into wl's tick protocol. Deterministic
// concurrency: the maintenance tick starts an epoch when fragmentation
// crosses the trigger, and the epoch completes before the next sample, so it
// spans exactly one inter-tick window. Application D_RW traffic inside the
// window runs through the read barrier (relocating hot objects on demand) —
// the paper's concurrent regime without scheduler nondeterminism — and
// footprint samples always see quiesced state. With several workload threads
// every thread finishes an open epoch before sampling and only thread 0
// begins epochs (see runInterleaved).
func installSchemeHooks(wl *workload.Config, spec Spec, pool *pmop.Pool, eng *core.Engine, gcCtx *sim.Ctx) {
	epochOpen := false
	wl.PreSample = func() {
		if epochOpen {
			eng.StepCompaction(gcCtx, 1<<30)
			eng.FinishCycle(gcCtx)
			epochOpen = false
		}
	}
	wl.Maintenance = func() {
		if !epochOpen && pool.Heap().Frag(spec.PageShift).FragRatio > spec.Trigger {
			epochOpen = eng.BeginCycle(gcCtx)
		}
	}
}

// assembleOutcome builds the result record from a finished workload: app and
// GC clocks merged, engine stats captured (and the engine closed), device
// counters read. Shared by the scratch and fork paths so their outcome
// assembly stays identical.
func assembleOutcome(spec Spec, res workload.Result, appCtx, gcCtx *sim.Ctx, eng *core.Engine, dev *pmem.Device) Outcome {
	out := Outcome{
		Spec:           spec,
		AvgFootprintMB: res.AvgFootprint / (1 << 20),
		AvgLiveMB:      res.AvgLive / (1 << 20),
		TotalOps:       res.TotalOps + res.Phases[0].Ops,
	}
	clk := sim.NewClock()
	clk.Merge(appCtx.Clock)
	clk.Merge(gcCtx.Clock)
	if eng != nil {
		clk.Merge(eng.GCClock())
		out.Engine = eng.Stats()
		eng.Close()
	}
	out.Cycles = clk.Snapshot()
	out.Device = dev.Stats()
	return out
}

// runInterleaved drives the workload as several simulated threads over
// disjoint key ranges: one workload.Runner and sim.Ctx per thread, stepped
// round-robin one op at a time on the calling goroutine, so the interleaving
// is fixed by the spec. Thread 0 owns the Maintenance hook (epoch begin) and
// steps last in each round: an epoch it begins at a sample point spans the
// next inter-sample window of every thread, as in a 1-thread run. Every thread
// keeps PreSample, so an open epoch is finished before any thread samples the
// footprint. Reported cycles are the merge of all thread clocks (total work;
// wall-clock shape is preserved because every thread executes the same op
// mix).
func runInterleaved(env *Env, store ds.Store, wl workload.Config, threads int) (workload.Result, error) {
	per := wl
	per.InitInserts = wl.InitInserts / threads
	per.PhaseOps = wl.PhaseOps / threads
	if wl.KeyCap > 0 {
		per.KeyCap = wl.KeyCap / uint64(threads)
	}

	runners := make([]*workload.Runner, threads)
	ctxs := make([]*sim.Ctx, threads)
	for tid := range runners {
		cfg := per
		cfg.Seed = wl.Seed + int64(tid)*101
		cfg.KeyBase = uint64(tid) << 40
		if tid != 0 {
			cfg.Maintenance = nil
		}
		ctxs[tid] = sim.NewCtx(&env.Cfg)
		runners[tid] = workload.NewRunner(ctxs[tid], env.Pool, store, cfg)
	}
	results := make([]workload.Result, threads)
	for left := threads; left > 0; {
		for tid := threads - 1; tid >= 0; tid-- {
			if runners[tid] == nil {
				continue
			}
			res, done, err := runners[tid].Step()
			if err != nil {
				return workload.Result{}, err
			}
			if done {
				results[tid], runners[tid] = res, nil
				left--
			}
		}
	}
	// Merge: footprint/live sampled per-thread over the same pool; average
	// the per-thread averages. Cycles: merge into env.Ctx.
	var agg workload.Result
	agg.Phases = results[0].Phases
	for _, r := range results {
		agg.AvgFootprint += r.AvgFootprint / float64(threads)
		agg.AvgLive += r.AvgLive / float64(threads)
		agg.TotalOps += r.TotalOps
		agg.TotalCycles += r.TotalCycles
	}
	for _, c := range ctxs {
		env.Ctx.Clock.Merge(c.Clock)
	}
	return agg, nil
}

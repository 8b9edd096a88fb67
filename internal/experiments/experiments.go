// Package experiments regenerates every table and figure of the paper's
// evaluation (§6–§7) on the simulated machine. Each experiment returns a
// structured result with a String() rendering; cmd/ffccd-bench and the
// repo-root benchmarks drive them. Workload sizes are scaled from the
// paper's 5M-insertion setup by a configurable factor (fragmentation ratios
// are scale-invariant; see DESIGN.md).
package experiments

import (
	"ffccd/internal/core"
	"ffccd/internal/ds"
	"ffccd/internal/machine"
	"ffccd/internal/obsv"
	"ffccd/internal/pmem"
	"ffccd/internal/pmop"
	"ffccd/internal/sim"
	"ffccd/internal/workload"
	"ffccd/internal/workpool"
)

// DefaultScale is the workload scale factor relative to the paper
// (5M inserts × DefaultScale).
const DefaultScale = 0.004 // 20k inserts

// Env is one simulated machine of the experiment drivers.
type Env = machine.Machine

// NewEnv builds a machine with an empty pool named "bench" under the default
// configuration. pageShift selects footprint/TLB granularity.
func NewEnv(poolBytes uint64, pageShift uint) (*Env, error) {
	return machine.Build(machine.Spec{Name: "bench", PoolBytes: poolBytes, PageShift: pageShift, Sim: sim.DefaultConfig()})
}

// BuildStore constructs a named store (the §6 workloads) sized for wl.
func BuildStore(ctx *sim.Ctx, p *pmop.Pool, name string, wl workload.Config) (ds.Store, error) {
	return machine.NewStore(ctx, p, name, wl.InitInserts+16, wl.InitInserts/4+64)
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
	// CacheFit is the run's peak footprint, its largest phase-end
	// FootprintBytes, over the modelled cache's CacheBytes: above 1 the heap
	// no longer fits in the cache.
	CacheFit float64
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
	wl.SampleEvery = max(wl.PhaseOps/40, 25)
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
	return max(uint64(wl.InitInserts+wl.PhaseOps)*512*4, 16<<20)
}

// RunSpecs executes every spec, fanning them out on the process-wide worker
// pool (internal/workpool), and returns the outcomes in spec order. Every Run
// builds its own machine, so the pool size changes host wall-clock only,
// never an outcome. The first error in spec order is returned.
func RunSpecs(specs []Spec) ([]Outcome, error) {
	outs := make([]Outcome, len(specs))
	err := workpool.ForEach(len(specs), func(i int) error {
		var err error
		outs[i], err = Run(specs[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// Run executes one spec and returns its outcome.
func Run(spec Spec) (Outcome, error) {
	wl := wlFor(spec)
	m, err := newRunMachine(spec, wl)
	if err != nil {
		return Outcome{}, err
	}
	defer m.Release()
	obs := newRunObs(spec, "", m)
	if spec.Scheme != core.SchemeNone {
		installSchemeHooks(&wl, m.NewEngine(engineOptions(spec, spec.Scheme, obs)), m.GC)
	}
	registerRunGroups(obs, m)

	var res workload.Result
	if spec.Threads <= 1 {
		res, err = workload.Run(m.Ctx, m.Pool, m.Store, wl)
	} else {
		res, err = runInterleaved(m, wl, spec.Threads)
	}
	if err != nil {
		return Outcome{}, err
	}
	return assembleOutcome(spec, res, m), nil
}

// newRunMachine builds the machine of a run of spec: its store over a pool
// sized for wl, and a context for the defragmentation thread. The caller
// releases it.
func newRunMachine(spec Spec, wl workload.Config) (*Env, error) {
	m, err := NewEnv(poolSizeFor(wl), spec.PageShift)
	if err != nil {
		return nil, err
	}
	if m.Store, err = BuildStore(m.Ctx, m.Pool, spec.Store, wl); err != nil {
		m.Release()
		return nil, err
	}
	m.GC = sim.NewCtx(&m.Cfg)
	return m, nil
}

// engineOptions is the engine configuration of a batch run of spec under
// scheme (the fork prefix runs spec under a neutral scheme of its own).
func engineOptions(spec Spec, scheme core.Scheme, obs *obsv.Obs) core.Options {
	return core.Options{
		Scheme:       scheme,
		TriggerRatio: spec.Trigger,
		TargetRatio:  spec.Target,
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
func installSchemeHooks(wl *workload.Config, eng *core.Engine, gcCtx *sim.Ctx) {
	wl.PreSample = func() { eng.FinishCycle(gcCtx) }
	wl.Maintenance = func() {
		if eng.Triggered() {
			eng.BeginCycle(gcCtx)
		}
	}
}

// assembleOutcome builds the result record from a machine that finished its
// workload: app and GC clocks merged, engine stats captured (and the engine
// closed), device counters read. Shared by the scratch and fork paths so their
// outcome assembly stays identical.
func assembleOutcome(spec Spec, res workload.Result, m *Env) Outcome {
	out := Outcome{
		Spec:           spec,
		AvgFootprintMB: res.AvgFootprint / (1 << 20),
		AvgLiveMB:      res.AvgLive / (1 << 20),
		TotalOps:       res.TotalOps + res.Phases[0].Ops,
	}
	for _, ph := range res.Phases {
		out.CacheFit = max(out.CacheFit, float64(ph.End.FootprintBytes)/float64(m.Cfg.CacheBytes))
	}
	clk := sim.NewClock()
	clk.Merge(m.Ctx.Clock)
	clk.Merge(m.GC.Clock)
	if m.Eng != nil {
		clk.Merge(m.Eng.GCClock())
		out.Engine = m.Eng.Stats()
		m.Eng.Close()
	}
	out.Cycles = clk.Snapshot()
	out.Device = m.Device().Stats()
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
func runInterleaved(m *Env, wl workload.Config, threads int) (workload.Result, error) {
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
		ctxs[tid] = sim.NewCtx(&m.Cfg)
		runners[tid] = workload.NewRunner(ctxs[tid], m.Pool, m.Store, cfg)
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
	// the per-thread averages. Cycles: merge into m.Ctx.
	var agg workload.Result
	agg.Phases = results[0].Phases
	for _, r := range results {
		agg.AvgFootprint += r.AvgFootprint / float64(threads)
		agg.AvgLive += r.AvgLive / float64(threads)
		agg.TotalOps += r.TotalOps
		agg.TotalCycles += r.TotalCycles
	}
	for _, c := range ctxs {
		m.Ctx.Clock.Merge(c.Clock)
	}
	return agg, nil
}

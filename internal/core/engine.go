// Package core implements the paper's primary contribution: fence-free
// crash-consistent concurrent defragmentation (FFCCD) for persistent memory,
// together with the two baselines it is evaluated against — the Espresso
// -style two-fence design and the single-fence SFCCD — and the checklookup
// hardware acceleration (§3–§5).
//
// An Engine attaches to one pmop.Pool. A defragmentation cycle is:
//
//	marking  (stop-the-world, idempotent)     §5 marking()
//	summary  (stop-the-world, idempotent;     §5 summary(): page ranking,
//	          persists the PMFT)               PMFT build, leak reclamation)
//	compact  (concurrent: read barrier in      §3.3.3 read barriers +
//	          D_RW/D_RO + background mover)    background relocation
//	finish   (reference fixup, durable flush,  §5 terminate() / periodic
//	          page release)                     release checks
//
// Crash recovery for each scheme implements Observations 1–4 (§3.3.3).
//
// "Concurrent" is simulated, not hosted: an engine and the application threads
// it races through the read barrier all run on the goroutine that owns the
// machine, each thread with its own sim.Ctx, and the caller decides how their
// steps interleave (RunCycle between operations, or BeginCycle, StepCompaction
// and FinishCycle around them). The engine takes no host lock.
package core

import (
	"ffccd/internal/arch"
	"ffccd/internal/obsv"
	"ffccd/internal/pmem"
	"ffccd/internal/pmop"
	"ffccd/internal/sim"
	"ffccd/internal/workpool"
)

// Scheme selects the crash-consistency design for the compacting phase.
type Scheme int

const (
	// SchemeNone disables defragmentation (the PMDK baseline).
	SchemeNone Scheme = iota
	// SchemeEspresso is the state-of-the-art baseline (§3.3.2): two
	// clwb+sfence pairs per relocated object.
	SchemeEspresso
	// SchemeSFCCD removes one of the two fences (§3.3.3, Fig. 7) at the cost
	// of content inspection during recovery.
	SchemeSFCCD
	// SchemeFFCCD removes all fences using the relocate instruction and the
	// reached bitmap (§4.2); check+lookup stays in software.
	SchemeFFCCD
	// SchemeFFCCDCheckLookup adds the BFC + PMFTLB checklookup acceleration
	// (§4.3).
	SchemeFFCCDCheckLookup
)

var schemeNames = [...]string{"none", "espresso", "sfccd", "ffccd", "ffccd+cl"}

func (s Scheme) String() string {
	if s < 0 || int(s) >= len(schemeNames) {
		return "unknown"
	}
	return schemeNames[s]
}

// UsesRelocateInstruction reports whether the scheme relies on the pending-
// bit/RBB hardware.
func (s Scheme) UsesRelocateInstruction() bool {
	return s == SchemeFFCCD || s == SchemeFFCCDCheckLookup
}

// Options configure an Engine (the paper's init() parameters, §5).
type Options struct {
	Scheme Scheme
	// TriggerRatio starts a cycle when fragR exceeds it (paper: 1.5 normal,
	// 1.7 relaxed).
	TriggerRatio float64
	// TargetRatio is the fragR the summary phase compacts down to (paper:
	// 1.25 normal, 1.5 relaxed).
	TargetRatio float64
	// BatchObjects is ignored: the mover never yields to a host scheduler.
	// It remains for the repo benchmark's machine builders, which still set
	// it.
	BatchObjects int
	// Obs enables observability from construction (equivalent to SetObs right
	// after NewEngine, but also covers activity during Recover). Nil = off.
	Obs *obsv.Obs
}

// NormalParams are the paper's normal defragmentation parameters (Redis
// defaults): trigger 1.5, target 1.25.
func NormalParams() (trigger, target float64) { return 1.5, 1.25 }

// RelaxedParams are the relaxed parameters: trigger 1.7, target 1.5.
func RelaxedParams() (trigger, target float64) { return 1.7, 1.5 }

// DefaultOptions returns FFCCD+checklookup with normal parameters.
func DefaultOptions() Options {
	tr, tg := NormalParams()
	return Options{
		Scheme:       SchemeFFCCDCheckLookup,
		TriggerRatio: tr,
		TargetRatio:  tg,
	}
}

// Engine drives defragmentation for one pool. Like the pool and device it is
// plain data that belongs to the goroutine that owns the machine, its Stats
// and the observability groups built on them included.
type Engine struct {
	pool *pmop.Pool
	cfg  *sim.Config
	opt  Options
	rbb  *arch.RBB

	gcCtx *sim.Ctx // background thread's clock/TLB

	epoch *epochState // the open epoch; nil when idle

	// The epoch memory, nil once the engine is released.
	*epochMem

	rec recoveryClock // what Recover spent per stage

	stats EngineStats // read via Stats()

	// clu is the checklookup unit the read barrier resets and uses on every
	// resolve; nil unless the engine runs SchemeFFCCDCheckLookup. (An epoch
	// of that scheme that Recover resumes under another scheme finishes
	// inside Recover, which resolves nothing.)
	clu *arch.CheckLookupUnit

	// Observability (nil when disabled — every emit site checks). The
	// histogram pointers are resolved once in SetObs so hot paths never touch
	// the registry.
	obs      *obsv.Obs
	hSTW     *obsv.Histogram
	hBatch   *obsv.Histogram
	hBarrier *obsv.Histogram
}

// epochMem is the host memory an engine's epochs fill (mark.go, summary.go,
// epoch.go): the walk and summary scratch, the one epochState every epoch
// refills, and the part list the fence-free cluster move assembles. It is
// written only with the world stopped or in single-threaded recovery, and
// every table in it is emptied and refilled before it is read.
//
// It outlives its engine: NewEngine takes the memory the last closed or
// released engine handed to epochPool, and Close hands it on, so an engine
// starts with tables as large as its predecessor's instead of growing them
// again. Which memory an engine gets changes host allocation only, never a
// simulated result.
type epochMem struct {
	markScratch    markScratch
	summaryScratch summaryScratch
	epochBuf       epochState
	relocParts     []pmem.RelocatePart
}

// epochPool holds closed and released engines' epoch memory, two per pool
// worker (a crash trial releases the engine the power failure killed and
// recovery's).
var epochPool = workpool.FreeList[*epochMem]{PerWorker: 2}

// NewEngine attaches a defragmentation engine to a pool, on the epoch memory
// the last closed or released engine handed on when there is some. For the FFCCD schemes
// it wires the RBB into the device. Call Close when done.
func NewEngine(p *pmop.Pool, opt Options) *Engine {
	cfg := p.Config()
	mem, ok := epochPool.Take(nil)
	if !ok {
		mem = new(epochMem)
	}
	e := &Engine{
		pool:     p,
		cfg:      cfg,
		opt:      opt,
		gcCtx:    sim.NewCtx(cfg),
		epochMem: mem,
	}
	if opt.Scheme.UsesRelocateInstruction() {
		e.rbb = arch.NewRBB(cfg, p.Device())
		p.Device().SetRBB(e.rbb)
	}
	if opt.Scheme == SchemeFFCCDCheckLookup {
		e.clu = arch.NewCheckLookupUnit(cfg)
	}
	if opt.Scheme == SchemeSFCCD {
		p.SetTxAddHook(e.sfccdTxAddHook)
	}
	if opt.Obs != nil {
		e.SetObs(opt.Obs)
	}
	return e
}

// Pool returns the attached pool.
func (e *Engine) Pool() *pmop.Pool { return e.pool }

// RBB returns the reached-bitmap buffer (nil for non-FFCCD schemes).
func (e *Engine) RBB() *arch.RBB { return e.rbb }

// GCClock returns the background thread's cycle clock.
func (e *Engine) GCClock() *sim.Clock { return e.gcCtx.Clock }

// Stats summarises engine activity.
type EngineStats struct {
	Cycles         uint64
	FramesReleased uint64
	ObjectsMoved   uint64
	BarrierMoves   uint64
	LeaksReclaimed uint64
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() EngineStats { return e.stats }

// Add folds other into s. The fork-based experiment driver uses it to merge
// the shared prefix engine's pre-divergence activity into each forked run's
// stats so forked and scratch runs report identical engine totals.
func (s *EngineStats) Add(other EngineStats) {
	s.Cycles += other.Cycles
	s.FramesReleased += other.FramesReleased
	s.ObjectsMoved += other.ObjectsMoved
	s.BarrierMoves += other.BarrierMoves
	s.LeaksReclaimed += other.LeaksReclaimed
}

// SetObs wires the observability bundle into the engine: epoch/phase event
// tracing plus the stw_pause_cycles, relocate_batch_objects, and
// read_barrier_cycles histograms, and the "engine"/"checklookup" snapshot
// groups. Call once, before the engine runs; nil disables (the default).
// Observability never charges simulated cycles — events carry clock readings
// only — so enabling it leaves golden cycle totals bit-identical.
func (e *Engine) SetObs(o *obsv.Obs) {
	e.obs = o
	e.hSTW, e.hBatch, e.hBarrier = nil, nil, nil
	var clu *arch.CLUStats // the sink the checklookup unit reports into
	if o != nil {
		e.hSTW = o.Metrics.Hist("stw_pause_cycles")
		e.hBatch = o.Metrics.Hist("relocate_batch_objects")
		e.hBarrier = o.Metrics.Hist("read_barrier_cycles")
		clu = &arch.CLUStats{}
		o.Metrics.RegisterGroup("engine", func() map[string]uint64 {
			s := e.Stats()
			return map[string]uint64{
				"cycles":          s.Cycles,
				"frames_released": s.FramesReleased,
				"objects_moved":   s.ObjectsMoved,
				"barrier_moves":   s.BarrierMoves,
				"leaks_reclaimed": s.LeaksReclaimed,
			}
		})
		o.Metrics.RegisterGroup("checklookup", clu.Map)
	}
	if e.clu != nil {
		e.clu.Shared = clu
	}
}

// OpenEpoch reports the number of the currently open defragmentation epoch
// (false when the engine is idle). It is observability-safe — no simulated
// cycles are charged and no device state is touched — so serving-path
// exemplar tagging can call it per dispatch without perturbing results.
func (e *Engine) OpenEpoch() (uint64, bool) {
	if e.epoch == nil {
		return 0, false
	}
	return e.epoch.epochNo, true
}

// Triggered is the §5 pmalloc/pfree check: it reports whether the pool's
// fragmentation ratio has crossed the trigger threshold with no epoch open.
// It charges no cycles. A caller that defragments on demand calls RunCycle
// between operations when it reports true.
func (e *Engine) Triggered() bool {
	if e.opt.Scheme == SchemeNone || e.epoch != nil {
		return false
	}
	fr := e.pool.Heap().Frag(e.pool.PageShift())
	return fr.FragRatio > e.opt.TriggerRatio && fr.LiveBytes > 0
}

// Close implements the paper's exit(), the engine's last call: it completes
// any in-flight defragmentation as FinishCycle does (finish pending
// relocations and reference updates, release relocation pages, drop
// metadata; the epoch counts in Stats().Cycles), unhooks the pool and then
// releases the engine (Release). A second Close, or a Close after Release,
// does nothing.
func (e *Engine) Close() {
	if e.epochMem == nil {
		return
	}
	// Finish an epoch that a manual BeginCycle left open. It runs on the
	// engine's own context, so its epoch overlay starts there too: an
	// interval read off two clocks would be meaningless.
	if ep := e.epoch; ep != nil {
		ep.obsStart = e.now(e.gcCtx)
		e.FinishCycle(e.gcCtx)
	}
	e.pool.SetTxAddHook(nil)
	e.Release()
}

// Release hands the engine's epoch memory on to the next NewEngine and
// gives the TLB arrays of the engine's own context back to the process pool.
// Close calls it; call it directly only for an engine that is never closed,
// because a power failure killed it mid-epoch (Machine.Reopen does) or its
// machine is dropped with it (Machine.Release). The memory goes on with no
// pointer back into this engine or its pool. Afterwards BeginCycle,
// RunCycle, RunCycleSTW, StepCompaction and FinishCycle panic, Close does
// nothing, and Stats and GCClock stay readable. A second call does nothing.
func (e *Engine) Release() {
	mem := e.epochMem
	if mem == nil {
		return
	}
	e.epochMem, e.epoch = nil, nil
	mem.epochBuf.reset(0, SchemeNone)
	epochPool.Put(mem)
	e.gcCtx.Release()
}

// mustLive panics when the engine has been closed or released. The entry
// points check it once per call, never the read barrier or the mover loop.
func (e *Engine) mustLive() {
	if e.epochMem == nil {
		panic("core: engine used after Close or Release")
	}
}

// RunCycle executes one full defragmentation cycle synchronously:
// mark → summary → concurrent compaction → finish. It is a no-op if an epoch
// is already open or the scheme is SchemeNone. Returns true if a cycle ran.
func (e *Engine) RunCycle(ctx *sim.Ctx) bool {
	if !e.BeginCycle(ctx) {
		return false
	}
	e.FinishCycle(ctx)
	return true
}

// RunCycleSTW performs one complete stop-the-world defragmentation cycle —
// the jemalloc-style comparator of §7.4: the same marking, summary, mover and
// terminate as RunCycle, all inside a single application pause, so no
// application operation ever meets the read barrier. Object moves still
// follow the engine's scheme for persistence (use SchemeEspresso for the
// paper's comparison). Returns the pause length in simulated cycles and
// whether a cycle ran.
func (e *Engine) RunCycleSTW(ctx *sim.Ctx) (uint64, bool) {
	e.mustLive()
	if e.opt.Scheme == SchemeNone || e.epoch != nil {
		return 0, false
	}
	start := ctx.Clock.Total()
	ep := e.prepare(ctx)
	if ep != nil {
		e.move(ctx, ep, len(ep.objects))
		e.finishEpoch(ctx, ep)
	}
	e.pause(ctx, start)
	return ctx.Clock.Total() - start, ep != nil
}

// BeginCycle runs only the stop-the-world phases (marking + summary) and
// installs the read barrier, leaving the epoch open with no object moved
// yet. Crash-injection harnesses use it with StepCompaction and FinishCycle
// to construct mid-compaction states deterministically. Returns false if the
// heap did not need compaction (or an epoch is already open).
func (e *Engine) BeginCycle(ctx *sim.Ctx) bool {
	e.mustLive()
	if e.opt.Scheme == SchemeNone || e.epoch != nil {
		return false
	}
	t0 := e.now(ctx)
	ep := e.prepare(ctx)
	e.pause(ctx, t0)
	return ep != nil
}

// StepCompaction relocates up to n not-yet-moved objects of the open epoch,
// lowest index first, and returns how many it moved. Zero means compaction
// is complete.
func (e *Engine) StepCompaction(ctx *sim.Ctx, n int) int {
	e.mustLive()
	if e.epoch == nil {
		return 0
	}
	return e.move(ctx, e.epoch, n)
}

// EpochPending returns the number of not-yet-moved objects in the open
// epoch (0 when idle).
func (e *Engine) EpochPending() int {
	if e.epoch == nil {
		return 0
	}
	return e.epoch.pending
}

// FinishCycle completes an epoch opened by BeginCycle: the mover relocates
// the remaining objects, then terminate runs in a pause of its own.
func (e *Engine) FinishCycle(ctx *sim.Ctx) {
	e.mustLive()
	if ep := e.epoch; ep != nil {
		e.move(ctx, ep, len(ep.objects))
		e.terminate(ctx, ep)
	}
}

// terminate runs finishEpoch as one stop-the-world pause.
func (e *Engine) terminate(ctx *sim.Ctx, ep *epochState) {
	t0 := e.now(ctx)
	e.finishEpoch(ctx, ep)
	e.pause(ctx, t0)
}

// now reads ctx's clock for a span that observability records (0 when it is
// off).
func (e *Engine) now(ctx *sim.Ctx) uint64 {
	if e.obs == nil {
		return 0
	}
	return obsv.Now(ctx)
}

// pause records one stop-the-world pause that began at t0: a KindSTW span
// and a stw_pause_cycles observation.
func (e *Engine) pause(ctx *sim.Ctx, t0 uint64) {
	if o := e.obs; o != nil {
		o.Tracer.Span(ctx, obsv.KindSTW, t0, 0)
		e.hSTW.Observe(obsv.Now(ctx) - t0)
	}
}

// prepare runs the stop-the-world phases (marking + summary) and installs
// the read barrier. Returns nil when fragmentation is already at target. The
// caller accounts for the pause.
func (e *Engine) prepare(ctx *sim.Ctx) *epochState {
	o := e.obs
	t0 := e.now(ctx)
	live := e.mark(ctx.Derived(sim.CatMark), nil, true)
	t1 := e.now(ctx)
	if o != nil {
		o.Tracer.Span(ctx, obsv.KindMark, t0, uint64(len(live)))
	}
	ep := e.summary(ctx.Derived(sim.CatSummary), live)
	if o != nil {
		var objs, began uint64
		if ep != nil {
			objs, began = uint64(len(ep.objects)), 1
		}
		o.Tracer.Span(ctx, obsv.KindSummary, t1, objs)
		o.Tracer.Instant(ctx, obsv.KindTrigger, began)
	}
	if ep == nil {
		return nil
	}
	ep.obsStart = t0
	e.epoch = ep
	e.pool.SetBarrier(&readBarrier{e: e, ep: ep})
	return ep
}

// move is the engine's one mover: it relocates up to n not-yet-moved objects
// of ep in index order, starting at ep.cursor, and returns how many it moved.
// Objects the read barrier moved on demand are skipped.
func (e *Engine) move(ctx *sim.Ctx, ep *epochState, n int) int {
	o := e.obs
	t0 := e.now(ctx)
	moved := 0
	for ; ep.cursor < len(ep.objects) && moved < n; ep.cursor++ {
		if !ep.isMoved(ep.cursor) {
			e.relocateObject(ctx.Derived(sim.CatCopy), ep, ep.cursor, false)
			moved++
		}
	}
	if o != nil && moved > 0 {
		o.Tracer.Span(ctx, obsv.KindCopy, t0, uint64(moved))
		e.hBatch.Observe(uint64(moved))
	}
	return moved
}

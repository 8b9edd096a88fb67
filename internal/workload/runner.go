package workload

import (
	"fmt"
	"math/rand"

	"ffccd/internal/ds"
	"ffccd/internal/pmop"
	"ffccd/internal/sim"
)

// counterSource is a counter-based (SplitMix64-style) random source: draw i
// of stream seed is the pure function mix64(base(seed) + (i+1)·γ). The
// generator's whole state is (seed, draws), so a checkpointed stream
// position restores in O(1) — set draws — where the previous wrapped
// math/rand source had to replay draw-and-discard, making forked resume
// O(draws). Every Int63/Uint64 call advances the counter exactly once, so
// draw counts keep meaning "state advances", as the checkpoint format
// requires. The workload's randomness is pinned (testdata/pins.txt's cycles
// lines; the cycle pins were regenerated when this generator replaced the
// math/rand one), so the mixing function must not change.
type counterSource struct {
	base  uint64 // seed-derived stream offset
	draws uint64
}

// sm64Gamma is the SplitMix64 Weyl-sequence increment (odd, ≈2⁶⁴/φ).
const sm64Gamma = 0x9E3779B97F4A7C15

// mix64 is the SplitMix64 output permutation (Steele, Lea & Flood 2014) —
// a bijective avalanche over the counter sequence.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

func newCountingSource(seed int64) *counterSource {
	s := &counterSource{}
	s.Seed(seed)
	return s
}

func (s *counterSource) Uint64() uint64 {
	s.draws++
	return mix64(s.base + s.draws*sm64Gamma)
}

func (s *counterSource) Int63() int64 {
	return int64(s.Uint64() >> 1)
}

func (s *counterSource) Seed(seed int64) {
	// Scramble the seed so the adjacent seeds the drivers hand out
	// (seed, seed+1, tid·101, …) select unrelated streams rather than
	// shifted copies of one Weyl sequence.
	s.base = mix64(uint64(seed) ^ 0xFF51AFD7ED558CCD)
	s.draws = 0
}

// skip positions the source exactly n draws into its stream. O(1): the
// counter is the state.
func (s *counterSource) skip(n uint64) { s.draws = n }

// runnerStage is the Runner's position within one loop iteration.
type runnerStage int

const (
	// stageBody: about to execute op i (or finish the phase if i == ops).
	stageBody runnerStage = iota
	// stagePre: op i was a sample point; run PreSample and the sample.
	stagePre
	// stageMaint: run the Maintenance hook for op i. This is the suspension
	// point: a checkpoint taken inside Maintenance resumes by re-invoking
	// the (new) Maintenance hook with identical machine state.
	stageMaint
)

// phaseDef is one workload phase: a name, an op count and which operation
// body drives it.
type phaseDef struct {
	name   string
	ops    int
	insert bool
}

// Runner executes the §6 workload as an explicit state machine, equivalent
// op-for-op to the closed-loop Run but suspendable at any Maintenance point
// and checkpointable there. The fork-based experiment driver builds one
// runner per breakdown cell, suspends it where the schemes diverge, and
// resumes a clone per scheme (DESIGN.md §14, "The fork driver").
type Runner struct {
	ctx *sim.Ctx
	p   *pmop.Pool
	s   ds.Store
	cfg Config

	src *counterSource
	rng *rand.Rand

	live     []uint64
	nextKey  uint64
	freeKeys []uint64
	valBuf   []byte

	samples          int
	sumFoot, sumLive float64
	res              Result

	phases []phaseDef
	ph     int
	i      int
	stage  runnerStage

	// Per-phase start markers (captured at phase entry).
	startCycles    uint64
	phSamples      int
	phFoot, phLive float64

	stopReq  bool
	finished bool
}

func (r *Runner) phaseDefs() []phaseDef {
	return []phaseDef{
		{"init", r.cfg.InitInserts, true},
		{"delete1", r.cfg.PhaseOps, false},
		{"insert", r.cfg.PhaseOps, true},
		{"delete2", r.cfg.PhaseOps, false},
	}
}

// NewRunner prepares a run positioned at the first op of the init phase.
func NewRunner(ctx *sim.Ctx, p *pmop.Pool, s ds.Store, cfg Config) *Runner {
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 500
	}
	r := &Runner{ctx: ctx, p: p, s: s, cfg: cfg, src: newCountingSource(cfg.Seed)}
	r.rng = rand.New(r.src)
	r.phases = r.phaseDefs()
	r.live, r.freeKeys = r.reserve(nil, nil)
	r.startPhase()
	return r
}

// reserve returns live and free copied into lists that hold every key the
// rest of the run, from the runner's position on, can put in them, so that
// neither list grows again. Each insert adds one live key and takes a free
// one while there are any; each delete of a live key frees it when the key
// space is bounded. Walking the remaining phases with those counts gives
// each list's peak.
func (r *Runner) reserve(live, free []uint64) (l, f []uint64) {
	nl, nf := len(live), len(free)
	maxL, maxF := nl, nf
	i := r.i
	if r.stage != stageBody {
		i++ // op i has run
	}
	for ph := r.ph; ph < len(r.phases); ph, i = ph+1, 0 {
		n := max(r.phases[ph].ops-i, 0)
		if r.phases[ph].insert {
			nl, nf = nl+n, max(nf-n, 0)
		} else {
			n = min(n, nl)
			nl, nf = nl-n, nf+n
		}
		maxL, maxF = max(maxL, nl), max(maxF, nf)
	}
	if r.cfg.KeyCap == 0 {
		maxF = len(free) // an unbounded key space frees no key
	}
	return append(make([]uint64, 0, maxL), live...), append(make([]uint64, 0, maxF), free...)
}

func (r *Runner) startPhase() {
	r.startCycles = r.ctx.Clock.Total()
	r.phSamples = r.samples
	r.phFoot, r.phLive = r.sumFoot, r.sumLive
}

func (r *Runner) takeKey() uint64 {
	if r.cfg.KeyCap > 0 {
		if n := len(r.freeKeys); n > 0 {
			k := r.freeKeys[n-1]
			r.freeKeys = r.freeKeys[:n-1]
			return k
		}
		k := r.nextKey % r.cfg.KeyCap
		r.nextKey++
		return r.cfg.KeyBase + k
	}
	k := r.nextKey
	r.nextKey++
	return r.cfg.KeyBase + k
}

func (r *Runner) val(k uint64) []byte {
	n := valueSize
	if r.cfg.ValueJitter > 0 {
		n += r.rng.Intn(2*r.cfg.ValueJitter) - r.cfg.ValueJitter
		if n < 8 {
			n = 8
		}
	}
	// Stores copy the value into simulated memory, so one reusable buffer
	// (fully overwritten each call) serves every op.
	if cap(r.valBuf) < n {
		r.valBuf = make([]byte, n)
	}
	b := r.valBuf[:n]
	for i := range b {
		b[i] = byte(k>>uint(8*(i%8))) ^ byte(i)
	}
	return b
}

func (r *Runner) sample() {
	st := r.p.Heap().Frag(r.p.PageShift())
	r.sumFoot += float64(st.FootprintBytes)
	r.sumLive += float64(st.LiveBytes)
	r.samples++
}

func (r *Runner) insertOne() error {
	k := r.takeKey()
	if err := r.s.Insert(r.ctx, k, r.val(k)); err != nil {
		return err
	}
	r.live = append(r.live, k)
	return nil
}

func (r *Runner) deleteOne() error {
	if len(r.live) == 0 {
		return nil
	}
	i := r.rng.Intn(len(r.live))
	k := r.live[i]
	r.live[i] = r.live[len(r.live)-1]
	r.live = r.live[:len(r.live)-1]
	if _, err := r.s.Delete(r.ctx, k); err != nil {
		return err
	}
	if r.cfg.KeyCap > 0 {
		r.freeKeys = append(r.freeKeys, k)
	}
	return nil
}

func (r *Runner) endPhase() {
	r.sample()
	def := r.phases[r.ph]
	n := float64(r.samples - r.phSamples)
	r.res.Phases = append(r.res.Phases, PhaseResult{
		Name:         def.name,
		Ops:          def.ops,
		Cycles:       r.ctx.Clock.Total() - r.startCycles,
		AvgFootprint: (r.sumFoot - r.phFoot) / n,
		AvgLive:      (r.sumLive - r.phLive) / n,
		End:          r.p.Heap().Frag(r.p.PageShift()),
	})
	r.ph++
	r.i = 0
	if r.ph < len(r.phases) {
		r.startPhase()
		return
	}
	// Aggregate the measured (post-init) phases.
	var foot, liveB float64
	for _, ph := range r.res.Phases[1:] {
		foot += ph.AvgFootprint
		liveB += ph.AvgLive
		r.res.TotalOps += ph.Ops
		r.res.TotalCycles += ph.Cycles
	}
	r.res.AvgFootprint = foot / float64(len(r.res.Phases)-1)
	r.res.AvgLive = liveB / float64(len(r.res.Phases)-1)
	r.finished = true
}

// RequestStop asks the runner to suspend. It is meant to be called from
// inside the Maintenance hook; the runner returns from Run before advancing
// past the current op, leaving its state checkpointable at exactly the
// pre-Maintenance point.
func (r *Runner) RequestStop() { r.stopReq = true }

// Run advances the state machine until the workload completes or a
// Maintenance hook requests a stop. It returns (result, true, nil) on
// completion; (zero, false, nil) when suspended.
func (r *Runner) Run() (Result, bool, error) { return r.run(false) }

// Step is Run for one op: the op itself and, when the op is a sample point,
// the PreSample hook, the footprint sample and the Maintenance hook after it
// (a phase that has run all its ops closes on the way). Several runners
// stepped in turn on one goroutine interleave their threads' ops in a fixed
// order.
func (r *Runner) Step() (Result, bool, error) { return r.run(true) }

// run is Run, or Step when one is set.
func (r *Runner) run(one bool) (Result, bool, error) {
	if r.finished {
		return r.res, true, nil
	}
	for {
		switch r.stage {
		case stageBody:
			if r.i >= r.phases[r.ph].ops {
				r.endPhase()
				if r.finished {
					return r.res, true, nil
				}
				continue
			}
			var err error
			if r.phases[r.ph].insert {
				err = r.insertOne()
			} else {
				err = r.deleteOne()
			}
			if err != nil {
				return Result{}, false, err
			}
			if r.i%r.cfg.SampleEvery == 0 {
				r.stage = stagePre
				continue
			}
			r.i++
		case stagePre:
			if r.cfg.PreSample != nil {
				r.cfg.PreSample()
			}
			r.sample()
			r.stage = stageMaint
			continue
		case stageMaint:
			if r.cfg.Maintenance != nil {
				r.cfg.Maintenance()
				if r.stopReq {
					r.stopReq = false
					return Result{}, false, nil
				}
			}
			r.i++
			r.stage = stageBody
		}
		if one {
			return Result{}, false, nil
		}
	}
}

// RunnerCheckpoint is a deep copy of a runner's position and accumulators.
// The RNG is captured as its draw count (see counterSource: the draw counter is the full generator state, so restore is O(1)).
type RunnerCheckpoint struct {
	Live     []uint64
	NextKey  uint64
	FreeKeys []uint64
	Draws    uint64

	Samples          int
	SumFoot, SumLive float64
	Phases           []PhaseResult

	Phase int
	Index int
	Stage int

	StartCycles    uint64
	PhSamples      int
	PhFoot, PhLive float64
}

// Checkpoint captures the runner's state. Valid at any point the runner is
// not executing — including from inside a Maintenance hook, where the
// captured stage makes a resumed clone re-invoke its own Maintenance hook
// first.
func (r *Runner) Checkpoint() *RunnerCheckpoint {
	return &RunnerCheckpoint{
		Live:        append([]uint64(nil), r.live...),
		NextKey:     r.nextKey,
		FreeKeys:    append([]uint64{}, r.freeKeys...),
		Draws:       r.src.draws,
		Samples:     r.samples,
		SumFoot:     r.sumFoot,
		SumLive:     r.sumLive,
		Phases:      append([]PhaseResult(nil), r.res.Phases...),
		Phase:       r.ph,
		Index:       r.i,
		Stage:       int(r.stage),
		StartCycles: r.startCycles,
		PhSamples:   r.phSamples,
		PhFoot:      r.phFoot,
		PhLive:      r.phLive,
	}
}

// ResumeRunner reconstructs a runner from a checkpoint against a (forked)
// context, pool and store. The checkpoint is only read; several forks may
// resume from the same checkpoint concurrently.
func ResumeRunner(ctx *sim.Ctx, p *pmop.Pool, s ds.Store, cfg Config, c *RunnerCheckpoint) (*Runner, error) {
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 500
	}
	r := &Runner{
		ctx: ctx, p: p, s: s, cfg: cfg,
		src:     newCountingSource(cfg.Seed),
		nextKey: c.NextKey,
		samples: c.Samples,
		sumFoot: c.SumFoot,
		sumLive: c.SumLive,
	}
	r.rng = rand.New(r.src)
	r.src.skip(c.Draws)
	r.res.Phases = append(r.res.Phases, c.Phases...)
	r.phases = r.phaseDefs()
	if c.Phase < 0 || c.Phase >= len(r.phases) {
		return nil, fmt.Errorf("workload: checkpoint phase %d out of range", c.Phase)
	}
	r.ph = c.Phase
	r.i = c.Index
	r.stage = runnerStage(c.Stage)
	r.live, r.freeKeys = r.reserve(c.Live, c.FreeKeys)
	r.startCycles = c.StartCycles
	r.phSamples = c.PhSamples
	r.phFoot, r.phLive = c.PhFoot, c.PhLive
	return r, nil
}

package experiments

import (
	"fmt"
	"sync/atomic"
	"time"

	"ffccd/internal/core"
	"ffccd/internal/machine"
	"ffccd/internal/workload"
	"ffccd/internal/workpool"
)

// The fork driver (DESIGN.md §14, "The fork driver"): every scheme of a
// breakdown cell replays the identical workload prefix up to the first
// successful BeginCycle — the scheme-divergence point — so that prefix is
// built once, checkpointed, and each scheme's run forked from it.
//
// Why the divergence point is exactly there: a BeginCycle attempt's
// *failure* path (mark, leak-reclaim resync, frame ranking, the nil
// verdicts "fragmentation at/below target" and "no positive net gain") is
// decided purely by heap state and charges identical cycles under every
// scheme — every scheme-dependent effect of summary() (PMFT construction,
// moved-bitmap clears, RBB arming, the compacting phase word) happens only
// after the verdict is "go". Hence all schemes attempt at the same sample
// points with identical outcomes until the first success, where they
// diverge. The prefix runs those shared attempts under a neutral Espresso
// engine, checkpoints the machine *before* each attempt (attempts mutate
// the heap and clocks), and suspends when one succeeds; each scheme then
// restores the pre-attempt machine and re-runs the attempt with its own
// engine.
//
// Forked runs reproduce scratch runs bit-identically in simulated cycle
// totals, device counters, frag ratios AND engine counters (pinned by
// TestGoldenCycles' fork runs and TestForkMatchesScratch). Engine counters
// need one extra step: a scratch engine accumulates leak-reclaim counts from
// the failed pre-divergence attempts, while a fork's engine is born at the
// divergence point — so the checkpoint captures the prefix engine's stats
// (taken *before* the successful attempt, hence exactly the failed-attempt
// bookkeeping, which is scheme-independent) and runFork folds them into each
// forked outcome.

// SetFork is ignored: the fork driver is always on. It remains for the repo
// benchmark's fig14-grid workload, which still calls it.
func SetFork(bool) {}

// Fork-driver counters (bench/ reports them for the fig14-grid workload).
var (
	forkPrefixes    atomic.Uint64 // shared prefixes built
	forkCheckpoints atomic.Uint64 // machine checkpoints taken (one per BeginCycle attempt)
	forkRuns        atomic.Uint64 // runs served from a checkpoint instead of from scratch

	// forkCapturedBytes sums the media bytes each checkpoint references
	// (the pages its device held); forkMediaBytes sums what a full-image
	// copy of the same devices would have moved (DESIGN.md §8, "Media pages").
	forkCapturedBytes atomic.Uint64
	forkMediaBytes    atomic.Uint64

	// forkRestoreNanos sums the host time each forked run spent
	// materializing its machine from the checkpoint — device/heap/context
	// restore plus ResumeRunner's RNG repositioning. With the counter-based
	// workload source the RNG part is O(1), so this stays flat as scale
	// (and therefore the checkpointed draw count) grows; the old
	// draw-and-discard skip made it linear in scale. The device restores
	// page references (pmem.Device.Restore) and copies a page only when the
	// forked run first writes it, so no byte of media is moved here.
	forkRestoreNanos atomic.Uint64
)

// ForkCounters returns (prefixes built, checkpoints taken, forked runs).
func ForkCounters() (prefixes, checkpoints, forks uint64) {
	return forkPrefixes.Load(), forkCheckpoints.Load(), forkRuns.Load()
}

// ForkCheckpointBytes returns the media bytes the machine images reference
// (the pages each source device held when captured) and the bytes a
// full-media copy of the same devices would have captured.
func ForkCheckpointBytes() (captured, fullMedia uint64) {
	return forkCapturedBytes.Load(), forkMediaBytes.Load()
}

// ForkRestoreSeconds returns the cumulative host time forked runs spent
// restoring machines from checkpoints (including runner/RNG repositioning).
func ForkRestoreSeconds() float64 {
	return float64(forkRestoreNanos.Load()) / 1e9
}

// ResetForkCounters zeroes the fork-driver counters.
func ResetForkCounters() {
	forkPrefixes.Store(0)
	forkCheckpoints.Store(0)
	forkRuns.Store(0)
	forkCapturedBytes.Store(0)
	forkMediaBytes.Store(0)
	forkRestoreNanos.Store(0)
}

// prefixState is the outcome of building one cell's shared prefix: either
// the machine's image at the divergence point, with the runner checkpoint
// that resumes the workload there, or — when no epoch ever began — the
// completed run, whose result is scheme-independent.
type prefixState struct {
	// img is nil when the prefix ran to completion. Its EngineStats are the
	// prefix engine's counters before the divergence attempt: the bookkeeping
	// of every failed pre-divergence trigger attempt (leak reclamation;
	// failures move no objects), which is scheme-independent. Forked
	// outcomes add them so they report the same engine activity a scratch
	// run would.
	img    *machine.Image
	runner *workload.RunnerCheckpoint

	outcome Outcome // valid when img is nil (Spec.Scheme must be overwritten)
}

// buildPrefix runs spec's workload up to the scheme-divergence point.
// spec's own Scheme is irrelevant (the prefix engine is the neutral
// Espresso one); Trigger/Target must match the specs that will fork from it,
// since failed BeginCycle attempts depend on them. The caller releases the
// image of the prefix it returns once its last fork is released.
func buildPrefix(spec Spec) (pre *prefixState, err error) {
	forkPrefixes.Add(1)
	wl := wlFor(spec)
	m, err := newRunMachine(spec, wl)
	if err != nil {
		return nil, err
	}
	// Every capture goes into one image, and takes over the pages the last
	// one owned that the machine still holds. The machine is released
	// before its image, which goes with it unless forks will read it.
	var img *machine.Image
	defer func() {
		m.Release()
		if img != nil && (pre == nil || pre.img == nil) {
			img.Release()
		}
	}()
	obs := newRunObs(spec, "/prefix", m)
	eng := m.NewEngine(engineOptions(spec, core.SchemeEspresso, obs))
	registerRunGroups(obs, m)

	var r *workload.Runner
	// No PreSample hook: before the first successful BeginCycle no epoch is
	// ever open, so the scratch path's "finish an open epoch" hook is a
	// simulated no-op there too.
	wl.Maintenance = func() {
		if !eng.Triggered() {
			return
		}
		// Capture before the attempt: a failed attempt still reclaims leaks
		// and charges mark/summary cycles, all of which is shared prefix; a
		// successful one diverges, so the forks must re-run it.
		if img == nil {
			img = m.Capture()
		} else {
			m.CaptureInto(img)
		}
		forkCheckpoints.Add(1)
		forkCapturedBytes.Add(img.Pool.Dev.CapturedBytes())
		forkMediaBytes.Add(img.Pool.Dev.MediaBytes())
		if eng.BeginCycle(m.GC) {
			r.RequestStop()
		}
	}
	r = workload.NewRunner(m.Ctx, m.Pool, m.Store, wl)
	res, finished, err := r.Run()
	if err != nil {
		return nil, err
	}
	if finished {
		// Fragmentation never produced a viable epoch: no scheme-dependent
		// machinery ever engaged, so this completed run is every scheme's
		// result.
		return &prefixState{outcome: assembleOutcome(spec, res, m)}, nil
	}
	// Suspended inside the successful attempt's Maintenance call: the image
	// predates the attempt, and the runner checkpoint (position, RNG draw
	// count, accumulators) re-enters Maintenance first on resume. BeginCycle
	// itself mutates no store/runner state, so the runner checkpoint taken
	// now, and the store each fork clones, match the image.
	return &prefixState{img: img, runner: r.Checkpoint()}, nil
}

// runFork forks a machine from pre's image and finishes the workload under
// spec.Scheme. Safe to call concurrently for different schemes: the image
// is only read.
func runFork(pre *prefixState, spec Spec) (Outcome, error) {
	forkRuns.Add(1)
	wl := wlFor(spec)

	restoreStart := time.Now()
	m, err := pre.img.Fork()
	if err != nil {
		return Outcome{}, err
	}
	defer m.Release()
	obs := newRunObs(spec, "/fork", m)
	eng := m.NewEngine(engineOptions(spec, spec.Scheme, obs))
	registerRunGroups(obs, m)
	// The resumed runner's first action is the Maintenance hook, re-running
	// the divergence attempt under spec.Scheme.
	installSchemeHooks(&wl, eng, m.GC)
	r, err := workload.ResumeRunner(m.Ctx, m.Pool, m.Store, wl, pre.runner)
	if err != nil {
		return Outcome{}, err
	}
	forkRestoreNanos.Add(uint64(time.Since(restoreStart).Nanoseconds()))
	res, finished, err := r.Run()
	if err != nil {
		return Outcome{}, err
	}
	if !finished {
		return Outcome{}, fmt.Errorf("experiments: forked run suspended unexpectedly")
	}
	out := assembleOutcome(spec, res, m)
	// Fold in the prefix engine's pre-divergence bookkeeping so forked and
	// scratch runs report identical engine activity.
	out.Engine.Add(pre.img.EngineStats)
	return out, nil
}

// forkGroupKey identifies specs that share a bit-identical prefix: same
// everything except the scheme. Spec is comparable, so the zeroed-scheme
// copy serves as the map key.
func forkGroupKey(s Spec) Spec {
	s.Scheme = core.SchemeNone
	return s
}

// RunSpecsForked executes every spec like RunSpecs, but batches
// single-threaded scheme runs that share a prefix (same store, scale, seed,
// trigger, target, page size) through the fork driver: one prefix build
// plus one forked run per scheme, instead of len(schemes) full runs.
// Outcomes are returned in spec order and are bit-identical (cycles, device
// counters, frag ratios) to RunSpecs'. Baselines (SchemeNone), multi-thread
// specs, and singleton groups run from scratch — a lone scheme gains
// nothing from checkpointing.
func RunSpecsForked(specs []Spec) ([]Outcome, error) {
	groups := make(map[Spec][]int)
	var groupOrder []Spec
	for i, s := range specs {
		if s.Scheme == core.SchemeNone || s.Threads > 1 {
			continue
		}
		k := forkGroupKey(s)
		if _, seen := groups[k]; !seen {
			groupOrder = append(groupOrder, k)
		}
		groups[k] = append(groups[k], i)
	}

	// Units of parallel work: every scratch spec individually, plus every
	// multi-spec fork group (whose members fan out again once its prefix
	// exists).
	type unit struct {
		specIdx  int   // >= 0: scratch run of specs[specIdx]
		groupIdx []int // else: fork group over these spec indices
	}
	var units []unit
	inGroup := make([]bool, len(specs))
	for _, k := range groupOrder {
		idxs := groups[k]
		if len(idxs) < 2 {
			continue
		}
		for _, i := range idxs {
			inGroup[i] = true
		}
		units = append(units, unit{specIdx: -1, groupIdx: idxs})
	}
	for i := range specs {
		if !inGroup[i] {
			units = append(units, unit{specIdx: i})
		}
	}

	outs := make([]Outcome, len(specs))
	err := workpool.ForEach(len(units), func(u int) error {
		if i := units[u].specIdx; i >= 0 {
			var err error
			outs[i], err = Run(specs[i])
			return err
		}
		idxs := units[u].groupIdx
		pre, err := buildPrefix(specs[idxs[0]])
		if err != nil {
			return err
		}
		if pre.img == nil {
			for _, i := range idxs {
				outs[i] = pre.outcome
				outs[i].Spec = specs[i]
			}
			return nil
		}
		err = workpool.ForEach(len(idxs), func(j int) error {
			var err error
			outs[idxs[j]], err = runFork(pre, specs[idxs[j]])
			return err
		})
		// Every fork has been released: the group's image goes back.
		pre.img.Release()
		return err
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}

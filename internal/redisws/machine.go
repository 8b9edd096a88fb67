package redisws

// The serving machine: one simulated machine per scheme of the §7.4
// comparison, built the same way for the SLO grid (experiments.Serving) and
// for serving crash campaigns (faultinject.RunServeScheduled), which load it
// once, fork it per trial (Machine.Equip turns a fork into a serving
// machine) and rewire the scheme's hooks over the recovered pool after a
// power failure. The two callers differ only in what they pass: the pool's
// name, its slack over the keyspace's needs, and the config's cache size.

import (
	"fmt"
	"slices"

	"ffccd/internal/alloc"
	"ffccd/internal/core"
	"ffccd/internal/ds"
	"ffccd/internal/kv"
	"ffccd/internal/mesh"
	"ffccd/internal/pmop"
	"ffccd/internal/sim"
)

// Schemes are the serving-path defragmentation schemes: no defragmentation,
// FFCCD with checklookup, stop-the-world (Espresso) cycles, and Mesh.
var Schemes = []string{"none", "ffccd", "stw", "mesh"}

// schemeTrigger is the fragmentation ratio above which ffccd and stw start a
// cycle at a maintenance point.
const schemeTrigger = 1.10

// SchemeOptions is the engine configuration a serving scheme runs and
// recovers under. "none" and "mesh" have no engine: their Scheme is
// core.SchemeNone, under which core.Recover takes the scheme-independent idle
// path.
func SchemeOptions(scheme string) core.Options {
	opt := core.Options{TriggerRatio: schemeTrigger, TargetRatio: 1.01, BatchObjects: 64}
	switch scheme {
	case "ffccd":
		opt.Scheme = core.SchemeFFCCDCheckLookup
	case "stw":
		opt.Scheme = core.SchemeEspresso
	}
	return opt
}

// SchemeHooks wires scheme into the serving loop over an existing machine:
// over a fresh engine when the machine is built, over the recovered one after
// a crash. gc is the defragmentation thread's clock domain; it carries across
// a crash (pause accounting is delta-based). eng is nil for "none" and
// "mesh", d is nil for every scheme but "mesh".
func SchemeHooks(scheme string, p *pmop.Pool, eng *core.Engine, d *mesh.Defragmenter, gc *sim.Ctx) ServeHooks {
	var hooks ServeHooks
	compact := func() bool { return p.Heap().Frag(12).FragRatio <= schemeTrigger }
	switch scheme {
	case "ffccd":
		open := false
		stw := func() uint64 { return gc.Clock.Cycles(sim.CatMark) + gc.Clock.Cycles(sim.CatSummary) }
		hooks.Maintenance = func(uint64) uint64 {
			if open || compact() {
				return 0
			}
			before := stw()
			if !eng.BeginCycle(gc) {
				return 0
			}
			open = true
			// Only the mark+summary phases stall the application (§2.3.2);
			// compaction proceeds concurrently behind the read barrier.
			return stw() - before
		}
		hooks.EpochOpen = func() bool { return open }
		hooks.EpochInfo = eng.OpenEpoch
		hooks.Step = func(n int) (bool, uint64) {
			eng.StepCompaction(gc, n)
			if eng.EpochPending() > 0 {
				return true, 0
			}
			// Terminate: reference fixup + flush run stop-the-world.
			t0 := gc.Clock.Total()
			eng.FinishCycle(gc)
			open = false
			return false, gc.Clock.Total() - t0
		}
	case "stw":
		hooks.Maintenance = func(uint64) uint64 {
			if compact() {
				return 0
			}
			pause, _ := eng.RunCycleSTW(gc)
			return pause
		}
	case "mesh":
		hooks.Maintenance = func(uint64) uint64 {
			before := gc.Clock.Total()
			d.RunCycle(gc)
			return gc.Clock.Total() - before // meshing pauses the world
		}
		hooks.Foot = func() alloc.FragStats { return d.PhysFrag(12) }
	}
	return hooks
}

// ServeRegistry returns the type registry serving and experiment pools are
// created and reopened with. Type ids follow registration order, so a pool
// must always be opened with the registry this one function builds.
func ServeRegistry() *pmop.Registry {
	reg := pmop.NewRegistry()
	ds.RegisterTypes(reg)
	kv.RegisterTypes(reg)
	return reg
}

// OpenStore opens (or, on a fresh pool, creates) the serving store of a
// machine that owns keys keys.
func OpenStore(ctx *sim.Ctx, p *pmop.Pool, keys int) (ds.Store, error) {
	return kv.NewEcho(ctx, p, keys/2+64)
}

// Machine is one simulated serving machine: the Shard the serving loop runs
// (loader context, pool, store, scheme hooks) plus what the loop does not
// see — the runtime that owns the device, the defragmentation thread's clock
// domain, and the scheme's engine (ffccd, stw) or Mesh defragmenter.
type Machine struct {
	Shard
	RT   *pmop.Runtime
	GC   *sim.Ctx
	Eng  *core.Engine
	Mesh *mesh.Defragmenter
}

// NewMachine builds the machine of scheme over a fresh pool named poolName
// with 4 KB footprint pages. keys is the keyspace the machine owns (all of it
// unsharded, the hash-owned subset per shard): the pool holds six 512-byte
// values per key plus slackBytes. cfg must outlive the machine.
func NewMachine(cfg *sim.Config, scheme, poolName string, keys int, slackBytes uint64) (*Machine, error) {
	if !slices.Contains(Schemes, scheme) {
		return nil, fmt.Errorf("redisws: unknown serving scheme %q", scheme)
	}
	poolBytes := uint64(keys)*512*6 + slackBytes
	rt := pmop.NewRuntime(cfg, poolBytes*2)
	p, err := rt.Create(poolName, poolBytes, 12, ServeRegistry())
	if err != nil {
		return nil, err
	}
	m := &Machine{RT: rt, GC: sim.NewCtx(cfg)}
	m.Ctx, m.Pool = sim.NewCtx(cfg), p
	if m.Store, err = OpenStore(m.Ctx, p, keys); err != nil {
		return nil, err
	}
	m.Equip(scheme)
	return m, nil
}

// Equip gives a machine whose runtime, contexts, pool and store exist a fresh
// engine (ffccd, stw) or Mesh defragmenter for scheme and the scheme's
// serving hooks: the last step of NewMachine, and what turns a fork of a
// loaded machine into a serving one. It writes no media and charges no
// cycle.
func (m *Machine) Equip(scheme string) {
	if opt := SchemeOptions(scheme); opt.Scheme != core.SchemeNone {
		m.Eng = core.NewEngine(m.Pool, opt)
	}
	if scheme == "mesh" {
		m.Mesh = mesh.New(m.Pool)
	}
	m.Hooks = SchemeHooks(scheme, m.Pool, m.Eng, m.Mesh, m.GC)
}

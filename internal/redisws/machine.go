package redisws

// The serving machine: one simulated machine (machine.Machine) per scheme of
// the §7.4 comparison with what serving adds to it, the scheme's hooks and
// Mesh's defragmenter. The SLO grid (experiments.Serving) builds one per
// scheme and shard, and Figure 16 (experiments.Figure16) one per scheme for
// the closed-loop Run; serving crash campaigns (faultinject.ServeRepro)
// build and load one per shard, capture it, turn every fork of it into a
// serving machine with Equip, and rewire the scheme's hooks over the
// recovered pool after a power failure. The callers differ only in what
// they pass: the pool's name, its slack over the keyspace's needs, and the
// config's cache size.

import (
	"fmt"
	"slices"

	"ffccd/internal/alloc"
	"ffccd/internal/core"
	"ffccd/internal/ds"
	"ffccd/internal/kv"
	"ffccd/internal/machine"
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
	opt := core.Options{TriggerRatio: schemeTrigger, TargetRatio: 1.01}
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
// a crash (pause accounting is delta-based). ffccd and stw start a cycle at
// a maintenance point when eng.Triggered. eng is nil for "none" and "mesh",
// d is nil for every scheme but "mesh".
func SchemeHooks(scheme string, eng *core.Engine, d *mesh.Defragmenter, gc *sim.Ctx) ServeHooks {
	var hooks ServeHooks
	switch scheme {
	case "ffccd":
		stw := func() uint64 { return gc.Clock.Cycles(sim.CatMark) + gc.Clock.Cycles(sim.CatSummary) }
		hooks.Maintenance = func(uint64) uint64 {
			if !eng.Triggered() {
				return 0
			}
			before := stw()
			if !eng.BeginCycle(gc) {
				return 0
			}
			// Only the mark+summary phases stall the application (§2.3.2);
			// compaction proceeds concurrently behind the read barrier.
			return stw() - before
		}
		hooks.EpochInfo = eng.OpenEpoch
		hooks.Step = func(n int) (bool, uint64) {
			eng.StepCompaction(gc, n)
			if eng.EpochPending() > 0 {
				return true, 0
			}
			// Terminate: reference fixup + flush run stop-the-world.
			t0 := gc.Clock.Total()
			eng.FinishCycle(gc)
			return false, gc.Clock.Total() - t0
		}
	case "stw":
		hooks.Maintenance = func(uint64) uint64 {
			if !eng.Triggered() {
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

// OpenStore opens (or, on a fresh pool, creates) the serving store of a
// machine that owns keys keys.
func OpenStore(ctx *sim.Ctx, p *pmop.Pool, keys int) (ds.Store, error) {
	return kv.NewEcho(ctx, p, keys/2+64)
}

// Machine is one simulated serving machine: the machine (its Ctx is the
// loader context, GC the defragmentation thread's, Eng the ffccd or stw
// engine) plus the scheme's serving hooks and, for "mesh", the Mesh
// defragmenter.
type Machine struct {
	*machine.Machine
	Hooks ServeHooks
	Mesh  *mesh.Defragmenter
}

// NewMachine builds the machine of scheme over a fresh pool named poolName
// with 4 KB footprint pages under cfg. keys is the keyspace the machine owns
// (all of it unsharded, the hash-owned subset per shard): the pool holds six
// 512-byte values per key plus slackBytes. The caller releases the machine.
func NewMachine(cfg sim.Config, scheme, poolName string, keys int, slackBytes uint64) (*Machine, error) {
	if !slices.Contains(Schemes, scheme) {
		return nil, fmt.Errorf("redisws: unknown serving scheme %q", scheme)
	}
	m, err := machine.Build(machine.Spec{Name: poolName, PoolBytes: uint64(keys)*512*6 + slackBytes, PageShift: 12, Sim: cfg})
	if err != nil {
		return nil, err
	}
	m.GC = sim.NewCtx(&m.Cfg)
	if m.Store, err = OpenStore(m.Ctx, m.Pool, keys); err != nil {
		m.Release()
		return nil, err
	}
	return Equip(m, scheme), nil
}

// Equip makes a serving machine of scheme from m, whose contexts, pool and
// store exist: a fresh engine (ffccd, stw) or Mesh defragmenter and the
// scheme's serving hooks. It is the last step of NewMachine, and what turns a
// fork of a loaded machine into a serving one. It writes no media and charges
// no cycle.
func Equip(m *machine.Machine, scheme string) *Machine {
	sm := &Machine{Machine: m}
	if opt := SchemeOptions(scheme); opt.Scheme != core.SchemeNone {
		m.NewEngine(opt)
	}
	if scheme == "mesh" {
		sm.Mesh = mesh.New(m.Pool)
	}
	sm.Hooks = SchemeHooks(scheme, m.Eng, sm.Mesh, m.GC)
	return sm
}

// Shard is the part of the machine the serving loop runs.
func (m *Machine) Shard() Shard {
	return Shard{Ctx: m.Ctx, Pool: m.Pool, Store: m.Store, Hooks: m.Hooks}
}

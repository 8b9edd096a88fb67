// Package machine is the one place a simulated machine comes to exist: a
// device twice its pool's size, one pool under the shared type registry, and
// the application context, to which a driver adds a store, the
// defragmentation thread's context and an engine. A machine is captured as an
// Image and forked from it (the experiment grids' fork driver, the crash
// campaigns' prefixes), and reopened on its own device after a power failure
// (crash recovery, Figure 1's consecutive runs). Since every pool is created,
// forked and reopened with Registry, its type ids always agree (DESIGN.md
// §5.5).
//
// A machine is plain data on the goroutine that owns it. An image is only
// read once captured, so any number of goroutines may fork it at once.
package machine

import (
	"fmt"

	"ffccd/internal/core"
	"ffccd/internal/ds"
	"ffccd/internal/kv"
	"ffccd/internal/pmem"
	"ffccd/internal/pmop"
	"ffccd/internal/sim"
)

// registry holds every persistent type, ds types first, so a ds type has the
// same id as in a registry of ds types alone. It is built when the package
// loads and only looked up from then on, so machines on several workers share
// it without a lock.
var registry = func() *pmop.Registry {
	reg := pmop.NewRegistry()
	ds.RegisterTypes(reg)
	kv.RegisterTypes(reg)
	return reg
}()

// Registry returns the type registry every machine's pool is created,
// forked and reopened with.
func Registry() *pmop.Registry { return registry }

// NewStore creates — or, on a reopened pool, opens — the store named name
// over p: a §6 microbenchmark (LL, AVL, SS, BT, RBT), a concurrent index
// (BzTree, FPTree) or a key-value store (Echo, pmemkv). slots sizes SS's slot
// array, buckets the key-value stores' hash tables.
func NewStore(ctx *sim.Ctx, p *pmop.Pool, name string, slots, buckets int) (ds.Store, error) {
	switch name {
	case "LL":
		return ds.NewList(ctx, p)
	case "AVL":
		return ds.NewAVL(ctx, p)
	case "SS":
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
		return kv.NewEcho(ctx, p, buckets)
	case "pmemkv":
		return kv.NewPmemKV(ctx, p, buckets)
	}
	return nil, fmt.Errorf("machine: unknown store %q", name)
}

// Spec is what differs between the machines the drivers build.
type Spec struct {
	// Name is the pool's name. It is written to media, so it is part of every
	// media hash.
	Name string
	// PoolBytes is the pool's size; the device is twice as large.
	PoolBytes uint64
	// PageShift is the OS page size for footprint and TLB accounting.
	PageShift uint
	Sim       sim.Config
}

// Machine is one simulated machine. Every part of it points at Cfg, so a
// Machine is used by pointer only.
type Machine struct {
	Cfg  sim.Config
	RT   *pmop.Runtime
	Pool *pmop.Pool
	Ctx  *sim.Ctx // the application's (or the loader's) context
	// GC is the defragmentation thread's context, on machines whose driver
	// creates one.
	GC    *sim.Ctx
	Store ds.Store
	Eng   *core.Engine // nil until NewEngine

	name string
}

// Build creates the machine of s with an empty pool and a fresh application
// context. The caller owns the media and gives it back with Release.
func Build(s Spec) (*Machine, error) {
	m := &Machine{Cfg: s.Sim, name: s.Name}
	m.RT = pmop.NewRuntime(&m.Cfg, 2*s.PoolBytes)
	p, err := m.RT.Create(s.Name, s.PoolBytes, s.PageShift, registry)
	if err != nil {
		m.Release()
		return nil, err
	}
	m.Pool, m.Ctx = p, sim.NewCtx(&m.Cfg)
	return m, nil
}

// Device returns the machine's device.
func (m *Machine) Device() *pmem.Device { return m.RT.Device() }

// Release gives the machine's media pages, cache arrays and the TLB arrays of
// its contexts (Ctx and GC) back to the process pools, and releases an engine
// still attached (a closed one has handed its memory on already). The machine
// is unusable afterwards: any of those contexts panics on its next
// translation, and the engine on its next cycle, wherever else they are held.
// A second call does nothing.
func (m *Machine) Release() {
	m.RT.Device().ReleaseMedia()
	for _, ctx := range [...]*sim.Ctx{m.Ctx, m.GC} {
		if ctx != nil {
			ctx.Release()
		}
	}
	if m.Eng != nil {
		m.Eng.Release()
	}
}

// NewEngine attaches a fresh engine under opt and returns it.
func (m *Machine) NewEngine(opt core.Options) *core.Engine {
	m.Eng = core.NewEngine(m.Pool, opt)
	return m.Eng
}

// Reopen is the restart after a power failure: a new runtime attached to the
// machine's device, and the pool opened again with an empty allocator, which
// recovery rebuilds. The store and engine died with the power; both are nil
// until the caller makes new ones. The dead engine is released, so the
// engine recovery makes inherits its epoch memory. The contexts carry on.
func (m *Machine) Reopen() error {
	if m.Eng != nil {
		m.Eng.Release()
		m.Eng = nil
	}
	rt, err := pmop.Attach(&m.Cfg, m.Device())
	if err != nil {
		return err
	}
	p, err := rt.Open(m.name, registry)
	if err != nil {
		return err
	}
	m.RT, m.Pool, m.Store, m.Eng = rt, p, nil, nil
	return nil
}

// Image is what a fork needs of a quiescent machine: the pool's image, every
// context's checkpoint and the store handle, whose volatile state each fork
// clones, plus the counters of an attached engine. Nothing writes an image
// once it is captured.
type Image struct {
	Pool pmop.Image
	// EngineStats are the engine's counters at the capture.
	EngineStats core.EngineStats

	cfg     sim.Config
	name    string
	ctx, gc sim.CtxCheckpoint
	hasGC   bool
	store   ds.Store
}

// Capture returns the machine's image. The machine must be quiescent: no
// defragmentation epoch may be open, since an image holds none of an epoch's
// volatile state (see CaptureInto).
func (m *Machine) Capture() *Image {
	img := new(Image)
	m.CaptureInto(img)
	return img
}

// CaptureInto captures the machine's image into img, reusing its buffers. It
// panics when the attached engine has an epoch open.
func (m *Machine) CaptureInto(img *Image) {
	if m.Eng != nil {
		if n, open := m.Eng.OpenEpoch(); open {
			panic(fmt.Sprintf("machine: capture inside open epoch %d", n))
		}
	}
	m.Pool.CaptureInto(&img.Pool)
	img.cfg, img.name, img.store = m.Cfg, m.name, m.Store
	m.Ctx.CheckpointInto(&img.ctx)
	if img.hasGC = m.GC != nil; img.hasGC {
		m.GC.CheckpointInto(&img.gc)
	}
	img.EngineStats = core.EngineStats{}
	if m.Eng != nil {
		img.EngineStats = m.Eng.Stats()
	}
}

// Fork materializes the image as a machine of the caller's own: its device
// shares the image's media pages until it writes them, its pool has the
// captured pool's VA base, its contexts and store continue from the capture,
// and it has no engine until NewEngine. The caller releases it like a built
// machine; on error Fork has released it.
func (img *Image) Fork() (*Machine, error) {
	m := &Machine{Cfg: img.cfg, name: img.name}
	var err error
	if m.RT, m.Pool, err = img.Pool.Fork(&m.Cfg, img.name, registry); err != nil {
		return nil, err
	}
	m.Ctx = sim.NewCtx(&m.Cfg)
	m.Ctx.Restore(&img.ctx)
	if img.hasGC {
		m.GC = sim.NewCtx(&m.Cfg)
		m.GC.Restore(&img.gc)
	}
	if img.store != nil {
		m.Store = img.store.(ds.Forker).Fork(m.Pool)
	}
	return m, nil
}

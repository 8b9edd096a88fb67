// Package ffccd is a Go reproduction of "FFCCD: Fence-Free Crash-Consistent
// Concurrent Defragmentation for Persistent Memory" (Xu, Ye, Solihin, Shen —
// ISCA 2022).
//
// The package provides the public surface over the internal subsystems:
//
//   - a simulated persistent-memory machine (cache + WPQ + ADR crash
//     semantics, Table 2 cost model),
//   - the PMOP programming model (pools, persistent pointers, typed
//     allocation, roots, undo-log transactions, D_RW-style accessors),
//   - the defragmentation engine with the Espresso, SFCCD, FFCCD and
//     FFCCD+checklookup schemes and their crash recovery,
//   - the paper's evaluation workloads, data structures and comparators.
//
// Quickstart:
//
//	cfg := ffccd.DefaultConfig()
//	rt := ffccd.NewRuntime(&cfg, 256<<20)
//	reg := ffccd.NewRegistry()
//	ffccd.RegisterStoreTypes(reg)
//	pool, _ := rt.Create("mypool", 64<<20, ffccd.Page4K, reg)
//	ctx := ffccd.NewCtx(&cfg)
//	list, _ := ffccd.NewList(ctx, pool)
//	list.Insert(ctx, 1, []byte("hello"))
//
//	eng := ffccd.NewEngine(pool, ffccd.DefaultEngineOptions())
//	defer eng.Close()
//	eng.RunCycle(ctx) // one defragmentation cycle
//
// See examples/ for complete programs and DESIGN.md for the system map.
package ffccd

import (
	"ffccd/internal/core"
	"ffccd/internal/ds"
	"ffccd/internal/kv"
	"ffccd/internal/pmem"
	"ffccd/internal/pmop"
	"ffccd/internal/sim"
)

// Simulation substrate.
type (
	// Config is the simulated-machine parameter set (Table 2 defaults).
	Config = sim.Config
	// Ctx is a per-thread simulation context (clock + TLB).
	Ctx = sim.Ctx
	// Clock accumulates simulated cycles by category.
	Clock = sim.Clock
	// Device is the simulated persistent-memory module.
	Device = pmem.Device
)

// Programming model.
type (
	// Runtime manages pools on a device.
	Runtime = pmop.Runtime
	// Pool is a persistent memory object pool.
	Pool = pmop.Pool
	// Ptr is a persistent pointer (pool id + offset).
	Ptr = pmop.Ptr
	// Registry holds persistent type layouts.
	Registry = pmop.Registry
	// TypeInfo describes a persistent type.
	TypeInfo = pmop.TypeInfo
	// Tx is an undo-log transaction.
	Tx = pmop.Tx
)

// Defragmentation engine.
type (
	// Engine is the concurrent defragmenter.
	Engine = core.Engine
	// EngineOptions configure an Engine.
	EngineOptions = core.Options
	// Scheme selects the crash-consistency design.
	Scheme = core.Scheme
)

// Data structures and stores.
type (
	// Store is the uniform key-value interface.
	Store = ds.Store
	// List is the persistent doubly linked list.
	List = ds.List
	// AVL is the persistent AVL tree.
	AVL = ds.AVL
	// RBTree is the persistent left-leaning red-black tree.
	RBTree = ds.RBTree
	// BPTree is the persistent order-4 B+tree.
	BPTree = ds.BPTree
	// StringStore is the string-swap slot store.
	StringStore = ds.StringStore
	// BzTree is the append/copy-on-write concurrent tree.
	BzTree = ds.BzTree
	// FPTree is the hybrid fingerprinting tree.
	FPTree = ds.FPTree
	// Echo is the Echo-style hash KV store.
	Echo = kv.Echo
	// PmemKV is the pmemkv-style store: Echo under pmemkv's name.
	PmemKV = kv.PmemKV
)

// Schemes.
const (
	SchemeNone             = core.SchemeNone
	SchemeEspresso         = core.SchemeEspresso
	SchemeSFCCD            = core.SchemeSFCCD
	SchemeFFCCD            = core.SchemeFFCCD
	SchemeFFCCDCheckLookup = core.SchemeFFCCDCheckLookup
)

// OS page-size shifts for footprint/TLB accounting.
const (
	Page4K = uint(12)
	Page2M = uint(21)
)

// DefaultConfig returns the Table 2 machine parameters.
func DefaultConfig() Config { return sim.DefaultConfig() }

// NewCtx creates a per-thread simulation context.
func NewCtx(cfg *Config) *Ctx { return sim.NewCtx(cfg) }

// NewRuntime creates a runtime over a fresh simulated device.
func NewRuntime(cfg *Config, devSize uint64) *Runtime { return pmop.NewRuntime(cfg, devSize) }

// AttachRuntime reattaches to an existing device after a crash or restart.
func AttachRuntime(cfg *Config, dev *Device) (*Runtime, error) { return pmop.Attach(cfg, dev) }

// NewRegistry creates an empty persistent-type registry.
func NewRegistry() *Registry { return pmop.NewRegistry() }

// RegisterStoreTypes registers the built-in data-structure types.
func RegisterStoreTypes(reg *Registry) { ds.RegisterTypes(reg) }

// RegisterKVTypes registers the Echo/pmemkv store types.
func RegisterKVTypes(reg *Registry) { kv.RegisterTypes(reg) }

// DefaultEngineOptions returns FFCCD+checklookup with the paper's normal
// defragmentation parameters (trigger 1.5, target 1.25).
func DefaultEngineOptions() EngineOptions { return core.DefaultOptions() }

// NewEngine attaches a defragmentation engine to a pool.
func NewEngine(p *Pool, opt EngineOptions) *Engine { return core.NewEngine(p, opt) }

// Recover reopens a pool after a crash (or cleanly), runs the scheme's
// recovery, completes any interrupted defragmentation epoch, and returns the
// attached engine. The correct entry point for every reopen.
func Recover(ctx *Ctx, p *Pool, opt EngineOptions) (*Engine, error) {
	return core.Recover(ctx, p, opt)
}

// Data-structure constructors.
var (
	NewList   = ds.NewList
	NewAVL    = ds.NewAVL
	NewRBTree = ds.NewRBTree
	NewBPTree = ds.NewBPTree
	NewBzTree = ds.NewBzTree
	NewFPTree = ds.NewFPTree
	NewEcho   = kv.NewEcho
	NewPmemKV = kv.NewPmemKV
)

// NewStringStore creates a string-swap store with the given slot count.
func NewStringStore(ctx *Ctx, p *Pool, slots int) (*StringStore, error) {
	return ds.NewStringStore(ctx, p, slots)
}

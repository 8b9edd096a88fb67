package pmop

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync/atomic"

	"ffccd/internal/alloc"
	"ffccd/internal/pmem"
	"ffccd/internal/sim"
)

// ReadBarrier is the hook the defragmenter installs on a pool during its
// compacting phase. Resolve is the paper's D_RW/D_RO read barrier: given a
// persistent pointer it checks whether the referent sits on a relocation
// page, relocates it if necessary, and returns the current pointer.
type ReadBarrier interface {
	Resolve(ctx *sim.Ctx, ref Ptr) Ptr
}

// HeaderSize is the per-object header: u32 type id, u32 payload length,
// u64 reserved. Headers are persisted at allocation time so post-crash
// reachability analysis can parse the heap.
const HeaderSize = 16

// Pool header field offsets (pool offset 0, one reserved frame).
const (
	hdrMagic      = 0
	hdrPoolID     = 8
	hdrRoot       = 16
	hdrHeapOff    = 24
	hdrHeapFrames = 32
	hdrTxLogOff   = 40
	hdrTxSlots    = 48
	hdrTxSlotSize = 56
	hdrGCMetaOff  = 64
	hdrGCMetaSize = 72
	hdrGCPhase    = 80 // owned by the defragmentation engine
	hdrPageShift  = 88
)

const poolMagic = 0x46464343_44504D31 // "FFCCDPM1"

// Geometry constants.
const (
	txSlotCount    = 8
	txSlotBytes    = 64 * 1024
	gcMetaPerFrame = 320 // gcMetaUsedPerFrame (304, see gcmeta.go) + slack
)

// Pool is a persistent memory object pool mapped into the simulated device.
// Like its device, it is plain data that belongs to the goroutine that owns
// the machine: every simulated thread's operations and the defragmenter's
// stop-the-world phases run there, one after another, so a phase that runs
// between two operations has the world stopped by construction. Only Ops is
// atomic, for bench/'s decorator test that calls Get from several goroutines.
type Pool struct {
	rt   *Runtime
	id   uint16
	name string

	region uint64 // device (physical) base address
	size   uint64
	vaBase uint64 // per-run virtual base: relocatability (§2.2.1)

	heapOff    uint64
	heapFrames uint64
	txLogOff   uint64
	gcMetaOff  uint64
	gcMetaSize uint64
	pageShift  uint

	dev   *pmem.Device
	cfg   *sim.Config
	heap  *alloc.Heap
	types *Registry

	barrier   ReadBarrier
	allocHook func()
	txAddHook func(ctx *sim.Ctx, off, n uint64)

	txFree  []int // free transaction slots, handed out first in first out
	txSlots []*Tx

	remapHooks []func(remap func(Ptr) Ptr)

	// frameRemap maps virtual heap frames to physical heap frames (nil =
	// identity). Installed by the Mesh comparator, which compacts physical
	// memory by aliasing virtual pages instead of moving references.
	frameRemap []uint32

	// Op counter for throughput reporting: EndOp counts one per
	// data-structure operation.
	Ops atomic.Uint64
}

// --- construction -----------------------------------------------------------

func layout(size uint64) (txLogOff, gcMetaOff, gcMetaSize, heapOff, heapFrames uint64, err error) {
	txLogOff = alloc.FrameSize
	gcMetaOff = txLogOff + txSlotCount*txSlotBytes
	if size <= gcMetaOff+2*alloc.FrameSize {
		return 0, 0, 0, 0, 0, fmt.Errorf("pmop: pool size %d too small", size)
	}
	avail := size - gcMetaOff
	heapFrames = avail / (alloc.FrameSize + gcMetaPerFrame)
	gcMetaSize = (heapFrames*gcMetaPerFrame + alloc.FrameSize - 1) &^ (alloc.FrameSize - 1)
	heapOff = gcMetaOff + gcMetaSize
	heapFrames = (size - heapOff) / alloc.FrameSize
	return txLogOff, gcMetaOff, gcMetaSize, heapOff, heapFrames, nil
}

func (p *Pool) initVolatile() {
	p.heap = alloc.NewHeap(p.heapOff, int(p.heapFrames))
	p.txFree = make([]int, txSlotCount)
	p.txSlots = make([]*Tx, txSlotCount)
	for i := range p.txSlots {
		p.txSlots[i] = &Tx{pool: p, slot: i}
		p.txFree[i] = i
	}
}

// TxSlotOrder returns the free-transaction-slot queue order. The pool must
// be quiescent (no transaction in flight) — the queue rotates as
// transactions begin and retire, and the rotation decides which txlog lines
// future transactions touch, so a forked pool must reproduce it exactly
// (see the experiments fork driver).
func (p *Pool) TxSlotOrder() []int { return slices.Clone(p.txFree) }

// RestoreTxSlotOrder re-queues the free transaction slots in the given
// order. The pool must be quiescent and order must hold every slot once.
func (p *Pool) RestoreTxSlotOrder(order []int) {
	if len(order) != txSlotCount {
		panic("pmop: RestoreTxSlotOrder: wrong slot count")
	}
	p.txFree = append(p.txFree[:0], order...)
}

// --- identity & geometry ----------------------------------------------------

// ID returns the pool id.
func (p *Pool) ID() uint16 { return p.id }

// Name returns the pool name.
func (p *Pool) Name() string { return p.name }

// Heap exposes the allocator (the GC works with it directly).
func (p *Pool) Heap() *alloc.Heap { return p.heap }

// Types returns the pool's type registry.
func (p *Pool) Types() *Registry { return p.types }

// Device returns the underlying simulated PM device.
func (p *Pool) Device() *pmem.Device { return p.dev }

// Config returns the simulation config.
func (p *Pool) Config() *sim.Config { return p.cfg }

// PageShift returns the OS page-size shift used for footprint and TLB
// accounting (12 = 4 KB, 21 = 2 MB).
func (p *Pool) PageShift() uint { return p.pageShift }

// GCMetaRange returns the pool-offset range reserved for GC persistent
// metadata (PMFT, moved bitmaps, reached bitmap, phase state).
func (p *Pool) GCMetaRange() (off, size uint64) { return p.gcMetaOff, p.gcMetaSize }

// HeapRange returns the heap's pool-offset start and frame count.
func (p *Pool) HeapRange() (off uint64, frames uint64) { return p.heapOff, p.heapFrames }

// PA converts a pool offset to a device physical address, honouring the
// Mesh-style frame remap when one is installed.
func (p *Pool) PA(off uint64) uint64 {
	if m := p.frameRemap; m != nil && off >= p.heapOff {
		rel := off - p.heapOff
		vf := rel / alloc.FrameSize
		if int(vf) < len(m) {
			return p.region + p.heapOff + uint64(m[vf])*alloc.FrameSize + rel%alloc.FrameSize
		}
	}
	return p.region + off
}

// SetFrameRemap installs (or clears, with nil) a virtual→physical heap-frame
// mapping. The caller must quiesce the pool (stop-the-world) around changes.
func (p *Pool) SetFrameRemap(m []uint32) { p.frameRemap = m }

// VA converts a pool offset to this run's virtual address.
func (p *Pool) VA(off uint64) uint64 { return p.vaBase + off }

// OffsetOfVA converts this run's virtual address back to a pool offset.
func (p *Pool) OffsetOfVA(va uint64) uint64 { return va - p.vaBase }

// --- hooks -------------------------------------------------------------------

// SetBarrier installs (or, with nil, removes) the read barrier.
func (p *Pool) SetBarrier(b ReadBarrier) { p.barrier = b }

// SetAllocHook installs a function invoked after every Alloc/Free (nil
// removes it). It charges nothing; the repo benchmark counts allocator calls
// with it. The §5 defragmentation trigger is the caller's check instead:
// core.Engine.Triggered between operations.
func (p *Pool) SetAllocHook(f func()) { p.allocHook = f }

// SetTxAddHook installs the dest-modification hook, invoked before a
// transaction logs a range and before an object is freed (SFCCD's
// moved-object disambiguation uses it; see DESIGN.md).
func (p *Pool) SetTxAddHook(f func(ctx *sim.Ctx, off, n uint64)) { p.txAddHook = f }

// RegisterRemapHook adds a callback invoked under stop-the-world at the end
// of every defragmentation epoch with a remap function translating stale
// persistent pointers to their current locations. Applications that cache
// persistent pointers in volatile memory (handle maps, volatile indexes —
// FPTree's DRAM inner nodes are the canonical example) re-heal those caches
// here; heap-resident references are healed by the collector itself.
func (p *Pool) RegisterRemapHook(fn func(remap func(Ptr) Ptr)) {
	p.remapHooks = append(p.remapHooks, fn)
}

// RunRemapHooks invokes every registered remap hook. Called by the
// defragmentation engine while the world is stopped.
func (p *Pool) RunRemapHooks(remap func(Ptr) Ptr) {
	for _, fn := range p.remapHooks {
		fn(remap)
	}
}

// EndOp counts one completed data-structure operation (Ops).
func (p *Pool) EndOp() { p.Ops.Add(1) }

// --- raw access (no barrier; used by allocator, tx, GC) ----------------------

func (p *Pool) chargeTLB(ctx *sim.Ctx, off uint64) {
	if ctx.TLB != nil {
		ctx.Charge(ctx.TLB.Access(p.VA(off), p.pageShift))
	}
}

// RawLoad reads len(buf) bytes at pool offset off through the cache.
func (p *Pool) RawLoad(ctx *sim.Ctx, off uint64, buf []byte) {
	p.chargeTLB(ctx, off)
	p.dev.Load(ctx, p.PA(off), buf)
}

// RawStore writes data at pool offset off through the cache.
func (p *Pool) RawStore(ctx *sim.Ctx, off uint64, data []byte) {
	p.chargeTLB(ctx, off)
	p.dev.Store(ctx, p.PA(off), data)
}

// RawLoadU64 reads a little-endian u64 at off.
func (p *Pool) RawLoadU64(ctx *sim.Ctx, off uint64) uint64 {
	p.chargeTLB(ctx, off)
	return p.dev.LoadU64(ctx, p.PA(off))
}

// RawStoreU64 writes a little-endian u64 at off.
func (p *Pool) RawStoreU64(ctx *sim.Ctx, off uint64, v uint64) {
	p.chargeTLB(ctx, off)
	p.dev.StoreU64(ctx, p.PA(off), v)
}

// Peek reads the newest bytes at pool offset off without simulating the
// access — no cycles, no cache/TLB perturbation, no stats (see
// pmem.Device.Peek). Serving-layer footprint prediction uses it at dispatch
// time; it must not be used where the simulated cost of a read matters.
func (p *Pool) Peek(off uint64, buf []byte) {
	p.dev.Peek(p.PA(off), buf)
}

// PeekU64 reads a little-endian u64 at off without simulating the access.
func (p *Pool) PeekU64(off uint64) uint64 { return p.dev.PeekU64(p.PA(off)) }

// Clwb issues a cacheline write-back for the line containing pool offset off.
func (p *Pool) Clwb(ctx *sim.Ctx, off uint64) { p.dev.Clwb(ctx, p.PA(off)) }

// Sfence issues a store fence.
func (p *Pool) Sfence(ctx *sim.Ctx) { p.dev.Sfence(ctx) }

// PersistRange clwb's every line of [off, off+n) and fences once.
func (p *Pool) PersistRange(ctx *sim.Ctx, off, n uint64) {
	for a := off &^ (pmem.LineSize - 1); a < off+n; a += pmem.LineSize {
		p.Clwb(ctx, a)
	}
	p.Sfence(ctx)
}

// --- barrier-mediated object access (D_RW / D_RO) ----------------------------

// Resolve applies the read barrier to a persistent pointer — the equivalent
// of PMDK's D_RW/D_RO conversion. With no active barrier it is the identity.
func (p *Pool) Resolve(ctx *sim.Ctx, ref Ptr) Ptr {
	if ref.IsNull() {
		return ref
	}
	if p.barrier == nil {
		return ref
	}
	return p.barrier.Resolve(ctx, ref)
}

// ReadPtr loads the pointer field at payload offset field of obj, applying
// the read barrier to both the handle and the loaded reference, and
// self-healing the stored reference if the referent has moved (the plain,
// fence-free reference update of Observation 3).
func (p *Pool) ReadPtr(ctx *sim.Ctx, obj Ptr, field uint64) Ptr {
	obj = p.Resolve(ctx, obj)
	slot := obj.Offset() + field
	ref := Ptr(p.RawLoadU64(ctx, slot))
	if ref.IsNull() {
		return ref
	}
	cur := p.Resolve(ctx, ref)
	if cur != ref {
		p.RawStoreU64(ctx, slot, uint64(cur))
	}
	return cur
}

// WritePtr stores val into the pointer field at payload offset field of obj.
// Both the handle and the stored value are barrier-resolved so stale
// references never re-enter the heap during compaction.
func (p *Pool) WritePtr(ctx *sim.Ctx, obj Ptr, field uint64, val Ptr) {
	obj = p.Resolve(ctx, obj)
	val = p.Resolve(ctx, val)
	p.RawStoreU64(ctx, obj.Offset()+field, uint64(val))
}

// ReadU64 loads a u64 data field.
func (p *Pool) ReadU64(ctx *sim.Ctx, obj Ptr, field uint64) uint64 {
	obj = p.Resolve(ctx, obj)
	return p.RawLoadU64(ctx, obj.Offset()+field)
}

// WriteU64 stores a u64 data field.
func (p *Pool) WriteU64(ctx *sim.Ctx, obj Ptr, field uint64, v uint64) {
	obj = p.Resolve(ctx, obj)
	p.RawStoreU64(ctx, obj.Offset()+field, v)
}

// ReadBytes loads len(buf) bytes from obj's payload at field.
func (p *Pool) ReadBytes(ctx *sim.Ctx, obj Ptr, field uint64, buf []byte) {
	obj = p.Resolve(ctx, obj)
	p.RawLoad(ctx, obj.Offset()+field, buf)
}

// WriteBytes stores data into obj's payload at field.
func (p *Pool) WriteBytes(ctx *sim.Ctx, obj Ptr, field uint64, data []byte) {
	obj = p.Resolve(ctx, obj)
	p.RawStore(ctx, obj.Offset()+field, data)
}

// --- object header ------------------------------------------------------------

// Header returns the type id and payload length of obj (no barrier; headers
// move with their objects, so callers pass an already-resolved pointer).
func (p *Pool) Header(ctx *sim.Ctx, obj Ptr) (TypeID, uint64) {
	w := p.RawLoadU64(ctx, obj.Offset()-HeaderSize)
	return TypeID(uint32(w)), w >> 32
}

// writeHeader persists an object header (type id + payload length).
func (p *Pool) writeHeader(ctx *sim.Ctx, headerOff uint64, t TypeID, payload uint64) {
	var b [HeaderSize]byte
	binary.LittleEndian.PutUint32(b[0:4], uint32(t))
	binary.LittleEndian.PutUint32(b[4:8], uint32(payload))
	p.RawStore(ctx, headerOff, b[:])
	p.Clwb(ctx, headerOff)
	p.Sfence(ctx)
}

// --- allocation ----------------------------------------------------------------

// zeroPayload is a read-only source of zero bytes for Alloc. An object's
// payload is bounded by the frame size, so one frame of zeros always covers
// it.
var zeroPayload [alloc.FrameSize]byte

// Alloc allocates an object of the given registered type. For fixed-size
// types payload may be 0 (the registered size is used); KindBytes and
// KindPtrArray types take the payload size from the call.
func (p *Pool) Alloc(ctx *sim.Ctx, t TypeID, payload uint64) (Ptr, error) {
	ti, ok := p.types.Lookup(t)
	if !ok {
		return Null, fmt.Errorf("pmop: unregistered type %d", t)
	}
	if payload == 0 {
		payload = ti.Size
	}
	if payload == 0 {
		return Null, fmt.Errorf("pmop: type %s requires an explicit payload size", ti.Name)
	}
	headerOff, err := p.heap.Alloc(payload)
	if err != nil {
		return Null, err
	}
	// Zero the payload (stale media contents must not leak into new
	// objects), then persist the header so post-crash reachability can
	// parse the heap. RawStore only reads its source, so a shared zero
	// buffer serves every allocation (payloads never exceed one frame).
	p.RawStore(ctx, headerOff+HeaderSize, zeroPayload[:payload])
	p.writeHeader(ctx, headerOff, t, payload)
	if p.allocHook != nil {
		p.allocHook()
	}
	return MakePtr(p.id, headerOff+HeaderSize), nil
}

// Free releases obj. The pointer is barrier-resolved first, so freeing
// through a stale reference during compaction frees the current copy. Like
// a transactional modification, freeing invalidates the object's destination
// region, so the dest-modification hook fires first (SFCCD recovery must not
// "repair" a freed-and-reused destination from its stale source copy).
func (p *Pool) Free(ctx *sim.Ctx, obj Ptr) {
	obj = p.Resolve(ctx, obj)
	_, payload := p.Header(ctx, obj)
	if p.txAddHook != nil {
		p.txAddHook(ctx, obj.Offset()-HeaderSize, HeaderSize+payload)
	}
	p.heap.Free(obj.Offset()-HeaderSize, alloc.SlotsFor(payload))
	if p.allocHook != nil {
		p.allocHook()
	}
}

// --- root ------------------------------------------------------------------------

// Root returns the pool's root object pointer (§2.2.1: every PMOP has at
// least one entry point called a root), barrier-resolved and self-healed.
func (p *Pool) Root(ctx *sim.Ctx) Ptr {
	ref := Ptr(p.RawLoadU64(ctx, hdrRoot))
	if ref.IsNull() {
		return ref
	}
	cur := p.Resolve(ctx, ref)
	if cur != ref {
		p.RawStoreU64(ctx, hdrRoot, uint64(cur))
	}
	return cur
}

// SetRoot durably updates the root pointer.
func (p *Pool) SetRoot(ctx *sim.Ctx, root Ptr) {
	p.RawStoreU64(ctx, hdrRoot, uint64(p.Resolve(ctx, root)))
	p.Clwb(ctx, hdrRoot)
	p.Sfence(ctx)
}

// GCPhase reads the persistent defragmentation phase word (owned by core).
func (p *Pool) GCPhase(ctx *sim.Ctx) uint64 { return p.RawLoadU64(ctx, hdrGCPhase) }

// SetGCPhase durably writes the defragmentation phase word.
func (p *Pool) SetGCPhase(ctx *sim.Ctx, v uint64) {
	p.RawStoreU64(ctx, hdrGCPhase, v)
	p.Clwb(ctx, hdrGCPhase)
	p.Sfence(ctx)
}

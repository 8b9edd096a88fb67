package pmop

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// TypeID identifies a registered object type. It is stored in every object
// header so reachability analysis can find pointer fields (§3.1: "the object
// creators record type information of all objects for future references,
// allowing us to distinguish data and references").
type TypeID uint32

// Kind classifies a type's pointer layout.
type Kind uint8

const (
	// KindFixed is a fixed-size struct with pointer fields at PtrOffsets.
	KindFixed Kind = iota
	// KindBytes is raw data with no pointers (strings, value buffers).
	KindBytes
	// KindPtrArray is a payload consisting entirely of persistent pointers
	// (hash-table bucket arrays, node child arrays of dynamic arity).
	KindPtrArray
)

// TypeInfo describes a registered persistent type.
type TypeInfo struct {
	ID         TypeID
	Name       string
	Kind       Kind
	Size       uint64   // fixed payload size; 0 means size chosen at Alloc
	PtrOffsets []uint64 // payload offsets of pointer fields (KindFixed)
}

// frozenTypes is an immutable compiled view of a registry: a dense slice
// indexed directly by TypeID plus a name index. Once published it is never
// mutated — re-registration after a freeze builds and republishes a fresh
// copy — so readers need no lock: Lookup is one atomic pointer load plus a
// bounds-checked slice load.
type frozenTypes struct {
	byID   []*TypeInfo // index = TypeID; index 0 is nil (ids start at 1)
	byName map[string]*TypeInfo
}

// Registry maps type ids to layouts. Like C type declarations it is volatile
// and re-registered by application code on every run.
//
// Registries have two phases. During registration (NewRegistry until Freeze)
// lookups take an RWMutex over the builder maps. Freeze — called once type
// registration is complete, e.g. after ds.RegisterTypes/kv.RegisterTypes —
// compiles the registry into an immutable frozenTypes snapshot read
// lock-free; Register after Freeze still works (idempotent re-registration
// across runs) by copying-on-write and republishing the snapshot under the
// writer lock, so concurrent Lookups always see a complete view.
type Registry struct {
	mu     sync.RWMutex
	byID   map[TypeID]*TypeInfo
	byName map[string]*TypeInfo
	next   TypeID

	frozen atomic.Pointer[frozenTypes]
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byID:   make(map[TypeID]*TypeInfo),
		byName: make(map[string]*TypeInfo),
		next:   1,
	}
}

// Freeze compiles the registry into its immutable lock-free form. Call it
// once after the initial RegisterTypes batch; later Registers republish the
// compiled form automatically. Freeze is idempotent.
func (r *Registry) Freeze() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.republish()
}

// Frozen reports whether the registry has been compiled for lock-free
// lookup.
func (r *Registry) Frozen() bool { return r.frozen.Load() != nil }

// republish rebuilds the frozen snapshot from the builder maps. Caller holds
// r.mu.
func (r *Registry) republish() {
	f := &frozenTypes{
		byID:   make([]*TypeInfo, r.next),
		byName: make(map[string]*TypeInfo, len(r.byName)),
	}
	for id, t := range r.byID {
		f.byID[id] = t
	}
	for name, t := range r.byName {
		f.byName[name] = t
	}
	r.frozen.Store(f)
}

// Register adds a type and assigns its id. Registering the same name twice
// returns the existing id (idempotent re-registration across runs).
func (r *Registry) Register(info TypeInfo) TypeID {
	r.mu.Lock()
	defer r.mu.Unlock()
	if existing, ok := r.byName[info.Name]; ok {
		return existing.ID
	}
	if info.Name == "" {
		panic("pmop: type must have a name")
	}
	for _, off := range info.PtrOffsets {
		if off%8 != 0 || (info.Size > 0 && off+8 > info.Size) {
			panic(fmt.Sprintf("pmop: type %s has invalid pointer offset %d", info.Name, off))
		}
	}
	t := info
	t.ID = r.next
	r.next++
	r.byID[t.ID] = &t
	r.byName[t.Name] = &t
	if r.frozen.Load() != nil {
		// Already frozen: copy-on-write — republish a fresh snapshot so
		// in-flight lock-free Lookups keep reading the old complete view.
		r.republish()
	}
	return t.ID
}

// Lookup returns the type for id. On a frozen registry this is lock-free:
// one atomic load plus a bounds-checked slice index (the Alloc/mark hot
// path).
func (r *Registry) Lookup(id TypeID) (*TypeInfo, bool) {
	if f := r.frozen.Load(); f != nil {
		if uint64(id) < uint64(len(f.byID)) {
			if t := f.byID[id]; t != nil {
				return t, true
			}
		}
		return nil, false
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.byID[id]
	return t, ok
}

// LookupName returns the type registered under name.
func (r *Registry) LookupName(name string) (*TypeInfo, bool) {
	if f := r.frozen.Load(); f != nil {
		t, ok := f.byName[name]
		return t, ok
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.byName[name]
	return t, ok
}

// PointerCount returns how many pointer fields an object of this type with
// the given payload size holds; PointerOffset(i) is the payload offset of the
// i-th one. The pair replaces a materialised offset slice so a reachability
// walk allocates nothing per object.
func (t *TypeInfo) PointerCount(payload uint64) int {
	switch t.Kind {
	case KindBytes:
		return 0
	case KindPtrArray:
		return int(payload / 8)
	default:
		return len(t.PtrOffsets)
	}
}

// PointerOffset returns the payload offset of pointer field i, for
// 0 <= i < PointerCount(payload).
func (t *TypeInfo) PointerOffset(i int) uint64 {
	if t.Kind == KindPtrArray {
		return uint64(i) * 8
	}
	return t.PtrOffsets[i]
}

package pmop

import "fmt"

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

// Registry maps type ids to layouts. Like C type declarations it is volatile
// and re-registered by application code on every run.
//
// Types are registered before a registry is shared: the registry every
// simulated machine uses is built when its package loads and only looked up
// afterwards, so the registry takes no lock.
type Registry struct {
	byID   []*TypeInfo // index = TypeID; index 0 is nil (ids start at 1)
	byName map[string]*TypeInfo
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: []*TypeInfo{nil}, byName: make(map[string]*TypeInfo)}
}

// Register adds a type and assigns its id. Registering the same name twice
// returns the existing id (idempotent re-registration across runs).
func (r *Registry) Register(info TypeInfo) TypeID {
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
	t.ID = TypeID(len(r.byID))
	r.byID = append(r.byID, &t)
	r.byName[t.Name] = &t
	return t.ID
}

// Lookup returns the type for id: one bounds-checked slice index (the
// Alloc/mark hot path).
func (r *Registry) Lookup(id TypeID) (*TypeInfo, bool) {
	if uint64(id) >= uint64(len(r.byID)) || r.byID[id] == nil {
		return nil, false
	}
	return r.byID[id], true
}

// LookupName returns the type registered under name.
func (r *Registry) LookupName(name string) (*TypeInfo, bool) {
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

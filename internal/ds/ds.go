// Package ds implements the persistent data structures the paper evaluates
// on top of the PMOP programming model: the five microbenchmarks (linked
// list, AVL tree, string swap, B+tree, red-black tree, §6) and the two
// state-of-the-art concurrent PM indexes (BzTree and FPTree, §7.3).
//
// Every structure follows the libpmemobj discipline the paper assumes:
// typed allocation, root objects, undo-log transactions around mutations,
// and all pointer dereferences through the pool's D_RW/D_RO accessors — the
// hook the defragmenter's read barrier lives in. Every operation ends with
// Pool.EndOp, which counts it.
package ds

import (
	"ffccd/internal/pmop"
	"ffccd/internal/sim"
)

// Store is the uniform key-value interface the workload drivers exercise.
type Store interface {
	// Name identifies the structure in reports (LL, AVL, SS, BT, RBT, ...).
	Name() string
	// Insert adds key with a copy of val. Duplicate keys overwrite.
	Insert(ctx *sim.Ctx, key uint64, val []byte) error
	// Delete removes key, reporting whether it was present.
	Delete(ctx *sim.Ctx, key uint64) (bool, error)
	// Get returns a copy of the value stored under key.
	Get(ctx *sim.Ctx, key uint64) ([]byte, bool)
	// Len returns the number of live keys.
	Len() int
}

// Type names shared by the structures; RegisterTypes installs them all in a
// registry (idempotent).
const (
	typeValue    = "ds.value"
	typeListNode = "ds.listnode"
	typeListRoot = "ds.listroot"
	typeAVLNode  = "ds.avlnode"
	typeRBNode   = "ds.rbnode"
	typeBTNode   = "ds.btnode"
	typeStrArray = "ds.strarray"
	typeBzNode   = "ds.bznode"
	typeFPLeaf   = "ds.fpleaf"
)

// RegisterTypes registers every ds type in reg. Safe to call repeatedly.
func RegisterTypes(reg *pmop.Registry) {
	reg.Register(pmop.TypeInfo{Name: typeValue, Kind: pmop.KindBytes})
	// list node: key u64 @0, val Ptr @8, next Ptr @16, prev Ptr @24.
	reg.Register(pmop.TypeInfo{Name: typeListNode, Kind: pmop.KindFixed, Size: 32, PtrOffsets: []uint64{8, 16, 24}})
	// list root: head Ptr @0, tail Ptr @8.
	reg.Register(pmop.TypeInfo{Name: typeListRoot, Kind: pmop.KindFixed, Size: 16, PtrOffsets: []uint64{0, 8}})
	// AVL node: key u64 @0, val Ptr @8, left @16, right @24, height u64 @32.
	reg.Register(pmop.TypeInfo{Name: typeAVLNode, Kind: pmop.KindFixed, Size: 40, PtrOffsets: []uint64{8, 16, 24}})
	// RB node: key u64 @0, val Ptr @8, left @16, right @24, color u64 @32.
	reg.Register(pmop.TypeInfo{Name: typeRBNode, Kind: pmop.KindFixed, Size: 40, PtrOffsets: []uint64{8, 16, 24}})
	// B+tree node (order 4, §7.2 "one node can store 4 values"):
	// nkeys u64 @0, leaf u64 @8, keys [4]u64 @16, children/vals [5]Ptr @48.
	// (No leaf chain: lazy deletion would leave dangling next pointers that
	// reachability analysis must not follow; range scans go via the index.)
	reg.Register(pmop.TypeInfo{Name: typeBTNode, Kind: pmop.KindFixed, Size: 96,
		PtrOffsets: []uint64{48, 56, 64, 72, 80}})
	// String-swap slot array: pure pointer array.
	reg.Register(pmop.TypeInfo{Name: typeStrArray, Kind: pmop.KindPtrArray})
	// BzTree node (layout in bztree.go).
	reg.Register(pmop.TypeInfo{Name: typeBzNode, Kind: pmop.KindFixed, Size: bzNodeSize, PtrOffsets: bzNodePtrOffsets()})
	// FPTree leaf (layout in fptree.go).
	reg.Register(pmop.TypeInfo{Name: typeFPLeaf, Kind: pmop.KindFixed, Size: fpLeafSize, PtrOffsets: fpLeafPtrOffsets()})
}

// allocValue clones val into a fresh persistent value object and persists
// it. Values are immutable once linked, so flushing here (while the object
// is still unreachable) keeps the later link-commit sufficient for crash
// consistency without logging the value contents.
func allocValue(ctx *sim.Ctx, p *pmop.Pool, val []byte) (pmop.Ptr, error) {
	ti, _ := p.Types().LookupName(typeValue)
	v, err := p.Alloc(ctx, ti.ID, uint64(len(val)))
	if err != nil {
		return pmop.Null, err
	}
	p.WriteBytes(ctx, v, 0, val)
	p.PersistRange(ctx, v.Offset(), uint64(len(val)))
	return v, nil
}

// readValueInto loads a value object's payload into buf's storage, or a
// fresh buffer when buf is nil or too small, and returns it. Every store's
// GetInto reads through it, and Get is GetInto with no buffer, so a read
// into a caller's buffer makes the same loads as one into a fresh copy.
func readValueInto(ctx *sim.Ctx, p *pmop.Pool, v pmop.Ptr, buf []byte) []byte {
	_, n := p.Header(ctx, p.Resolve(ctx, v))
	if buf == nil || uint64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	p.ReadBytes(ctx, v, 0, buf)
	return buf
}

package ds

import (
	"ffccd/internal/pmop"
	"ffccd/internal/sim"
)

// List is the LL microbenchmark: a persistent doubly linked list of
// (key, value-object) nodes. Like a real application it keeps a volatile
// handle map from key to node pointer so deletes are O(1); the handles are
// persistent pointers and every use goes through D_RW, so they stay valid
// while the defragmenter moves nodes.
type List struct {
	p *pmop.Pool

	root    pmop.Ptr // listroot object: head @0, tail @8
	nodeT   pmop.TypeID
	handles map[uint64]pmop.Ptr
}

// List node field offsets.
const (
	lnKey  = 0
	lnVal  = 8
	lnNext = 16
	lnPrev = 24
)

// NewList creates (or rebuilds, if the pool root already holds one) the list.
func NewList(ctx *sim.Ctx, p *pmop.Pool) (*List, error) {
	rootT, _ := p.Types().LookupName(typeListRoot)
	nodeT, _ := p.Types().LookupName(typeListNode)
	l := &List{p: p, nodeT: nodeT.ID, handles: make(map[uint64]pmop.Ptr)}
	p.RegisterRemapHook(func(remap func(pmop.Ptr) pmop.Ptr) {
		for k, h := range l.handles {
			l.handles[k] = remap(h)
		}
		l.root = remap(l.root)
	})

	if r := p.Root(ctx); !r.IsNull() {
		l.root = r
		// Rebuild the volatile handle map from the persistent list.
		for n := p.ReadPtr(ctx, r, 0); !n.IsNull(); n = p.ReadPtr(ctx, n, lnNext) {
			l.handles[p.ReadU64(ctx, n, lnKey)] = n
		}
		return l, nil
	}
	r, err := p.Alloc(ctx, rootT.ID, 0)
	if err != nil {
		return nil, err
	}
	p.SetRoot(ctx, r)
	l.root = r
	return l, nil
}

// Name implements Store.
func (l *List) Name() string { return "LL" }

// Len implements Store.
func (l *List) Len() int { return len(l.handles) }

// Insert implements Store: head insertion, overwriting duplicates.
func (l *List) Insert(ctx *sim.Ctx, key uint64, val []byte) error {
	defer l.p.EndOp()
	if old, ok := l.handles[key]; ok {
		return l.overwrite(ctx, old, val)
	}
	v, err := allocValue(ctx, l.p, val)
	if err != nil {
		return err
	}
	n, err := l.p.Alloc(ctx, l.nodeT, 0)
	if err != nil {
		l.p.Free(ctx, v)
		return err
	}
	p := l.p
	tx := p.Begin(ctx)
	tx.AddObject(ctx, n)
	tx.AddPtr(ctx, l.root, 0)
	p.WriteU64(ctx, n, lnKey, key)
	p.WritePtr(ctx, n, lnVal, v)
	head := p.ReadPtr(ctx, l.root, 0)
	p.WritePtr(ctx, n, lnNext, head)
	if !head.IsNull() {
		tx.AddPtr(ctx, head, lnPrev)
		p.WritePtr(ctx, head, lnPrev, n)
	} else {
		tx.AddPtr(ctx, l.root, 8)
		p.WritePtr(ctx, l.root, 8, n)
	}
	p.WritePtr(ctx, l.root, 0, n)
	tx.Commit(ctx)
	l.handles[key] = n
	return nil
}

func (l *List) overwrite(ctx *sim.Ctx, n pmop.Ptr, val []byte) error {
	p := l.p
	nv, err := allocValue(ctx, p, val)
	if err != nil {
		return err
	}
	old := p.ReadPtr(ctx, n, lnVal)
	tx := p.Begin(ctx)
	tx.AddPtr(ctx, n, lnVal)
	p.WritePtr(ctx, n, lnVal, nv)
	tx.Commit(ctx)
	if !old.IsNull() {
		p.Free(ctx, old)
	}
	return nil
}

// Delete implements Store.
func (l *List) Delete(ctx *sim.Ctx, key uint64) (bool, error) {
	defer l.p.EndOp()
	n, ok := l.handles[key]
	if !ok {
		return false, nil
	}
	p := l.p
	prev := p.ReadPtr(ctx, n, lnPrev)
	next := p.ReadPtr(ctx, n, lnNext)
	val := p.ReadPtr(ctx, n, lnVal)

	tx := p.Begin(ctx)
	if prev.IsNull() {
		tx.AddPtr(ctx, l.root, 0)
		p.WritePtr(ctx, l.root, 0, next)
	} else {
		tx.AddPtr(ctx, prev, lnNext)
		p.WritePtr(ctx, prev, lnNext, next)
	}
	if next.IsNull() {
		tx.AddPtr(ctx, l.root, 8)
		p.WritePtr(ctx, l.root, 8, prev)
	} else {
		tx.AddPtr(ctx, next, lnPrev)
		p.WritePtr(ctx, next, lnPrev, prev)
	}
	tx.Commit(ctx)

	if !val.IsNull() {
		p.Free(ctx, val)
	}
	p.Free(ctx, n)
	delete(l.handles, key)
	return true, nil
}

// Get implements Store.
func (l *List) Get(ctx *sim.Ctx, key uint64) ([]byte, bool) { return l.GetInto(ctx, key, nil) }

// GetInto is Get into buf's storage (readValueInto); a miss returns (buf, false).
func (l *List) GetInto(ctx *sim.Ctx, key uint64, buf []byte) ([]byte, bool) {
	defer l.p.EndOp()
	n, ok := l.handles[key]
	if !ok {
		return buf, false
	}
	v := l.p.ReadPtr(ctx, n, lnVal)
	if v.IsNull() {
		return buf, false
	}
	return readValueInto(ctx, l.p, v, buf), true
}

// Walk traverses the persistent chain from head, calling fn for each
// (key, node) — used by integrity checkers.
func (l *List) Walk(ctx *sim.Ctx, fn func(key uint64, node pmop.Ptr) bool) {
	defer l.p.EndOp()
	for n := l.p.ReadPtr(ctx, l.root, 0); !n.IsNull(); n = l.p.ReadPtr(ctx, n, lnNext) {
		if !fn(l.p.ReadU64(ctx, n, lnKey), n) {
			return
		}
	}
}

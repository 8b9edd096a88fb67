package ds

import (
	"ffccd/internal/pmop"
)

// Forker is implemented by stores that can clone themselves onto a forked
// pool. Fork copies the store's volatile state (root handles, caches,
// counts) and registers a fresh remap hook on the target pool; it performs
// no simulated memory operations — unlike the constructors' reopen paths,
// which replay loads and would perturb a forked run's cycle counts. The
// persistent state is already present in the forked pool's media, and
// pmop.Ptr values stay valid across a fork because the forked pool keeps
// the parent's id and VA base (pmop.Image.Fork).
//
// Fork only reads the receiver, so one store can be forked concurrently
// into several pools. The receiver must be quiescent (no in-flight ops).
type Forker interface {
	Fork(p *pmop.Pool) Store
}

// Fork implements Forker.
func (l *List) Fork(p *pmop.Pool) Store {
	nl := &List{p: p, nodeT: l.nodeT, root: l.root, handles: make(map[uint64]pmop.Ptr, len(l.handles))}
	for k, h := range l.handles {
		nl.handles[k] = h
	}
	p.RegisterRemapHook(func(remap func(pmop.Ptr) pmop.Ptr) {
		for k, h := range nl.handles {
			nl.handles[k] = remap(h)
		}
		nl.root = remap(nl.root)
	})
	return nl
}

// Fork implements Forker.
func (t *AVL) Fork(p *pmop.Pool) Store {
	nt := &AVL{p: p, nodeT: t.nodeT, root: t.root, count: t.count}
	p.RegisterRemapHook(func(remap func(pmop.Ptr) pmop.Ptr) { nt.root = remap(nt.root) })
	return nt
}

// Fork implements Forker.
func (t *BPTree) Fork(p *pmop.Pool) Store {
	nt := &BPTree{p: p, nodeT: t.nodeT, root: t.root, count: t.count}
	p.RegisterRemapHook(func(remap func(pmop.Ptr) pmop.Ptr) { nt.root = remap(nt.root) })
	return nt
}

// Fork implements Forker.
func (t *RBTree) Fork(p *pmop.Pool) Store {
	nt := &RBTree{p: p, nodeT: t.nodeT, root: t.root, count: t.count}
	p.RegisterRemapHook(func(remap func(pmop.Ptr) pmop.Ptr) { nt.root = remap(nt.root) })
	return nt
}

// Fork implements Forker.
func (t *BzTree) Fork(p *pmop.Pool) Store {
	nt := &BzTree{p: p, nodeT: t.nodeT, root: t.root, count: t.count}
	p.RegisterRemapHook(func(remap func(pmop.Ptr) pmop.Ptr) { nt.root = remap(nt.root) })
	return nt
}

// Fork implements Forker.
func (t *FPTree) Fork(p *pmop.Pool) Store {
	nt := &FPTree{
		p: p, leafT: t.leafT, root: t.root,
		index: append([]fpIdx(nil), t.index...),
		count: t.count,
	}
	p.RegisterRemapHook(func(remap func(pmop.Ptr) pmop.Ptr) {
		nt.root = remap(nt.root)
		for i := range nt.index {
			nt.index[i].leaf = remap(nt.index[i].leaf)
		}
	})
	return nt
}

// Fork implements Forker.
func (s *StringStore) Fork(p *pmop.Pool) Store {
	ns := &StringStore{
		p: p, slots: s.slots,
		segs:  append([]pmop.Ptr(nil), s.segs...),
		count: s.count,
	}
	p.RegisterRemapHook(func(remap func(pmop.Ptr) pmop.Ptr) {
		for i := range ns.segs {
			ns.segs[i] = remap(ns.segs[i])
		}
	})
	return ns
}

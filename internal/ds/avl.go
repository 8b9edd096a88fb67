package ds

import (
	"slices"

	"ffccd/internal/pmop"
	"ffccd/internal/sim"
)

// AVL is the AVL microbenchmark: a persistent height-balanced binary search
// tree. Every mutation runs inside one undo-log transaction; each node is
// logged once before its first modification in the operation.
type AVL struct {
	p     *pmop.Pool
	nodeT pmop.TypeID
	root  pmop.Ptr // holder object: root node Ptr @0
	count int
	ls    logset
}

// AVL node field offsets.
const (
	avKey    = 0
	avVal    = 8
	avLeft   = 16
	avRight  = 24
	avHeight = 32
)

// logset logs each object at most once per transaction. One lives in each
// tree and is reused across transactions. The set is
// a small slice scanned linearly: a transaction logs the nodes along one
// root-to-leaf path and their rotation partners — at most 17 entries in any
// transaction of the micro workloads (bench micro-nodefrag/micro-defrag), 26
// on the fig14 grid. Host-only bookkeeping; the simulated machine sees the
// same AddObject calls.
type logset struct {
	tx   *pmop.Tx
	seen []uint64
	p    *pmop.Pool
}

// begin empties the set for transaction tx.
func (ls *logset) begin(p *pmop.Pool, tx *pmop.Tx) *logset {
	ls.p, ls.tx, ls.seen = p, tx, ls.seen[:0]
	return ls
}

func (ls *logset) log(ctx *sim.Ctx, n pmop.Ptr) {
	r := ls.p.Resolve(ctx, n)
	if slices.Contains(ls.seen, r.Offset()) {
		return
	}
	ls.seen = append(ls.seen, r.Offset())
	ls.tx.AddObject(ctx, r)
}

// NewAVL creates or reopens the tree in p.
func NewAVL(ctx *sim.Ctx, p *pmop.Pool) (*AVL, error) {
	holderT, _ := p.Types().LookupName(typeListRoot)
	nodeT, _ := p.Types().LookupName(typeAVLNode)
	t := &AVL{p: p, nodeT: nodeT.ID}
	p.RegisterRemapHook(func(remap func(pmop.Ptr) pmop.Ptr) { t.root = remap(t.root) })
	if r := p.Root(ctx); !r.IsNull() {
		t.root = r
		t.count = t.countFrom(ctx, p.ReadPtr(ctx, r, 0))
		return t, nil
	}
	r, err := p.Alloc(ctx, holderT.ID, 0)
	if err != nil {
		return nil, err
	}
	p.SetRoot(ctx, r)
	t.root = r
	return t, nil
}

func (t *AVL) countFrom(ctx *sim.Ctx, n pmop.Ptr) int {
	if n.IsNull() {
		return 0
	}
	return 1 + t.countFrom(ctx, t.p.ReadPtr(ctx, n, avLeft)) +
		t.countFrom(ctx, t.p.ReadPtr(ctx, n, avRight))
}

// Name implements Store.
func (t *AVL) Name() string { return "AVL" }

// Len implements Store.
func (t *AVL) Len() int { return t.count }

func (t *AVL) height(ctx *sim.Ctx, n pmop.Ptr) uint64 {
	if n.IsNull() {
		return 0
	}
	return t.p.ReadU64(ctx, n, avHeight)
}

func (t *AVL) fixHeight(ctx *sim.Ctx, ls *logset, n pmop.Ptr) {
	l := t.height(ctx, t.p.ReadPtr(ctx, n, avLeft))
	r := t.height(ctx, t.p.ReadPtr(ctx, n, avRight))
	h := l
	if r > h {
		h = r
	}
	ls.log(ctx, n)
	t.p.WriteU64(ctx, n, avHeight, h+1)
}

func (t *AVL) balanceFactor(ctx *sim.Ctx, n pmop.Ptr) int {
	l := t.height(ctx, t.p.ReadPtr(ctx, n, avLeft))
	r := t.height(ctx, t.p.ReadPtr(ctx, n, avRight))
	return int(l) - int(r)
}

func (t *AVL) rotateRight(ctx *sim.Ctx, ls *logset, y pmop.Ptr) pmop.Ptr {
	p := t.p
	x := p.ReadPtr(ctx, y, avLeft)
	ls.log(ctx, x)
	ls.log(ctx, y)
	p.WritePtr(ctx, y, avLeft, p.ReadPtr(ctx, x, avRight))
	p.WritePtr(ctx, x, avRight, y)
	t.fixHeight(ctx, ls, y)
	t.fixHeight(ctx, ls, x)
	return x
}

func (t *AVL) rotateLeft(ctx *sim.Ctx, ls *logset, x pmop.Ptr) pmop.Ptr {
	p := t.p
	y := p.ReadPtr(ctx, x, avRight)
	ls.log(ctx, x)
	ls.log(ctx, y)
	p.WritePtr(ctx, x, avRight, p.ReadPtr(ctx, y, avLeft))
	p.WritePtr(ctx, y, avLeft, x)
	t.fixHeight(ctx, ls, x)
	t.fixHeight(ctx, ls, y)
	return y
}

func (t *AVL) rebalance(ctx *sim.Ctx, ls *logset, n pmop.Ptr) pmop.Ptr {
	t.fixHeight(ctx, ls, n)
	bf := t.balanceFactor(ctx, n)
	p := t.p
	if bf > 1 {
		if t.balanceFactor(ctx, p.ReadPtr(ctx, n, avLeft)) < 0 {
			ls.log(ctx, n)
			p.WritePtr(ctx, n, avLeft, t.rotateLeft(ctx, ls, p.ReadPtr(ctx, n, avLeft)))
		}
		return t.rotateRight(ctx, ls, n)
	}
	if bf < -1 {
		if t.balanceFactor(ctx, p.ReadPtr(ctx, n, avRight)) > 0 {
			ls.log(ctx, n)
			p.WritePtr(ctx, n, avRight, t.rotateRight(ctx, ls, p.ReadPtr(ctx, n, avRight)))
		}
		return t.rotateLeft(ctx, ls, n)
	}
	return n
}

// Insert implements Store.
func (t *AVL) Insert(ctx *sim.Ctx, key uint64, val []byte) error {
	defer t.p.EndOp()
	v, err := allocValue(ctx, t.p, val)
	if err != nil {
		return err
	}
	tx := t.p.Begin(ctx)
	ls := t.ls.begin(t.p, tx)
	ls.log(ctx, t.root)
	newRoot, added, err := t.insert(ctx, ls, t.p.ReadPtr(ctx, t.root, 0), key, v)
	if err != nil {
		tx.Abort(ctx)
		t.p.Free(ctx, v)
		return err
	}
	t.p.WritePtr(ctx, t.root, 0, newRoot)
	tx.Commit(ctx)
	if added {
		t.count++
	}
	return nil
}

func (t *AVL) insert(ctx *sim.Ctx, ls *logset, n pmop.Ptr, key uint64, v pmop.Ptr) (pmop.Ptr, bool, error) {
	p := t.p
	if n.IsNull() {
		nn, err := p.Alloc(ctx, t.nodeT, 0)
		if err != nil {
			return pmop.Null, false, err
		}
		ls.tx.AddObject(ctx, nn)
		p.WriteU64(ctx, nn, avKey, key)
		p.WritePtr(ctx, nn, avVal, v)
		p.WriteU64(ctx, nn, avHeight, 1)
		return nn, true, nil
	}
	k := p.ReadU64(ctx, n, avKey)
	switch {
	case key == k:
		old := p.ReadPtr(ctx, n, avVal)
		ls.log(ctx, n)
		p.WritePtr(ctx, n, avVal, v)
		if !old.IsNull() {
			p.Free(ctx, old)
		}
		return n, false, nil
	case key < k:
		child, added, err := t.insert(ctx, ls, p.ReadPtr(ctx, n, avLeft), key, v)
		if err != nil {
			return pmop.Null, false, err
		}
		ls.log(ctx, n)
		p.WritePtr(ctx, n, avLeft, child)
		return t.rebalance(ctx, ls, n), added, nil
	default:
		child, added, err := t.insert(ctx, ls, p.ReadPtr(ctx, n, avRight), key, v)
		if err != nil {
			return pmop.Null, false, err
		}
		ls.log(ctx, n)
		p.WritePtr(ctx, n, avRight, child)
		return t.rebalance(ctx, ls, n), added, nil
	}
}

// Delete implements Store.
func (t *AVL) Delete(ctx *sim.Ctx, key uint64) (bool, error) {
	defer t.p.EndOp()
	tx := t.p.Begin(ctx)
	ls := t.ls.begin(t.p, tx)
	ls.log(ctx, t.root)
	newRoot, removedVal, removedNode, found := t.remove(ctx, ls, t.p.ReadPtr(ctx, t.root, 0), key)
	if !found {
		tx.Abort(ctx)
		return false, nil
	}
	t.p.WritePtr(ctx, t.root, 0, newRoot)
	tx.Commit(ctx)
	if !removedVal.IsNull() {
		t.p.Free(ctx, removedVal)
	}
	t.p.Free(ctx, removedNode)
	t.count--
	return true, nil
}

// remove deletes key from the subtree at n, returning the new subtree root,
// the removed node's value and node pointers, and whether the key was found.
func (t *AVL) remove(ctx *sim.Ctx, ls *logset, n pmop.Ptr, key uint64) (pmop.Ptr, pmop.Ptr, pmop.Ptr, bool) {
	p := t.p
	if n.IsNull() {
		return pmop.Null, pmop.Null, pmop.Null, false
	}
	k := p.ReadU64(ctx, n, avKey)
	switch {
	case key < k:
		child, rv, rn, found := t.remove(ctx, ls, p.ReadPtr(ctx, n, avLeft), key)
		if !found {
			return n, pmop.Null, pmop.Null, false
		}
		ls.log(ctx, n)
		p.WritePtr(ctx, n, avLeft, child)
		return t.rebalance(ctx, ls, n), rv, rn, true
	case key > k:
		child, rv, rn, found := t.remove(ctx, ls, p.ReadPtr(ctx, n, avRight), key)
		if !found {
			return n, pmop.Null, pmop.Null, false
		}
		ls.log(ctx, n)
		p.WritePtr(ctx, n, avRight, child)
		return t.rebalance(ctx, ls, n), rv, rn, true
	}
	// Found. The node's value is freed by the caller after commit.
	val := p.ReadPtr(ctx, n, avVal)
	left := p.ReadPtr(ctx, n, avLeft)
	right := p.ReadPtr(ctx, n, avRight)
	if left.IsNull() || right.IsNull() {
		child := left
		if child.IsNull() {
			child = right
		}
		return child, val, n, true
	}
	// Two children: replace with in-order successor's key/value, then delete
	// the successor node.
	succ := right
	for {
		l := p.ReadPtr(ctx, succ, avLeft)
		if l.IsNull() {
			break
		}
		succ = l
	}
	sk := p.ReadU64(ctx, succ, avKey)
	sv := p.ReadPtr(ctx, succ, avVal)
	ls.log(ctx, n)
	ls.log(ctx, succ)
	// Detach the successor's value so removing it doesn't free sv.
	p.WritePtr(ctx, succ, avVal, pmop.Null)
	newRight, _, rn, _ := t.remove(ctx, ls, right, sk)
	p.WriteU64(ctx, n, avKey, sk)
	p.WritePtr(ctx, n, avVal, sv)
	p.WritePtr(ctx, n, avRight, newRight)
	return t.rebalance(ctx, ls, n), val, rn, true
}

// Get implements Store.
func (t *AVL) Get(ctx *sim.Ctx, key uint64) ([]byte, bool) { return t.GetInto(ctx, key, nil) }

// GetInto is Get into buf's storage (readValueInto); a miss returns (buf, false).
func (t *AVL) GetInto(ctx *sim.Ctx, key uint64, buf []byte) ([]byte, bool) {
	defer t.p.EndOp()
	p := t.p
	n := p.ReadPtr(ctx, t.root, 0)
	for !n.IsNull() {
		k := p.ReadU64(ctx, n, avKey)
		switch {
		case key == k:
			v := p.ReadPtr(ctx, n, avVal)
			if v.IsNull() {
				return buf, false
			}
			return readValueInto(ctx, p, v, buf), true
		case key < k:
			n = p.ReadPtr(ctx, n, avLeft)
		default:
			n = p.ReadPtr(ctx, n, avRight)
		}
	}
	return buf, false
}

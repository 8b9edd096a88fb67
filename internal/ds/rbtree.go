package ds

import (
	"fmt"

	"ffccd/internal/pmop"
	"ffccd/internal/sim"
)

// RBTree is the RBT microbenchmark: a persistent left-leaning red-black
// tree (Sedgewick's LLRB, which keeps the delete rebalancing tractable).
type RBTree struct {
	p     *pmop.Pool
	nodeT pmop.TypeID
	root  pmop.Ptr // holder: root node @0
	count int
	ls    logset
}

// RB node field offsets.
const (
	rbKey   = 0
	rbVal   = 8
	rbLeft  = 16
	rbRight = 24
	rbColor = 32 // 1 = red, 0 = black
)

// NewRBTree creates or reopens the tree.
func NewRBTree(ctx *sim.Ctx, p *pmop.Pool) (*RBTree, error) {
	holderT, _ := p.Types().LookupName(typeListRoot)
	nodeT, _ := p.Types().LookupName(typeRBNode)
	t := &RBTree{p: p, nodeT: nodeT.ID}
	p.RegisterRemapHook(func(remap func(pmop.Ptr) pmop.Ptr) { t.root = remap(t.root) })
	if r := p.Root(ctx); !r.IsNull() {
		t.root = r
		n, err := t.countFrom(ctx, p.ReadPtr(ctx, r, 0))
		if err != nil {
			return nil, err
		}
		t.count = n
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

// countFrom counts the nodes of the subtree at n, preorder: it reads a node's
// left pointer, walks the left subtree, then reads the right pointer. A
// reopened tree is recovered media, so its links may form a cycle: the walk
// keeps its own stack and stops with an error once it has counted more nodes
// than the heap holds objects.
func (t *RBTree) countFrom(ctx *sim.Ctx, n pmop.Ptr) (int, error) {
	limit := t.p.Heap().Objects()
	var buf [64]pmop.Ptr
	stack := buf[:0] // nodes whose right pointer is still to be read
	count := 0
	for {
		for ; !n.IsNull(); n = t.p.ReadPtr(ctx, n, rbLeft) {
			if count++; count > limit {
				return 0, fmt.Errorf("ds: RBT reopen: more than %d nodes reachable from the root (the heap's object count): its links do not form a tree", limit)
			}
			stack = append(stack, n)
		}
		if len(stack) == 0 {
			return count, nil
		}
		n = t.p.ReadPtr(ctx, stack[len(stack)-1], rbRight)
		stack = stack[:len(stack)-1]
	}
}

// Name implements Store.
func (t *RBTree) Name() string { return "RBT" }

// Len implements Store.
func (t *RBTree) Len() int { return t.count }

func (t *RBTree) isRed(ctx *sim.Ctx, n pmop.Ptr) bool {
	return !n.IsNull() && t.p.ReadU64(ctx, n, rbColor) == 1
}

func (t *RBTree) setColor(ctx *sim.Ctx, ls *logset, n pmop.Ptr, red bool) {
	ls.log(ctx, n)
	c := uint64(0)
	if red {
		c = 1
	}
	t.p.WriteU64(ctx, n, rbColor, c)
}

func (t *RBTree) rotL(ctx *sim.Ctx, ls *logset, h pmop.Ptr) pmop.Ptr {
	p := t.p
	x := p.ReadPtr(ctx, h, rbRight)
	ls.log(ctx, h)
	ls.log(ctx, x)
	p.WritePtr(ctx, h, rbRight, p.ReadPtr(ctx, x, rbLeft))
	p.WritePtr(ctx, x, rbLeft, h)
	p.WriteU64(ctx, x, rbColor, p.ReadU64(ctx, h, rbColor))
	p.WriteU64(ctx, h, rbColor, 1)
	return x
}

func (t *RBTree) rotR(ctx *sim.Ctx, ls *logset, h pmop.Ptr) pmop.Ptr {
	p := t.p
	x := p.ReadPtr(ctx, h, rbLeft)
	ls.log(ctx, h)
	ls.log(ctx, x)
	p.WritePtr(ctx, h, rbLeft, p.ReadPtr(ctx, x, rbRight))
	p.WritePtr(ctx, x, rbRight, h)
	p.WriteU64(ctx, x, rbColor, p.ReadU64(ctx, h, rbColor))
	p.WriteU64(ctx, h, rbColor, 1)
	return x
}

func (t *RBTree) flip(ctx *sim.Ctx, ls *logset, h pmop.Ptr) {
	p := t.p
	ls.log(ctx, h)
	l, r := p.ReadPtr(ctx, h, rbLeft), p.ReadPtr(ctx, h, rbRight)
	p.WriteU64(ctx, h, rbColor, 1^p.ReadU64(ctx, h, rbColor))
	if !l.IsNull() {
		ls.log(ctx, l)
		p.WriteU64(ctx, l, rbColor, 1^p.ReadU64(ctx, l, rbColor))
	}
	if !r.IsNull() {
		ls.log(ctx, r)
		p.WriteU64(ctx, r, rbColor, 1^p.ReadU64(ctx, r, rbColor))
	}
}

func (t *RBTree) fixUp(ctx *sim.Ctx, ls *logset, h pmop.Ptr) pmop.Ptr {
	p := t.p
	if t.isRed(ctx, p.ReadPtr(ctx, h, rbRight)) && !t.isRed(ctx, p.ReadPtr(ctx, h, rbLeft)) {
		h = t.rotL(ctx, ls, h)
	}
	l := p.ReadPtr(ctx, h, rbLeft)
	if t.isRed(ctx, l) && !l.IsNull() && t.isRed(ctx, p.ReadPtr(ctx, l, rbLeft)) {
		h = t.rotR(ctx, ls, h)
	}
	if t.isRed(ctx, p.ReadPtr(ctx, h, rbLeft)) && t.isRed(ctx, p.ReadPtr(ctx, h, rbRight)) {
		t.flip(ctx, ls, h)
	}
	return h
}

// Insert implements Store.
func (t *RBTree) Insert(ctx *sim.Ctx, key uint64, val []byte) error {
	defer t.p.EndOp()
	v, err := allocValue(ctx, t.p, val)
	if err != nil {
		return err
	}
	tx := t.p.Begin(ctx)
	ls := t.ls.begin(t.p, tx)
	ls.log(ctx, t.root)
	nr, added, err := t.insert(ctx, ls, t.p.ReadPtr(ctx, t.root, 0), key, v)
	if err != nil {
		tx.Abort(ctx)
		t.p.Free(ctx, v)
		return err
	}
	t.setColor(ctx, ls, nr, false)
	t.p.WritePtr(ctx, t.root, 0, nr)
	tx.Commit(ctx)
	if added {
		t.count++
	}
	return nil
}

func (t *RBTree) insert(ctx *sim.Ctx, ls *logset, h pmop.Ptr, key uint64, v pmop.Ptr) (pmop.Ptr, bool, error) {
	p := t.p
	if h.IsNull() {
		n, err := p.Alloc(ctx, t.nodeT, 0)
		if err != nil {
			return pmop.Null, false, err
		}
		ls.tx.AddObject(ctx, n)
		p.WriteU64(ctx, n, rbKey, key)
		p.WritePtr(ctx, n, rbVal, v)
		p.WriteU64(ctx, n, rbColor, 1)
		return n, true, nil
	}
	k := p.ReadU64(ctx, h, rbKey)
	var added bool
	var err error
	switch {
	case key == k:
		old := p.ReadPtr(ctx, h, rbVal)
		ls.log(ctx, h)
		p.WritePtr(ctx, h, rbVal, v)
		if !old.IsNull() {
			p.Free(ctx, old)
		}
	case key < k:
		var child pmop.Ptr
		child, added, err = t.insert(ctx, ls, p.ReadPtr(ctx, h, rbLeft), key, v)
		if err != nil {
			return pmop.Null, false, err
		}
		ls.log(ctx, h)
		p.WritePtr(ctx, h, rbLeft, child)
	default:
		var child pmop.Ptr
		child, added, err = t.insert(ctx, ls, p.ReadPtr(ctx, h, rbRight), key, v)
		if err != nil {
			return pmop.Null, false, err
		}
		ls.log(ctx, h)
		p.WritePtr(ctx, h, rbRight, child)
	}
	return t.fixUp(ctx, ls, h), added, nil
}

func (t *RBTree) moveRedLeft(ctx *sim.Ctx, ls *logset, h pmop.Ptr) pmop.Ptr {
	p := t.p
	t.flip(ctx, ls, h)
	r := p.ReadPtr(ctx, h, rbRight)
	if !r.IsNull() && t.isRed(ctx, p.ReadPtr(ctx, r, rbLeft)) {
		ls.log(ctx, h)
		p.WritePtr(ctx, h, rbRight, t.rotR(ctx, ls, r))
		h = t.rotL(ctx, ls, h)
		t.flip(ctx, ls, h)
	}
	return h
}

func (t *RBTree) moveRedRight(ctx *sim.Ctx, ls *logset, h pmop.Ptr) pmop.Ptr {
	p := t.p
	t.flip(ctx, ls, h)
	l := p.ReadPtr(ctx, h, rbLeft)
	if !l.IsNull() && t.isRed(ctx, p.ReadPtr(ctx, l, rbLeft)) {
		h = t.rotR(ctx, ls, h)
		t.flip(ctx, ls, h)
	}
	return h
}

// Delete implements Store.
func (t *RBTree) Delete(ctx *sim.Ctx, key uint64) (bool, error) {
	defer t.p.EndOp()
	if _, ok := t.get(ctx, key); !ok {
		return false, nil
	}
	tx := t.p.Begin(ctx)
	ls := t.ls.begin(t.p, tx)
	ls.log(ctx, t.root)
	var freedVal, freedNode pmop.Ptr
	nr := t.remove(ctx, ls, t.p.ReadPtr(ctx, t.root, 0), key, &freedVal, &freedNode)
	if !nr.IsNull() {
		t.setColor(ctx, ls, nr, false)
	}
	t.p.WritePtr(ctx, t.root, 0, nr)
	tx.Commit(ctx)
	if !freedVal.IsNull() {
		t.p.Free(ctx, freedVal)
	}
	if !freedNode.IsNull() {
		t.p.Free(ctx, freedNode)
	}
	t.count--
	return true, nil
}

func (t *RBTree) minNode(ctx *sim.Ctx, h pmop.Ptr) pmop.Ptr {
	p := t.p
	for {
		l := p.ReadPtr(ctx, h, rbLeft)
		if l.IsNull() {
			return h
		}
		h = l
	}
}

func (t *RBTree) remove(ctx *sim.Ctx, ls *logset, h pmop.Ptr, key uint64, freedVal, freedNode *pmop.Ptr) pmop.Ptr {
	p := t.p
	if key < p.ReadU64(ctx, h, rbKey) {
		l := p.ReadPtr(ctx, h, rbLeft)
		if !t.isRed(ctx, l) && !l.IsNull() && !t.isRed(ctx, p.ReadPtr(ctx, l, rbLeft)) {
			h = t.moveRedLeft(ctx, ls, h)
		}
		ls.log(ctx, h)
		p.WritePtr(ctx, h, rbLeft, t.remove(ctx, ls, p.ReadPtr(ctx, h, rbLeft), key, freedVal, freedNode))
	} else {
		if t.isRed(ctx, p.ReadPtr(ctx, h, rbLeft)) {
			h = t.rotR(ctx, ls, h)
		}
		if key == p.ReadU64(ctx, h, rbKey) && p.ReadPtr(ctx, h, rbRight).IsNull() {
			*freedVal = p.ReadPtr(ctx, h, rbVal)
			*freedNode = p.Resolve(ctx, h)
			return pmop.Null
		}
		r := p.ReadPtr(ctx, h, rbRight)
		if !t.isRed(ctx, r) && !r.IsNull() && !t.isRed(ctx, p.ReadPtr(ctx, r, rbLeft)) {
			h = t.moveRedRight(ctx, ls, h)
		}
		if key == p.ReadU64(ctx, h, rbKey) {
			// Replace with the successor's key/value, then remove it.
			succ := t.minNode(ctx, p.ReadPtr(ctx, h, rbRight))
			sk := p.ReadU64(ctx, succ, rbKey)
			sv := p.ReadPtr(ctx, succ, rbVal)
			*freedVal = p.ReadPtr(ctx, h, rbVal)
			ls.log(ctx, h)
			ls.log(ctx, succ)
			p.WritePtr(ctx, succ, rbVal, pmop.Null)
			p.WriteU64(ctx, h, rbKey, sk)
			p.WritePtr(ctx, h, rbVal, sv)
			var dummyVal pmop.Ptr
			p.WritePtr(ctx, h, rbRight, t.removeMin(ctx, ls, p.ReadPtr(ctx, h, rbRight), &dummyVal, freedNode))
		} else {
			ls.log(ctx, h)
			p.WritePtr(ctx, h, rbRight, t.remove(ctx, ls, p.ReadPtr(ctx, h, rbRight), key, freedVal, freedNode))
		}
	}
	return t.fixUp(ctx, ls, h)
}

func (t *RBTree) removeMin(ctx *sim.Ctx, ls *logset, h pmop.Ptr, freedVal, freedNode *pmop.Ptr) pmop.Ptr {
	p := t.p
	if p.ReadPtr(ctx, h, rbLeft).IsNull() {
		*freedVal = p.ReadPtr(ctx, h, rbVal)
		*freedNode = p.Resolve(ctx, h)
		return pmop.Null
	}
	l := p.ReadPtr(ctx, h, rbLeft)
	if !t.isRed(ctx, l) && !t.isRed(ctx, p.ReadPtr(ctx, l, rbLeft)) {
		h = t.moveRedLeft(ctx, ls, h)
	}
	ls.log(ctx, h)
	p.WritePtr(ctx, h, rbLeft, t.removeMin(ctx, ls, p.ReadPtr(ctx, h, rbLeft), freedVal, freedNode))
	return t.fixUp(ctx, ls, h)
}

func (t *RBTree) get(ctx *sim.Ctx, key uint64) (pmop.Ptr, bool) {
	p := t.p
	n := p.ReadPtr(ctx, t.root, 0)
	for !n.IsNull() {
		k := p.ReadU64(ctx, n, rbKey)
		switch {
		case key == k:
			return p.ReadPtr(ctx, n, rbVal), true
		case key < k:
			n = p.ReadPtr(ctx, n, rbLeft)
		default:
			n = p.ReadPtr(ctx, n, rbRight)
		}
	}
	return pmop.Null, false
}

// Get implements Store.
func (t *RBTree) Get(ctx *sim.Ctx, key uint64) ([]byte, bool) { return t.GetInto(ctx, key, nil) }

// GetInto is Get into buf's storage (readValueInto); a miss returns (buf, false).
func (t *RBTree) GetInto(ctx *sim.Ctx, key uint64, buf []byte) ([]byte, bool) {
	defer t.p.EndOp()
	v, ok := t.get(ctx, key)
	if !ok || v.IsNull() {
		return buf, false
	}
	return readValueInto(ctx, t.p, v, buf), true
}

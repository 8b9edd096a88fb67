package ds

import (
	"ffccd/internal/pmop"
	"ffccd/internal/sim"
)

// BPTree is the BT microbenchmark: a persistent B+tree of order 4 ("one node
// can store 4 values", §7.2). Deletion is lazy — keys are removed from
// leaves without rebalancing and empty nodes are unlinked — which produces
// the internal fragmentation the paper observes for BT.
type BPTree struct {
	p     *pmop.Pool
	nodeT pmop.TypeID
	root  pmop.Ptr // holder: root node @0
	count int
	ls    logset
}

// B+tree node layout (order 4): nkeys u64 @0, leaf u64 @8, keys [4]u64 @16,
// slots [5]Ptr @48 (children for internal nodes; value pointers for leaves,
// slot 4 unused). There is deliberately no leaf chain — see RegisterTypes.
const (
	btNKeys = 0
	btLeaf  = 8
	btKeys  = 16
	btSlots = 48
	btOrder = 4
)

func btKeyOff(i int) uint64  { return btKeys + uint64(i)*8 }
func btSlotOff(i int) uint64 { return btSlots + uint64(i)*8 }

// NewBPTree creates or reopens the tree.
func NewBPTree(ctx *sim.Ctx, p *pmop.Pool) (*BPTree, error) {
	holderT, _ := p.Types().LookupName(typeListRoot)
	nodeT, _ := p.Types().LookupName(typeBTNode)
	t := &BPTree{p: p, nodeT: nodeT.ID}
	p.RegisterRemapHook(func(remap func(pmop.Ptr) pmop.Ptr) { t.root = remap(t.root) })
	if r := p.Root(ctx); !r.IsNull() {
		t.root = r
		t.count = t.countKeys(ctx, p.ReadPtr(ctx, r, 0))
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

func (t *BPTree) countKeys(ctx *sim.Ctx, n pmop.Ptr) int {
	if n.IsNull() {
		return 0
	}
	p := t.p
	nk := int(p.ReadU64(ctx, n, btNKeys))
	if p.ReadU64(ctx, n, btLeaf) == 1 {
		return nk
	}
	total := 0
	for i := 0; i <= nk; i++ {
		total += t.countKeys(ctx, p.ReadPtr(ctx, n, btSlotOff(i)))
	}
	return total
}

// Name implements Store.
func (t *BPTree) Name() string { return "BT" }

// Len implements Store.
func (t *BPTree) Len() int { return t.count }

func (t *BPTree) newNode(ctx *sim.Ctx, ls *logset, leaf bool) (pmop.Ptr, error) {
	n, err := t.p.Alloc(ctx, t.nodeT, 0)
	if err != nil {
		return pmop.Null, err
	}
	ls.tx.AddObject(ctx, n)
	if leaf {
		t.p.WriteU64(ctx, n, btLeaf, 1)
	}
	return n, nil
}

// findLeaf descends to the leaf that should hold key.
func (t *BPTree) findLeaf(ctx *sim.Ctx, key uint64) pmop.Ptr {
	p := t.p
	n := p.ReadPtr(ctx, t.root, 0)
	for !n.IsNull() && p.ReadU64(ctx, n, btLeaf) == 0 {
		nk := int(p.ReadU64(ctx, n, btNKeys))
		i := 0
		for i < nk && key >= p.ReadU64(ctx, n, btKeyOff(i)) {
			i++
		}
		n = p.ReadPtr(ctx, n, btSlotOff(i))
	}
	return n
}

// Insert implements Store.
func (t *BPTree) Insert(ctx *sim.Ctx, key uint64, val []byte) error {
	defer t.p.EndOp()
	v, err := allocValue(ctx, t.p, val)
	if err != nil {
		return err
	}
	p := t.p
	tx := p.Begin(ctx)
	ls := t.ls.begin(p, tx)
	ls.log(ctx, t.root)

	rootNode := p.ReadPtr(ctx, t.root, 0)
	if rootNode.IsNull() {
		leaf, err := t.newNode(ctx, ls, true)
		if err != nil {
			tx.Abort(ctx)
			p.Free(ctx, v)
			return err
		}
		p.WriteU64(ctx, leaf, btNKeys, 1)
		p.WriteU64(ctx, leaf, btKeyOff(0), key)
		p.WritePtr(ctx, leaf, btSlotOff(0), v)
		p.WritePtr(ctx, t.root, 0, leaf)
		tx.Commit(ctx)
		t.count++
		return nil
	}

	midKey, sibling, added, err := t.insert(ctx, ls, rootNode, key, v)
	if err != nil {
		tx.Abort(ctx)
		p.Free(ctx, v)
		return err
	}
	if !sibling.IsNull() {
		// Root split: new internal root.
		nr, err := t.newNode(ctx, ls, false)
		if err != nil {
			tx.Abort(ctx)
			return err
		}
		p.WriteU64(ctx, nr, btNKeys, 1)
		p.WriteU64(ctx, nr, btKeyOff(0), midKey)
		p.WritePtr(ctx, nr, btSlotOff(0), rootNode)
		p.WritePtr(ctx, nr, btSlotOff(1), sibling)
		p.WritePtr(ctx, t.root, 0, nr)
	}
	tx.Commit(ctx)
	if added {
		t.count++
	}
	return nil
}

// insert adds (key, v) under n. On split it returns the separator key and
// the new right sibling.
func (t *BPTree) insert(ctx *sim.Ctx, ls *logset, n pmop.Ptr, key uint64, v pmop.Ptr) (uint64, pmop.Ptr, bool, error) {
	p := t.p
	nk := int(p.ReadU64(ctx, n, btNKeys))
	if p.ReadU64(ctx, n, btLeaf) == 1 {
		// Overwrite?
		for i := 0; i < nk; i++ {
			if p.ReadU64(ctx, n, btKeyOff(i)) == key {
				old := p.ReadPtr(ctx, n, btSlotOff(i))
				ls.log(ctx, n)
				p.WritePtr(ctx, n, btSlotOff(i), v)
				if !old.IsNull() {
					p.Free(ctx, old)
				}
				return 0, pmop.Null, false, nil
			}
		}
		if nk < btOrder {
			t.leafInsertAt(ctx, ls, n, nk, key, v)
			return 0, pmop.Null, true, nil
		}
		// Split the leaf: keep 2, move 2 to a new sibling, then insert.
		sib, err := t.newNode(ctx, ls, true)
		if err != nil {
			return 0, pmop.Null, false, err
		}
		ls.log(ctx, n)
		for i := 0; i < 2; i++ {
			p.WriteU64(ctx, sib, btKeyOff(i), p.ReadU64(ctx, n, btKeyOff(i+2)))
			p.WritePtr(ctx, sib, btSlotOff(i), p.ReadPtr(ctx, n, btSlotOff(i+2)))
		}
		p.WriteU64(ctx, sib, btNKeys, 2)
		p.WriteU64(ctx, n, btNKeys, 2)
		// Null the vacated slots: reachability reads every pointer offset of
		// the node type, so dead slots must not hold stale pointers.
		p.WritePtr(ctx, n, btSlotOff(2), pmop.Null)
		p.WritePtr(ctx, n, btSlotOff(3), pmop.Null)
		sepKey := p.ReadU64(ctx, sib, btKeyOff(0))
		if key < sepKey {
			t.leafInsertAt(ctx, ls, n, 2, key, v)
		} else {
			t.leafInsertAt(ctx, ls, sib, 2, key, v)
		}
		return sepKey, sib, true, nil
	}

	// Internal node: descend.
	i := 0
	for i < nk && key >= p.ReadU64(ctx, n, btKeyOff(i)) {
		i++
	}
	child := p.ReadPtr(ctx, n, btSlotOff(i))
	midKey, sib, added, err := t.insert(ctx, ls, child, key, v)
	if err != nil || sib.IsNull() {
		return 0, pmop.Null, added, err
	}
	if nk < btOrder {
		ls.log(ctx, n)
		for j := nk; j > i; j-- {
			p.WriteU64(ctx, n, btKeyOff(j), p.ReadU64(ctx, n, btKeyOff(j-1)))
			p.WritePtr(ctx, n, btSlotOff(j+1), p.ReadPtr(ctx, n, btSlotOff(j)))
		}
		p.WriteU64(ctx, n, btKeyOff(i), midKey)
		p.WritePtr(ctx, n, btSlotOff(i+1), sib)
		p.WriteU64(ctx, n, btNKeys, uint64(nk+1))
		return 0, pmop.Null, added, nil
	}
	// Split the internal node. Gather the 5 keys / 6 children including the
	// new separator, keep 2 keys left, promote 1, put 2 right.
	var keys [btOrder + 1]uint64
	var kids [btOrder + 2]pmop.Ptr
	for j := 0; j < nk; j++ {
		keys[j] = p.ReadU64(ctx, n, btKeyOff(j))
	}
	for j := 0; j <= nk; j++ {
		kids[j] = p.ReadPtr(ctx, n, btSlotOff(j))
	}
	copy(keys[i+1:], keys[i:nk])
	keys[i] = midKey
	copy(kids[i+2:], kids[i+1:nk+1])
	kids[i+1] = sib

	nsib, err := t.newNode(ctx, ls, false)
	if err != nil {
		return 0, pmop.Null, false, err
	}
	ls.log(ctx, n)
	promote := keys[2]
	p.WriteU64(ctx, n, btNKeys, 2)
	for j := 0; j < 2; j++ {
		p.WriteU64(ctx, n, btKeyOff(j), keys[j])
	}
	for j := 0; j < 3; j++ {
		p.WritePtr(ctx, n, btSlotOff(j), kids[j])
	}
	p.WritePtr(ctx, n, btSlotOff(3), pmop.Null)
	p.WritePtr(ctx, n, btSlotOff(4), pmop.Null)
	p.WriteU64(ctx, nsib, btNKeys, 2)
	for j := 0; j < 2; j++ {
		p.WriteU64(ctx, nsib, btKeyOff(j), keys[j+3])
	}
	for j := 0; j < 3; j++ {
		p.WritePtr(ctx, nsib, btSlotOff(j), kids[j+3])
	}
	return promote, nsib, added, nil
}

func (t *BPTree) leafInsertAt(ctx *sim.Ctx, ls *logset, n pmop.Ptr, nk int, key uint64, v pmop.Ptr) {
	p := t.p
	ls.log(ctx, n)
	i := 0
	for i < nk && p.ReadU64(ctx, n, btKeyOff(i)) < key {
		i++
	}
	for j := nk; j > i; j-- {
		p.WriteU64(ctx, n, btKeyOff(j), p.ReadU64(ctx, n, btKeyOff(j-1)))
		p.WritePtr(ctx, n, btSlotOff(j), p.ReadPtr(ctx, n, btSlotOff(j-1)))
	}
	p.WriteU64(ctx, n, btKeyOff(i), key)
	p.WritePtr(ctx, n, btSlotOff(i), v)
	p.WriteU64(ctx, n, btNKeys, uint64(nk+1))
}

// Delete implements Store (lazy: no rebalancing; empty subtrees unlinked).
func (t *BPTree) Delete(ctx *sim.Ctx, key uint64) (bool, error) {
	defer t.p.EndOp()
	p := t.p
	tx := p.Begin(ctx)
	ls := t.ls.begin(p, tx)
	rootNode := p.ReadPtr(ctx, t.root, 0)
	if rootNode.IsNull() {
		tx.Abort(ctx)
		return false, nil
	}
	var freedVal pmop.Ptr
	var freed []pmop.Ptr
	emptied, found := t.remove(ctx, ls, rootNode, key, &freedVal, &freed)
	if !found {
		tx.Abort(ctx)
		return false, nil
	}
	if emptied {
		ls.log(ctx, t.root)
		p.WritePtr(ctx, t.root, 0, pmop.Null)
		freed = append(freed, rootNode)
	}
	tx.Commit(ctx)
	if !freedVal.IsNull() {
		p.Free(ctx, freedVal)
	}
	for _, n := range freed {
		p.Free(ctx, n)
	}
	t.count--
	return true, nil
}

// remove deletes key under n; reports whether n became empty.
func (t *BPTree) remove(ctx *sim.Ctx, ls *logset, n pmop.Ptr, key uint64, freedVal *pmop.Ptr, freed *[]pmop.Ptr) (bool, bool) {
	p := t.p
	nk := int(p.ReadU64(ctx, n, btNKeys))
	if p.ReadU64(ctx, n, btLeaf) == 1 {
		for i := 0; i < nk; i++ {
			if p.ReadU64(ctx, n, btKeyOff(i)) == key {
				*freedVal = p.ReadPtr(ctx, n, btSlotOff(i))
				ls.log(ctx, n)
				for j := i; j < nk-1; j++ {
					p.WriteU64(ctx, n, btKeyOff(j), p.ReadU64(ctx, n, btKeyOff(j+1)))
					p.WritePtr(ctx, n, btSlotOff(j), p.ReadPtr(ctx, n, btSlotOff(j+1)))
				}
				p.WritePtr(ctx, n, btSlotOff(nk-1), pmop.Null)
				p.WriteU64(ctx, n, btNKeys, uint64(nk-1))
				return nk-1 == 0, true
			}
		}
		return false, false
	}
	i := 0
	for i < nk && key >= p.ReadU64(ctx, n, btKeyOff(i)) {
		i++
	}
	child := p.ReadPtr(ctx, n, btSlotOff(i))
	if child.IsNull() {
		return false, false
	}
	emptied, found := t.remove(ctx, ls, child, key, freedVal, freed)
	if !found {
		return false, false
	}
	if emptied {
		// Unlink the empty child.
		*freed = append(*freed, p.Resolve(ctx, child))
		ls.log(ctx, n)
		if i < nk {
			for j := i; j < nk-1; j++ {
				p.WriteU64(ctx, n, btKeyOff(j), p.ReadU64(ctx, n, btKeyOff(j+1)))
			}
			for j := i; j < nk; j++ {
				p.WritePtr(ctx, n, btSlotOff(j), p.ReadPtr(ctx, n, btSlotOff(j+1)))
			}
			// Clear the vacated last slot: a stale duplicate would dangle
			// once that subtree is freed.
			p.WritePtr(ctx, n, btSlotOff(nk), pmop.Null)
		} else {
			p.WritePtr(ctx, n, btSlotOff(nk), pmop.Null)
		}
		p.WriteU64(ctx, n, btNKeys, uint64(nk-1))
		return nk-1 < 0 || (nk-1 == 0 && p.ReadPtr(ctx, n, btSlotOff(0)).IsNull()), true
	}
	return false, true
}

// Get implements Store.
func (t *BPTree) Get(ctx *sim.Ctx, key uint64) ([]byte, bool) { return t.GetInto(ctx, key, nil) }

// GetInto is Get into buf's storage (readValueInto); a miss returns (buf, false).
func (t *BPTree) GetInto(ctx *sim.Ctx, key uint64, buf []byte) ([]byte, bool) {
	defer t.p.EndOp()
	p := t.p
	leaf := t.findLeaf(ctx, key)
	if leaf.IsNull() {
		return buf, false
	}
	nk := int(p.ReadU64(ctx, leaf, btNKeys))
	for i := 0; i < nk; i++ {
		if p.ReadU64(ctx, leaf, btKeyOff(i)) == key {
			v := p.ReadPtr(ctx, leaf, btSlotOff(i))
			if v.IsNull() {
				return buf, false
			}
			return readValueInto(ctx, p, v, buf), true
		}
	}
	return buf, false
}

package ds

import (
	"cmp"
	"slices"

	"ffccd/internal/pmop"
	"ffccd/internal/sim"
)

// BzTree is a persistent B-tree in the style of Arulraj et al. (VLDB'18):
// leaf nodes are append-only (inserts and deletes append records; a full
// leaf is consolidated or split into fresh nodes) and internal nodes are
// copy-on-write. Every entry carries a PMwCAS metadata word — the extra
// space the paper notes makes BzTree benefit less from defragmentation
// (§7.3). The original's lock-free PMwCAS protocol is not modelled: threads
// are interleaved one operation at a time on one goroutine. The allocation
// and layout behaviour, which is what defragmentation sees, is preserved.
type BzTree struct {
	p     *pmop.Pool
	nodeT pmop.TypeID
	root  pmop.Ptr // holder: root node @0
	count int
	// liveEntries' scratch, reused: the keys it has read and its result.
	// Each fork grows its own.
	seen []uint64
	live []bzKV
}

// BzTree node layout: count u64 @0, leaf u64 @8, status u64 @16 (PMwCAS
// status word), pad @24; then bzEntries entries of 24 bytes each:
// key u64, meta u64, ptr (value or child).
const (
	bzCount    = 0
	bzLeafF    = 8
	bzStatus   = 16
	bzEntry0   = 32
	bzEntries  = 16
	bzNodeSize = bzEntry0 + bzEntries*24

	bzMetaVisible   = 1 << 0
	bzMetaTombstone = 1 << 1
)

func bzNodePtrOffsets() []uint64 {
	offs := make([]uint64, bzEntries)
	for i := range offs {
		offs[i] = uint64(bzEntry0 + i*24 + 16)
	}
	return offs
}

func bzKeyOff(i int) uint64  { return uint64(bzEntry0 + i*24) }
func bzMetaOff(i int) uint64 { return uint64(bzEntry0 + i*24 + 8) }
func bzPtrOff(i int) uint64  { return uint64(bzEntry0 + i*24 + 16) }

// NewBzTree creates or reopens the tree.
func NewBzTree(ctx *sim.Ctx, p *pmop.Pool) (*BzTree, error) {
	holderT, _ := p.Types().LookupName(typeListRoot)
	nodeT, _ := p.Types().LookupName(typeBzNode)
	t := &BzTree{p: p, nodeT: nodeT.ID}
	p.RegisterRemapHook(func(remap func(pmop.Ptr) pmop.Ptr) { t.root = remap(t.root) })
	if r := p.Root(ctx); !r.IsNull() {
		t.root = r
		t.count = t.countLive(ctx, p.ReadPtr(ctx, r, 0))
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

type bzKV struct {
	key uint64
	val pmop.Ptr
}

// liveEntries resolves a leaf's append log: newest record per key wins,
// tombstones remove. The entries, ascending by key, stay valid until the
// next call.
func (t *BzTree) liveEntries(ctx *sim.Ctx, leaf pmop.Ptr) []bzKV {
	p := t.p
	n := int(p.ReadU64(ctx, leaf, bzCount))
	t.seen, t.live = t.seen[:0], t.live[:0]
	for i := n - 1; i >= 0; i-- {
		meta := p.ReadU64(ctx, leaf, bzMetaOff(i))
		if meta&bzMetaVisible == 0 {
			continue
		}
		k := p.ReadU64(ctx, leaf, bzKeyOff(i))
		if slices.Contains(t.seen, k) {
			continue
		}
		t.seen = append(t.seen, k)
		if meta&bzMetaTombstone == 0 {
			t.live = append(t.live, bzKV{k, p.ReadPtr(ctx, leaf, bzPtrOff(i))})
		}
	}
	slices.SortFunc(t.live, func(a, b bzKV) int { return cmp.Compare(a.key, b.key) })
	return t.live
}

// countLive counts the live entries of the subtree at n.
func (t *BzTree) countLive(ctx *sim.Ctx, n pmop.Ptr) int {
	if n.IsNull() {
		return 0
	}
	p := t.p
	if p.ReadU64(ctx, n, bzLeafF) == 1 {
		return len(t.liveEntries(ctx, n))
	}
	live := 0
	cnt := int(p.ReadU64(ctx, n, bzCount))
	for i := 0; i < cnt; i++ {
		live += t.countLive(ctx, p.ReadPtr(ctx, n, bzPtrOff(i)))
	}
	return live
}

// Name implements Store.
func (t *BzTree) Name() string { return "BzTree" }

// Len implements Store.
func (t *BzTree) Len() int { return t.count }

// findLeafPath descends to the leaf for key, recording the internal path.
func (t *BzTree) findLeafPath(ctx *sim.Ctx, key uint64) (pmop.Ptr, []pmop.Ptr, []int) {
	p := t.p
	var path []pmop.Ptr
	var idxs []int
	n := p.ReadPtr(ctx, t.root, 0)
	for !n.IsNull() && p.ReadU64(ctx, n, bzLeafF) == 0 {
		cnt := int(p.ReadU64(ctx, n, bzCount))
		i := 0
		// Internal entries hold separator keys ascending; the last entry is
		// a catch-all with key MaxUint64.
		for i < cnt-1 && key > p.ReadU64(ctx, n, bzKeyOff(i)) {
			i++
		}
		path = append(path, n)
		idxs = append(idxs, i)
		n = p.ReadPtr(ctx, n, bzPtrOff(i))
	}
	return n, path, idxs
}

// newLeaf allocates a leaf populated with kvs (pre-sorted).
func (t *BzTree) newLeaf(ctx *sim.Ctx, tx *pmop.Tx, kvs []bzKV) (pmop.Ptr, error) {
	p := t.p
	n, err := p.Alloc(ctx, t.nodeT, 0)
	if err != nil {
		return pmop.Null, err
	}
	tx.AddObject(ctx, n)
	p.WriteU64(ctx, n, bzLeafF, 1)
	p.WriteU64(ctx, n, bzCount, uint64(len(kvs)))
	p.WriteU64(ctx, n, bzStatus, 0)
	for i, kv := range kvs {
		p.WriteU64(ctx, n, bzKeyOff(i), kv.key)
		p.WriteU64(ctx, n, bzMetaOff(i), bzMetaVisible)
		p.WritePtr(ctx, n, bzPtrOff(i), kv.val)
	}
	return n, nil
}

type bzEnt struct {
	key  uint64
	meta uint64
	ptr  pmop.Ptr
}

// writeInternal allocates a fresh internal node holding ents.
func (t *BzTree) writeInternal(ctx *sim.Ctx, tx *pmop.Tx, ents []bzEnt) (pmop.Ptr, error) {
	p := t.p
	nn, err := p.Alloc(ctx, t.nodeT, 0)
	if err != nil {
		return pmop.Null, err
	}
	tx.AddObject(ctx, nn)
	p.WriteU64(ctx, nn, bzLeafF, 0)
	p.WriteU64(ctx, nn, bzStatus, 0)
	p.WriteU64(ctx, nn, bzCount, uint64(len(ents)))
	for i, e := range ents {
		p.WriteU64(ctx, nn, bzKeyOff(i), e.key)
		p.WriteU64(ctx, nn, bzMetaOff(i), e.meta)
		p.WritePtr(ctx, nn, bzPtrOff(i), e.ptr)
	}
	return nn, nil
}

// rebuildPath rebuilds the copy-on-write internal path after the leaf at the
// end of path was replaced by repl (and optionally a new sibling with
// separator sepKey). Internal nodes that overflow are split, propagating
// upward, with a new root created if needed. Returns nodes to free after
// commit.
func (t *BzTree) rebuildPath(ctx *sim.Ctx, tx *pmop.Tx, path []pmop.Ptr, idxs []int,
	repl pmop.Ptr, sepKey uint64, sibling pmop.Ptr) ([]pmop.Ptr, error) {

	p := t.p
	var freed []pmop.Ptr
	child, childSep, childSib := repl, sepKey, sibling
	for level := len(path) - 1; level >= 0; level-- {
		old := path[level]
		cnt := int(p.ReadU64(ctx, old, bzCount))
		i := idxs[level]

		ents := make([]bzEnt, 0, cnt+1)
		for j := 0; j < cnt; j++ {
			oldKey := p.ReadU64(ctx, old, bzKeyOff(j))
			if j == i {
				if !childSib.IsNull() {
					ents = append(ents,
						bzEnt{childSep, bzMetaVisible, child},
						bzEnt{oldKey, bzMetaVisible, childSib})
				} else {
					ents = append(ents, bzEnt{oldKey, bzMetaVisible, child})
				}
			} else {
				ents = append(ents, bzEnt{oldKey, p.ReadU64(ctx, old, bzMetaOff(j)),
					p.ReadPtr(ctx, old, bzPtrOff(j))})
			}
		}
		freed = append(freed, p.Resolve(ctx, old))
		if len(ents) <= bzEntries {
			nn, err := t.writeInternal(ctx, tx, ents)
			if err != nil {
				return nil, err
			}
			child, childSib = nn, pmop.Null
			continue
		}
		// Internal split.
		mid := len(ents) / 2
		left, err := t.writeInternal(ctx, tx, ents[:mid])
		if err != nil {
			return nil, err
		}
		right, err := t.writeInternal(ctx, tx, ents[mid:])
		if err != nil {
			return nil, err
		}
		child, childSep, childSib = left, ents[mid-1].key, right
	}
	if !childSib.IsNull() {
		// Root split: the sibling's subtree keeps the old catch-all key.
		nr, err := t.writeInternal(ctx, tx, []bzEnt{
			{childSep, bzMetaVisible, child},
			{^uint64(0), bzMetaVisible, childSib},
		})
		if err != nil {
			return nil, err
		}
		child = nr
	}
	tx.AddPtr(ctx, t.root, 0)
	p.WritePtr(ctx, t.root, 0, child)
	return freed, nil
}

// Insert implements Store.
func (t *BzTree) Insert(ctx *sim.Ctx, key uint64, val []byte) error {
	defer t.p.EndOp()
	p := t.p
	v, err := allocValue(ctx, p, val)
	if err != nil {
		return err
	}
	tx := p.Begin(ctx)
	leaf, path, idxs := t.findLeafPath(ctx, key)

	if leaf.IsNull() {
		nl, err := t.newLeaf(ctx, tx, []bzKV{{key, v}})
		if err != nil {
			tx.Abort(ctx)
			p.Free(ctx, v)
			return err
		}
		tx.AddPtr(ctx, t.root, 0)
		p.WritePtr(ctx, t.root, 0, nl)
		tx.Commit(ctx)
		t.count++
		return nil
	}

	cnt := int(p.ReadU64(ctx, leaf, bzCount))
	if cnt < bzEntries {
		// Append path: supersede any older live record for the key.
		replaced := t.supersede(ctx, tx, leaf, key, cnt)
		tx.AddRange(ctx, leaf, bzKeyOff(cnt), 24)
		p.WriteU64(ctx, leaf, bzKeyOff(cnt), key)
		p.WriteU64(ctx, leaf, bzMetaOff(cnt), bzMetaVisible)
		p.WritePtr(ctx, leaf, bzPtrOff(cnt), v)
		tx.AddRange(ctx, leaf, bzCount, 8)
		p.WriteU64(ctx, leaf, bzCount, uint64(cnt+1))
		// The status word churns on every PMwCAS-mediated append.
		tx.AddRange(ctx, leaf, bzStatus, 8)
		p.WriteU64(ctx, leaf, bzStatus, p.ReadU64(ctx, leaf, bzStatus)+1)
		tx.Commit(ctx)
		if !replaced {
			t.count++
		}
		return nil
	}

	// Full leaf: consolidate (and split if still large), copy-on-write up
	// the path.
	live := t.liveEntries(ctx, leaf)
	replaced := false
	merged := make([]bzKV, 0, len(live)+1)
	for _, kv := range live {
		if kv.key == key {
			replaced = true
			p.Free(ctx, kv.val)
			continue
		}
		merged = append(merged, kv)
	}
	merged = append(merged, bzKV{key, v})
	slices.SortFunc(merged, func(a, b bzKV) int { return cmp.Compare(a.key, b.key) })

	var repl, sib pmop.Ptr
	var sep uint64
	if len(merged) > bzEntries/2 {
		mid := len(merged) / 2
		repl, err = t.newLeaf(ctx, tx, merged[:mid])
		if err == nil {
			sib, err = t.newLeaf(ctx, tx, merged[mid:])
			sep = merged[mid-1].key
		}
	} else {
		repl, err = t.newLeaf(ctx, tx, merged)
	}
	if err != nil {
		tx.Abort(ctx)
		p.Free(ctx, v)
		return err
	}

	var freed []pmop.Ptr
	if len(path) == 0 {
		if sib.IsNull() {
			tx.AddPtr(ctx, t.root, 0)
			p.WritePtr(ctx, t.root, 0, repl)
		} else {
			// New internal root over the two leaves.
			nr, err := p.Alloc(ctx, t.nodeT, 0)
			if err != nil {
				tx.Abort(ctx)
				return err
			}
			tx.AddObject(ctx, nr)
			p.WriteU64(ctx, nr, bzLeafF, 0)
			p.WriteU64(ctx, nr, bzCount, 2)
			p.WriteU64(ctx, nr, bzKeyOff(0), sep)
			p.WriteU64(ctx, nr, bzMetaOff(0), bzMetaVisible)
			p.WritePtr(ctx, nr, bzPtrOff(0), repl)
			p.WriteU64(ctx, nr, bzKeyOff(1), ^uint64(0))
			p.WriteU64(ctx, nr, bzMetaOff(1), bzMetaVisible)
			p.WritePtr(ctx, nr, bzPtrOff(1), sib)
			tx.AddPtr(ctx, t.root, 0)
			p.WritePtr(ctx, t.root, 0, nr)
		}
	} else {
		freed, err = t.rebuildPath(ctx, tx, path, idxs, repl, sep, sib)
		if err != nil {
			tx.Abort(ctx)
			return err
		}
	}
	tx.Commit(ctx)
	p.Free(ctx, leaf)
	for _, f := range freed {
		p.Free(ctx, f)
	}
	if !replaced {
		t.count++
	}
	return nil
}

// supersede tombstones the newest live record for key in leaf (entries
// [0,cnt)) and frees its value. Reports whether a record was superseded.
func (t *BzTree) supersede(ctx *sim.Ctx, tx *pmop.Tx, leaf pmop.Ptr, key uint64, cnt int) bool {
	p := t.p
	for i := cnt - 1; i >= 0; i-- {
		meta := p.ReadU64(ctx, leaf, bzMetaOff(i))
		if meta&bzMetaVisible == 0 || p.ReadU64(ctx, leaf, bzKeyOff(i)) != key {
			continue
		}
		if meta&bzMetaTombstone != 0 {
			return false
		}
		old := p.ReadPtr(ctx, leaf, bzPtrOff(i))
		tx.AddRange(ctx, leaf, bzMetaOff(i), 8)
		tx.AddRange(ctx, leaf, bzPtrOff(i), 8)
		p.WriteU64(ctx, leaf, bzMetaOff(i), meta|bzMetaTombstone)
		// Null the pointer: dead slots must not dangle once the value's
		// memory is reused (reachability reads every pointer offset).
		p.WritePtr(ctx, leaf, bzPtrOff(i), pmop.Null)
		if !old.IsNull() {
			p.Free(ctx, old)
		}
		return true
	}
	return false
}

// Delete implements Store: append a tombstone record.
func (t *BzTree) Delete(ctx *sim.Ctx, key uint64) (bool, error) {
	defer t.p.EndOp()
	p := t.p
	leaf, _, _ := t.findLeafPath(ctx, key)
	if leaf.IsNull() {
		return false, nil
	}
	// Present?
	found := false
	for _, kv := range t.liveEntries(ctx, leaf) {
		if kv.key == key {
			found = true
			break
		}
	}
	if !found {
		return false, nil
	}
	tx := p.Begin(ctx)
	cnt := int(p.ReadU64(ctx, leaf, bzCount))
	if cnt < bzEntries {
		t.supersede(ctx, tx, leaf, key, cnt)
		tx.AddRange(ctx, leaf, bzKeyOff(cnt), 24)
		p.WriteU64(ctx, leaf, bzKeyOff(cnt), key)
		p.WriteU64(ctx, leaf, bzMetaOff(cnt), bzMetaVisible|bzMetaTombstone)
		p.WritePtr(ctx, leaf, bzPtrOff(cnt), pmop.Null)
		tx.AddRange(ctx, leaf, bzCount, 8)
		p.WriteU64(ctx, leaf, bzCount, uint64(cnt+1))
		tx.Commit(ctx)
	} else {
		// Full: consolidate without the key.
		live := t.liveEntries(ctx, leaf)
		kept := make([]bzKV, 0, len(live))
		for _, kv := range live {
			if kv.key == key {
				p.Free(ctx, kv.val)
				continue
			}
			kept = append(kept, kv)
		}
		repl, err := t.newLeaf(ctx, tx, kept)
		if err != nil {
			tx.Abort(ctx)
			return false, err
		}
		_, path, idxs := t.findLeafPath(ctx, key)
		var freed []pmop.Ptr
		if len(path) == 0 {
			tx.AddPtr(ctx, t.root, 0)
			p.WritePtr(ctx, t.root, 0, repl)
		} else {
			freed, err = t.rebuildPath(ctx, tx, path, idxs, repl, 0, pmop.Null)
			if err != nil {
				tx.Abort(ctx)
				return false, err
			}
		}
		tx.Commit(ctx)
		p.Free(ctx, leaf)
		for _, f := range freed {
			p.Free(ctx, f)
		}
	}
	t.count--
	return true, nil
}

// Get implements Store.
func (t *BzTree) Get(ctx *sim.Ctx, key uint64) ([]byte, bool) { return t.GetInto(ctx, key, nil) }

// GetInto is Get into buf's storage (readValueInto); a miss returns (buf, false).
func (t *BzTree) GetInto(ctx *sim.Ctx, key uint64, buf []byte) ([]byte, bool) {
	defer t.p.EndOp()
	p := t.p
	leaf, _, _ := t.findLeafPath(ctx, key)
	if leaf.IsNull() {
		return buf, false
	}
	n := int(p.ReadU64(ctx, leaf, bzCount))
	for i := n - 1; i >= 0; i-- {
		meta := p.ReadU64(ctx, leaf, bzMetaOff(i))
		if meta&bzMetaVisible == 0 || p.ReadU64(ctx, leaf, bzKeyOff(i)) != key {
			continue
		}
		if meta&bzMetaTombstone != 0 {
			return buf, false
		}
		return readValueInto(ctx, p, p.ReadPtr(ctx, leaf, bzPtrOff(i)), buf), true
	}
	return buf, false
}

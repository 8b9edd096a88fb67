package ds

import (
	"sort"

	"ffccd/internal/pmop"
	"ffccd/internal/sim"
)

// FPTree follows Oukid et al. (SIGMOD'16): a hybrid index whose inner nodes
// live in volatile memory (rebuilt on restart) and whose leaves live in PM.
// Each leaf carries a slot bitmap and one-byte fingerprints so lookups touch
// a single cacheline of hashes before the keys. The original's HTM-based
// concurrency is not modelled: threads are interleaved one operation at a
// time on one goroutine. The persistence layout is preserved.
type FPTree struct {
	p     *pmop.Pool
	leafT pmop.TypeID
	root  pmop.Ptr // holder: first leaf @0

	// Volatile inner index: leaves sorted by their minimum key.
	index []fpIdx
	count int
}

type fpIdx struct {
	min  uint64
	leaf pmop.Ptr
}

// FPTree leaf layout: bitmap u64 @0, next Ptr @8, fingerprints [16]u8 @16,
// keys [16]u64 @32, value ptrs [16]Ptr @160.
const (
	fpBitmap   = 0
	fpNext     = 8
	fpFPs      = 16
	fpKeys     = 32
	fpVals     = 160
	fpSlots    = 16
	fpLeafSize = fpVals + fpSlots*8 // 288
)

func fpLeafPtrOffsets() []uint64 {
	offs := []uint64{fpNext}
	for i := 0; i < fpSlots; i++ {
		offs = append(offs, fpVals+uint64(i)*8)
	}
	return offs
}

func fpKeyOff(i int) uint64 { return fpKeys + uint64(i)*8 }
func fpValOff(i int) uint64 { return fpVals + uint64(i)*8 }

// fingerprint hashes a key to one byte (never 0 so a zeroed slot can't
// accidentally match before the bitmap check).
func fingerprint(key uint64) byte {
	h := key * 0x9E3779B97F4A7C15
	b := byte(h >> 56)
	if b == 0 {
		b = 1
	}
	return b
}

// NewFPTree creates or reopens the tree.
func NewFPTree(ctx *sim.Ctx, p *pmop.Pool) (*FPTree, error) {
	holderT, _ := p.Types().LookupName(typeListRoot)
	leafT, _ := p.Types().LookupName(typeFPLeaf)
	t := &FPTree{p: p, leafT: leafT.ID}
	p.RegisterRemapHook(func(remap func(pmop.Ptr) pmop.Ptr) {
		t.root = remap(t.root)
		for i := range t.index {
			t.index[i].leaf = remap(t.index[i].leaf)
		}
	})
	if r := p.Root(ctx); !r.IsNull() {
		t.root = r
		t.rebuildIndex(ctx)
		return t, nil
	}
	r, err := p.Alloc(ctx, holderT.ID, 0)
	if err != nil {
		return nil, err
	}
	first, err := p.Alloc(ctx, leafT.ID, 0)
	if err != nil {
		return nil, err
	}
	p.PersistRange(ctx, first.Offset(), fpLeafSize)
	p.WritePtr(ctx, r, 0, first)
	p.PersistRange(ctx, r.Offset(), 16)
	p.SetRoot(ctx, r)
	t.root = r
	t.index = []fpIdx{{0, first}}
	return t, nil
}

// rebuildIndex reconstructs the volatile inner nodes from the persistent
// leaf chain — the FPTree restart path.
func (t *FPTree) rebuildIndex(ctx *sim.Ctx) {
	p := t.p
	t.index = t.index[:0]
	t.count = 0
	for leaf := p.ReadPtr(ctx, t.root, 0); !leaf.IsNull(); leaf = p.ReadPtr(ctx, leaf, fpNext) {
		bm := p.ReadU64(ctx, leaf, fpBitmap)
		minKey := ^uint64(0)
		for s := 0; s < fpSlots; s++ {
			if bm&(1<<s) == 0 {
				continue
			}
			t.count++
			if k := p.ReadU64(ctx, leaf, fpKeyOff(s)); k < minKey {
				minKey = k
			}
		}
		if len(t.index) == 0 {
			minKey = 0 // the first leaf covers everything below
		}
		t.index = append(t.index, fpIdx{minKey, leaf})
	}
	sort.Slice(t.index, func(a, b int) bool { return t.index[a].min < t.index[b].min })
}

// Name implements Store.
func (t *FPTree) Name() string { return "FPTree" }

// Len implements Store.
func (t *FPTree) Len() int { return t.count }

// leafFor finds the index entry covering key.
func (t *FPTree) leafFor(key uint64) int {
	lo, hi := 0, len(t.index)-1
	res := 0
	for lo <= hi {
		mid := (lo + hi) / 2
		if t.index[mid].min <= key {
			res = mid
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return res
}

// findSlot locates key in leaf via fingerprint + key compare.
func (t *FPTree) findSlot(ctx *sim.Ctx, leaf pmop.Ptr, key uint64) int {
	p := t.p
	bm := p.ReadU64(ctx, leaf, fpBitmap)
	fp := fingerprint(key)
	var fps [fpSlots]byte
	p.ReadBytes(ctx, leaf, fpFPs, fps[:])
	for s := 0; s < fpSlots; s++ {
		if bm&(1<<s) == 0 || fps[s] != fp {
			continue
		}
		if p.ReadU64(ctx, leaf, fpKeyOff(s)) == key {
			return s
		}
	}
	return -1
}

// Insert implements Store.
func (t *FPTree) Insert(ctx *sim.Ctx, key uint64, val []byte) error {
	defer t.p.EndOp()
	p := t.p
	v, err := allocValue(ctx, p, val)
	if err != nil {
		return err
	}
	i := t.leafFor(key)
	leaf := t.index[i].leaf

	if s := t.findSlot(ctx, leaf, key); s >= 0 {
		old := p.ReadPtr(ctx, leaf, fpValOff(s))
		tx := p.Begin(ctx)
		tx.AddRange(ctx, leaf, fpValOff(s), 8)
		p.WritePtr(ctx, leaf, fpValOff(s), v)
		tx.Commit(ctx)
		if !old.IsNull() {
			p.Free(ctx, old)
		}
		return nil
	}

	bm := p.ReadU64(ctx, leaf, fpBitmap)
	free := -1
	for s := 0; s < fpSlots; s++ {
		if bm&(1<<s) == 0 {
			free = s
			break
		}
	}
	if free < 0 {
		// Split: move the upper half of the keys to a new leaf.
		var err error
		leaf, err = t.split(ctx, i, key)
		if err != nil {
			p.Free(ctx, v)
			return err
		}
		bm = p.ReadU64(ctx, leaf, fpBitmap)
		for s := 0; s < fpSlots; s++ {
			if bm&(1<<s) == 0 {
				free = s
				break
			}
		}
	}

	tx := p.Begin(ctx)
	tx.AddRange(ctx, leaf, fpKeyOff(free), 8)
	tx.AddRange(ctx, leaf, fpValOff(free), 8)
	tx.AddRange(ctx, leaf, fpFPs+uint64(free), 1)
	tx.AddRange(ctx, leaf, fpBitmap, 8)
	p.WriteU64(ctx, leaf, fpKeyOff(free), key)
	p.WritePtr(ctx, leaf, fpValOff(free), v)
	p.WriteBytes(ctx, leaf, fpFPs+uint64(free), []byte{fingerprint(key)})
	p.WriteU64(ctx, leaf, fpBitmap, bm|1<<free)
	tx.Commit(ctx)
	t.count++
	return nil
}

// split divides the full leaf at index position i, returning the leaf that
// should receive key.
func (t *FPTree) split(ctx *sim.Ctx, i int, key uint64) (pmop.Ptr, error) {
	p := t.p
	leaf := t.index[i].leaf

	// Collect and sort the 16 keys to find the median.
	type slotKey struct {
		slot int
		key  uint64
	}
	var sk [fpSlots]slotKey
	for s := 0; s < fpSlots; s++ {
		sk[s] = slotKey{s, p.ReadU64(ctx, leaf, fpKeyOff(s))}
	}
	sort.Slice(sk[:], func(a, b int) bool { return sk[a].key < sk[b].key })
	median := sk[fpSlots/2].key

	nl, err := p.Alloc(ctx, t.leafT, 0)
	if err != nil {
		return pmop.Null, err
	}
	tx := p.Begin(ctx)
	tx.AddObject(ctx, nl)
	tx.AddObject(ctx, leaf)

	var newBM, oldBM uint64
	oldBM = p.ReadU64(ctx, leaf, fpBitmap)
	w := 0
	for _, e := range sk[fpSlots/2:] {
		p.WriteU64(ctx, nl, fpKeyOff(w), e.key)
		p.WritePtr(ctx, nl, fpValOff(w), p.ReadPtr(ctx, leaf, fpValOff(e.slot)))
		p.WriteBytes(ctx, nl, fpFPs+uint64(w), []byte{fingerprint(e.key)})
		newBM |= 1 << w
		oldBM &^= 1 << e.slot
		// Null the moved-out slot in the old leaf (no dangling pointers).
		p.WritePtr(ctx, leaf, fpValOff(e.slot), pmop.Null)
		w++
	}
	p.WriteU64(ctx, nl, fpBitmap, newBM)
	p.WritePtr(ctx, nl, fpNext, p.ReadPtr(ctx, leaf, fpNext))
	// Publish: persist the new leaf via the commit flush, then atomically
	// shrink the old bitmap and link the chain.
	p.WritePtr(ctx, leaf, fpNext, nl)
	p.WriteU64(ctx, leaf, fpBitmap, oldBM)
	tx.Commit(ctx)

	t.index = append(t.index, fpIdx{})
	copy(t.index[i+2:], t.index[i+1:])
	t.index[i+1] = fpIdx{median, nl}
	if key >= median {
		return nl, nil
	}
	return leaf, nil
}

// Delete implements Store.
func (t *FPTree) Delete(ctx *sim.Ctx, key uint64) (bool, error) {
	defer t.p.EndOp()
	p := t.p
	leaf := t.index[t.leafFor(key)].leaf
	s := t.findSlot(ctx, leaf, key)
	if s < 0 {
		return false, nil
	}
	old := p.ReadPtr(ctx, leaf, fpValOff(s))
	tx := p.Begin(ctx)
	tx.AddRange(ctx, leaf, fpBitmap, 8)
	tx.AddRange(ctx, leaf, fpValOff(s), 8)
	p.WriteU64(ctx, leaf, fpBitmap, p.ReadU64(ctx, leaf, fpBitmap)&^(1<<s))
	// Dead slots must not hold stale pointers (see RegisterTypes).
	p.WritePtr(ctx, leaf, fpValOff(s), pmop.Null)
	tx.Commit(ctx)
	if !old.IsNull() {
		p.Free(ctx, old)
	}
	t.count--
	return true, nil
}

// Get implements Store.
func (t *FPTree) Get(ctx *sim.Ctx, key uint64) ([]byte, bool) { return t.GetInto(ctx, key, nil) }

// GetInto is Get into buf's storage (readValueInto); a miss returns (buf, false).
func (t *FPTree) GetInto(ctx *sim.Ctx, key uint64, buf []byte) ([]byte, bool) {
	defer t.p.EndOp()
	leaf := t.index[t.leafFor(key)].leaf
	s := t.findSlot(ctx, leaf, key)
	if s < 0 {
		return buf, false
	}
	v := t.p.ReadPtr(ctx, leaf, fpValOff(s))
	if v.IsNull() {
		return buf, false
	}
	return readValueInto(ctx, t.p, v, buf), true
}

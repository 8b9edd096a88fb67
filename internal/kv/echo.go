// Package kv implements the two key-value store applications of the paper's
// evaluation (§6): an Echo-style store (WHISPER) built on a persistent hash
// table with chained entries, and a pmemkv-style store that is the same table
// under pmemkv's name. Both follow the PMOP discipline (typed allocation,
// transactions, D_RW accessors) and implement ds.Store.
package kv

import (
	"sync"

	"ffccd/internal/ds"
	"ffccd/internal/pmop"
	"ffccd/internal/sim"
)

const (
	typeBuckets = "kv.buckets"
	typeEntry   = "kv.entry"
	typeValue   = "kv.value"
)

// Entry field offsets: key u64 @0, val Ptr @8, next Ptr @16.
const (
	enKey  = 0
	enVal  = 8
	enNext = 16
)

// bucketSegSlots is the number of bucket-head slots per segment (slot 0
// links segments).
const bucketSegSlots = 480

// RegisterTypes installs the kv types (idempotent).
func RegisterTypes(reg *pmop.Registry) {
	reg.Register(pmop.TypeInfo{Name: typeBuckets, Kind: pmop.KindPtrArray})
	reg.Register(pmop.TypeInfo{Name: typeEntry, Kind: pmop.KindFixed, Size: 24, PtrOffsets: []uint64{8, 16}})
	reg.Register(pmop.TypeInfo{Name: typeValue, Kind: pmop.KindBytes})
}

// Echo is the Echo-style store: a fixed-size persistent hash table whose
// bucket array, as the paper notes (§7.3), "cannot be released until all
// keys are removed" — which is why Echo sees the smallest fragmentation
// reduction.
type Echo struct {
	p *pmop.Pool
	// mu serves only bench/'s TestDecoratorCountsConcurrentGets, which
	// calls GetParallel from 8 goroutines; a machine runs on one goroutine.
	// It guards the two store-owned buffers, probe and got.
	mu   sync.Mutex
	segs []pmop.Ptr // bucket-array segments (volatile cache, remap-healed)
	nb   int        // bucket count
	entT pmop.TypeID
	valT pmop.TypeID
	n    int
	// probe receives the old value Insert's existence check reads (under mu).
	probe []byte
	// got is the buffer GetParallel reads into and returns (under mu).
	got []byte
}

// NewEcho creates or reopens an Echo store with nb buckets.
func NewEcho(ctx *sim.Ctx, p *pmop.Pool, nb int) (*Echo, error) {
	bT, _ := p.Types().LookupName(typeBuckets)
	eT, _ := p.Types().LookupName(typeEntry)
	vT, _ := p.Types().LookupName(typeValue)
	e := &Echo{p: p, nb: nb, entT: eT.ID, valT: vT.ID}
	p.RegisterRemapHook(func(remap func(pmop.Ptr) pmop.Ptr) {
		e.mu.Lock()
		for i := range e.segs {
			e.segs[i] = remap(e.segs[i])
		}
		e.mu.Unlock()
	})

	if r := p.Root(ctx); !r.IsNull() {
		e.nb = 0
		for seg := r; !seg.IsNull(); seg = p.ReadPtr(ctx, seg, 0) {
			e.segs = append(e.segs, seg)
			_, payload := p.Header(ctx, p.Resolve(ctx, seg))
			n := int(payload/8) - 1
			e.nb += n
			for i := 1; i <= n; i++ {
				for ent := p.ReadPtr(ctx, seg, uint64(i)*8); !ent.IsNull(); ent = p.ReadPtr(ctx, ent, enNext) {
					e.n++
				}
			}
		}
		return e, nil
	}

	var prev pmop.Ptr
	for remaining := nb; remaining > 0; remaining -= bucketSegSlots {
		n := remaining
		if n > bucketSegSlots {
			n = bucketSegSlots
		}
		seg, err := p.Alloc(ctx, bT.ID, uint64(n+1)*8)
		if err != nil {
			return nil, err
		}
		p.PersistRange(ctx, seg.Offset(), uint64(n+1)*8)
		if prev.IsNull() {
			p.SetRoot(ctx, seg)
		} else {
			p.WritePtr(ctx, prev, 0, seg)
			p.PersistRange(ctx, prev.Offset(), 8)
		}
		e.segs = append(e.segs, seg)
		prev = seg
	}
	return e, nil
}

func hashKey(key uint64) uint64 {
	key ^= key >> 33
	key *= 0xFF51AFD7ED558CCD
	key ^= key >> 33
	return key
}

// bucket returns (segment, payload offset) of key's bucket head.
func (e *Echo) bucket(key uint64) (pmop.Ptr, uint64) {
	b := int(hashKey(key) % uint64(e.nb))
	return e.segs[b/bucketSegSlots], uint64(b%bucketSegSlots+1) * 8
}

// Name implements ds.Store.
func (e *Echo) Name() string { return "Echo" }

// Len implements ds.Store.
func (e *Echo) Len() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.n
}

// findEntry scans the chain for key; returns the entry and its predecessor
// (Null when the entry is the head).
func (e *Echo) findEntry(ctx *sim.Ctx, seg pmop.Ptr, off uint64, key uint64) (ent, prev pmop.Ptr) {
	p := e.p
	for ent = p.ReadPtr(ctx, seg, off); !ent.IsNull(); ent = p.ReadPtr(ctx, ent, enNext) {
		if p.ReadU64(ctx, ent, enKey) == key {
			return ent, prev
		}
		prev = ent
	}
	return pmop.Null, pmop.Null
}

// Insert implements ds.Store.
func (e *Echo) Insert(ctx *sim.Ctx, key uint64, val []byte) error {
	defer e.p.EndOp()
	e.mu.Lock()
	defer e.mu.Unlock()
	var existed bool
	e.probe, existed = e.getUnlocked(ctx, key, e.probe)
	if err := e.insertUnlocked(ctx, key, val); err != nil {
		return err
	}
	if !existed {
		e.n++
	}
	return nil
}

// insertUnlocked is Insert's body under e.mu, without the length counter.
func (e *Echo) insertUnlocked(ctx *sim.Ctx, key uint64, val []byte) error {
	p := e.p
	seg, off := e.bucket(key)
	v, err := p.Alloc(ctx, e.valT, uint64(len(val)))
	if err != nil {
		return err
	}
	p.WriteBytes(ctx, v, 0, val)
	p.PersistRange(ctx, v.Offset(), uint64(len(val)))

	if ent, _ := e.findEntry(ctx, seg, off, key); !ent.IsNull() {
		old := p.ReadPtr(ctx, ent, enVal)
		tx := p.Begin(ctx)
		tx.AddPtr(ctx, ent, enVal)
		p.WritePtr(ctx, ent, enVal, v)
		tx.Commit(ctx)
		if !old.IsNull() {
			p.Free(ctx, old)
		}
		return nil
	}
	ent, err := p.Alloc(ctx, e.entT, 0)
	if err != nil {
		p.Free(ctx, v)
		return err
	}
	tx := p.Begin(ctx)
	tx.AddObject(ctx, ent)
	tx.AddRange(ctx, seg, off, 8)
	p.WriteU64(ctx, ent, enKey, key)
	p.WritePtr(ctx, ent, enVal, v)
	p.WritePtr(ctx, ent, enNext, p.ReadPtr(ctx, seg, off))
	p.WritePtr(ctx, seg, off, ent)
	tx.Commit(ctx)
	return nil
}

// Delete implements ds.Store.
func (e *Echo) Delete(ctx *sim.Ctx, key uint64) (bool, error) {
	defer e.p.EndOp()
	e.mu.Lock()
	defer e.mu.Unlock()
	p := e.p
	seg, off := e.bucket(key)
	ent, prev := e.findEntry(ctx, seg, off, key)
	if ent.IsNull() {
		return false, nil
	}
	next := p.ReadPtr(ctx, ent, enNext)
	val := p.ReadPtr(ctx, ent, enVal)
	tx := p.Begin(ctx)
	if prev.IsNull() {
		tx.AddRange(ctx, seg, off, 8)
		p.WritePtr(ctx, seg, off, next)
	} else {
		tx.AddPtr(ctx, prev, enNext)
		p.WritePtr(ctx, prev, enNext, next)
	}
	tx.Commit(ctx)
	if !val.IsNull() {
		p.Free(ctx, val)
	}
	p.Free(ctx, ent)
	e.n--
	return true, nil
}

// Get implements ds.Store.
func (e *Echo) Get(ctx *sim.Ctx, key uint64) ([]byte, bool) {
	defer e.p.EndOp()
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.getUnlocked(ctx, key, nil)
}

// getUnlocked is Get's body under e.mu. It loads key's value into
// buf's storage, or a fresh buffer when buf is nil or too small, and returns
// it; on a miss it returns buf unchanged.
func (e *Echo) getUnlocked(ctx *sim.Ctx, key uint64, buf []byte) ([]byte, bool) {
	p := e.p
	seg, off := e.bucket(key)
	ent, _ := e.findEntry(ctx, seg, off, key)
	if ent.IsNull() {
		return buf, false
	}
	v := p.ReadPtr(ctx, ent, enVal)
	if v.IsNull() {
		return buf, false
	}
	_, n := p.Header(ctx, p.Resolve(ctx, v))
	if buf == nil || uint64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	p.ReadBytes(ctx, v, 0, buf)
	return buf, true
}

// GetParallel is the read the serving layer's batched GET calls: a batch
// runs its GETs in place, one after another, on the goroutine that owns the
// machine. It makes the same loads, charges and EndOp as Get, but reads into
// a buffer the store owns instead of a copy: the returned slice belongs to
// the store and stays valid only until the next GetParallel. A miss returns
// (nil, false).
func (e *Echo) GetParallel(ctx *sim.Ctx, key uint64) ([]byte, bool) {
	defer e.p.EndOp()
	e.mu.Lock()
	defer e.mu.Unlock()
	v, ok := e.getUnlocked(ctx, key, e.got)
	if !ok {
		return nil, false
	}
	e.got = v
	return v, true
}

// GetFootprint reports a superset of the pool-offset byte ranges Get(key)
// would load, by walking the bucket chain with non-perturbing peeks (no
// cycles, no cache effects). The serving layer maps the ranges to device
// cache sets to decide which in-flight operations commute. Must be called
// with no open defragmentation epoch (peeked pointers are not
// barrier-resolved).
func (e *Echo) GetFootprint(key uint64, visit func(off, n uint64)) {
	p := e.p
	seg, off := e.bucket(key)
	slot := seg.Offset() + off
	visit(slot, 8)
	for ent := pmop.Ptr(p.PeekU64(slot)); !ent.IsNull(); {
		entOff := ent.Offset()
		visit(entOff, enNext+8)
		if p.PeekU64(entOff+enKey) == key {
			v := pmop.Ptr(p.PeekU64(entOff + enVal))
			if !v.IsNull() {
				hdrOff := v.Offset() - pmop.HeaderSize
				visit(hdrOff, pmop.HeaderSize)
				n := p.PeekU64(hdrOff) >> 32 // header: type u32 | payload-len u32
				visit(v.Offset(), n)
			}
			return
		}
		ent = pmop.Ptr(p.PeekU64(entOff + enNext))
	}
}

var _ ds.Store = (*Echo)(nil)

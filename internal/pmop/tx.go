package pmop

import (
	"encoding/binary"
	"fmt"

	"ffccd/internal/sim"
)

// Tx is an undo-log transaction in the libpmemobj style (§2.2.2): ranges are
// logged (TX_ADD) before modification, data is flushed at commit, and an
// interrupted transaction is rolled back during recovery. The log lives in
// the pool's persistent tx region; each Tx owns one of the pool's log slots
// so every simulated application thread can have one transaction open.
//
// Persistence protocol per operation:
//
//	Begin : state=active       → clwb+sfence
//	Add   : entry (addr,len,old data) → clwb+sfence; count++ → clwb+sfence
//	Commit: flush logged ranges → sfence; state=idle,count=0 → clwb+sfence
//
// The entry is fenced before the count so a torn entry is never replayed.
type Tx struct {
	pool   *Pool
	slot   int
	cursor uint64
	count  uint64
	ranges []txRange
	active bool
	// scratch is the reusable undo-entry staging buffer; its contents are
	// fully rewritten (padding included) before every RawStore.
	scratch []byte
}

type txRange struct{ off, n uint64 }

const (
	txStateIdle   = 0
	txStateActive = 1
	txHeaderBytes = 16 // state u64 | count u64 (same cacheline)
)

func (t *Tx) base() uint64 { return t.pool.txLogOff + uint64(t.slot)*txSlotBytes }

// Begin starts a transaction in the longest-free log slot. A simulated thread
// runs at most one transaction per operation, so the pool's slots always
// outnumber open transactions; Begin with every slot open panics.
func (p *Pool) Begin(ctx *sim.Ctx) *Tx {
	if len(p.txFree) == 0 {
		panic("pmop: Begin with every transaction slot open")
	}
	slot := p.txFree[0]
	p.txFree = append(p.txFree[:0], p.txFree[1:]...)
	t := &p.txSlot[slot]
	t.cursor = txHeaderBytes
	t.count = 0
	t.ranges = t.ranges[:0]
	t.active = true
	p.RawStoreU64(ctx, t.base(), txStateActive)
	p.RawStoreU64(ctx, t.base()+8, 0)
	p.Clwb(ctx, t.base())
	p.Sfence(ctx)
	return t
}

// Add logs the current contents of [off, off+n) so they can be rolled back —
// the TX_ADD_DIRECT of the paper's Figure 3. Must be called before the range
// is modified.
func (t *Tx) Add(ctx *sim.Ctx, off, n uint64) {
	if !t.active {
		panic("pmop: Add on inactive transaction")
	}
	p := t.pool
	if p.txAddHook != nil {
		p.txAddHook(ctx, off, n)
	}
	entryLen := 16 + (n+7)&^7
	if t.cursor+entryLen > txSlotBytes {
		panic(fmt.Sprintf("pmop: transaction log overflow (%d bytes)", t.cursor+entryLen))
	}
	if uint64(cap(t.scratch)) < entryLen {
		t.scratch = make([]byte, entryLen)
	}
	entry := t.scratch[:entryLen]
	binary.LittleEndian.PutUint64(entry[0:8], off)
	binary.LittleEndian.PutUint64(entry[8:16], n)
	p.RawLoad(ctx, off, entry[16:16+n])
	for i := 16 + n; i < entryLen; i++ {
		entry[i] = 0 // alignment padding: keep logged bytes deterministic
	}
	entryOff := t.base() + t.cursor
	p.RawStore(ctx, entryOff, entry)
	p.PersistRange(ctx, entryOff, entryLen)
	t.cursor += entryLen
	t.count++
	p.RawStoreU64(ctx, t.base()+8, t.count)
	p.Clwb(ctx, t.base())
	p.Sfence(ctx)
	t.ranges = append(t.ranges, txRange{off, n})
}

// AddPtr logs the single pointer field at obj.payload+field.
func (t *Tx) AddPtr(ctx *sim.Ctx, obj Ptr, field uint64) {
	obj = t.pool.Resolve(ctx, obj)
	t.Add(ctx, obj.Offset()+field, 8)
}

// AddObject logs an object's entire payload (and header), resolving the
// handle first.
func (t *Tx) AddObject(ctx *sim.Ctx, obj Ptr) {
	obj = t.pool.Resolve(ctx, obj)
	_, payload := t.pool.Header(ctx, obj)
	t.Add(ctx, obj.Offset()-HeaderSize, HeaderSize+payload)
}

// AddRange logs n bytes of obj's payload starting at field.
func (t *Tx) AddRange(ctx *sim.Ctx, obj Ptr, field, n uint64) {
	obj = t.pool.Resolve(ctx, obj)
	t.Add(ctx, obj.Offset()+field, n)
}

// Commit flushes every logged range's current contents and retires the log.
func (t *Tx) Commit(ctx *sim.Ctx) {
	if !t.active {
		panic("pmop: Commit on inactive transaction")
	}
	p := t.pool
	for _, r := range t.ranges {
		for a := r.off &^ 63; a < r.off+r.n; a += 64 {
			p.Clwb(ctx, a)
		}
	}
	p.Sfence(ctx)
	p.RawStoreU64(ctx, t.base(), txStateIdle)
	p.RawStoreU64(ctx, t.base()+8, 0)
	p.Clwb(ctx, t.base())
	p.Sfence(ctx)
	t.active = false
	p.txFree = append(p.txFree, t.slot)
}

// Abort rolls the transaction back in place (undo applied newest-first) and
// retires the log.
func (t *Tx) Abort(ctx *sim.Ctx) {
	if !t.active {
		panic("pmop: Abort on inactive transaction")
	}
	p := t.pool
	p.undoSlot(ctx, t.slot)
	t.active = false
	p.txFree = append(p.txFree, t.slot)
}

// undoSlot replays a slot's undo entries newest-first and marks it idle.
func (p *Pool) undoSlot(ctx *sim.Ctx, slot int) {
	base := p.txLogOff + uint64(slot)*txSlotBytes
	count := p.RawLoadU64(ctx, base+8)
	// Collect entry offsets by walking forward, then undo in reverse.
	type ent struct{ pos, off, n uint64 }
	var entries []ent
	pos := uint64(txHeaderBytes)
	for i := uint64(0); i < count; i++ {
		off := p.RawLoadU64(ctx, base+pos)
		n := p.RawLoadU64(ctx, base+pos+8)
		entries = append(entries, ent{pos, off, n})
		pos += 16 + (n+7)&^7
	}
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		old := make([]byte, e.n)
		p.RawLoad(ctx, base+e.pos+16, old)
		p.RawStore(ctx, e.off, old)
		p.PersistRange(ctx, e.off, e.n)
	}
	p.RawStoreU64(ctx, base, txStateIdle)
	p.RawStoreU64(ctx, base+8, 0)
	p.Clwb(ctx, base)
	p.Sfence(ctx)
}

// RecoverTx rolls back every transaction that was active at the crash and
// returns the ranges they had logged (the defragmentation recovery uses them
// to identify application-touched objects). Call on an opened pool before
// resuming application work.
func (p *Pool) RecoverTx(ctx *sim.Ctx) []TxTouched {
	var touched []TxTouched
	for slot := 0; slot < txSlotCount; slot++ {
		base := p.txLogOff + uint64(slot)*txSlotBytes
		if p.RawLoadU64(ctx, base) != txStateActive {
			continue
		}
		count := p.RawLoadU64(ctx, base+8)
		pos := uint64(txHeaderBytes)
		for i := uint64(0); i < count; i++ {
			off := p.RawLoadU64(ctx, base+pos)
			n := p.RawLoadU64(ctx, base+pos+8)
			touched = append(touched, TxTouched{Off: off, Len: n})
			pos += 16 + (n+7)&^7
		}
		p.undoSlot(ctx, slot)
	}
	return touched
}

// TxTouched is a logged range found during recovery.
type TxTouched struct{ Off, Len uint64 }

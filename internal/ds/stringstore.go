package ds

import (
	"fmt"
	"sync"

	"ffccd/internal/pmop"
	"ffccd/internal/sim"
)

// StringStore is the SS ("String Swap") microbenchmark: a persistent array
// of string slots whose contents are repeatedly replaced by strings of
// different lengths — the classic external-fragmentation generator (every
// replacement frees one size class and allocates another).
//
// The slot array is a chain of pointer-array segments (a segment must fit in
// one allocator frame). Slot 0 of each segment links to the next segment;
// the remaining slots hold string pointers.
type StringStore struct {
	p     *pmop.Pool
	mu    sync.Mutex
	slots int
	segs  []pmop.Ptr // volatile segment cache (healed by the remap hook)
	count int
}

// ssSegSlots is the number of data slots per segment (plus the next link).
const ssSegSlots = 480

// NewStringStore creates or reopens a store with the given slot count.
func NewStringStore(ctx *sim.Ctx, p *pmop.Pool, slots int) (*StringStore, error) {
	arrT, _ := p.Types().LookupName(typeStrArray)
	s := &StringStore{p: p, slots: slots}
	p.RegisterRemapHook(func(remap func(pmop.Ptr) pmop.Ptr) {
		s.mu.Lock()
		for i := range s.segs {
			s.segs[i] = remap(s.segs[i])
		}
		s.mu.Unlock()
	})

	if r := p.Root(ctx); !r.IsNull() {
		// Reopen: walk the segment chain, rebuild the cache and count.
		s.slots = 0
		for seg := r; !seg.IsNull(); seg = p.ReadPtr(ctx, seg, 0) {
			s.segs = append(s.segs, seg)
			_, payload := p.Header(ctx, p.Resolve(ctx, seg))
			n := int(payload/8) - 1
			s.slots += n
			for i := 1; i <= n; i++ {
				if !p.ReadPtr(ctx, seg, uint64(i)*8).IsNull() {
					s.count++
				}
			}
		}
		return s, nil
	}

	var prev pmop.Ptr
	for remaining := slots; remaining > 0; remaining -= ssSegSlots {
		n := remaining
		if n > ssSegSlots {
			n = ssSegSlots
		}
		seg, err := p.Alloc(ctx, arrT.ID, uint64(n+1)*8)
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
		s.segs = append(s.segs, seg)
		prev = seg
	}
	return s, nil
}

// Name implements Store.
func (s *StringStore) Name() string { return "SS" }

// Len implements Store.
func (s *StringStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// slotOf maps a key to (segment, payload offset). Caller holds s.mu.
func (s *StringStore) slotOf(key uint64) (pmop.Ptr, uint64, error) {
	if key >= uint64(s.slots) {
		return pmop.Null, 0, fmt.Errorf("ds: string slot %d out of range (%d slots)", key, s.slots)
	}
	seg := int(key) / ssSegSlots
	idx := int(key)%ssSegSlots + 1 // slot 0 is the chain link
	return s.segs[seg], uint64(idx) * 8, nil
}

// Insert implements Store: replace slot key's string with val.
func (s *StringStore) Insert(ctx *sim.Ctx, key uint64, val []byte) error {
	defer s.p.EndOp()
	s.mu.Lock()
	defer s.mu.Unlock()

	seg, off, err := s.slotOf(key)
	if err != nil {
		return err
	}
	p := s.p
	nv, err := allocValue(ctx, p, val)
	if err != nil {
		return err
	}
	old := p.ReadPtr(ctx, seg, off)
	tx := p.Begin(ctx)
	tx.AddRange(ctx, seg, off, 8)
	p.WritePtr(ctx, seg, off, nv)
	tx.Commit(ctx)
	if !old.IsNull() {
		p.Free(ctx, old)
	} else {
		s.count++
	}
	return nil
}

// Delete implements Store: clear the slot.
func (s *StringStore) Delete(ctx *sim.Ctx, key uint64) (bool, error) {
	defer s.p.EndOp()
	s.mu.Lock()
	defer s.mu.Unlock()

	seg, off, err := s.slotOf(key)
	if err != nil {
		return false, err
	}
	p := s.p
	old := p.ReadPtr(ctx, seg, off)
	if old.IsNull() {
		return false, nil
	}
	tx := p.Begin(ctx)
	tx.AddRange(ctx, seg, off, 8)
	p.WritePtr(ctx, seg, off, pmop.Null)
	tx.Commit(ctx)
	p.Free(ctx, old)
	s.count--
	return true, nil
}

// Get implements Store.
func (s *StringStore) Get(ctx *sim.Ctx, key uint64) ([]byte, bool) {
	defer s.p.EndOp()
	s.mu.Lock()
	defer s.mu.Unlock()

	seg, off, err := s.slotOf(key)
	if err != nil {
		return nil, false
	}
	v := s.p.ReadPtr(ctx, seg, off)
	if v.IsNull() {
		return nil, false
	}
	return readValue(ctx, s.p, v), true
}

// Swap exchanges the strings in slots i and j — the benchmark's namesake
// operation.
func (s *StringStore) Swap(ctx *sim.Ctx, i, j uint64) error {
	defer s.p.EndOp()
	s.mu.Lock()
	defer s.mu.Unlock()

	segI, oi, err := s.slotOf(i)
	if err != nil {
		return err
	}
	segJ, oj, err := s.slotOf(j)
	if err != nil {
		return err
	}
	p := s.p
	a := p.ReadPtr(ctx, segI, oi)
	b := p.ReadPtr(ctx, segJ, oj)
	tx := p.Begin(ctx)
	tx.AddRange(ctx, segI, oi, 8)
	tx.AddRange(ctx, segJ, oj, 8)
	p.WritePtr(ctx, segI, oi, b)
	p.WritePtr(ctx, segJ, oj, a)
	tx.Commit(ctx)
	return nil
}

package redisws

import (
	"maps"
	"slices"
	"testing"

	"ffccd/internal/sim"
)

// recordingStore is a ds.Store that keeps nothing but checks every value an
// Insert hands it and records the keys Delete is called with, in order.
type recordingStore struct {
	t       *testing.T
	deletes []uint64
}

func (s *recordingStore) Name() string { return "recording" }
func (s *recordingStore) Len() int     { return 0 }

func (s *recordingStore) Insert(_ *sim.Ctx, k uint64, v []byte) error {
	if want := fillValue(nil, k, len(v)); !slices.Equal(v, want) {
		s.t.Fatalf("Insert(%d) got % x, want % x", k, v, want)
	}
	return nil
}

func (s *recordingStore) Delete(_ *sim.Ctx, k uint64) (bool, error) {
	s.deletes = append(s.deletes, k)
	return true, nil
}

func (s *recordingStore) Get(*sim.Ctx, uint64) ([]byte, bool) { return nil, false }

// lruModel is the reference LRU: a slice, most recently used first.
type lruModel struct {
	ents      []lruEnt
	evictions int
	deletes   []uint64
}

func (m *lruModel) live() (b uint64) {
	for _, e := range m.ents {
		b += e.size
	}
	return b
}

func (m *lruModel) has(k uint64) bool {
	return slices.ContainsFunc(m.ents, func(e lruEnt) bool { return e.key == k })
}

func (m *lruModel) touch(k uint64) bool {
	i := slices.IndexFunc(m.ents, func(e lruEnt) bool { return e.key == k })
	if i >= 0 {
		e := m.ents[i]
		m.ents = slices.Insert(slices.Delete(m.ents, i, i+1), 0, e)
	}
	return i >= 0
}

func (m *lruModel) set(k, n, maxLive uint64) {
	if m.touch(k) {
		m.ents[0].size = n
	} else {
		m.ents = slices.Insert(m.ents, 0, lruEnt{k, n})
	}
	m.evict(maxLive)
}

func (m *lruModel) evict(maxLive uint64) {
	for maxLive > 0 && m.live() > maxLive && len(m.ents) > 0 {
		m.deletes = append(m.deletes, m.ents[len(m.ents)-1].key)
		m.ents = m.ents[:len(m.ents)-1]
		m.evictions++
	}
}

// lruEntries lists c's keys with their sizes, most recently used first.
func lruEntries(c *lruCache) []lruEnt {
	var out []lruEnt
	for i := c.head; i != noNode; i = c.nodes[i].next {
		out = append(out, c.nodes[i].lruEnt)
	}
	return out
}

// lruBound is the key bound of FuzzLRUCache's cache: its keys are in
// [0, lruBound).
const lruBound = 16

// FuzzLRUCache drives the index-linked LRU and lruModel with the same random
// sets, touches, evictions under a small cap and rebuilds from a durable-ack
// model, and compares their entries, live bytes, evictions and the order in
// which they delete keys; every live key must index its node and every other
// key below the bound noNode. After a rebuild the cache keeps acked, so its
// sets build fresh values; acked must still hold each one intact at the end.
func FuzzLRUCache(f *testing.F) {
	f.Add([]byte{0, 1, 9, 0, 2, 9, 0, 3, 9, 1, 1, 2, 40, 0, 4, 9})
	f.Add([]byte{0, 5, 200, 0, 5, 3, 0, 6, 200, 2, 0, 0, 7, 1, 3, 3, 9, 9, 0, 9, 8, 1, 9})
	f.Add([]byte{3, 4, 1, 7, 2, 8, 3, 9, 4, 0, 1, 30, 2, 20, 0, 3, 7, 1, 1, 3, 0, 2, 255, 2, 5})
	f.Add([]byte{2, 100, 0, 1, 50, 0, 2, 50, 0, 3, 50, 0, 2, 60, 1, 1, 0, 4, 50, 2, 0, 3, 2, 1, 3, 0, 5, 9})
	f.Add([]byte{3, 1, 5, 10, 0, 1, 20, 0, 2, 30, 1, 5, 0, 1, 40, 2, 70, 0, 3, 10})
	// The ends of the index: key 0 and key lruBound-1, set, touched, evicted
	// and rebuilt.
	f.Add([]byte{0, 0, 9, 0, lruBound - 1, 9, 1, 0, 2, 12, 0, 0, 5, 3, 2, lruBound - 1, 7, 0, 3, 1, lruBound - 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		store := &recordingStore{t: t}
		c := newLRUCache(store, 0, 4, lruBound, nil)
		var m lruModel
		var ctx *sim.Ctx // the store ignores it
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		for len(ops) > 0 {
			switch next() % 4 {
			case 0: // set a key to a value of 1..64 bytes
				k, n := uint64(next()%lruBound), uint64(next()%64+1)
				if err := c.set(ctx, k, int(n)); err != nil {
					t.Fatal(err)
				}
				m.set(k, n, c.maxLive)
			case 1:
				k := uint64(next() % lruBound)
				c.touch(k)
				m.touch(k)
			case 2: // evict under a small cap, which later sets keep
				c.maxLive = uint64(next())
				if err := c.evict(ctx); err != nil {
					t.Fatal(err)
				}
				m.evict(c.maxLive)
			case 3: // rebuild from a durable model of up to 8 keys
				model := map[uint64][]byte{}
				for i := next() % 9; i > 0; i-- {
					k := uint64(next() % lruBound)
					model[k] = fillValue(nil, k, int(next()%64+1))
				}
				c.rebuild(model)
				m.ents = m.ents[:0]
				for _, k := range slices.Sorted(maps.Keys(model)) {
					m.ents = slices.Insert(m.ents, 0, lruEnt{k, uint64(len(model[k]))})
				}
			}
			if got, want := lruEntries(c), m.ents; !slices.Equal(got, want) {
				t.Fatalf("entries %v, model %v", got, want)
			}
			indexed := 0
			for k, i := range c.index {
				if i == noNode {
					if m.has(uint64(k)) {
						t.Fatalf("live key %d indexes no node", k)
					}
					continue
				}
				indexed++
				if c.nodes[i].key != uint64(k) {
					t.Fatalf("key %d indexes the node of key %d", k, c.nodes[i].key)
				}
			}
			if c.liveBytes != m.live() || c.evictions != m.evictions || indexed != len(m.ents) {
				t.Fatalf("live %d B, %d evictions, %d indexed; model %d B, %d, %d",
					c.liveBytes, c.evictions, indexed, m.live(), m.evictions, len(m.ents))
			}
			if !slices.Equal(store.deletes, m.deletes) {
				t.Fatalf("deleted %v, model %v", store.deletes, m.deletes)
			}
		}
		if c.acked == nil {
			return
		}
		if len(c.acked) != len(m.ents) {
			t.Fatalf("acked holds %d keys, %d live", len(c.acked), len(m.ents))
		}
		for _, e := range m.ents {
			if v, want := c.acked[e.key], fillValue(nil, e.key, int(e.size)); !slices.Equal(v, want) {
				t.Fatalf("acked[%d] = % x, want % x", e.key, v, want)
			}
		}
	})
}

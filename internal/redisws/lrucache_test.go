package redisws

import (
	"maps"
	"reflect"
	"slices"
	"testing"
	"unsafe"

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
	if want := wantValue(k, len(v)); !slices.Equal(v, want) {
		s.t.Fatalf("Insert(%d) got % x, want % x", k, v, want)
	}
	return nil
}

func (s *recordingStore) Delete(_ *sim.Ctx, k uint64) (bool, error) {
	s.deletes = append(s.deletes, k)
	return true, nil
}

func (s *recordingStore) Get(*sim.Ctx, uint64) ([]byte, bool) { return nil, false }

// wantValue is the n-byte value a write stores at key k: byte i is k+i.
func wantValue(k uint64, n int) []byte {
	v := make([]byte, n)
	for i := range v {
		v[i] = byte(k) + byte(i)
	}
	return v
}

// lruEnt is one live key of the reference LRU and its value's size.
type lruEnt struct {
	key  uint64
	size uint64
}

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
		out = append(out, lruEnt{c.owned.key(i), uint64(c.nodes[i].size)})
	}
	return out
}

// lruKeyspace is the keyspace FuzzLRUCache's deployments share: a machine
// owns the keys of [0, lruKeyspace) that hash to its shard.
const lruKeyspace = 16

// FuzzLRUCache drives the rank-indexed LRU and lruModel with the same random
// sets, touches, evictions under a small cap and rebuilds from a durable-ack
// model, and compares their entries, live bytes, evictions and the order in
// which they delete keys; a rank's node must be live exactly when the model
// holds its key. The first byte picks the machine: 1 + b%4 shards, shard
// (b/4) mod that, whose owned keys of lruKeyspace the cache tracks (one shard
// owns them all, with no key list, as an unsharded machine does); every later
// key byte picks an owned rank. After every step the cache's durable-ack
// model (what a crash hands recovery) must hold exactly lruModel's keys, each
// with the value its last write stored.
func FuzzLRUCache(f *testing.F) {
	f.Add([]byte{0, 0, 1, 9, 0, 2, 9, 0, 3, 9, 1, 1, 2, 40, 0, 4, 9})
	f.Add([]byte{0, 0, 5, 200, 0, 5, 3, 0, 6, 200, 2, 0, 0, 7, 1, 3, 3, 9, 9, 0, 9, 8, 1, 9})
	f.Add([]byte{0, 3, 4, 1, 7, 2, 8, 3, 9, 4, 0, 1, 30, 2, 20, 0, 3, 7, 1, 1, 3, 0, 2, 255, 2, 5})
	f.Add([]byte{0, 2, 100, 0, 1, 50, 0, 2, 50, 0, 3, 50, 0, 2, 60, 1, 1, 0, 4, 50, 2, 0, 3, 2, 1, 3, 0, 5, 9})
	f.Add([]byte{0, 3, 1, 5, 10, 0, 1, 20, 0, 2, 30, 1, 5, 0, 1, 40, 2, 70, 0, 3, 10})
	// The ends of each owned list, set, touched, evicted and rebuilt: keys 0
	// and 15 unsharded; ranks 0 and 7 (keys 4 and 15) of shard 1 of 4; ranks
	// 0 and 4 (keys 0 and 14) of shard 0 of 2; shard 2 of 4, whose one key
	// (3) is both ends.
	f.Add([]byte{0, 0, 0, 9, 0, lruKeyspace - 1, 9, 1, 0, 2, 12, 0, 0, 5, 3, 2, lruKeyspace - 1, 7, 0, 3, 1, lruKeyspace - 1})
	f.Add([]byte{7, 0, 0, 9, 0, 7, 9, 1, 0, 2, 12, 0, 0, 5, 3, 2, 7, 7, 0, 3, 1, 7})
	f.Add([]byte{1, 0, 4, 30, 0, 0, 20, 0, 2, 10, 1, 4, 2, 40, 3, 2, 4, 8, 0, 9, 1, 0})
	f.Add([]byte{11, 0, 0, 9, 1, 0, 2, 5, 0, 0, 3, 3, 1, 0, 4})
	f.Fuzz(func(t *testing.T, ops []byte) {
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		b := int(next())
		shards := 1 + b%4
		var owned ownedKeys
		n := lruKeyspace
		if shards > 1 {
			owned = OwnedKeys(lruKeyspace, b/4%shards, shards)
			n = len(owned)
		}
		rank := func() int32 { return int32(int(next()) % n) }
		store := &recordingStore{t: t}
		c := newLRUCache(store, 0, owned, n)
		var m lruModel
		var ctx *sim.Ctx // the store ignores it
		for len(ops) > 0 {
			switch next() % 4 {
			case 0: // set a key to a value of 1..64 bytes
				r := rank()
				k, size := owned.key(r), uint64(next()%64+1)
				if err := c.set(ctx, r, int(size)); err != nil {
					t.Fatal(err)
				}
				m.set(k, size, c.maxLive)
			case 1:
				r := rank()
				c.touch(r)
				m.touch(owned.key(r))
			case 2: // evict under a small cap, which later sets keep
				c.maxLive = uint64(next())
				if err := c.evict(ctx); err != nil {
					t.Fatal(err)
				}
				m.evict(c.maxLive)
			case 3: // rebuild from a durable model of up to 8 keys
				model := map[uint64][]byte{}
				for i := next() % 9; i > 0; i-- {
					k := owned.key(rank())
					model[k] = wantValue(k, int(next()%64+1))
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
			live := 0
			for i := range int32(n) {
				if c.nodes[i].prev == notLive {
					if m.has(owned.key(i)) {
						t.Fatalf("live key %d (rank %d) has no live node", owned.key(i), i)
					}
					continue
				}
				live++
			}
			if c.liveBytes != m.live() || c.evictions != m.evictions || live != len(m.ents) {
				t.Fatalf("live %d B, %d evictions, %d live nodes; model %d B, %d, %d",
					c.liveBytes, c.evictions, live, m.live(), m.evictions, len(m.ents))
			}
			if !slices.Equal(store.deletes, m.deletes) {
				t.Fatalf("deleted %v, model %v", store.deletes, m.deletes)
			}
			acks := c.model()
			if len(acks) != len(m.ents) {
				t.Fatalf("durable-ack model holds %d keys, %d live", len(acks), len(m.ents))
			}
			for _, e := range m.ents {
				if v, want := acks[e.key], wantValue(e.key, int(e.size)); !slices.Equal(v, want) {
					t.Fatalf("durable-ack model [%d] = % x, want % x", e.key, v, want)
				}
			}
		}
	})
}

// A loaded machine's LRU tables hold 12 bytes per key it owns and nothing per
// key of the keyspace: shard 0 of 4 at keyspaces K and 2K holds one node per
// owned key, its owned list is the only key table it shares, and no table
// grows with K.
func TestServeLRUTablesPerOwnedKey(t *testing.T) {
	for _, keyspace := range []int{2000, 4000} {
		base := DefaultServeConfig()
		base.Keyspace, base.Clients, base.Ops = keyspace, 4, 400
		cfg := ShardConfigs(base, 4)[0]
		keys, err := ShardKeys(keyspace, 4)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMachine(sim.DefaultConfig(), "none", "lru", keys[0], 16<<20)
		if err != nil {
			t.Fatal(err)
		}
		l, err := Load(m.Ctx, m.Pool, m.Store, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := l.cache
		if got, want := cap(c.nodes)*int(unsafe.Sizeof(lruNode{})), 12*keys[0]; len(c.nodes) != keys[0] || got != want {
			t.Errorf("keyspace %d: %d nodes, %d B of node table; want %d nodes, %d B", keyspace, len(c.nodes), got, keys[0], want)
		}
		if len(c.owned) != keys[0] {
			t.Errorf("keyspace %d: %d owned keys, want %d", keyspace, len(c.owned), keys[0])
		}
		l.Release()
		m.Release()
	}
}

// TestCloneIgnoresPooledTables: a clone's state is the same whichever tables
// the pool hands it, fresh ones or ones whose last owner filled its model, so
// a fork's loaded state compares equal to a capture of the machine it forks.
func TestCloneIgnoresPooledTables(t *testing.T) {
	c := newLRUCache(nil, 1<<20, nil, 64)
	for i := int32(0); i < 8; i++ {
		c.pushFront(i, 100+int(i))
	}
	fresh := c.clone()
	used := c.clone()
	if len(used.model()) != 8 {
		t.Fatal("the model does not hold the 8 live keys")
	}
	lruPool.Put(lruTables{used.nodes, used.scratch})
	if got := c.clone(); !reflect.DeepEqual(got, fresh) {
		t.Errorf("a clone on tables whose model was filled differs from one on other tables: scratch %d keys, want %d",
			len(got.scratch), len(fresh.scratch))
	}
}

package kv

import (
	"sync"

	"ffccd/internal/ds"
	"ffccd/internal/pmop"
	"ffccd/internal/sim"
)

// PmemKV models pmemkv's default concurrent engine (cmap): a persistent
// chained hash table with striped locks so independent buckets proceed in
// parallel. It shares the persistent layout machinery with Echo but differs
// in its concurrency discipline, which is what distinguishes the two
// applications in the paper's Figure 15.
type PmemKV struct {
	inner   *Echo
	stripes [64]sync.Mutex
	lenMu   sync.Mutex
	n       int
}

// NewPmemKV creates or reopens a pmemkv-style store with nb buckets.
func NewPmemKV(ctx *sim.Ctx, p *pmop.Pool, nb int) (*PmemKV, error) {
	inner, err := NewEcho(ctx, p, nb)
	if err != nil {
		return nil, err
	}
	k := &PmemKV{inner: inner}
	k.n = inner.Len()
	return k, nil
}

func (k *PmemKV) stripe(key uint64) *sync.Mutex {
	return &k.stripes[hashKey(key)%uint64(len(k.stripes))]
}

// Name implements ds.Store.
func (k *PmemKV) Name() string { return "pmemkv" }

// Len implements ds.Store.
func (k *PmemKV) Len() int {
	k.lenMu.Lock()
	defer k.lenMu.Unlock()
	return k.n
}

// Insert implements ds.Store.
func (k *PmemKV) Insert(ctx *sim.Ctx, key uint64, val []byte) error {
	defer k.inner.p.EndOp()
	m := k.stripe(key)
	m.Lock()
	defer m.Unlock()
	before := k.exists(ctx, key)
	if err := k.inner.insertUnlocked(ctx, key, val); err != nil {
		return err
	}
	if !before {
		k.lenMu.Lock()
		k.n++
		k.lenMu.Unlock()
	}
	return nil
}

// Delete implements ds.Store.
func (k *PmemKV) Delete(ctx *sim.Ctx, key uint64) (bool, error) {
	defer k.inner.p.EndOp()
	m := k.stripe(key)
	m.Lock()
	defer m.Unlock()
	ok, err := k.inner.deleteUnlocked(ctx, key)
	if ok {
		k.lenMu.Lock()
		k.n--
		k.lenMu.Unlock()
	}
	return ok, err
}

// Get implements ds.Store.
func (k *PmemKV) Get(ctx *sim.Ctx, key uint64) ([]byte, bool) {
	defer k.inner.p.EndOp()
	m := k.stripe(key)
	m.Lock()
	defer m.Unlock()
	return k.inner.getUnlocked(ctx, key, nil)
}

func (k *PmemKV) exists(ctx *sim.Ctx, key uint64) bool {
	_, ok := k.inner.getUnlocked(ctx, key, nil)
	return ok
}

var _ ds.Store = (*PmemKV)(nil)

package kv

import (
	"ffccd/internal/ds"
	"ffccd/internal/pmop"
	"ffccd/internal/sim"
)

// PmemKV stands for pmemkv's default engine (cmap), the second key-value
// application of the paper's Figure 15. It is Echo under pmemkv's name: cmap
// is a persistent chained hash table like Echo's, and what set it apart here
// was striped bucket locks for host threads, which never changed a simulated
// cycle. Every simulated thread runs on the goroutine that owns the machine,
// so the two stores charge the same cycles (EXPERIMENTS.md Table 4).
type PmemKV struct{ e *Echo }

// NewPmemKV creates or reopens a pmemkv-style store with nb buckets.
func NewPmemKV(ctx *sim.Ctx, p *pmop.Pool, nb int) (*PmemKV, error) {
	e, err := NewEcho(ctx, p, nb)
	if err != nil {
		return nil, err
	}
	return &PmemKV{e}, nil
}

// Name implements ds.Store.
func (k *PmemKV) Name() string { return "pmemkv" }

// Len implements ds.Store.
func (k *PmemKV) Len() int { return k.e.Len() }

// Insert implements ds.Store.
func (k *PmemKV) Insert(ctx *sim.Ctx, key uint64, val []byte) error {
	return k.e.Insert(ctx, key, val)
}

// Delete implements ds.Store.
func (k *PmemKV) Delete(ctx *sim.Ctx, key uint64) (bool, error) { return k.e.Delete(ctx, key) }

// Get implements ds.Store.
func (k *PmemKV) Get(ctx *sim.Ctx, key uint64) ([]byte, bool) { return k.e.Get(ctx, key) }

// GetInto is Echo.GetInto.
func (k *PmemKV) GetInto(ctx *sim.Ctx, key uint64, buf []byte) ([]byte, bool) {
	return k.e.GetInto(ctx, key, buf)
}

var _ ds.Store = (*PmemKV)(nil)

package kv

import (
	"ffccd/internal/ds"
	"ffccd/internal/pmop"
)

// Fork implements ds.Forker: it clones the volatile segment cache and count
// onto a forked pool and registers a fresh remap hook, with no simulated
// memory operations (see the ds package's Forker doc).
func (e *Echo) Fork(p *pmop.Pool) ds.Store {
	ne := &Echo{
		p:    p,
		segs: append([]pmop.Ptr(nil), e.segs...),
		nb:   e.nb, entT: e.entT, valT: e.valT,
		n: e.n,
	}
	p.RegisterRemapHook(func(remap func(pmop.Ptr) pmop.Ptr) {
		ne.mu.Lock()
		for i := range ne.segs {
			ne.segs[i] = remap(ne.segs[i])
		}
		ne.mu.Unlock()
	})
	return ne
}

// Fork implements ds.Forker.
func (k *PmemKV) Fork(p *pmop.Pool) ds.Store { return &PmemKV{k.e.Fork(p).(*Echo)} }

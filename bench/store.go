package main

import (
	"sync/atomic"
	"time"

	"ffccd/internal/ds"
	"ffccd/internal/obsv"
	"ffccd/internal/pmop"
	"ffccd/internal/sim"
)

// callStats is the exact record of one intercepted method: calls, summed host
// ns, and an HDR histogram of ns per call. Safe for concurrent use: the
// serving dispatcher calls GetParallel from workpool workers.
type callStats struct {
	n    atomic.Uint64
	ns   atomic.Uint64
	hist obsv.Histogram
}

// storeStats is shared by a decorated store and every Fork of it.
type storeStats struct {
	insert, del, get, getParallel callStats
}

// totalNs is the host time spent inside the store across all methods.
func (s *storeStats) totalNs() uint64 {
	return s.insert.ns.Load() + s.del.ns.Load() + s.get.ns.Load() + s.getParallel.ns.Load()
}

// tracedStore times every call into a ds.Store and mirrors its contents in a
// model the run verifies with checker.CheckStore afterwards. It is the span
// boundary for the ds/kv layer, used in traced runs only; untraced runs hand
// the driver the bare store.
type tracedStore struct {
	inner  ds.Store
	layer  string // "ds" or "kv": the metric prefix
	st     *storeStats
	tr     *tracer
	parent int

	// model is written only by Insert/Delete, which every driver issues from
	// one goroutine per store; the concurrent GetParallel path never touches
	// it.
	model map[uint64][]byte

	// Marks of a serving machine's window, in ns since the tracer's origin:
	// first is the start of its first Insert, loadEnd the end of its
	// loadInserts-th Insert (the prepopulation; 0 inserts means no load
	// phase), loadStoreNs the store time up to there, last the end of the
	// latest call. Workers of one batch race on last; any of them is within
	// one GET of the truth.
	loadInserts    uint64
	first, loadEnd int64
	loadStoreNs    uint64
	last           atomic.Int64
}

// parallelInner is what redisws.Serve asserts for to batch GETs.
type parallelInner interface {
	GetParallel(ctx *sim.Ctx, key uint64) ([]byte, bool)
	GetFootprint(key uint64, visit func(off, n uint64))
}

// tracedParallelStore additionally forwards the batched-GET methods. It
// exists as a separate type so that decorating a store without them does not
// make Serve's parallelStore assertion succeed, and decorating one with them
// does not make it fail — either would silently change the dispatch shape.
type tracedParallelStore struct {
	*tracedStore
	par parallelInner
}

// wrapStore decorates s, preserving whether it supports batched GETs. keys
// sizes the model up front: growing a map insert by insert is most of what
// the decorator would otherwise add to a run.
func wrapStore(s ds.Store, layer string, tr *tracer, parent, keys int) ds.Store {
	return wrapWith(s, &tracedStore{layer: layer, st: &storeStats{}, tr: tr, parent: parent, model: make(map[uint64][]byte, keys)})
}

func wrapWith(s ds.Store, t *tracedStore) ds.Store {
	t.inner = s
	if par, ok := s.(parallelInner); ok {
		return &tracedParallelStore{tracedStore: t, par: par}
	}
	return t
}

// traced returns the decorator behind a store handed out by wrapStore.
func traced(s ds.Store) *tracedStore {
	switch v := s.(type) {
	case *tracedStore:
		return v
	case *tracedParallelStore:
		return v.tracedStore
	}
	return nil
}

func (t *tracedStore) done(c *callStats, method string, t0 time.Time) {
	d := time.Since(t0)
	n := c.n.Add(1)
	c.ns.Add(uint64(d))
	c.hist.Observe(uint64(d))
	t.last.Store(t.tr.since(t0) + int64(d))
	if n%sampleEvery == 1 {
		t.tr.add(t.layer+"."+method, t0, d, t.parent, nil)
	}
}

func (t *tracedStore) Name() string { return t.inner.Name() }
func (t *tracedStore) Len() int     { return t.inner.Len() }

func (t *tracedStore) Insert(ctx *sim.Ctx, key uint64, val []byte) error {
	t0 := time.Now()
	if t.first == 0 {
		t.first = t.tr.since(t0)
	}
	err := t.inner.Insert(ctx, key, val)
	t.done(&t.st.insert, "insert", t0)
	if t.st.insert.n.Load() == t.loadInserts {
		t.loadEnd, t.loadStoreNs = t.last.Load(), t.st.totalNs()
	}
	if err == nil {
		t.model[key] = append([]byte(nil), val...)
	}
	return err
}

func (t *tracedStore) Delete(ctx *sim.Ctx, key uint64) (bool, error) {
	t0 := time.Now()
	ok, err := t.inner.Delete(ctx, key)
	t.done(&t.st.del, "delete", t0)
	if err == nil {
		delete(t.model, key)
	}
	return ok, err
}

func (t *tracedStore) Get(ctx *sim.Ctx, key uint64) ([]byte, bool) {
	t0 := time.Now()
	v, ok := t.inner.Get(ctx, key)
	t.done(&t.st.get, "get", t0)
	return v, ok
}

// Fork implements ds.Forker: the clone shares the call statistics (one layer,
// one ledger row) and starts from a copy of the model.
func (t *tracedStore) Fork(p *pmop.Pool) ds.Store {
	model := make(map[uint64][]byte, len(t.model))
	for k, v := range t.model {
		model[k] = v
	}
	c := &tracedStore{layer: t.layer, st: t.st, tr: t.tr, parent: t.parent, model: model}
	return wrapWith(t.inner.(ds.Forker).Fork(p), c)
}

func (t *tracedParallelStore) GetParallel(ctx *sim.Ctx, key uint64) ([]byte, bool) {
	t0 := time.Now()
	v, ok := t.par.GetParallel(ctx, key)
	t.done(&t.st.getParallel, "get_parallel", t0)
	return v, ok
}

// GetFootprint is a non-perturbing peek the dispatcher issues several times
// per candidate; it is forwarded untimed and lands in redisws.dispatch_self_s.
func (t *tracedParallelStore) GetFootprint(key uint64, visit func(off, n uint64)) {
	t.par.GetFootprint(key, visit)
}

var (
	_ ds.Forker = (*tracedStore)(nil)
	_ ds.Forker = (*tracedParallelStore)(nil)
)

package redisws_test

import (
	"errors"
	"testing"

	"ffccd/internal/kv"
	"ffccd/internal/redisws"
	"ffccd/internal/sim"
)

// callSpy is an Echo store that counts its calls and can refuse writes.
type callSpy struct {
	*kv.Echo

	batchedGets, calls int
	failWrites         bool
}

func (s *callSpy) GetParallel(ctx *sim.Ctx, key uint64) ([]byte, bool) {
	s.calls++
	s.batchedGets++
	return s.Echo.GetParallel(ctx, key)
}

func (s *callSpy) Insert(ctx *sim.Ctx, key uint64, val []byte) error {
	s.calls++
	if s.failWrites {
		return errors.New("callSpy: write refused")
	}
	return s.Echo.Insert(ctx, key, val)
}

func (s *callSpy) Delete(ctx *sim.Ctx, key uint64) (bool, error) {
	s.calls++
	return s.Echo.Delete(ctx, key)
}

// TestServeOwnsDevice pins Serve's run of the whole machine on the calling
// goroutine: the store — batched GETs included — and every hook are called,
// batching resumes after an epoch, and neither a rejected configuration nor
// a store error half-way is swallowed.
func TestServeOwnsDevice(t *testing.T) {
	p, ctx := setup(t)
	echo, err := kv.NewEcho(ctx, p, 1024)
	if err != nil {
		t.Fatal(err)
	}
	spy := &callSpy{Echo: echo}
	// The epoch opens at the second maintenance point and closes after three
	// steps, so all three hooks run and batching resumes after it.
	maint, steps := 0, 0
	hooks := redisws.ServeHooks{
		Maintenance: func(uint64) uint64 { maint++; return 0 },
		EpochOpen:   func() bool { return maint == 2 && steps < 3 },
		Step:        func(int) (bool, uint64) { steps++; return steps < 3, 0 },
	}
	res, err := redisws.Serve(ctx, p, spy, serveCfg(), hooks)
	if err != nil {
		t.Fatal(err)
	}
	if steps == 0 || spy.calls == 0 {
		t.Errorf("the step hook ran %d times, the store %d", steps, spy.calls)
	}
	if spy.batchedGets == 0 || spy.batchedGets != res.ParallelOps || res.Batches >= res.ParallelOps {
		t.Errorf("%d batched GETs ran, %d batched ops in %d batches", spy.batchedGets, res.ParallelOps, res.Batches)
	}

	bad := serveCfg()
	bad.Clients = 0
	if _, err := redisws.Serve(ctx, p, spy, bad, hooks); err == nil {
		t.Fatal("Clients = 0 accepted")
	}
	spy.failWrites = true
	if _, err := redisws.Serve(ctx, p, spy, serveCfg(), hooks); err == nil {
		t.Fatal("store error swallowed")
	}
}

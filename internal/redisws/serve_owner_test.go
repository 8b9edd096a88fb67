package redisws_test

import (
	"errors"
	"testing"

	"ffccd/internal/kv"
	"ffccd/internal/pmem"
	"ffccd/internal/redisws"
	"ffccd/internal/sim"
)

// modeSpy is an Echo store that counts its calls and the ones that ran with
// the device in shared mode.
type modeSpy struct {
	*kv.Echo
	dev *pmem.Device

	batchedGets, calls, shared int
	failWrites                 bool
}

func (s *modeSpy) note() {
	s.calls++
	if !s.dev.Exclusive() {
		s.shared++
	}
}

func (s *modeSpy) GetParallel(ctx *sim.Ctx, key uint64) ([]byte, bool) {
	s.note()
	s.batchedGets++
	return s.Echo.GetParallel(ctx, key)
}

func (s *modeSpy) Insert(ctx *sim.Ctx, key uint64, val []byte) error {
	s.note()
	if s.failWrites {
		return errors.New("modeSpy: write refused")
	}
	return s.Echo.Insert(ctx, key, val)
}

func (s *modeSpy) Delete(ctx *sim.Ctx, key uint64) (bool, error) {
	s.note()
	return s.Echo.Delete(ctx, key)
}

// TestServeOwnsDevice pins Serve's device-ownership contract: every store
// call — batched GETs included — and every hook runs with the device in
// exclusive (lock-free) mode, and the caller's mode comes back on return,
// whichever it was, after a run, a rejected config and a store error.
func TestServeOwnsDevice(t *testing.T) {
	for _, callerMode := range []bool{false, true} {
		p, ctx := setup(t)
		dev := p.Device()
		echo, err := kv.NewEcho(ctx, p, 1024)
		if err != nil {
			t.Fatal(err)
		}
		spy := &modeSpy{Echo: echo, dev: dev}
		hookCalls, sharedHooks := 0, 0
		hook := func() {
			hookCalls++
			if !dev.Exclusive() {
				sharedHooks++
			}
		}
		// The epoch opens at the second maintenance point and closes after
		// three steps, so all three hooks run and batching resumes after it.
		maint, steps := 0, 0
		hooks := redisws.ServeHooks{
			Maintenance: func(uint64) uint64 { hook(); maint++; return 0 },
			EpochOpen:   func() bool { hook(); return maint == 2 && steps < 3 },
			Step:        func(int) (bool, uint64) { hook(); steps++; return steps < 3, 0 },
		}
		dev.SetExclusive(callerMode)
		res, err := redisws.Serve(ctx, p, spy, serveCfg(), hooks)
		if err != nil {
			t.Fatal(err)
		}
		if dev.Exclusive() != callerMode {
			t.Errorf("caller mode %v: device handed back in mode %v", callerMode, dev.Exclusive())
		}
		if spy.shared != 0 || sharedHooks != 0 {
			t.Errorf("caller mode %v: %d of %d store calls and %d of %d hook calls ran in shared mode",
				callerMode, spy.shared, spy.calls, sharedHooks, hookCalls)
		}
		if steps == 0 {
			t.Errorf("caller mode %v: the step hook never ran", callerMode)
		}
		if spy.batchedGets == 0 || spy.batchedGets != res.ParallelOps || res.Batches >= res.ParallelOps {
			t.Errorf("caller mode %v: %d batched GETs ran, %d batched ops in %d batches",
				callerMode, spy.batchedGets, res.ParallelOps, res.Batches)
		}

		// Neither a rejected configuration nor a run that fails half-way may
		// leave the device taken.
		bad := serveCfg()
		bad.Clients = 0
		if _, err := redisws.Serve(ctx, p, spy, bad, hooks); err == nil {
			t.Fatal("Clients = 0 accepted")
		}
		if dev.Exclusive() != callerMode {
			t.Errorf("caller mode %v: config error left the device in mode %v", callerMode, dev.Exclusive())
		}
		spy.failWrites = true
		if _, err := redisws.Serve(ctx, p, spy, serveCfg(), hooks); err == nil {
			t.Fatal("store error swallowed")
		}
		if dev.Exclusive() != callerMode {
			t.Errorf("caller mode %v: store error left the device in mode %v", callerMode, dev.Exclusive())
		}
		dev.SetExclusive(false)
	}
}

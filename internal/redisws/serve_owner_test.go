package redisws_test

import (
	"errors"
	"sync/atomic"
	"testing"

	"ffccd/internal/kv"
	"ffccd/internal/pmem"
	"ffccd/internal/redisws"
	"ffccd/internal/sim"
	"ffccd/internal/workpool"
)

// modeSpy is an Echo store that notes which device mode each call ran under.
type modeSpy struct {
	*kv.Echo
	dev *pmem.Device

	sharedGets, exclusiveGets atomic.Int64 // GetParallel runs on pool helpers
	sharedWrites              int          // Insert/Delete run on the dispatcher
	failWrites                bool
}

func (s *modeSpy) GetParallel(ctx *sim.Ctx, key uint64) ([]byte, bool) {
	if s.dev.Exclusive() {
		s.exclusiveGets.Add(1)
	} else {
		s.sharedGets.Add(1)
	}
	return s.Echo.GetParallel(ctx, key)
}

func (s *modeSpy) Insert(ctx *sim.Ctx, key uint64, val []byte) error {
	if s.failWrites {
		return errors.New("modeSpy: write refused")
	}
	if !s.dev.Exclusive() {
		s.sharedWrites++
	}
	return s.Echo.Insert(ctx, key, val)
}

func (s *modeSpy) Delete(ctx *sim.Ctx, key uint64) (bool, error) {
	if !s.dev.Exclusive() {
		s.sharedWrites++
	}
	return s.Echo.Delete(ctx, key)
}

// TestServeOwnsDevice pins Serve's device-ownership contract: exclusive
// (lock-free) mode for everything the dispatcher does itself — load, warm-up,
// serial ops, hooks — shared mode exactly around a multi-op GET batch, and
// the caller's mode back on return, whichever it was.
func TestServeOwnsDevice(t *testing.T) {
	old := workpool.Parallelism()
	defer workpool.SetParallelism(old)
	workpool.SetParallelism(4)

	for _, callerMode := range []bool{false, true} {
		p, ctx := setup(t)
		dev := p.Device()
		echo, err := kv.NewEcho(ctx, p, 1024)
		if err != nil {
			t.Fatal(err)
		}
		spy := &modeSpy{Echo: echo, dev: dev}
		sharedHooks := 0
		hooks := redisws.ServeHooks{Maintenance: func(uint64) uint64 {
			if !dev.Exclusive() {
				sharedHooks++
			}
			return 0
		}}
		dev.SetExclusive(callerMode)
		res, err := redisws.Serve(ctx, p, spy, serveCfg(), hooks)
		if err != nil {
			t.Fatal(err)
		}
		if dev.Exclusive() != callerMode {
			t.Errorf("caller mode %v: device handed back in mode %v", callerMode, dev.Exclusive())
		}
		if spy.sharedWrites != 0 || sharedHooks != 0 {
			t.Errorf("caller mode %v: %d store writes and %d hook calls ran in shared mode",
				callerMode, spy.sharedWrites, sharedHooks)
		}
		shared, exclusive := spy.sharedGets.Load(), spy.exclusiveGets.Load()
		if shared == 0 || int(shared+exclusive) != res.ParallelOps {
			t.Errorf("caller mode %v: %d shared + %d exclusive batched GETs, %d batched ops",
				callerMode, shared, exclusive, res.ParallelOps)
		}
		// Exclusive batched GETs are the batches of one, which run inline.
		if multi := res.Batches - int(exclusive); multi <= 0 || int(shared) < 2*multi {
			t.Errorf("caller mode %v: %d batches, %d of one op, but only %d shared GETs",
				callerMode, res.Batches, exclusive, shared)
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

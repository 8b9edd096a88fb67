package ffccd_test

// Soak test: a long randomized lifecycle — churn, auto-triggered
// defragmentation, periodic power failures at arbitrary points, recovery —
// with continuous model verification. This is the closest the test suite
// gets to "run it for a day"; skipped under -short.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ffccd"
	"ffccd/internal/checker"
	"ffccd/internal/pmem"
)

// soakGenDeadline bounds one generation (churn + crash + recovery + full
// verification). A generation that blows past it is a hang — a recovery
// livelock or a lost wakeup in the engine — and the test fails immediately
// instead of stalling CI until the global test timeout.
const soakGenDeadline = 2 * time.Minute

func TestSoakLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	for _, scheme := range []ffccd.Scheme{ffccd.SchemeSFCCD, ffccd.SchemeFFCCDCheckLookup} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			soak(t, scheme, 6, 1500)
		})
	}
}

func soak(t *testing.T, scheme ffccd.Scheme, generations, opsPerGen int) {
	cfg := ffccd.DefaultConfig()
	cfg.CacheBytes = 256 * 1024
	rt := ffccd.NewRuntime(&cfg, 256<<20)
	ctx := ffccd.NewCtx(&cfg)
	mkReg := func() *ffccd.Registry {
		r := ffccd.NewRegistry()
		ffccd.RegisterStoreTypes(r)
		return r
	}
	pool, err := rt.Create("soak", 96<<20, ffccd.Page4K, mkReg())
	if err != nil {
		t.Fatal(err)
	}
	dev := rt.Device()
	rng := rand.New(rand.NewSource(77))

	opt := ffccd.DefaultEngineOptions()
	opt.Scheme = scheme
	opt.TriggerRatio, opt.TargetRatio = 1.2, 1.05

	model := map[uint64][]byte{}
	var eng *ffccd.Engine

	for gen := 0; gen < generations; gen++ {
		gen := gen
		// Run the whole generation under a deadline. The body only touches
		// trial-local simulated state, so on expiry the goroutine is safely
		// abandoned and the test fails.
		done := make(chan error, 1)
		go func() {
			done <- func() error {
				store, err := ffccd.NewList(ctx, pool)
				if err != nil {
					return fmt.Errorf("gen %d: %v", gen, err)
				}
				if eng == nil {
					eng = ffccd.NewEngine(pool, opt)
				}

				// Churn with transactional ops; every op keeps the model in sync.
				for i := 0; i < opsPerGen; i++ {
					key := rng.Uint64() % 800
					switch rng.Intn(10) {
					case 0, 1, 2, 3, 4, 5:
						v := soakValue(key^uint64(gen*opsPerGen+i), 16+rng.Intn(140))
						if err := store.Insert(ctx, key, v); err != nil {
							return fmt.Errorf("gen %d op %d: %v", gen, i, err)
						}
						model[key] = v
					case 6, 7:
						store.Delete(ctx, key)
						delete(model, key)
					default:
						store.Get(ctx, key)
					}
					// Occasionally run a synchronous defragmentation cycle.
					if i%400 == 399 && pool.Heap().Frag(ffccd.Page4K).FragRatio > opt.TriggerRatio {
						eng.RunCycle(ctx)
					}
				}

				// Sometimes crash mid-epoch, sometimes crash quiescent,
				// sometimes shut down cleanly.
				mode := rng.Intn(3)
				switch mode {
				case 0: // crash mid-epoch if possible
					if eng.BeginCycle(ctx) {
						eng.StepCompaction(ctx, rng.Intn(600))
					}
					crashPolicy(dev, rng)
					dev.Crash()
					if eng.RBB() != nil {
						eng.RBB().PowerLossFlush()
					}
				case 1: // crash with the engine idle (dirty cache still lost)
					crashPolicy(dev, rng)
					dev.Crash()
					if eng.RBB() != nil {
						eng.RBB().PowerLossFlush()
					}
				default: // clean shutdown
					eng.Close()
					dev.FlushAll(ctx)
				}
				eng = nil

				// Restart.
				rt2, err := ffccd.AttachRuntime(&cfg, dev)
				if err != nil {
					return fmt.Errorf("gen %d attach: %v", gen, err)
				}
				pool, err = rt2.Open("soak", mkReg())
				if err != nil {
					return fmt.Errorf("gen %d open: %v", gen, err)
				}
				eng, err = ffccd.Recover(ctx, pool, opt)
				if err != nil {
					return fmt.Errorf("gen %d recover: %v", gen, err)
				}

				// Verify: rebuild the store view, compare against the
				// surviving model. Crashes may have rolled back the last
				// uncommitted op, but every op here committed before the
				// crash point, so the model holds exactly.
				store, err = ffccd.NewList(ctx, pool)
				if err != nil {
					return fmt.Errorf("gen %d rebuild: %v", gen, err)
				}
				if err := checker.CheckStore(ctx, store, model); err != nil {
					return fmt.Errorf("gen %d (mode %d): %v", gen, mode, err)
				}
				if _, err := checker.CheckGraph(ctx, pool); err != nil {
					return fmt.Errorf("gen %d graph: %v", gen, err)
				}
				return nil
			}()
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(soakGenDeadline):
			t.Fatalf("gen %d: exceeded the %s per-generation deadline (hang)", gen, soakGenDeadline)
		}
	}
	if eng != nil {
		eng.Close()
	}
}

// soakValue is a deterministic value of size bytes (at least one) derived
// from key: an xorshift stream seeded by key.
func soakValue(key uint64, size int) []byte {
	if size < 1 {
		size = 1
	}
	b := make([]byte, size)
	x := key*0x9E3779B97F4A7C15 + 1
	for i := range b {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b[i] = byte(x)
	}
	return b
}

func crashPolicy(dev *pmem.Device, rng *rand.Rand) {
	switch rng.Intn(3) {
	case 0:
		dev.SetCrashPolicy(pmem.DropAllInflight)
	case 1:
		dev.SetCrashPolicy(pmem.KeepAllInflight)
	default:
		salt := rng.Uint64()
		dev.SetCrashPolicy(func(line uint64) bool {
			return (line*0x9E3779B97F4A7C15+salt&0xFFFF)%3 != 0
		})
	}
}

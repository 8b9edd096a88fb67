// KV store example: an Echo-style persistent hash store serving a mixed
// workload while FFCCD defragments it between operations (the paper's §7.3
// setting), then surviving a clean restart. The program is one goroutine, as
// every simulated machine here is: the store's operations and the
// defragmentation cycles interleave on the simulated clocks, not on host
// threads.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"ffccd"
)

func main() {
	cfg := ffccd.DefaultConfig()
	rt := ffccd.NewRuntime(&cfg, 256<<20)
	ctx := ffccd.NewCtx(&cfg)
	reg := ffccd.NewRegistry()
	ffccd.RegisterKVTypes(reg)
	pool, err := rt.Create("kvdemo", 128<<20, ffccd.Page4K, reg)
	if err != nil {
		log.Fatal(err)
	}

	store, err := ffccd.NewEcho(ctx, pool, 4096)
	if err != nil {
		log.Fatal(err)
	}

	// The §5 trigger, driven by the caller: after every insert or delete, the
	// check pmalloc/pfree would make — fragmentation past the 1.5 trigger — and
	// a defragmentation cycle, on its own simulated thread, when it fires.
	eng := ffccd.NewEngine(pool, ffccd.DefaultEngineOptions())
	gcCtx := ffccd.NewCtx(&cfg)
	maybeDefrag := func() {
		if eng.Triggered() {
			eng.RunCycle(gcCtx)
		}
	}

	// Mixed workload: inserts, overwrites, deletes — with a mass-expiry
	// burst partway through (the fragmentation spike that trips the 1.5
	// trigger, like a cache flushing cold entries).
	rng := rand.New(rand.NewSource(42))
	model := map[uint64]byte{}
	mixed := func(ops int) {
		for op := 0; op < ops; op++ {
			key := rng.Uint64() % 15000
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4, 5:
				tag := byte(op)
				val := make([]byte, 64+rng.Intn(128))
				val[0] = tag
				if err := store.Insert(ctx, key, val); err != nil {
					log.Fatal(err)
				}
				model[key] = tag
				maybeDefrag()
			case 6, 7:
				store.Delete(ctx, key)
				delete(model, key)
				maybeDefrag()
			default:
				store.Get(ctx, key)
			}
		}
	}
	mixed(40000)
	// Expiry burst: drop ~70% of the live set.
	for key := range model {
		if rng.Intn(10) < 7 {
			store.Delete(ctx, key)
			delete(model, key)
			maybeDefrag()
		}
	}
	mixed(20000)
	eng.Close()
	st := eng.Stats()
	frag := pool.Heap().Frag(ffccd.Page4K)
	fmt.Printf("after workload: %d keys, fragR=%.2f, %d triggered cycles, %d objects moved, %d leaks reclaimed\n",
		store.Len(), frag.FragRatio, st.Cycles, st.ObjectsMoved, st.LeaksReclaimed)

	// Verify against the model.
	bad := 0
	for k, tag := range model {
		v, ok := store.Get(ctx, k)
		if !ok || v[0] != tag {
			bad++
		}
	}
	fmt.Printf("verification: %d/%d keys correct\n", len(model)-bad, len(model))
	if bad > 0 {
		log.Fatal("store corrupted")
	}

	// Simulated restart (clean): reopen and read through.
	pool.Device().FlushAll(ctx)
	rt2, _ := ffccd.AttachRuntime(&cfg, rt.Device())
	reg2 := ffccd.NewRegistry()
	ffccd.RegisterKVTypes(reg2)
	pool2, _ := rt2.Open("kvdemo", reg2)
	eng2, err := ffccd.Recover(ctx, pool2, ffccd.DefaultEngineOptions())
	if err != nil {
		log.Fatal(err)
	}
	defer eng2.Close()
	store2, _ := ffccd.NewEcho(ctx, pool2, 0)
	fmt.Printf("after restart: %d keys survive\n", store2.Len())
}

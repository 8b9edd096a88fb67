package pmem

import (
	"sync"
	"testing"

	"ffccd/internal/sim"
)

// TestStatsExactUnderConcurrency hammers one device from 8 goroutines with a
// mix of distinct-line and overlapping-line traffic and then demands the
// sharded counters sum to exactly the number of issued operations. Run under
// -race this doubles as the data-race check for the per-set in-flight state
// and the pending-set list.
func TestStatsExactUnderConcurrency(t *testing.T) {
	const (
		workers = 8
		iters   = 1600 // divisible by 16 so the op mix below is exact
	)
	cfg := sim.DefaultConfig()
	// Small cache: constant eviction and writeback pressure.
	cfg.CacheBytes = 16 * 1024
	cfg.CacheWays = 4
	d := NewDevice(&cfg, 1<<21)

	// Layout: lines 0..127 are shared load targets (all workers overlap);
	// each worker stores to its own 64-line region and relocates within its
	// own source/destination pair — so the mix has both contended and
	// uncontended sets.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ctx := sim.NewCtx(&cfg)
			own := uint64(64<<10 + id*(8<<10))
			relocSrc := uint64(1<<20 + id*(8<<10))
			relocDst := uint64(1<<20 + 256<<10 + id*(8<<10))
			var buf [16]byte
			for i := 0; i < iters; i++ {
				d.Store(ctx, own+uint64(i%64)*LineSize, buf[:16])
				d.LoadU64(ctx, uint64(i%128)*LineSize)
				d.Clwb(ctx, own+uint64(i%64)*LineSize)
				if i%8 == 7 {
					d.Sfence(ctx)
				}
				if i%16 == 15 {
					// One full aligned line: exactly 2 internal loads (source
					// chunk + destination gap) and 1 internal store.
					d.RelocateParts(ctx, []RelocatePart{{
						Dst: relocDst + uint64(i%32)*LineSize,
						Src: relocSrc + uint64(i%32)*LineSize,
						N:   LineSize,
					}})
				}
			}
		}(w)
	}
	// A reader snapshots the counters while the workers run: the derived hit
	// count must never see more misses than lines touched (it would wrap).
	done := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			if h := d.Stats().CacheHits; h > workers*iters*4 {
				t.Errorf("mid-run snapshot derived %d cache hits", h)
				return
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(done)
	<-readerDone

	st := d.Stats()
	relocs := uint64(workers * iters / 16)
	wantLoads := uint64(workers*iters) + 2*relocs
	wantStores := uint64(workers*iters) + relocs
	checks := []struct {
		name string
		got  uint64
		want uint64
	}{
		{"Loads", st.Loads, wantLoads},
		{"Stores", st.Stores, wantStores},
		{"Clwbs", st.Clwbs, uint64(workers * iters)},
		{"Sfences", st.Sfences, uint64(workers * iters / 8)},
		{"RelocateOps", st.RelocateOps, relocs},
		// Every Load/Store above touches exactly one line, so the hit/miss
		// split must partition the access count with nothing lost.
		{"CacheHits+CacheMisses", st.CacheHits + st.CacheMisses, wantLoads + wantStores},
		{"MediaReads", st.MediaReads, st.CacheMisses},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if st.MediaWrites == 0 || st.Evictions == 0 {
		t.Errorf("no writeback traffic recorded: %+v", st)
	}
}

// TestSetIndexMatchesModulo pins the division-free set mapping to the plain
// modulo it replaces, across the full tag width and awkward boundaries.
func TestSetIndexMatchesModulo(t *testing.T) {
	cfg := sim.DefaultConfig()
	d := NewDevice(&cfg, 1<<22)
	if d.setMagic == 0 {
		t.Fatalf("fastmod not armed for nset=%d", d.nset)
	}
	check := func(lineIdx uint64) {
		if got, want := d.setIndex(lineIdx), int(lineIdx%uint64(d.nset)); got != want {
			t.Fatalf("setIndex(%d) = %d, want %d", lineIdx, got, want)
		}
	}
	for i := uint64(0); i < 1<<16; i++ {
		check(i)
	}
	for _, edge := range []uint64{1<<32 - 1, 1<<32 - 2, 1 << 31, 1<<31 - 1, 3072, 3071, 3073} {
		check(edge)
	}
	// An LCG walk over the rest of the 32-bit index space.
	x := uint64(88172645463325252 & (1<<32 - 1))
	for i := 0; i < 1<<16; i++ {
		x = (x*6364136223846793005 + 1442695040888963407) & (1<<32 - 1)
		check(x)
	}
}

// TestRelocatePartsAllocFree pins the relocate hot path at zero allocations
// per call once its pooled scratch is warm.
func TestRelocatePartsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector defeats sync.Pool reuse")
	}
	cfg := sim.DefaultConfig()
	d := NewDevice(&cfg, 1<<20)
	ctx := sim.NewCtx(&cfg)
	parts := []RelocatePart{
		{Dst: 4096, Src: 64, N: 200},        // unaligned, multi-line
		{Dst: 4296, Src: 1024, N: 24},       // shares a destination line
		{Dst: 8192, Src: 2048, N: LineSize}, // full aligned line
	}
	d.RelocateParts(ctx, parts) // warm the pooled scratch
	if allocs := testing.AllocsPerRun(100, func() {
		d.RelocateParts(ctx, parts)
	}); allocs != 0 {
		t.Errorf("RelocateParts allocates %.1f objects per call, want 0", allocs)
	}
}

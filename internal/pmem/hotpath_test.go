package pmem

import (
	"testing"

	"ffccd/internal/sim"
)

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

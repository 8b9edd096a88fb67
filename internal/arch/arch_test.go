package arch

import (
	"encoding/binary"
	"testing"

	"ffccd/internal/pmem"
	"ffccd/internal/sim"
)

func testSetup() (*sim.Config, *pmem.Device, *sim.Ctx) {
	cfg := sim.DefaultConfig()
	cfg.CacheBytes = 16 * 1024
	cfg.CacheWays = 4
	d := pmem.NewDevice(&cfg, 1<<22)
	return &cfg, d, sim.NewCtx(&cfg)
}

func TestRBBRecordsReachedLines(t *testing.T) {
	cfg, dev, ctx := testSetup()
	rbb := NewRBB(cfg, dev)
	// Bitmap for 64 frames at 1 MB.
	rbb.Configure(1<<20, 0, 64)
	dev.SetRBB(rbb)

	// Relocate one cacheline into frame 3, line 5, then flush it.
	dst := uint64(3<<FrameShift | 5<<pmem.LineShift)
	dev.Store(ctx, 0, make([]byte, 64))
	dev.Relocate(ctx, dst, 0, 64)
	dev.Clwb(ctx, dst)
	dev.Sfence(ctx)

	word := rbb.Read(ctx, 3)
	if word != 1<<5 {
		t.Fatalf("reached word = %b, want bit 5", word)
	}
	if rbb.Read(ctx, 2) != 0 {
		t.Fatal("unrelated frame has reached bits")
	}
}

func TestRBBEvictionWritesBitmapToMedia(t *testing.T) {
	cfg, dev, ctx := testSetup()
	rbb := NewRBB(cfg, dev)
	rbb.Configure(1<<20, 0, 256)
	dev.SetRBB(rbb)

	// Touch more frames than RBB entries so early ones are evicted.
	n := cfg.RBBEntries + 4
	for f := 0; f < n; f++ {
		dst := uint64(f) << FrameShift
		dev.Relocate(ctx, dst, 1<<19, 64)
		dev.Clwb(ctx, dst)
		dev.Sfence(ctx)
	}
	if rbb.Misses == 0 || rbb.Writebacks == 0 {
		t.Fatalf("expected RBB misses and writebacks, got %d/%d", rbb.Misses, rbb.Writebacks)
	}
	// Frame 0's word must be in media now (read it raw).
	var buf [8]byte
	dev.MediaRead(1<<20+0*8, buf[:])
	if binary.LittleEndian.Uint64(buf[:])&1 == 0 {
		t.Fatal("evicted RBB entry not written to in-memory bitmap")
	}
}

func TestRBBPowerLossFlushSurvivesCrash(t *testing.T) {
	cfg, dev, ctx := testSetup()
	rbb := NewRBB(cfg, dev)
	rbb.Configure(1<<20, 0, 64)
	dev.SetRBB(rbb)

	dst := uint64(7 << FrameShift)
	dev.Relocate(ctx, dst, 1<<19, 64)
	dev.Clwb(ctx, dst)
	dev.Sfence(ctx) // line reached; bit only in RBB entry

	// Crash: ADR flushes RBB.
	dev.Crash()
	rbb.PowerLossFlush()

	var buf [8]byte
	dev.MediaRead(1<<20+7*8, buf[:])
	if binary.LittleEndian.Uint64(buf[:])&1 == 0 {
		t.Fatal("RBB contents lost on power failure")
	}
}

// TestRBBCrashKeepsEvictedAndResidentBits: past the RBB's capacity some
// reached words are already written back and the rest sit dirty in the
// buffer; after a crash and the ADR flush, media holds every one of them.
func TestRBBCrashKeepsEvictedAndResidentBits(t *testing.T) {
	cfg, dev, ctx := testSetup()
	rbb := NewRBB(cfg, dev)
	rbb.Configure(1<<20, 0, 256)
	dev.SetRBB(rbb)
	n := cfg.RBBEntries + 5
	for f := 0; f < n; f++ {
		dst := uint64(f) << FrameShift
		dev.Relocate(ctx, dst, 1<<19, 64)
		dev.Clwb(ctx, dst)
		dev.Sfence(ctx)
	}
	if rbb.Writebacks == 0 {
		t.Fatal("no entry was evicted; the test needs written-back words")
	}
	dev.Crash()
	rbb.PowerLossFlush()
	var buf [8]byte
	for f := 0; f < n; f++ {
		dev.MediaRead(1<<20+uint64(f)*8, buf[:])
		if binary.LittleEndian.Uint64(buf[:])&1 == 0 {
			t.Fatalf("frame %d's reached bit lost across the crash", f)
		}
	}
}

func TestRBBUnreachedLineLeavesNoBit(t *testing.T) {
	cfg, dev, ctx := testSetup()
	rbb := NewRBB(cfg, dev)
	rbb.Configure(1<<20, 0, 64)
	dev.SetRBB(rbb)

	dst := uint64(9 << FrameShift)
	dev.Relocate(ctx, dst, 1<<19, 64) // stays in cache
	dev.Crash()
	rbb.PowerLossFlush()
	var buf [8]byte
	dev.MediaRead(1<<20+9*8, buf[:])
	if binary.LittleEndian.Uint64(buf[:]) != 0 {
		t.Fatal("bit set for a line that never reached persistence")
	}
}

func TestRBBInactiveIgnores(t *testing.T) {
	cfg, dev, ctx := testSetup()
	rbb := NewRBB(cfg, dev)
	dev.SetRBB(rbb)
	// Not configured: relocations must not touch anything.
	dev.Relocate(ctx, 4096, 0, 64)
	dev.Clwb(ctx, 4096)
	dev.Sfence(ctx)
	if rbb.Hits+rbb.Misses != 0 {
		t.Fatal("inactive RBB processed a notification")
	}
}

type mapForwarder map[uint64]uint64

func (m mapForwarder) LookupAddr(_ *sim.Ctx, src uint64) (uint64, bool) {
	d, ok := m[src]
	return d, ok
}

func TestCheckLookupHappyPath(t *testing.T) {
	cfg, _, ctx := testSetup()
	u := NewCheckLookupUnit(cfg)
	relocPage := uint64(5 << FrameShift)
	bs := NewBloomSetFromPages([]uint64{relocPage}, cfg.BloomFilters, cfg.BloomFilterBytes)
	fwd := mapForwarder{relocPage + 32: 0x100020}

	dst, ok := u.CheckLookup(ctx, relocPage+32, bs, fwd)
	if !ok || dst != 0x100020 {
		t.Fatalf("checklookup = (%#x,%v), want (0x100020,true)", dst, ok)
	}
}

func TestCheckLookupNonRelocationFastPath(t *testing.T) {
	cfg, _, ctx := testSetup()
	u := NewCheckLookupUnit(cfg)
	bs := NewBloomSetFromPages([]uint64{5 << FrameShift}, cfg.BloomFilters, cfg.BloomFilterBytes)
	fwd := mapForwarder{}

	before := ctx.Clock.Total()
	if _, ok := u.CheckLookup(ctx, 77<<FrameShift, bs, fwd); ok {
		t.Fatal("non-relocation address reported relocated")
	}
	// Fast path: the range compare alone resolves it — no filter fetch.
	if cost := ctx.Clock.Total() - before; cost > cfg.BloomCheckLatency {
		t.Errorf("fast-path cost %d too high", cost)
	}
}

func TestCheckLookupFalsePositiveIsHarmless(t *testing.T) {
	// §4.3.2: a bloom false positive must resolve to not-found via the PMFT.
	cfg, _, ctx := testSetup()
	u := NewCheckLookupUnit(cfg)
	// Tiny filters over a wide page set: false positives likely.
	var pages []uint64
	for pg := uint64(0); pg < 512; pg += 16 {
		pages = append(pages, pg<<FrameShift)
	}
	bs := NewBloomSetFromPages(pages, 1, 8)
	fwd := mapForwarder{} // PMFT knows nothing
	for page := uint64(0); page < 512; page++ {
		if _, ok := u.CheckLookup(ctx, page<<FrameShift, bs, fwd); ok {
			t.Fatalf("false positive produced a destination for page %d", page)
		}
	}
}

func TestPMFTLBCaching(t *testing.T) {
	cfg, _, ctx := testSetup()
	u := NewCheckLookupUnit(cfg)
	page := uint64(4 << FrameShift)
	bs := NewBloomSetFromPages([]uint64{page}, 1, cfg.BloomFilterBytes)
	fwd := mapForwarder{page: 0x8000, page + 64: 0x8040}

	u.CheckLookup(ctx, page, bs, fwd)
	if u.PMFTLBMisses != 1 {
		t.Fatalf("first lookup: misses = %d, want 1", u.PMFTLBMisses)
	}
	u.CheckLookup(ctx, page+64, bs, fwd)
	if u.PMFTLBHits != 1 {
		t.Fatalf("same-frame lookup: hits = %d, want 1", u.PMFTLBHits)
	}
}

func TestCheckLookupNilBloomSet(t *testing.T) {
	cfg, _, ctx := testSetup()
	u := NewCheckLookupUnit(cfg)
	if _, ok := u.CheckLookup(ctx, 0x1000, nil, mapForwarder{}); ok {
		t.Fatal("nil bloom set must mean no relocation in progress")
	}
}

func TestCostTableMatchesPaper(t *testing.T) {
	cfg := sim.DefaultConfig()
	rows, mem := CostTable(&cfg)
	if rows[0].SizeBytes != 100 {
		t.Errorf("RBB size = %d, want 100", rows[0].SizeBytes)
	}
	if rows[1].SizeBytes != 1132 {
		t.Errorf("PMFTLB size = %d, want 1132", rows[1].SizeBytes)
	}
	if rows[2].SizeBytes != 1024 {
		t.Errorf("BFC size = %d, want 1024", rows[2].SizeBytes)
	}
	if got := TotalOnChipBytes(&cfg); got != 2256 {
		t.Errorf("total on-chip storage = %d, want 2256 (paper §4.4)", got)
	}
	if mem[0].BytesPer4KBPage != 259 || mem[1].BytesPer4KBPage != 8 {
		t.Errorf("in-memory rows wrong: %+v", mem)
	}
	if mem[0].OverheadPercent < 6.2 || mem[0].OverheadPercent > 6.4 {
		t.Errorf("PMFT overhead = %.2f%%, want ≈6.32%%", mem[0].OverheadPercent)
	}
}

func TestBloomSetTightRanges(t *testing.T) {
	// Two clusters of relocation pages, far apart: the set must chunk them
	// and addresses between the clusters must fall outside every range.
	var pages []uint64
	for i := uint64(0); i < 16; i++ {
		pages = append(pages, (100+i)<<FrameShift)
		pages = append(pages, (9000+i)<<FrameShift)
	}
	bs := NewBloomSetFromPages(pages, 8, 1024)
	if len(bs.Ranges) == 0 {
		t.Fatal("no ranges")
	}
	for _, pg := range pages {
		idx := bs.rangeFor(pg)
		if idx < 0 || !bs.Ranges[idx].Filter.Test(pg>>FrameShift) {
			t.Fatalf("page %#x not covered", pg)
		}
	}
	if bs.rangeFor(5000<<FrameShift) >= 0 {
		t.Fatal("mid-gap address covered by a range")
	}
	if NewBloomSetFromPages(nil, 8, 1024).rangeFor(0) >= 0 {
		t.Fatal("empty set covered an address")
	}
}

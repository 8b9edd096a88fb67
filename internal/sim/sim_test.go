package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// accessNoStreak is the pre-streak Access algorithm, kept verbatim as the
// reference the same-page fast path must match cycle-for-cycle.
func accessNoStreak(t *TLB, va uint64, pageShift uint) uint64 {
	if t.buf == nil {
		t.arm(true)
	}
	t.Accesses++
	vpn := (va >> pageShift) + 1
	cycles := t.cfg.TLB1Latency
	l1 := &t.l14k
	if pageShift >= 21 {
		l1 = &t.l12m
	}
	if l1.lookup(vpn) {
		return cycles
	}
	t.L1Misses++
	cycles += t.cfg.TLB2Latency
	if t.l2.lookup(vpn) {
		return cycles
	}
	t.L2Misses++
	cycles += t.cfg.TLBMissPenalty + t.cfg.TLBWalkPenaltyExtra
	return cycles
}

func TestTLBStreakFastPathBitIdentical(t *testing.T) {
	// Drive a locality-heavy trace (long same-page runs, page switches, 4K/2M
	// mixes, checkpoint round-trips) through the streak fast path and
	// the reference algorithm; cycles, counters, and array state must match
	// access-for-access.
	cfg := DefaultConfig()
	fast, ref := NewTLB(&cfg), NewTLB(&cfg)
	rng := rand.New(rand.NewSource(7))
	var chk TLBCheckpoint
	page, shift := uint64(0), uint(12)
	for i := 0; i < 200000; i++ {
		switch r := rng.Intn(100); {
		case r < 2: // switch page size
			if shift == 12 {
				shift = 21
			} else {
				shift = 12
			}
			page = rng.Uint64() % (1 << 20)
		case r < 20: // jump to another page
			page = rng.Uint64() % (1 << 20)
		case r == 21: // checkpoint/restore round-trip on the fast TLB only
			fast.CheckpointInto(&chk)
			fast.Restore(&chk)
		case r == 22: // mid-streak counter read must include deferred hits
			if fast.AccessCount() != ref.Accesses {
				t.Fatalf("access %d: AccessCount = %d, reference %d",
					i, fast.AccessCount(), ref.Accesses)
			}
		}
		va := page<<shift | (rng.Uint64() & (1<<shift - 1))
		got, want := fast.Access(va, shift), accessNoStreak(ref, va, shift)
		if got != want {
			t.Fatalf("access %d (va=%#x shift=%d): streak path charged %d, reference %d",
				i, va, shift, got, want)
		}
	}
	if fast.AccessCount() != ref.Accesses || fast.L1Misses != ref.L1Misses || fast.L2Misses != ref.L2Misses {
		t.Fatalf("counters diverged: fast %d/%d/%d ref %d/%d/%d",
			fast.AccessCount(), fast.L1Misses, fast.L2Misses, ref.Accesses, ref.L1Misses, ref.L2Misses)
	}
	var a, b TLBCheckpoint
	fast.CheckpointInto(&a)
	ref.CheckpointInto(&b)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("TLB array state diverged between streak path and reference")
	}
}

func TestDefaultConfigTable2(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.DRAMLatency != 120 {
		t.Errorf("DRAM latency = %d, want 120", cfg.DRAMLatency)
	}
	if cfg.PMReadLatency != 360 || cfg.PMWriteLatency != 360 {
		t.Errorf("PM latency = %d/%d, want 360", cfg.PMReadLatency, cfg.PMWriteLatency)
	}
	if cfg.WPQLatency != 30 {
		t.Errorf("WPQ latency = %d, want 30", cfg.WPQLatency)
	}
	if cfg.PMFTLBEntries != 16 || cfg.RBBEntries != 8 || cfg.BloomFilterBytes != 1024 {
		t.Errorf("FFCCD structure sizes wrong: %d/%d/%d", cfg.PMFTLBEntries, cfg.RBBEntries, cfg.BloomFilterBytes)
	}
	if cfg.TLBMissPenalty != 60 || cfg.TLB1Latency != 1 || cfg.TLB2Latency != 4 {
		t.Errorf("TLB latencies wrong")
	}
}

func TestClockAttribution(t *testing.T) {
	c := NewClock()
	c.Add(CatApp, 100)
	c.Add(CatMark, 10)
	c.Add(CatCopy, 20)
	c.Add(CatCheckLookup, 5)
	if got := c.Cycles(CatApp); got != 100 {
		t.Errorf("app cycles = %d, want 100", got)
	}
	if got := c.Total(); got != 135 {
		t.Errorf("total = %d, want 135", got)
	}
	if got := c.GCTotal(); got != 35 {
		t.Errorf("gc total = %d, want 35", got)
	}
}

func TestClockMerge(t *testing.T) {
	a, b := NewClock(), NewClock()
	a.Add(CatApp, 7)
	b.Add(CatApp, 3)
	b.Add(CatRecovery, 11)
	a.Merge(b)
	if a.Cycles(CatApp) != 10 || a.Cycles(CatRecovery) != 11 {
		t.Errorf("merge: got %d app, %d recovery", a.Cycles(CatApp), a.Cycles(CatRecovery))
	}
	a.Reset()
	if a.Total() != 0 {
		t.Errorf("reset: total = %d", a.Total())
	}
}

// TestCtxDerived: a derived context charges its own category to the parent's
// clock and TLB, and its pending flushes are a copy the parent never sees.
func TestCtxDerived(t *testing.T) {
	cfg := DefaultConfig()
	ctx := NewCtx(&cfg)
	ctx.Charge(5)
	ctx.PendingFlushes = 2
	gc := ctx.Derived(CatCopy)
	gc.Charge(9)
	if ctx.Clock.Cycles(CatApp) != 5 || ctx.Clock.Cycles(CatCopy) != 9 {
		t.Errorf("Derived must share the clock: app=%d copy=%d",
			ctx.Clock.Cycles(CatApp), ctx.Clock.Cycles(CatCopy))
	}
	if gc.TLB != ctx.TLB || gc.Shard != ctx.Shard {
		t.Error("Derived must share the TLB and shard")
	}
	if gc.PendingFlushes++; ctx.PendingFlushes != 2 {
		t.Errorf("a derived context's flush moved the parent's count to %d", ctx.PendingFlushes)
	}
}

func TestCategoryString(t *testing.T) {
	if CatApp.String() != "app" || CatCheckLookup.String() != "checklookup" {
		t.Errorf("category names wrong: %s %s", CatApp, CatCheckLookup)
	}
	if Category(99).String() != "Category(99)" {
		t.Errorf("out-of-range category: %s", Category(99))
	}
}

func TestTLBHitAfterMiss(t *testing.T) {
	cfg := DefaultConfig()
	tlb := NewTLB(&cfg)
	va := uint64(0x12345000)
	first := tlb.Access(va, 12)
	want := cfg.TLB1Latency + cfg.TLB2Latency + cfg.TLBMissPenalty
	if first != want {
		t.Errorf("cold access = %d cycles, want %d", first, want)
	}
	second := tlb.Access(va, 12)
	if second != cfg.TLB1Latency {
		t.Errorf("warm access = %d cycles, want %d", second, cfg.TLB1Latency)
	}
	// Same page, different offset: still a hit.
	third := tlb.Access(va+0xff0, 12)
	if third != cfg.TLB1Latency {
		t.Errorf("same-page access = %d cycles, want %d", third, cfg.TLB1Latency)
	}
}

func TestTLBHugePagesSeparateStructure(t *testing.T) {
	cfg := DefaultConfig()
	tlb := NewTLB(&cfg)
	tlb.Access(0x40000000, 21)
	if got := tlb.Access(0x40000000+1<<20, 21); got != cfg.TLB1Latency {
		t.Errorf("2MB same-page access = %d, want L1 hit", got)
	}
	if tlb.L1Misses != 1 {
		t.Errorf("L1 misses = %d, want 1", tlb.L1Misses)
	}
}

func TestTLBCapacityEviction(t *testing.T) {
	cfg := DefaultConfig()
	tlb := NewTLB(&cfg)
	// Touch far more 4K pages than L2 TLB capacity; early pages must miss again.
	n := cfg.L2TLBEntries * 4
	for i := 0; i < n; i++ {
		tlb.Access(uint64(i)<<12, 12)
	}
	missesBefore := tlb.L2Misses
	tlb.Access(0, 12)
	if tlb.L2Misses == missesBefore {
		t.Error("expected evicted page to miss in L2 TLB")
	}
}

func TestTLBMoreDistinctPagesMoreCycles(t *testing.T) {
	// The fragmentation→slowdown mechanism: the same number of accesses over
	// more distinct pages must cost more cycles.
	cfg := DefaultConfig()
	cost := func(pages int) uint64 {
		tlb := NewTLB(&cfg)
		var total uint64
		for i := 0; i < 20000; i++ {
			total += tlb.Access(uint64(i%pages)<<12, 12)
		}
		return total
	}
	compact, sparse := cost(32), cost(8192)
	if sparse <= compact {
		t.Errorf("sparse footprint (%d cyc) should cost more than compact (%d cyc)", sparse, compact)
	}
}

// newSetAssoc returns a stand-alone array with its own tags and ages.
func newSetAssoc(entries, ways int) setAssoc {
	s := geometry(entries, ways)
	s.attach(make([]uint64, 2*s.sets*s.ways))
	return s
}

func TestSetAssocProperty(t *testing.T) {
	// Property: immediately after lookup(tag), contains(tag) is true.
	f := func(tags []uint64) bool {
		s := newSetAssoc(64, 4)
		for _, tag := range tags {
			if tag == 0 {
				tag = 1
			}
			s.lookup(tag)
			if !s.contains(tag) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCyclesToMillis(t *testing.T) {
	if got := CyclesToMillis(CyclesPerSecond); got != 1000 {
		t.Errorf("1s of cycles = %v ms, want 1000", got)
	}
}

func TestTLBWalkPenaltyExtra(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TLBWalkPenaltyExtra = cfg.PMReadLatency
	tlb := NewTLB(&cfg)
	cold := tlb.Access(0x7000000, 12)
	want := cfg.TLB1Latency + cfg.TLB2Latency + cfg.TLBMissPenalty + cfg.PMReadLatency
	if cold != want {
		t.Errorf("cold access with PM page walk = %d, want %d", cold, want)
	}
	if warm := tlb.Access(0x7000000, 12); warm != cfg.TLB1Latency {
		t.Errorf("warm access = %d", warm)
	}
}

func TestNilClockChargeSafe(t *testing.T) {
	ctx := &Ctx{} // no clock, no TLB: charging must not panic
	ctx.Charge(100)
}

// TestTLBClockCrossesTwoToThe32: a structure whose clock passes 2³² still
// evicts its least recently used entry. With a 32-bit clock the entry touched
// at 2³² would get age 0 and be the next victim.
func TestTLBClockCrossesTwoToThe32(t *testing.T) {
	s := newSetAssoc(2, 2)
	s.tick = 1<<32 - 2
	s.lookup(1) // age 2³²−1
	s.lookup(2) // age 2³²
	if s.lookup(3) {
		t.Fatal("tag 3 hit in a set that never held it")
	}
	if s.contains(1) || !s.contains(2) || !s.contains(3) {
		t.Fatalf("after the wrap: holds 1 %v, 2 %v, 3 %v; want the least recently used tag 1 evicted",
			s.contains(1), s.contains(2), s.contains(3))
	}
}

// TestTLBArraysOnFirstUse: a TLB holds no arrays until it translates, its
// checkpoint then holds none either, and restoring such a checkpoint into a
// TLB that has arrays takes them away again. None of it changes a charge. A
// checkpoint's arrays come from the pool and go back to it on Release.
func TestTLBArraysOnFirstUse(t *testing.T) {
	cfg := DefaultConfig()
	idle, warm := NewTLB(&cfg), NewTLB(&cfg)
	if idle.buf != nil {
		t.Fatal("a new TLB holds arrays before its first translation")
	}
	var empty, full TLBCheckpoint
	idle.CheckpointInto(&empty)
	if len(empty.L14K.Tags)+len(empty.L12M.Tags)+len(empty.L2.Tags) != 0 {
		t.Fatal("the checkpoint of an untouched TLB holds arrays")
	}
	for i := uint64(0); i < 100; i++ {
		warm.Access(i<<12, 12)
	}
	warm.CheckpointInto(&full)
	pooled := &warm.buf[0]
	warm.Restore(&empty)
	if warm.buf != nil || warm.l2.tick != 0 || warm.Accesses != 0 {
		t.Fatalf("restoring an empty checkpoint left arrays %v, L2 tick %d, %d accesses", warm.buf != nil, warm.l2.tick, warm.Accesses)
	}
	// A TLB on recycled arrays charges what a fresh one does.
	fresh := NewTLB(&cfg)
	fresh.buf = make([]uint64, fresh.words())
	fresh.l2.attach(fresh.l12m.attach(fresh.l14k.attach(fresh.buf)))
	for i := uint64(0); i < 200; i++ {
		va := (i * 7919 % 300) << 12
		if got, want := idle.Access(va, 12), fresh.Access(va, 12); got != want {
			t.Fatalf("access %d: TLB on pooled arrays charged %d, fresh %d", i, got, want)
		}
	}
	if &idle.buf[0] != pooled {
		t.Fatal("the first translation did not take the arrays the restore gave back")
	}
	// Restoring a checkpoint with arrays arms a TLB that has none.
	idle.Restore(&full)
	var back TLBCheckpoint
	idle.CheckpointInto(&back)
	if !reflect.DeepEqual(back, full) {
		t.Fatal("restore into a TLB without arrays lost state")
	}
	// A checkpoint's arrays are one block of the pool, which Release gives
	// back to the next taker.
	block := &full.buf[0]
	full.Release()
	if full.buf != nil || len(full.L14K.Tags)+len(full.L12M.Tags)+len(full.L2.Tags) != 0 {
		t.Fatal("a released checkpoint still holds arrays")
	}
	if got := takeTLBArrays(idle.words(), false); &got[0] != block {
		t.Fatal("the next taker did not get the arrays a released checkpoint gave back")
	}
}

// TestReleasedCtxPanicsOnTranslation: a released context, and a context
// derived from it, must fail loudly on the next translation rather than
// translate for free; the clock and counters stay readable.
func TestReleasedCtxPanicsOnTranslation(t *testing.T) {
	cfg := DefaultConfig()
	ctx := NewCtx(&cfg)
	ctx.Charge(ctx.TLB.Access(0x5000, 12))
	ctx.Charge(ctx.TLB.Access(0x5008, 12)) // a deferred streak hit
	child := ctx.Derived(CatCopy)
	ctx.Release()
	ctx.Release() // a second call does nothing
	if ctx.TLB.AccessCount() != 2 || ctx.Clock.Total() == 0 {
		t.Fatalf("after release: %d accesses, %d cycles", ctx.TLB.AccessCount(), ctx.Clock.Total())
	}
	for name, c := range map[string]*Ctx{"released": ctx, "derived": child} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s context translated after release", name)
				}
			}()
			c.TLB.Access(0x5000, 12) // the streak page: no fast path survives
		}()
	}
	var c TLBCheckpoint
	NewTLB(&cfg).CheckpointInto(&c)
	ctx.TLB.Restore(&c) // an empty checkpoint gives it nothing to panic over
	defer func() {
		if recover() == nil {
			t.Error("a released TLB restored a checkpoint with arrays")
		}
	}()
	warm := NewTLB(&cfg)
	warm.Access(0x1000, 12)
	warm.CheckpointInto(&c)
	ctx.TLB.Restore(&c)
}

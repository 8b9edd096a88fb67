package pmem

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"ffccd/internal/sim"
)

// Tests of the invariants the cache layout introduced: the set blocks and
// their recency stacks, images that hold only the bodies media cannot
// rebuild, the typed 8-byte accesses, derived counters, and construction cost
// independent of the set count.

// TestCheckpointWithMidFillSets checkpoints a device while many of its sets
// are part-filled — a crash emptied them and a few accesses refilled some
// ways — restores into a fresh device and runs the same tail on both:
// identical victims (a part-filled set fills its next way before it evicts),
// stats, cycles, media and state.
func TestCheckpointWithMidFillSets(t *testing.T) {
	const size = 1 << 18
	cfg := sim.DefaultConfig()
	cfg.CacheBytes = 16 * 1024
	cfg.CacheWays = 4
	d, ctx := NewDevice(&cfg, size), sim.NewCtx(&cfg)
	defer d.ReleaseMedia()
	rng := rand.New(rand.NewSource(7))
	mix := func(d *Device, ctx *sim.Ctx, rng *rand.Rand, n int) {
		for i := 0; i < n; i++ {
			a := uint64(rng.Intn(size-600)) &^ 7
			switch rng.Intn(4) {
			case 0:
				d.StoreU64(ctx, a, rng.Uint64())
			case 1:
				d.Store(ctx, a, make([]byte, rng.Intn(500)+1))
			case 2:
				d.Clwb(ctx, a)
			default:
				d.LoadU64(ctx, a)
			}
		}
	}
	mix(d, ctx, rng, 3000)
	d.SetCrashPolicy(KeepAllInflight)
	d.Crash()
	mix(d, ctx, rng, 60)
	var part, full int
	for si := range d.sets {
		switch f := int(d.sets[si].fill); {
		case f == d.nway:
			full++
		case f > 0:
			part++
		}
	}
	if part == 0 || full == 0 {
		t.Fatalf("%d part-filled and %d full sets; the test is vacuous", part, full)
	}
	chk := d.Checkpoint()
	fork := NewDeviceForRestore(&cfg, size)
	defer fork.ReleaseMedia()
	fork.Restore(chk)
	fctx := sim.NewCtx(&cfg)
	base := ctx.Clock.Total()
	mix(d, ctx, rand.New(rand.NewSource(99)), 3000)
	mix(fork, fctx, rand.New(rand.NewSource(99)), 3000)
	if got, want := fork.Stats(), d.Stats(); got != want {
		t.Errorf("stats after the tail\n fork %+v\n orig %+v", got, want)
	}
	if d.Stats().Evictions == chk.Stats[cEvictions] {
		t.Error("the tail evicted nothing; the test is vacuous")
	}
	if got, want := fctx.Clock.Total(), ctx.Clock.Total()-base; got != want {
		t.Errorf("tail cycles: fork %d, original %d", got, want)
	}
	if fork.HashMedia() != d.HashMedia() {
		t.Error("media differ after the tail")
	}
	if !reflect.DeepEqual(fork.Checkpoint(), d.Checkpoint()) {
		t.Error("device state differs after the tail")
	}
}

// TestLoadU64MatchesLoad: at every offset of a line — the last seven straddle
// into the next line and take the Load fallback — LoadU64 and StoreU64 are
// Load and Store of eight bytes: same value, counters, cycles and state,
// whether the line hits, misses or fills from an in-flight copy.
func TestLoadU64MatchesLoad(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.CacheBytes = 4 * 1024
	cfg.CacheWays = 2
	const size = 1 << 16
	evict := func(d *Device, ctx *sim.Ctx) {
		var b [1]byte
		for a := uint64(32 << 10); a < 48<<10; a += LineSize {
			d.Load(ctx, a, b[:])
		}
	}
	for _, state := range []string{"hit", "miss", "inflight-fill"} {
		for off := uint64(0); off < LineSize; off++ {
			typed, plain := NewDevice(&cfg, size), NewDevice(&cfg, size)
			tctx, pctx := sim.NewCtx(&cfg), sim.NewCtx(&cfg)
			addr := 5*LineSize + off
			val := 0x0102030405060708 * (off + 1)
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], val)
			typed.StoreU64(tctx, addr, val)
			plain.Store(pctx, addr, b[:])
			switch state {
			case "miss":
				typed.FlushAll(tctx)
				plain.FlushAll(pctx)
				evict(typed, tctx)
				evict(plain, pctx)
			case "inflight-fill":
				for _, a := range []uint64{addr, addr + 7} {
					typed.Clwb(tctx, a)
					plain.Clwb(pctx, a)
				}
				evict(typed, tctx)
				evict(plain, pctx)
				if typed.StateOf(addr) != LineInflight {
					t.Fatalf("%s off %d: line is %v, want in flight only", state, off, typed.StateOf(addr))
				}
			}
			got := typed.LoadU64(tctx, addr)
			plain.Load(pctx, addr, b[:])
			if want := binary.LittleEndian.Uint64(b[:]); got != want || got != val {
				t.Fatalf("%s off %d: LoadU64 = %#x, Load = %#x, stored %#x", state, off, got, want, val)
			}
			if ts, ps := typed.Stats(), plain.Stats(); ts != ps {
				t.Fatalf("%s off %d: stats\n typed %+v\n plain %+v", state, off, ts, ps)
			}
			if tctx.Clock.Total() != pctx.Clock.Total() {
				t.Fatalf("%s off %d: cycles %d vs %d", state, off, tctx.Clock.Total(), pctx.Clock.Total())
			}
			if !reflect.DeepEqual(typed.Checkpoint(), plain.Checkpoint()) {
				t.Fatalf("%s off %d: device state differs", state, off)
			}
			typed.ReleaseMedia()
			plain.ReleaseMedia()
		}
	}
}

// TestHitsPlusMissesEqualLinesTouched pins the identity CacheHits is derived
// from: every line a Load or Store touches hits or misses, exactly once.
func TestHitsPlusMissesEqualLinesTouched(t *testing.T) {
	const size = 1 << 18
	d, ctx := newTestDevice(size)
	defer d.ReleaseMedia()
	rng := rand.New(rand.NewSource(3))
	var touched uint64
	for i := 0; i < 5000; i++ {
		n := uint64(rng.Intn(700))
		a := uint64(rng.Intn(size - 700))
		switch rng.Intn(5) {
		case 0:
			d.Load(ctx, a, make([]byte, n))
		case 1:
			d.Store(ctx, a, make([]byte, n))
		case 2:
			n = 8
			d.LoadU64(ctx, a)
		case 3:
			n = 8
			d.StoreU64(ctx, a, uint64(i))
		default:
			d.Clwb(ctx, a) // touches no line in the Load/Store sense
			d.Sfence(ctx)
			continue
		}
		touched += (a+max(n, 1)-1)>>LineShift - a>>LineShift + 1
		if s := d.Stats(); s.CacheHits+s.CacheMisses != touched {
			t.Fatalf("op %d: %d hits + %d misses, %d lines touched", i, s.CacheHits, s.CacheMisses, touched)
		}
	}
	if s := d.Stats(); s.CacheHits == 0 || s.CacheMisses == 0 {
		t.Fatalf("one-sided run: %+v", s)
	}
}

// TestNewDeviceAllocs: building a device costs four allocations (the device,
// its page directory, its set blocks and its line bodies)
// however many sets it has and however large its media — a crash trial
// builds one per machine incarnation, and no media page exists until written.
func TestNewDeviceAllocs(t *testing.T) {
	for _, size := range []uint64{1 << 20, 64 << 30} {
		for _, scale := range []int{1, 8} {
			cfg := sim.DefaultConfig()
			cfg.CacheBytes *= scale
			if allocs := testing.AllocsPerRun(5, func() { newDevice(&cfg, size, true) }); allocs > 4 {
				t.Errorf("%d B of media, cache of %d sets: newDevice made %v allocations, want <= 4",
					size, cfg.CacheBytes/cfg.CacheLineSize/cfg.CacheWays, allocs)
			}
		}
	}
}

// TestSetBlocksAligned: every set block starts on a 128-byte boundary, so an
// MRU hit reads one host line and a set never shares a line with another.
func TestSetBlocksAligned(t *testing.T) {
	for _, nset := range []int{1, 2, 3, 5, 17, 100, 255, 256, 257, 1000, 3072, 24576} {
		cfg := sim.DefaultConfig()
		cfg.CacheWays = 4
		cfg.CacheBytes = nset * cfg.CacheWays * LineSize
		d := NewDevice(&cfg, 1<<20)
		if len(d.sets) != nset {
			t.Fatalf("%d sets, want %d", len(d.sets), nset)
		}
		if a := uintptr(unsafe.Pointer(&d.sets[0])); a%128 != 0 {
			t.Errorf("%d sets: set array at %#x, not 128-byte aligned", nset, a)
		}
		d.ReleaseMedia()
	}
}

// ageSet is one set under the rule the recency stack replaced, copied from
// the age-based resident: every touch stamps the way with a fresh tick, and a
// miss takes the first invalid way, else the one with the minimum age.
type ageSet struct {
	tags, ages []uint32
	tick       uint32
}

func (s *ageSet) access(tag uint32) (way int, hit bool) {
	s.tick++
	victim := 0
	var oldest uint32 = ^uint32(0)
	for w, t := range s.tags {
		if t == tag {
			s.ages[w] = s.tick
			return w, true
		}
		if t == 0 {
			if oldest != 0 {
				victim, oldest = w, 0
			}
			continue
		}
		if a := s.ages[w]; a < oldest {
			victim, oldest = w, a
		}
	}
	s.tags[victim], s.ages[victim] = tag, s.tick
	return victim, false
}

// TestRecencyStackMatchesAges drives 2-, 4- and 16-way sets with random hit
// and miss sequences, crashes (dropVolatile empties every set) and
// checkpoint round trips into fresh devices, and checks after every access
// that each set holds the tags the age rule would, in the age rule's recency
// order, and that the access hit or missed as it says.
func TestRecencyStackMatchesAges(t *testing.T) {
	for _, nway := range []int{2, 4, 16} {
		const nset = 4
		cfg := sim.DefaultConfig()
		cfg.CacheWays = nway
		cfg.CacheBytes = nset * nway * LineSize
		d, ctx := NewDevice(&cfg, 1<<18), sim.NewCtx(&cfg)
		model := make([]ageSet, nset)
		reset := func() {
			for i := range model {
				model[i] = ageSet{tags: make([]uint32, nway), ages: make([]uint32, nway)}
			}
		}
		reset()
		rng := rand.New(rand.NewSource(int64(nway)))
		var crashes, restores int
		last := uint64(0)
		for step := 0; step < 20000; step++ {
			switch r := rng.Intn(200); {
			case r == 0:
				d.Crash()
				reset()
				crashes++
				continue
			case r == 1:
				fork := NewDeviceForRestore(&cfg, d.Size())
				fork.Restore(d.Checkpoint())
				d.ReleaseMedia()
				d = fork
				restores++
				continue
			}
			line := last
			if rng.Intn(10) >= 3 {
				line = uint64(rng.Intn(nway+3)*nset + rng.Intn(nset))
			}
			last = line
			si := int(line % nset)
			_, hit := model[si].access(uint32(line + 1))
			misses := d.Stats().CacheMisses
			if rng.Intn(2) == 0 {
				d.StoreU64(ctx, line*LineSize, line)
			} else {
				d.LoadU64(ctx, line*LineSize)
			}
			if got := d.Stats().CacheMisses == misses; got != hit {
				t.Fatalf("%d ways, step %d: line %d hit=%v, want %v", nway, step, line, got, hit)
			}
			set := &d.sets[si]
			if !slices.Equal(set.tags[:nway], model[si].tags) {
				t.Fatalf("%d ways, step %d: set %d tags %v, want %v", nway, step, si, set.tags[:nway], model[si].tags)
			}
			ways := make([]int, 0, nway)
			for w, tg := range model[si].tags {
				if tg != 0 {
					ways = append(ways, w)
				}
			}
			sort.Slice(ways, func(i, j int) bool { return model[si].ages[ways[i]] > model[si].ages[ways[j]] })
			for i, w := range ways {
				if got := int(set.stack >> (4 * i) & 15); got != w {
					t.Fatalf("%d ways, step %d: set %d stack %#x, want recency order %v", nway, step, si, set.stack, ways)
				}
			}
			if int(set.fill) != len(ways) {
				t.Fatalf("%d ways, step %d: set %d fill %d, want %d", nway, step, si, set.fill, len(ways))
			}
		}
		if crashes == 0 || restores == 0 || d.Stats().Evictions == 0 {
			t.Fatalf("%d ways: %d crashes, %d restores, %+v: vacuous", nway, crashes, restores, d.Stats())
		}
		d.ReleaseMedia()
	}
}

// TestImageStoresOnlyIrreproducibleLines: an image holds the body of a clean
// line that MediaWrite changed under the cache and of a dirty line, and not
// of a clean line in flight or one equal to media. A fork into a device
// whose pooled bodies are junk reads what the parent reads: the stale value
// of the first line, not media's.
func TestImageStoresOnlyIrreproducibleLines(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.CacheBytes, cfg.CacheWays = 16*1024, 4
	const size = 1 << 18
	d, ctx := NewDevice(&cfg, size), sim.NewCtx(&cfg)
	defer d.ReleaseMedia()
	const stale, dirty, inflight, clean = 0, LineSize, 2 * LineSize, 3 * LineSize
	d.StoreU64(ctx, stale, 1)
	d.StoreU64(ctx, clean, 5)
	d.FlushAll(ctx) // both cached clean, equal to media
	var two [8]byte
	binary.LittleEndian.PutUint64(two[:], 2)
	d.MediaWrite(stale, two[:]) // media changes under the cached 1
	d.StoreU64(ctx, dirty, 3)
	d.StoreU64(ctx, inflight, 4)
	d.Clwb(ctx, inflight) // cached clean, its durable copy in flight
	if d.StateOf(stale) != LineCachedClean || d.StateOf(dirty) != LineCachedDirty || d.StateOf(inflight) != LineInflight {
		t.Fatalf("states %v %v %v", d.StateOf(stale), d.StateOf(dirty), d.StateOf(inflight))
	}
	slotOf := func(addr uint64) int {
		si := d.setIndex(addr >> LineShift)
		return si*d.nway + d.sets[si].findWay(addr>>LineShift)
	}
	c := d.Checkpoint()
	if want := []int{slotOf(stale), slotOf(dirty)}; !slices.Equal(c.Slots, want) {
		t.Fatalf("image holds slots %v, want %v (stale, dirty)", c.Slots, want)
	}
	if v := binary.LittleEndian.Uint64(c.Lines[0][:]); v != 1 {
		t.Errorf("stale body holds %d, want 1", v)
	}

	junk := NewDevice(&cfg, size)
	jctx := sim.NewCtx(&cfg)
	for a := uint64(0); a < size; a += LineSize {
		junk.StoreU64(jctx, a, ^a)
	}
	junk.ReleaseMedia() // its bodies go to the pool, for the fork to adopt
	fork := NewDeviceForRestore(&cfg, size)
	defer fork.ReleaseMedia()
	fork.Restore(c)
	fctx := sim.NewCtx(&cfg)
	for _, a := range []uint64{stale, dirty, inflight, clean} {
		if got, want := fork.LoadU64(fctx, a), d.LoadU64(ctx, a); got != want {
			t.Errorf("line %#x: fork loads %d, parent %d", a, got, want)
		}
	}
	if got := fork.LoadU64(fctx, stale); got != 1 || d.LoadU64(ctx, stale) != 1 {
		t.Errorf("fork loads %d from the stale line, want the cached 1", got)
	}
	if fork.Stats() != d.Stats() || !reflect.DeepEqual(fork.Checkpoint(), d.Checkpoint()) {
		t.Error("fork and parent differ")
	}
}

// TestMediaReadsAreMisses: every miss reads its line from media and nothing
// else does, so Stats derives MediaReads from the misses.
func TestMediaReadsAreMisses(t *testing.T) {
	const size = 1 << 18
	d, ctx := newTestDevice(size)
	defer d.ReleaseMedia()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		a := uint64(rng.Intn(size - 700))
		switch rng.Intn(6) {
		case 0:
			d.Load(ctx, a, make([]byte, rng.Intn(700)))
		case 1:
			d.Store(ctx, a, make([]byte, rng.Intn(700)))
		case 2:
			d.Relocate(ctx, uint64(rng.Intn(size-700)), a, uint64(rng.Intn(300)))
		case 3:
			d.Clwb(ctx, a)
			d.Sfence(ctx)
		case 4:
			d.LoadU64(ctx, a&^7)
		default:
			if rng.Intn(50) == 0 {
				d.Crash()
			}
		}
	}
	if s := d.Stats(); s.MediaReads != s.CacheMisses || s.CacheMisses == 0 || s.RelocateOps == 0 {
		t.Fatalf("media reads %d, misses %d: %+v", s.MediaReads, s.CacheMisses, s)
	}
}

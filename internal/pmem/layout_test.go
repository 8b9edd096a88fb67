package pmem

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"ffccd/internal/sim"
)

// Tests of the invariants the flat cache layout introduced: the trusted MRU
// way's implicit age, the typed 8-byte accesses, derived cache hits, and
// construction cost independent of the set count.

// TestCheckpointWithOpenMRU checkpoints a device while every set's MRU age is
// still implicit in its tick, restores into a fresh device and runs the same
// tail on both: identical evictions, stats and media, and identical state.
func TestCheckpointWithOpenMRU(t *testing.T) {
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
	// End the prefix with one touch of every set, so each has an open MRU way.
	for si := 0; si < d.nset; si++ {
		d.LoadU64(ctx, uint64(si)*LineSize)
	}
	for si := range d.sets {
		if d.sets[si].mruTag == 0 {
			t.Fatalf("set %d has no trusted MRU way; the test is vacuous", si)
		}
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

// TestNewDeviceAllocs: building a device costs a handful of allocations
// however many sets it has and however large its media — a crash trial
// builds one per machine incarnation, and no media page exists until written.
func TestNewDeviceAllocs(t *testing.T) {
	for _, size := range []uint64{1 << 20, 64 << 30} {
		for _, scale := range []int{1, 8} {
			cfg := sim.DefaultConfig()
			cfg.CacheBytes *= scale
			if allocs := testing.AllocsPerRun(5, func() { newDevice(&cfg, size, true) }); allocs > 8 {
				t.Errorf("%d B of media, cache of %d sets: newDevice made %v allocations, want <= 8",
					size, cfg.CacheBytes/cfg.CacheLineSize/cfg.CacheWays, allocs)
			}
		}
	}
}

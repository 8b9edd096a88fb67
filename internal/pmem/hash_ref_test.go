package pmem

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"ffccd/internal/sim"
)

// refHashMedia is HashMedia as it was before the dirty-page walk: every word
// of the media, one multiplication each. Kept verbatim as the oracle the
// sparse walk must match bit for bit.
func refHashMedia(media []byte) uint64 {
	const prime = 0x100000001b3
	h := uint64(0xcbf29ce484222325)
	b := media
	for len(b) >= 8 {
		w := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
		h = (h ^ w) * prime
		b = b[8:]
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * prime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// checkCleanPagesZero asserts the base-image invariant HashMedia,
// CheckpointInto, Restore and ReleaseMedia all trust: every byte outside a
// dirty page is zero.
var zeroPage [DirtyPageSize]byte

func checkCleanPagesZero(t *testing.T, d *Device, when string) {
	t.Helper()
	size := uint64(len(d.media))
	for p := uint64(0); p<<DirtyPageShift < size; p++ {
		if d.dirty[p>>6]&(1<<(p&63)) != 0 {
			continue
		}
		end := (p + 1) << DirtyPageShift
		if end > size {
			end = size
		}
		page := d.media[p<<DirtyPageShift : end]
		if bytes.Equal(page, zeroPage[:len(page)]) {
			continue
		}
		for i, c := range page {
			if c != 0 {
				t.Fatalf("%s: byte %#x of clean page %d is %#x", when, i, p, c)
			}
		}
	}
}

func checkHash(t *testing.T, d *Device, when string) {
	t.Helper()
	if got, want := d.HashMedia(), refHashMedia(d.media); got != want {
		t.Fatalf("%s: HashMedia %#016x, dense reference %#016x", when, got, want)
	}
	checkCleanPagesZero(t, d, when)
}

// TestHashMediaMatchesDenseReference drives random sequences of every
// operation that writes media (or rewrites the dirty bitmap) and compares
// the dirty-page walk with the dense loop along the way. Sizes cover a media
// smaller than a word, an unaligned tail, exactly whole pages, a page count
// that is not a multiple of the bitmap word, and a device large enough that
// clean runs span many bitmap words.
func TestHashMediaMatchesDenseReference(t *testing.T) {
	cases := []struct {
		size  uint64
		steps int
		every int
	}{
		{7, 400, 1},
		{5000, 1500, 7},
		{1 << 20, 3000, 50},
		{1<<20 + 4096 + 13, 3000, 50},
		{64 << 20, 2000, 500},
	}
	for ci, tc := range cases {
		t.Run(fmt.Sprint(tc.size), func(t *testing.T) {
			if testing.Short() { // the dense pass is slow under -race
				if tc.every *= 5; tc.every > tc.steps {
					tc.every = tc.steps
				}
			}
			cfg := sim.DefaultConfig()
			cfg.CacheBytes = 16 * 1024 // small cache: natural evictions write media too
			cfg.CacheWays = 4
			ctx := sim.NewCtx(&cfg)
			rng := rand.New(rand.NewSource(int64(1000 + ci)))
			d := NewDevice(&cfg, tc.size)
			defer func() { d.ReleaseMedia() }()
			checkHash(t, d, "fresh")

			// The cache works in whole lines, so cached operations stay below
			// the last whole line; MediaWrite reaches the unaligned tail.
			cached := tc.size &^ (LineSize - 1)
			// span picks [addr, addr+n) below limit, biased towards a few hot
			// regions so most of a large device stays clean.
			span := func(limit uint64, maxN int) (addr, n uint64) {
				n = uint64(rng.Intn(maxN) + 1)
				if n > limit {
					n = limit
				}
				room := limit - n + 1
				if rng.Intn(4) != 0 && room > 1<<16 {
					region := uint64(rng.Intn(4)) * (room / 4)
					return region + uint64(rng.Intn(1<<16)), n
				}
				return uint64(rng.Int63n(int64(room))), n
			}
			// recent remembers where the last stores, relocates and media
			// writes landed, so most clwbs find a dirty line, most fences have
			// lines to drain (a fence is then the only thing that dirties the
			// line's page) and most zeroed pages hold data.
			var recent [16]uint64
			// zeroSpan picks a MediaZero span: anywhere (mostly clean pages on
			// a large device), or whole pages or part of one page at a recent
			// write (mostly dirty ones).
			zeroSpan := func() (addr, n uint64) {
				if rng.Intn(3) == 0 {
					return span(tc.size, 5000)
				}
				page := recent[rng.Intn(len(recent))] &^ (DirtyPageSize - 1)
				end := min(page+DirtyPageSize, tc.size)
				if rng.Intn(2) == 0 {
					return page, min(uint64(1+rng.Intn(3))*DirtyPageSize, tc.size-page)
				}
				addr = page + uint64(rng.Int63n(int64(end-page)))
				return addr, 1 + uint64(rng.Int63n(int64(end-addr)))
			}
			var cp *DeviceCheckpoint
			for step := 1; step <= tc.steps; step++ {
				zeroed := false
				op := rng.Intn(100)
				if cached == 0 && op < 75 {
					op = 75 // no whole line to cache: media writes only
				}
				switch {
				case op < 40:
					addr, n := span(cached, 300)
					data := make([]byte, n)
					rng.Read(data)
					d.Store(ctx, addr, data)
					recent[step%len(recent)] = addr
				case op < 55:
					addr := recent[rng.Intn(len(recent))]
					if rng.Intn(5) == 0 {
						addr, _ = span(cached, 1)
					}
					d.Clwb(ctx, addr)
				case op < 65:
					d.Sfence(ctx)
				case op < 75:
					dst, n := span(cached, 200)
					src, _ := span(cached-n+1, 1)
					d.Relocate(ctx, dst, src, n)
					recent[step%len(recent)] = dst
				case op < 82:
					if rng.Intn(4) == 0 {
						d.MediaZero(zeroSpan())
						zeroed = true
						break
					}
					addr, n := span(tc.size, 5000)
					data := make([]byte, n)
					rng.Read(data)
					d.MediaWrite(addr, data)
					recent[step%len(recent)] = addr
				case op < 85:
					d.FlushAll(ctx)
				case op < 90:
					switch rng.Intn(3) {
					case 0:
						d.SetCrashPolicy(DropAllInflight)
					case 1:
						d.SetCrashPolicy(KeepAllInflight)
					default:
						salt := rng.Uint64()
						d.SetCrashPolicy(func(line uint64) bool {
							return (line*0x9E3779B97F4A7C15+salt)&1 == 0
						})
					}
					d.Crash()
				case op < 91:
					if tc.size <= 1<<21 { // marks every page dirty: keep it off the big device
						img := d.SnapshotMedia()
						img[rng.Intn(len(img))] ^= 0x5a
						d.RestoreMedia(img)
					}
				case op < 95:
					cp = d.Checkpoint()
				case op < 98:
					if cp != nil {
						// Into the same device: zeroes the pages dirtied since.
						d.Restore(cp)
					}
				default:
					if cp != nil {
						// Into a fresh (possibly recycled) device; the old one's
						// array goes back for reuse.
						nd := NewDevice(&cfg, tc.size)
						checkCleanPagesZero(t, nd, fmt.Sprintf("step %d: new device", step))
						nd.Restore(cp)
						d.ReleaseMedia()
						d = nd
					}
				}
				if step%tc.every == 0 {
					checkHash(t, d, fmt.Sprintf("step %d", step))
				} else if zeroed || tc.size <= 2<<20 {
					// After every step; on the 64 MB device, whose scan is
					// slow, after every MediaZero.
					checkCleanPagesZero(t, d, fmt.Sprintf("step %d", step))
				}
			}
			d.FlushAll(ctx)
			checkHash(t, d, "final")
		})
	}
}

// TestHashMediaCleanRuns pins the closed form on hand-placed dirty pages:
// first page, last whole page, the partial tail, neighbours, and pages on
// either side of a bitmap word boundary.
func TestHashMediaCleanRuns(t *testing.T) {
	cfg := sim.DefaultConfig()
	const size = 200*DirtyPageSize + 100
	for _, pages := range [][]uint64{
		{}, {0}, {199}, {200}, {0, 1, 2}, {63, 64}, {5, 64, 128, 199, 200}, {127}, {198, 199, 200},
	} {
		d := NewDevice(&cfg, size)
		for _, p := range pages {
			d.MediaWrite(p<<DirtyPageShift+17, []byte{byte(p) + 1, 2, 3})
		}
		checkHash(t, d, fmt.Sprint("dirty pages ", pages))
		d.ReleaseMedia()
	}
}

func TestPowHashPrime(t *testing.T) {
	want := uint64(1)
	for n := uint64(0); n < 2000; n++ {
		if got := powHashPrime(n); got != want {
			t.Fatalf("powHashPrime(%d) = %#x, want %#x", n, got, want)
		}
		want *= hashPrime
	}
	// A large exponent against its own factorisation.
	const a, b = 512 * 32768, 12345
	if got, want := powHashPrime(a+b), powHashPrime(a)*powHashPrime(b); got != want {
		t.Fatalf("powHashPrime(a+b) = %#x, want %#x", got, want)
	}
}

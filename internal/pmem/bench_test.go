package pmem

import (
	"fmt"
	"sync"
	"testing"

	"ffccd/internal/sim"
)

// The device micro-benchmarks measure host-side cost of the simulated
// machine's per-access path — the code the tentpole de-contends. Each
// benchmark runs at 1, 4 and 8 goroutines; the simulated cycle accounting is
// identical at every parallelism level, only host ns/op changes.

func benchDevice() (*Device, *sim.Config) {
	cfg := sim.DefaultConfig()
	d := NewDevice(&cfg, 64<<20)
	return d, &cfg
}

// benchParallel splits b.N across exactly g goroutines, each with its own
// sim.Ctx and a disjoint 4 MB address window.
func benchParallel(b *testing.B, g int, cfg *sim.Config, body func(ctx *sim.Ctx, base, i uint64)) {
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N / g
	for w := 0; w < g; w++ {
		wg.Add(1)
		n := per
		if w == g-1 {
			n = b.N - per*(g-1)
		}
		go func(id, n int) {
			defer wg.Done()
			ctx := sim.NewCtx(cfg)
			base := uint64(id) * (4 << 20)
			for i := 0; i < n; i++ {
				body(ctx, base, uint64(i))
			}
		}(w, n)
	}
	wg.Wait()
}

func BenchmarkDeviceLoad(b *testing.B) {
	for _, g := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			d, cfg := benchDevice()
			benchParallel(b, g, cfg, func(ctx *sim.Ctx, base, i uint64) {
				var buf [8]byte
				d.Load(ctx, base+(i%32768)*LineSize, buf[:])
			})
		})
	}
}

func BenchmarkDeviceStoreClwbSfence(b *testing.B) {
	for _, g := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			d, cfg := benchDevice()
			benchParallel(b, g, cfg, func(ctx *sim.Ctx, base, i uint64) {
				var buf [16]byte
				addr := base + (i%8192)*LineSize
				d.Store(ctx, addr, buf[:])
				d.Clwb(ctx, addr)
				if i%8 == 7 {
					d.Sfence(ctx)
				}
			})
		})
	}
}

// The span benchmarks measure the multi-line fast path against the per-line
// walk it replaces (span=false), across span lengths and under the set-array
// wrap-around worst case. Single goroutine with exclusivity on — the only
// regime where the span path engages.
func benchSpanDevice(span bool) (*Device, *sim.Ctx) {
	cfg := sim.DefaultConfig()
	d := NewDevice(&cfg, 64<<20)
	d.SetExclusive(true)
	d.SetSpanPath(span)
	return d, sim.NewCtx(&cfg)
}

func BenchmarkDeviceLoadSpan(b *testing.B) {
	for _, lines := range []int{1, 2, 4, 8} {
		for _, span := range []bool{false, true} {
			b.Run(fmt.Sprintf("lines=%d/span=%v", lines, span), func(b *testing.B) {
				d, ctx := benchSpanDevice(span)
				buf := make([]byte, lines*LineSize)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					d.Load(ctx, (uint64(i)%16384)*uint64(lines)*LineSize, buf)
				}
			})
		}
	}
}

func BenchmarkDeviceStoreSpan(b *testing.B) {
	for _, lines := range []int{1, 2, 4, 8} {
		for _, span := range []bool{false, true} {
			b.Run(fmt.Sprintf("lines=%d/span=%v", lines, span), func(b *testing.B) {
				d, ctx := benchSpanDevice(span)
				data := make([]byte, lines*LineSize)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					d.Store(ctx, (uint64(i)%16384)*uint64(lines)*LineSize, data)
				}
			})
		}
	}
}

// BenchmarkDeviceLoadSpanConflict is the span worst case: a cache small
// enough that an 8-line span wraps the whole set array, so every span access
// evicts lines the same span just filled.
func BenchmarkDeviceLoadSpanConflict(b *testing.B) {
	for _, span := range []bool{false, true} {
		b.Run(fmt.Sprintf("span=%v", span), func(b *testing.B) {
			cfg := sim.DefaultConfig()
			cfg.CacheBytes = 4 * 1024
			cfg.CacheWays = 2
			d := NewDevice(&cfg, 16<<20)
			d.SetExclusive(true)
			d.SetSpanPath(span)
			ctx := sim.NewCtx(&cfg)
			buf := make([]byte, 8*LineSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Load(ctx, (uint64(i)%4096)*8*LineSize, buf)
			}
		})
	}
}

func BenchmarkRelocateParts(b *testing.B) {
	for _, g := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			d, cfg := benchDevice()
			benchParallel(b, g, cfg, func(ctx *sim.Ctx, base, i uint64) {
				// A representative cluster move: two sub-line objects sharing
				// a destination line plus one full line.
				off := base + (i%4096)*LineSize
				parts := [3]RelocatePart{
					{Dst: off + (2 << 20), Src: off, N: 40},
					{Dst: off + (2 << 20) + 40, Src: off + 128, N: 24},
					{Dst: off + (2 << 20) + LineSize, Src: off + 256, N: LineSize},
				}
				d.RelocateParts(ctx, parts[:])
			})
		})
	}
}

// trialDevice builds the crash campaign's device shape: 128 MB of media of
// which a trial dirties about 1 MB, in a few clusters.
func trialDevice() *Device {
	cfg := sim.DefaultConfig()
	d := NewDevice(&cfg, 128<<20)
	chunk := make([]byte, 64<<10)
	for i := range chunk {
		chunk[i] = byte(i*7 + 1)
	}
	for c := uint64(0); c < 16; c++ {
		d.MediaWrite(c*(8<<20)+c*4096, chunk)
	}
	return d
}

// BenchmarkHashMedia prices the media digest on the trial shape: the dense
// loop it replaced (the test reference) against the dirty-page walk.
func BenchmarkHashMedia(b *testing.B) {
	d := trialDevice()
	defer d.ReleaseMedia()
	want := refHashMedia(d.media)
	b.Run("dense-ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if refHashMedia(d.media) != want {
				b.Fatal("digest changed")
			}
		}
	})
	b.Run("sparse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if d.HashMedia() != want {
				b.Fatal("digest differs from the dense reference")
			}
		}
	})
}

// BenchmarkNewDeviceRecycled is a trial's device life cycle in the steady
// state: build over a recycled array, dirty ~1 MB, release (wipe the dirty
// pages, list the array). No 128 MB allocation or clear per iteration.
func BenchmarkNewDeviceRecycled(b *testing.B) {
	trialDevice().ReleaseMedia() // seed the free list
	fresh := FreshMediaAllocs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trialDevice().ReleaseMedia()
	}
	b.StopTimer()
	if n := FreshMediaAllocs() - fresh; n != 0 {
		b.Fatalf("%d fresh media allocations in the steady state", n)
	}
}

package pmem

import (
	"fmt"
	"testing"

	"ffccd/internal/sim"
)

// The ladder prices the device as the micro and serving machines drive it:
// one owner goroutine, default geometry, and addresses drawn
// pseudo-randomly from a region, so the host cache holds neither the lines
// the modelled cache reads nor its per-set state. "Resident" is a 2 MB
// region loaded once (about 11 of each set's 16 ways), so a random line of it
// hits but is rarely its set's MRU way.
const (
	benchResident = 2 << 20
	benchMissBase = 8 << 20
	benchMissSpan = 32 << 20
)

func ladderDevice(b *testing.B) (*Device, *sim.Ctx) {
	cfg := sim.DefaultConfig()
	d := NewDevice(&cfg, 64<<20)
	b.Cleanup(d.ReleaseMedia)
	ctx := sim.NewCtx(&cfg)
	for a := uint64(0); a < benchResident; a += LineSize {
		d.LoadU64(ctx, a)
	}
	return d, ctx
}

// benchLine is the i-th pseudo-random line-aligned offset below span.
func benchLine(i int, span uint64) uint64 {
	return uint64(uint32(i)*2654435761) % (span / LineSize) * LineSize
}

var benchSink uint64

func BenchmarkLoadU64(b *testing.B) {
	// mru: four words of one random resident line — the first read finds the
	// way by scan, the other three are hits on the trusted MRU way.
	b.Run("mru", func(b *testing.B) {
		d, ctx := ladderDevice(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSink += d.LoadU64(ctx, benchLine(i/4, benchResident)+uint64(i%4)*8)
		}
	})
	b.Run("scan", func(b *testing.B) {
		d, ctx := ladderDevice(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSink += d.LoadU64(ctx, benchLine(i, benchResident))
		}
	})
	// miss: 32 MB against a 3 MB cache — nine reads in ten evict and fill.
	b.Run("miss", func(b *testing.B) {
		d, ctx := ladderDevice(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSink += d.LoadU64(ctx, benchMissBase+benchLine(i, benchMissSpan))
		}
	})
}

func BenchmarkLoad(b *testing.B) {
	for _, n := range []int{8, 16, 256} {
		b.Run(fmt.Sprintf("%dB", n), func(b *testing.B) {
			d, ctx := ladderDevice(b)
			buf := make([]byte, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Load(ctx, benchLine(i, benchResident-LineSize*4)+24, buf)
			}
		})
	}
}

// BenchmarkStoreClwbSfence is the persist idiom of every header write and
// undo-log append, over 8 MB so most stores miss and evict.
func BenchmarkStoreClwbSfence(b *testing.B) {
	d, ctx := ladderDevice(b)
	var two [16]byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := benchMissBase + benchLine(i, 8<<20)
		d.Store(ctx, a, two[:])
		d.Clwb(ctx, a)
		d.Sfence(ctx)
	}
}

// BenchmarkCheckpointRestore is one fork of the grid driver: checkpoint a
// device and restore it into a fresh one. Media moves as page references, not
// bytes. dirty: 8 MB of stores leave every way dirty, so the image holds all
// 3 MB of line bodies. clean: the same stores flushed and 2 MB loaded back —
// the state the fork drivers capture — so no way holds a body, and the image
// holds the set blocks and nothing else of the cache.
func BenchmarkCheckpointRestore(b *testing.B) {
	for _, clean := range []bool{false, true} {
		name := "dirty"
		if clean {
			name = "clean"
		}
		b.Run(name, func(b *testing.B) {
			d, ctx := ladderDevice(b)
			var two [16]byte
			for a := uint64(0); a < 8<<20; a += LineSize {
				d.Store(ctx, benchMissBase+a, two[:])
			}
			if clean {
				d.FlushAll(ctx)
				for a := uint64(0); a < benchResident; a += LineSize {
					d.LoadU64(ctx, benchMissBase+a)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				chk := d.Checkpoint()
				d2 := NewDeviceForRestore(d.cfg, d.Size())
				d2.Restore(chk)
				d2.ReleaseMedia()
			}
		})
	}
}

// BenchmarkRelocateParts is a representative cluster move: two sub-line
// objects sharing a destination line plus one full line.
func BenchmarkRelocateParts(b *testing.B) {
	d, ctx := ladderDevice(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := uint64(i%4096) * LineSize
		parts := [3]RelocatePart{
			{Dst: off + (2 << 20), Src: off, N: 40},
			{Dst: off + (2 << 20) + 40, Src: off + 128, N: 24},
			{Dst: off + (2 << 20) + LineSize, Src: off + 256, N: LineSize},
		}
		d.RelocateParts(ctx, parts[:])
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
	img := d.SnapshotMedia()
	want := refHashMedia(img)
	b.Run("dense-ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if refHashMedia(img) != want {
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
// state: build over pooled cache arrays, write ~1 MB (256 pages, taken from
// the page pool), release (pool the pages and arrays). It materialises only
// the pages it writes, and allocates nothing sized by the 128 MB of media.
func BenchmarkNewDeviceRecycled(b *testing.B) {
	trialDevice().ReleaseMedia() // seed the pools
	before := MaterializedPages()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trialDevice().ReleaseMedia()
	}
	b.StopTimer()
	if n, want := MaterializedPages()-before, uint64(b.N)*16*(64<<10)/DirtyPageSize; n != want {
		b.Fatalf("%d pages materialised, want the %d written", n, want)
	}
}

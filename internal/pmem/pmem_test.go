package pmem

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"ffccd/internal/sim"
)

func newTestDevice(size uint64) (*Device, *sim.Ctx) {
	cfg := sim.DefaultConfig()
	// Small cache so eviction paths are exercised.
	cfg.CacheBytes = 16 * 1024
	cfg.CacheWays = 4
	d := NewDevice(&cfg, size)
	return d, sim.NewCtx(&cfg)
}

func TestStoreLoadRoundTrip(t *testing.T) {
	d, ctx := newTestDevice(1 << 20)
	data := []byte("hello persistent world, spanning more than one cacheline......!")
	d.Store(ctx, 100, data)
	got := make([]byte, len(data))
	d.Load(ctx, 100, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip mismatch: %q vs %q", got, data)
	}
}

func TestDirtyLineLostOnCrash(t *testing.T) {
	d, ctx := newTestDevice(1 << 20)
	d.Store(ctx, 0, []byte{0xAA})
	if st := d.StateOf(0); st != LineCachedDirty {
		t.Fatalf("state = %v, want dirty", st)
	}
	d.Crash()
	buf := make([]byte, 1)
	d.MediaRead(0, buf)
	if buf[0] != 0 {
		t.Fatalf("unflushed store survived crash: %x", buf[0])
	}
}

func TestClwbSfencePersists(t *testing.T) {
	d, ctx := newTestDevice(1 << 20)
	d.Store(ctx, 64, []byte{0xBB})
	d.Clwb(ctx, 64)
	if st := d.StateOf(64); st != LineInflight {
		t.Fatalf("post-clwb state = %v, want inflight", st)
	}
	d.Sfence(ctx)
	if st := d.StateOf(64); st != LineCachedClean {
		t.Fatalf("post-sfence state = %v, want cached clean", st)
	}
	d.Crash()
	buf := make([]byte, 1)
	d.MediaRead(64, buf)
	if buf[0] != 0xBB {
		t.Fatal("clwb+sfence data lost on crash")
	}
}

func TestClwbWithoutSfenceCrashPolicy(t *testing.T) {
	// The SFCCD-critical window: clwb issued, no fence. The crash policy
	// decides survival.
	for _, keep := range []bool{false, true} {
		d, ctx := newTestDevice(1 << 20)
		if keep {
			d.SetCrashPolicy(KeepAllInflight)
		}
		d.Store(ctx, 128, []byte{0xCC})
		d.Clwb(ctx, 128)
		d.Crash()
		buf := make([]byte, 1)
		d.MediaRead(128, buf)
		want := byte(0)
		if keep {
			want = 0xCC
		}
		if buf[0] != want {
			t.Errorf("keep=%v: media = %x, want %x", keep, buf[0], want)
		}
	}
}

func TestEvictionWritesBack(t *testing.T) {
	d, ctx := newTestDevice(1 << 20)
	// Fill one set far past associativity: same set stride = nset*LineSize.
	stride := uint64(d.nset * LineSize)
	for i := uint64(0); i < uint64(d.nway+2); i++ {
		d.Store(ctx, i*stride, []byte{byte(i + 1)})
	}
	// The earliest line must have been evicted and written back to media.
	buf := make([]byte, 1)
	d.MediaRead(0, buf)
	if buf[0] != 1 {
		t.Fatalf("evicted line not written back: media[0]=%x", buf[0])
	}
	if d.Stats().Evictions == 0 {
		t.Fatal("expected evictions")
	}
}

func TestLoadSeesInflightData(t *testing.T) {
	d, ctx := newTestDevice(1 << 20)
	d.Store(ctx, 0, []byte{0x11})
	d.Clwb(ctx, 0)
	// Evict the (clean) line so a reload must consult the in-flight buffer.
	stride := uint64(d.nset * LineSize)
	for i := uint64(1); i <= uint64(d.nway+1); i++ {
		d.Store(ctx, i*stride, []byte{0xFF})
	}
	buf := make([]byte, 1)
	d.Load(ctx, 0, buf)
	if buf[0] != 0x11 {
		t.Fatalf("load missed in-flight data: %x", buf[0])
	}
}

func TestWritebackSupersedesInflight(t *testing.T) {
	// A newer eviction write-back must invalidate an older in-flight copy so
	// a crash cannot regress the line.
	d, ctx := newTestDevice(1 << 20)
	d.SetCrashPolicy(KeepAllInflight)
	d.Store(ctx, 0, []byte{0x01})
	d.Clwb(ctx, 0) // v1 in flight
	d.Store(ctx, 0, []byte{0x02})
	// Force eviction of the line (writes v2 to media).
	stride := uint64(d.nset * LineSize)
	for i := uint64(1); i <= uint64(d.nway+1); i++ {
		d.Store(ctx, i*stride, []byte{0xFF})
	}
	d.Crash()
	buf := make([]byte, 1)
	d.MediaRead(0, buf)
	if buf[0] != 0x02 {
		t.Fatalf("crash regressed line to %x, want 02", buf[0])
	}
}

type recordingSink struct {
	mu    sync.Mutex
	lines []uint64
}

func (r *recordingSink) LineReached(_ *sim.Ctx, addr uint64) {
	r.mu.Lock()
	r.lines = append(r.lines, addr)
	r.mu.Unlock()
}

func TestRelocateSetsPendingAndNotifiesOnEviction(t *testing.T) {
	d, ctx := newTestDevice(1 << 20)
	sink := &recordingSink{}
	d.SetRBB(sink)
	src, dst := uint64(0), uint64(4096)
	d.Store(ctx, src, []byte("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"))
	d.Relocate(ctx, dst, src, 64)
	if st := d.StateOf(dst); st != LineCachedPending {
		t.Fatalf("dest state = %v, want pending", st)
	}
	got := make([]byte, 64)
	d.Load(ctx, dst, got)
	if string(got[:16]) != "0123456789abcdef" {
		t.Fatalf("relocate copied wrong data: %q", got[:16])
	}
	// No flush issued: nothing reached persistence yet.
	if len(sink.lines) != 0 {
		t.Fatalf("premature reached notification: %v", sink.lines)
	}
	// Force eviction of the pending dest line.
	stride := uint64(d.nset * LineSize)
	for i := uint64(0); i <= uint64(d.nway+1); i++ {
		d.Store(ctx, dst+i*stride+stride, []byte{0xFF})
	}
	sink.mu.Lock()
	reached := len(sink.lines) > 0 && sink.lines[0] == dst
	sink.mu.Unlock()
	if !reached {
		t.Fatalf("eviction of pending line did not notify RBB: %v", sink.lines)
	}
}

func TestRelocatePendingLineLostOnCrash(t *testing.T) {
	// Fence-free semantics: relocated data still in cache is lost on crash,
	// and the RBB is never told it reached.
	d, ctx := newTestDevice(1 << 20)
	sink := &recordingSink{}
	d.SetRBB(sink)
	d.Store(ctx, 0, []byte{0x77})
	d.FlushAll(ctx)
	d.Relocate(ctx, 8192, 0, 64)
	d.Crash()
	buf := make([]byte, 1)
	d.MediaRead(8192, buf)
	if buf[0] != 0 {
		t.Fatal("unreached relocate destination survived crash")
	}
	if len(sink.lines) != 0 {
		t.Fatalf("RBB notified for a line that never reached: %v", sink.lines)
	}
}

func TestRelocateClwbSfenceNotifies(t *testing.T) {
	d, ctx := newTestDevice(1 << 20)
	sink := &recordingSink{}
	d.SetRBB(sink)
	d.Store(ctx, 0, []byte{0x42})
	d.Relocate(ctx, 4096, 0, 64)
	d.Clwb(ctx, 4096)
	d.Sfence(ctx)
	if len(sink.lines) != 1 || sink.lines[0] != 4096 {
		t.Fatalf("clwb+sfence of pending line must notify RBB: %v", sink.lines)
	}
	buf := make([]byte, 1)
	d.MediaRead(4096, buf)
	if buf[0] != 0x42 {
		t.Fatal("flushed relocate data not in media")
	}
}

func TestFlushAllPersistsEverything(t *testing.T) {
	d, ctx := newTestDevice(1 << 20)
	for i := uint64(0); i < 100; i++ {
		d.Store(ctx, i*64, []byte{byte(i)})
	}
	d.FlushAll(ctx)
	d.Crash()
	buf := make([]byte, 1)
	for i := uint64(0); i < 100; i++ {
		d.MediaRead(i*64, buf)
		if buf[0] != byte(i) {
			t.Fatalf("line %d lost after FlushAll: %x", i, buf[0])
		}
	}
}

func TestMediaWriteBypassesCache(t *testing.T) {
	d, ctx := newTestDevice(1 << 20)
	d.MediaWrite(256, []byte{0x99})
	d.Crash()
	buf := make([]byte, 1)
	d.MediaRead(256, buf)
	if buf[0] != 0x99 {
		t.Fatal("MediaWrite did not persist")
	}
	// A load must observe it too (fill from media).
	d.Load(ctx, 256, buf)
	if buf[0] != 0x99 {
		t.Fatal("Load did not see media data")
	}
}

// MediaZero must leave the media and the counters exactly as MediaWrite of a
// zero buffer does, and the dirty-page bitmap no larger: a page it zeroes whole
// is clean afterwards, and every byte outside a dirty page is still zero. The
// junk covers page 12 from byte 848 on, pages 13–84 whole and page 85 up to
// byte 1840; the spans are clean, dirty, whole, partial and mixed, and the
// last one ends the media on its unaligned tail page.
func TestMediaZeroMatchesMediaWriteOfZeros(t *testing.T) {
	const size = 1<<20 + 100
	for _, span := range [][2]uint64{
		{0, 8}, {4090, 13}, {3 * 4096, 4096}, {100_000, 70_000},
		{12 * 4096, 2 * 4096}, {50_000, 100}, {13*4096 + 1, 4095}, {80 * 4096, 5*4096 + 1840},
		{1 << 20, 100},
	} {
		a, _ := newTestDevice(size)
		b, _ := newTestDevice(size)
		for _, d := range []*Device{a, b} {
			d.MediaWrite(50_000, bytes.Repeat([]byte{0xA5}, 300_000))
			d.MediaWrite(1<<20+40, []byte{0x5A})
		}
		a.MediaWrite(span[0], make([]byte, span[1]))
		b.MediaZero(span[0], span[1])
		if !bytes.Equal(a.SnapshotMedia(), b.SnapshotMedia()) {
			t.Fatalf("span %v: media differ", span)
		}
		if a.Stats() != b.Stats() {
			t.Fatalf("span %v: counters %+v vs %+v", span, a.Stats(), b.Stats())
		}
		for w := range b.dirty {
			if extra := b.dirty[w] &^ a.dirty[w]; extra != 0 {
				t.Fatalf("span %v: MediaZero marked pages MediaWrite did not (word %d: %#x)", span, w, extra)
			}
		}
		for p := (span[0] + DirtyPageSize - 1) >> DirtyPageShift; p<<DirtyPageShift < span[0]+span[1]; p++ {
			if end := min((p+1)<<DirtyPageShift, size); end <= span[0]+span[1] && b.dirty[p>>6]&(1<<(p&63)) != 0 {
				t.Fatalf("span %v: page %d was zeroed whole and is still dirty", span, p)
			}
		}
		checkHash(t, b, fmt.Sprintf("span %v", span))
	}
}

func TestSfenceChargesStallOnlyWhenNeeded(t *testing.T) {
	cfg := sim.DefaultConfig()
	d := NewDevice(&cfg, 1<<20)
	ctx := sim.NewCtx(&cfg)
	d.Sfence(ctx)
	idle := ctx.Clock.Total()
	if idle > cfg.WPQLatency {
		t.Errorf("idle sfence charged %d cycles, want <= %d", idle, cfg.WPQLatency)
	}
	ctx.Clock.Reset()
	d.Store(ctx, 0, []byte{1})
	d.Clwb(ctx, 0)
	before := ctx.Clock.Total()
	d.Sfence(ctx)
	stall := ctx.Clock.Total() - before
	if stall < cfg.PMWriteLatency {
		t.Errorf("draining sfence charged %d cycles, want >= %d", stall, cfg.PMWriteLatency)
	}
}

func TestMissChargesPMLatency(t *testing.T) {
	cfg := sim.DefaultConfig()
	d := NewDevice(&cfg, 1<<20)
	ctx := sim.NewCtx(&cfg)
	buf := make([]byte, 8)
	d.Load(ctx, 0, buf)
	cold := ctx.Clock.Total()
	if cold < cfg.PMReadLatency {
		t.Errorf("cold load charged %d, want >= %d", cold, cfg.PMReadLatency)
	}
	ctx.Clock.Reset()
	d.Load(ctx, 0, buf)
	warm := ctx.Clock.Total()
	if warm >= cfg.PMReadLatency {
		t.Errorf("warm load charged %d, want < %d", warm, cfg.PMReadLatency)
	}
}

func TestStoreLoadProperty(t *testing.T) {
	d, ctx := newTestDevice(1 << 20)
	f := func(addr uint32, data []byte) bool {
		if len(data) == 0 || len(data) > 512 {
			return true
		}
		a := uint64(addr) % (1<<20 - 512)
		d.Store(ctx, a, data)
		got := make([]byte, len(data))
		d.Load(ctx, a, got)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCrashPersistencePartition(t *testing.T) {
	// Invariant: after arbitrary traffic, a line is recovered after crash iff
	// it reached the persistence domain (fenced or evicted or media-written).
	d, ctx := newTestDevice(1 << 20)
	d.Store(ctx, 0, []byte{1})  // dirty only
	d.Store(ctx, 64, []byte{2}) // will clwb+sfence
	d.Clwb(ctx, 64)
	d.Sfence(ctx)
	d.Store(ctx, 128, []byte{3}) // clwb, no fence (default policy: dropped)
	d.Clwb(ctx, 128)
	d.MediaWrite(192, []byte{4})
	d.Crash()
	want := map[uint64]byte{0: 0, 64: 2, 128: 0, 192: 4}
	buf := make([]byte, 1)
	for addr, v := range want {
		d.MediaRead(addr, buf)
		if buf[0] != v {
			t.Errorf("media[%d] = %x, want %x", addr, buf[0], v)
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	d, ctx := newTestDevice(1024)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range access")
		}
	}()
	d.Store(ctx, 1020, []byte{1, 2, 3, 4, 5})
}

func TestEADRCrashKeepsEverything(t *testing.T) {
	d, ctx := newTestDevice(1 << 20)
	d.SetEADR(true)
	if !d.EADR() {
		t.Fatal("eADR not enabled")
	}
	// Plain stores, a relocate, and a clwb'd-unfenced line: under eADR all
	// of it survives a crash — no fences required anywhere.
	d.Store(ctx, 0, []byte{0x11})
	d.Store(ctx, 4096, []byte{0x22})
	d.Clwb(ctx, 4096)
	sink := &recordingSink{}
	d.SetRBB(sink)
	d.Relocate(ctx, 8192, 0, 64)
	d.Crash()
	buf := make([]byte, 1)
	for addr, want := range map[uint64]byte{0: 0x11, 4096: 0x22, 8192: 0x11} {
		d.MediaRead(addr, buf)
		if buf[0] != want {
			t.Errorf("media[%d] = %x, want %x (lost under eADR)", addr, buf[0], want)
		}
	}
	// The pending line reached persistence during the battery flush.
	if len(sink.lines) == 0 {
		t.Error("RBB not notified during eADR flush")
	}
}

func TestEADRDisabledStillLoses(t *testing.T) {
	d, ctx := newTestDevice(1 << 20)
	d.SetEADR(true)
	d.SetEADR(false)
	d.Store(ctx, 0, []byte{0x33})
	d.Crash()
	buf := make([]byte, 1)
	d.MediaRead(0, buf)
	if buf[0] != 0 {
		t.Error("ADR crash preserved a dirty line after eADR was disabled")
	}
}

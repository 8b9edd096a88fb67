package kv_test

import (
	"bytes"
	"testing"

	"ffccd/internal/kv"
	"ffccd/internal/pmop"
	"ffccd/internal/sim"
)

// echoValue is the 8..47-byte value loadEcho stores at key k.
func echoValue(k uint64) []byte { return bytes.Repeat([]byte{byte(k)}, 8+int(k%40)) }

// loadEcho returns an Echo store holding keys 0..keys-1 and the context that
// loaded it.
func loadEcho(tb testing.TB, keys int) (*kv.Echo, *pmop.Pool, *sim.Ctx, *sim.Config, *pmop.Registry) {
	tb.Helper()
	cfg := sim.DefaultConfig()
	cfg.CacheBytes = 256 * 1024
	rt := pmop.NewRuntime(&cfg, 64<<20)
	reg := pmop.NewRegistry()
	kv.RegisterTypes(reg)
	p, err := rt.Create("kv", 32<<20, 12, reg)
	if err != nil {
		tb.Fatal(err)
	}
	ctx := sim.NewCtx(&cfg)
	e, err := kv.NewEcho(ctx, p, keys/2)
	if err != nil {
		tb.Fatal(err)
	}
	for k := uint64(0); k < uint64(keys); k++ {
		if err := e.Insert(ctx, k, echoValue(k)); err != nil {
			tb.Fatal(err)
		}
	}
	return e, p, ctx, &cfg, reg
}

// echoFork is one fork of a loaded Echo machine.
type echoFork struct {
	e   *kv.Echo
	p   *pmop.Pool
	ctx *sim.Ctx
}

// TestGetParallelReadsLikeGet pins GetParallel's contract: on two forks of
// one loaded machine, Get and GetParallel of the same keys return the same
// bytes and leave the same clock, device counters and op count, hits and
// misses alike; a miss returns (nil, false); the copy Get returns keeps its
// bytes while GetParallel reuses its buffer; and a warm GetParallel
// allocates nothing.
func TestGetParallelReadsLikeGet(t *testing.T) {
	const keys = 300
	e, p, ctx, cfg, reg := loadEcho(t, keys)
	var img pmop.Image
	p.CaptureInto(&img)
	var cp sim.CtxCheckpoint
	ctx.CheckpointInto(&cp)
	var forks [2]echoFork
	for i := range forks {
		c := *cfg
		_, fp, err := img.Fork(&c, "kv", reg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(fp.Device().ReleaseMedia)
		fctx := sim.NewCtx(&c)
		fctx.Restore(&cp)
		forks[i] = echoFork{e.Fork(fp).(*kv.Echo), fp, fctx}
	}
	a, b := forks[0], forks[1]

	// Every third key misses; sizes vary, so GetParallel's buffer grows.
	for i := uint64(0); i < 3*keys/2; i++ {
		k := i * 2
		if i%3 == 2 {
			k = keys + i
		}
		va, oka := a.e.Get(a.ctx, k)
		vb, okb := b.e.GetParallel(b.ctx, k)
		switch {
		case oka != okb || !bytes.Equal(va, vb):
			t.Fatalf("key %d: Get = %v %x, GetParallel = %v %x", k, oka, va, okb, vb)
		case oka != (k < keys) || oka && !bytes.Equal(va, echoValue(k)):
			t.Fatalf("key %d: read %v %x", k, oka, va)
		case !okb && vb != nil:
			t.Fatalf("key %d: a GetParallel miss returned %x", k, vb)
		case a.ctx.Clock.Total() != b.ctx.Clock.Total():
			t.Fatalf("key %d: Get left the clock at %d cycles, GetParallel at %d", k, a.ctx.Clock.Total(), b.ctx.Clock.Total())
		case a.p.Device().Stats() != b.p.Device().Stats():
			t.Fatalf("key %d: device stats differ:\n%+v\n%+v", k, a.p.Device().Stats(), b.p.Device().Stats())
		case a.p.Ops.Load() != b.p.Ops.Load():
			t.Fatalf("key %d: %d ops after Get, %d after GetParallel", k, a.p.Ops.Load(), b.p.Ops.Load())
		}
	}

	held, _ := b.e.Get(b.ctx, keys-1)
	for k := uint64(0); k < keys; k++ {
		b.e.GetParallel(b.ctx, k)
	}
	if !bytes.Equal(held, echoValue(keys-1)) {
		t.Errorf("Get's copy changed to %x under later GetParallel calls", held)
	}

	if n := testing.AllocsPerRun(100, func() { b.e.GetParallel(b.ctx, keys-1) }); n != 0 {
		t.Errorf("a warm GetParallel makes %.1f allocations, want 0", n)
	}
}

// BenchmarkEchoGetParallel is the batched read's rung: warm GetParallel hits
// over 1 024 keys. `make benchsmoke` runs it once and prints its B/op.
func BenchmarkEchoGetParallel(b *testing.B) {
	const keys = 1024
	e, _, ctx, _, _ := loadEcho(b, keys)
	for k := uint64(0); k < keys; k++ {
		e.GetParallel(ctx, k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := e.GetParallel(ctx, uint64(i%keys)); !ok {
			b.Fatal("miss")
		}
	}
}

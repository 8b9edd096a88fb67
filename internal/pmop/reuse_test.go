package pmop

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"ffccd/internal/alloc"
	"ffccd/internal/sim"
	"ffccd/internal/workpool"
)

// reuseRegistry holds the one type the reuse churn allocates.
func reuseRegistry() (*Registry, TypeID) {
	reg := NewRegistry()
	return reg, reg.Register(TypeInfo{Name: "blob", Kind: KindBytes})
}

// reuseChurn allocates, rewrites under a transaction and frees blobs of 16 to
// 2 000 bytes on p, n operations drawn from seed, and returns where each
// allocation landed. live maps the header offset of every live blob to its
// slot count; the churn keeps it current.
func reuseChurn(ctx *sim.Ctx, p *Pool, blob TypeID, seed int64, n int, live map[uint64]int) ([]uint64, error) {
	rng := rand.New(rand.NewSource(seed))
	var offs []uint64
	var val [2000]byte
	for i := range n {
		hdrs := slices.Sorted(maps.Keys(live))
		switch op := rng.Intn(10); {
		case op < 6 || len(hdrs) == 0:
			size := 16 + uint64(rng.Intn(1985))
			obj, err := p.Alloc(ctx, blob, size)
			if err != nil {
				return nil, err
			}
			val[0] = byte(i)
			p.WriteBytes(ctx, obj, 0, val[:size])
			p.PersistRange(ctx, obj.Offset(), size)
			offs = append(offs, obj.Offset())
			live[obj.Offset()-HeaderSize] = alloc.SlotsFor(size)
		case op < 8:
			hdr := hdrs[rng.Intn(len(hdrs))]
			obj := MakePtr(p.ID(), hdr+HeaderSize)
			tx := p.Begin(ctx)
			tx.AddObject(ctx, obj)
			p.WriteU64(ctx, obj, 0, uint64(i))
			tx.Commit(ctx)
		default:
			hdr := hdrs[rng.Intn(len(hdrs))]
			p.Free(ctx, MakePtr(p.ID(), hdr+HeaderSize))
			delete(live, hdr)
		}
	}
	return offs, nil
}

// reuseRun is what TestReopenedPoolMatchesFresh compares: where every
// allocation of a churned, reopened and churned again pool landed, and the
// heap's fragmentation, the media and the simulated cycles at the end.
type reuseRun struct {
	offs   []uint64
	frag   alloc.FragStats
	hash   uint64
	cycles uint64
}

// reopenedPoolRun churns a 16 MB pool, reopens it — a new runtime attached to
// the device, the pool opened with an empty heap and rebuilt from its live
// blobs — and churns it again. Before the pool is created and again before it
// is reopened, donate runs: whatever it leaves in volatiles is what the pool
// starts on.
func reopenedPoolRun(donate func() error) (reuseRun, error) {
	cfg := sim.DefaultConfig()
	cfg.CacheBytes = 64 * 1024
	reg, blob := reuseRegistry()
	if err := donate(); err != nil {
		return reuseRun{}, err
	}
	rt := NewRuntime(&cfg, 32<<20)
	defer rt.Device().ReleaseMedia()
	p, err := rt.Create("reuse", 16<<20, 12, reg)
	if err != nil {
		return reuseRun{}, err
	}
	ctx := sim.NewCtx(&cfg)
	defer ctx.Release()
	live := map[uint64]int{}
	offs, err := reuseChurn(ctx, p, blob, 1, 600, live)
	if err != nil {
		return reuseRun{}, err
	}
	p.Release()
	if err := donate(); err != nil {
		return reuseRun{}, err
	}
	rt2, err := Attach(&cfg, rt.Device())
	if err != nil {
		return reuseRun{}, err
	}
	q, err := rt2.Open("reuse", reg)
	if err != nil {
		return reuseRun{}, err
	}
	defer q.Release()
	hdrs := slices.Sorted(maps.Keys(live))
	q.Heap().RebuildFromMark(len(hdrs), func(i int) (uint64, int) { return hdrs[i], live[hdrs[i]] })
	more, err := reuseChurn(ctx, q, blob, 2, 600, live)
	if err != nil {
		return reuseRun{}, err
	}
	return reuseRun{offs: append(offs, more...), frag: q.Heap().Frag(12), hash: rt.Device().HashMedia(),
		cycles: ctx.Clock.Total()}, nil
}

// drainVolatiles empties the free list, so the next pool builds its
// volatile state afresh.
func drainVolatiles() error {
	for {
		if _, ok := volatiles.Take(nil); !ok {
			return nil
		}
	}
}

// donor returns a donate func that leaves behind the volatile state of a
// released pool of size bytes, its heap churned far past what the compared
// pool reaches, or not as far, and its transaction slots used.
func donor(size uint64, ops int) func() error {
	return func() error {
		cfg := sim.DefaultConfig()
		reg, blob := reuseRegistry()
		rt := NewRuntime(&cfg, 2*size)
		defer rt.Device().ReleaseMedia()
		p, err := rt.Create("donor", size, 12, reg)
		if err != nil {
			return err
		}
		ctx := sim.NewCtx(&cfg)
		defer ctx.Release()
		_, err = reuseChurn(ctx, p, blob, 99, ops, map[uint64]int{})
		p.Release()
		return err
	}
}

// TestReopenedPoolMatchesFresh: a pool created and reopened on the heap
// tables and transaction slots released pools left behind — of a larger or
// a smaller geometry, churned further or less far — places every allocation
// where a pool on fresh state does, and ends with the same fragmentation,
// media and simulated cycles. The recycled runs are workpool jobs, so under
// FFCCD_PARALLEL=4 the state moves between workers.
func TestReopenedPoolMatchesFresh(t *testing.T) {
	want, err := reopenedPoolRun(drainVolatiles)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.offs) < 600 {
		t.Fatalf("the churn made %d allocations", len(want.offs))
	}
	donors := []func() error{
		donor(48<<20, 2400),         // larger heap, reached further
		donor(4<<20, 40),            // smaller heap, reached less far
		donor(16<<20, 600),          // the same geometry
		func() error { return nil }, // whatever the other jobs left
	}
	runs := make([]reuseRun, len(donors))
	if err := workpool.ForEach(len(donors), func(i int) (err error) {
		runs[i], err = reopenedPoolRun(donors[i])
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for i, got := range runs {
		if !slices.Equal(got.offs, want.offs) {
			for j := range min(len(got.offs), len(want.offs)) {
				if got.offs[j] != want.offs[j] {
					t.Errorf("donor %d: allocation %d at %#x, on fresh state at %#x", i, j, got.offs[j], want.offs[j])
					break
				}
			}
			continue
		}
		if got.frag != want.frag || got.hash != want.hash || got.cycles != want.cycles {
			t.Errorf("donor %d: frag %+v media %#x cycles %d, on fresh state frag %+v media %#x cycles %d",
				i, got.frag, got.hash, got.cycles, want.frag, want.hash, want.cycles)
		}
	}
}

package core

// The hash-map epoch index the engine used before the dense tables of
// epoch.go, kept verbatim as a reference model (the way alloc keeps the old
// first-fit walk): refEpoch's buildIndexes, buildComponents, lookupSrc and
// findDestObject are the old epochState methods with the receiver renamed.
// TestDenseEpochMatchesMapReference checks every dense lookup against it on
// randomized heaps.

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"ffccd/internal/alloc"
	"ffccd/internal/pmop"
	"ffccd/internal/sim"
)

type refEpoch struct {
	relocFrames []int
	relocSet    map[int]bool

	objects []relocObj
	bySrc   map[uint64]int // src payload offset → object index
	byDst   map[uint64]int // dst payload offset → object index

	// destIndex lists, per destination frame, object indices sorted by
	// destination offset.
	destIndex map[int][]int

	components [][]int
	compOf     []int32

	minor     map[int]*[alloc.SlotsPerFrame]byte
	destFrame map[int]int
	// lastSlotSrc[f] is the source slot of frame f placed at destination
	// slot 255, whose minor byte equals pmop.MinorInvalid.
	lastSlotSrc map[int]int
}

// newRefEpoch builds the reference from nothing but the epoch's relocation
// frames and object list: the minor-distance maps and major distances are
// re-derived from the objects, not copied out of the dense tables.
func newRefEpoch(ep *epochState, p *pmop.Pool) *refEpoch {
	heap := p.Heap()
	ref := &refEpoch{
		relocFrames: slices.Clone(ep.relocFrames),
		objects:     slices.Clone(ep.objects),
		minor:       make(map[int]*[alloc.SlotsPerFrame]byte),
		destFrame:   make(map[int]int),
		lastSlotSrc: make(map[int]int),
	}
	for _, f := range ref.relocFrames {
		var mm [alloc.SlotsPerFrame]byte
		for i := range mm {
			mm[i] = pmop.MinorInvalid
		}
		ref.minor[f] = &mm
	}
	for i := range ref.objects {
		o := &ref.objects[i]
		f, srcSlot := heap.Locate(o.srcHdr)
		df, dstSlot := heap.Locate(o.dstHdr)
		for s := 0; s < o.slots; s++ {
			ref.minor[f][srcSlot+s] = byte(dstSlot + s)
		}
		ref.destFrame[f] = df
		if dstSlot+o.slots == alloc.SlotsPerFrame {
			ref.lastSlotSrc[f] = srcSlot + o.slots - 1
		}
	}
	ref.buildIndexes(p)
	return ref
}

func (ep *refEpoch) buildIndexes(p *pmop.Pool) {
	ep.relocSet = make(map[int]bool, len(ep.relocFrames))
	for _, f := range ep.relocFrames {
		ep.relocSet[f] = true
	}
	ep.bySrc = make(map[uint64]int, len(ep.objects))
	ep.byDst = make(map[uint64]int, len(ep.objects))
	ep.destIndex = make(map[int][]int)
	heap := p.Heap()
	for i := range ep.objects {
		o := &ep.objects[i]
		ep.bySrc[o.srcPayload()] = i
		ep.byDst[o.dstPayload()] = i
		df := heap.FrameOf(o.dstHdr)
		ep.destIndex[df] = append(ep.destIndex[df], i)
	}
	for f := range ep.destIndex {
		idx := ep.destIndex[f]
		sort.Slice(idx, func(a, b int) bool {
			return ep.objects[idx[a]].dstHdr < ep.objects[idx[b]].dstHdr
		})
	}
	ep.buildComponents()
}

func (ep *refEpoch) buildComponents() {
	idx := make([]int, len(ep.objects))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return ep.objects[idx[a]].dstHdr < ep.objects[idx[b]].dstHdr })
	ep.compOf = make([]int32, len(ep.objects))
	ep.components = ep.components[:0]
	lastLine := uint64(^uint64(0))
	for _, i := range idx {
		o := &ep.objects[i]
		first := o.dstHdr >> pmemLineShift
		last := (o.dstHdr + o.bytes() - 1) >> pmemLineShift
		if first != lastLine || len(ep.components) == 0 {
			ep.components = append(ep.components, nil)
		}
		c := len(ep.components) - 1
		ep.components[c] = append(ep.components[c], i)
		ep.compOf[i] = int32(c)
		lastLine = last
	}
}

func (ep *refEpoch) lookupSrc(p *pmop.Pool, srcOff uint64) (uint64, bool) {
	heap := p.Heap()
	f, slot := heap.Locate(srcOff)
	mm, ok := ep.minor[f]
	if !ok {
		return 0, false
	}
	if last, has := ep.lastSlotSrc[f]; mm[slot] == pmop.MinorInvalid && !(has && last == slot) {
		return 0, false
	}
	df := ep.destFrame[f]
	return heap.OffsetOf(df, int(mm[slot])), true
}

func (ep *refEpoch) findDestObject(p *pmop.Pool, off uint64) (int, bool) {
	heap := p.Heap()
	heapOff := heap.HeapOff()
	if off < heapOff {
		return 0, false
	}
	f := heap.FrameOf(off)
	idx, ok := ep.destIndex[f]
	if !ok {
		return 0, false
	}
	// Binary search for the last object starting at or before off.
	lo, hi := 0, len(idx)-1
	found := -1
	for lo <= hi {
		mid := (lo + hi) / 2
		if ep.objects[idx[mid]].dstHdr <= off {
			found = idx[mid]
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	if found < 0 {
		return 0, false
	}
	o := &ep.objects[found]
	if off < o.dstHdr+o.bytes() {
		return found, true
	}
	return 0, false
}

// checkAgainstRef compares every lookup the engine makes on ep with the
// reference: each slot (and a mid-slot address) of every relocation and
// destination frame and of a sample of other frames, addresses outside the
// heap, and the component structure.
func checkAgainstRef(t *testing.T, ep *epochState, p *pmop.Pool, rng *rand.Rand) {
	t.Helper()
	heap := p.Heap()
	ref := newRefEpoch(ep, p)
	if len(ep.objects) == 0 {
		t.Fatal("epoch relocates nothing")
	}

	probe := func(off uint64) {
		t.Helper()
		if off >= heap.HeapOff() && heap.FrameOf(off) < heap.Frames() {
			if got, want := ep.onRelocFrame(heap, off), ref.relocSet[heap.FrameOf(off)]; got != want {
				t.Fatalf("onRelocFrame(%#x) = %v, reference %v", off, got, want)
			}
			gd, gok := ep.lookupSrc(p, off)
			wd, wok := ref.lookupSrc(p, off)
			if gd != wd || gok != wok {
				t.Fatalf("lookupSrc(%#x) = %#x,%v, reference %#x,%v", off, gd, gok, wd, wok)
			}
		} else if _, ok := ep.lookupSrc(p, off); ok || ep.onRelocFrame(heap, off) {
			t.Fatalf("address %#x outside the heap forwards", off)
		}
		gi, gok := ep.srcObject(p, off)
		wi, wok := ref.bySrc[off]
		if gok != wok || (gok && gi != wi) {
			t.Fatalf("srcObject(%#x) = %d,%v, reference %d,%v", off, gi, gok, wi, wok)
		}
		gi, gok = ep.dstObject(off)
		wi, wok = ref.byDst[off]
		if gok != wok || (gok && gi != wi) {
			t.Fatalf("dstObject(%#x) = %d,%v, reference %d,%v", off, gi, gok, wi, wok)
		}
		gi, gok = ep.findDestObject(off)
		wi, wok = ref.findDestObject(p, off)
		if gok != wok || (gok && gi != wi) {
			t.Fatalf("findDestObject(%#x) = %d,%v, reference %d,%v", off, gi, gok, wi, wok)
		}
	}
	probeFrame := func(f int) {
		t.Helper()
		for s := 0; s < alloc.SlotsPerFrame; s++ {
			probe(heap.OffsetOf(f, s))
			probe(heap.OffsetOf(f, s) + 1 + uint64(rng.Intn(alloc.SlotSize-1)))
		}
	}
	for _, f := range ep.relocFrames {
		probeFrame(f)
	}
	for _, f := range ep.destFrames {
		probeFrame(f)
	}
	for i := 0; i < 16; i++ {
		probeFrame(rng.Intn(heap.Frames()))
	}
	probeFrame(0)
	probeFrame(heap.Frames() - 1)
	heapEnd := heap.OffsetOf(heap.Frames(), 0)
	for _, off := range []uint64{0, 8, 16, heap.HeapOff() - 16, heap.HeapOff() - 1, heapEnd, heapEnd + 16, heapEnd + 1<<30, ^uint64(0), ^uint64(0) - 15} {
		probe(off)
	}

	if got, want := ep.numComponents(), len(ref.components); got != want {
		t.Fatalf("%d components, reference %d", got, want)
	}
	for c, want := range ref.components {
		got := ep.component(c)
		if len(got) != len(want) {
			t.Fatalf("component %d has %d members, reference %d", c, len(got), len(want))
		}
		for k := range got {
			if int(got[k]) != want[k] {
				t.Fatalf("component %d member %d = %d, reference %d", c, k, got[k], want[k])
			}
		}
	}
	for i := range ep.objects {
		if ep.compOf[i] != ref.compOf[i] {
			t.Fatalf("compOf[%d] = %d, reference %d", i, ep.compOf[i], ref.compOf[i])
		}
		if got, want := ep.clusterOf(i), ref.components[ref.compOf[i]]; int(got[0]) != want[0] || len(got) != len(want) {
			t.Fatalf("clusterOf(%d) = %v, reference %v", i, got, want)
		}
	}
	if len(ep.moved) != len(ep.objects) || ep.pending != len(ep.objects) {
		t.Fatalf("%d objects but %d moved flags, %d pending", len(ep.objects), len(ep.moved), ep.pending)
	}
}

// buildRandomHeap creates a pool whose root is a list of n variable-size
// nodes (16-byte slots, payloads 24..payloadMax), every third carrying a
// pointer array into earlier nodes, fragmented by garbagePer interleaved
// fillers per node that are freed afterwards.
func buildRandomHeap(t testing.TB, seed int64, pageShift uint, n, garbagePer, payloadMax int) *fixture {
	t.Helper()
	return buildRandomHeapIn(t, 64<<20, seed, pageShift, n, garbagePer, payloadMax)
}

// buildRandomHeapIn is buildRandomHeap on a pool of poolBytes.
func buildRandomHeapIn(t testing.TB, poolBytes uint64, seed int64, pageShift uint, n, garbagePer, payloadMax int) *fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := sim.DefaultConfig()
	cfg.CacheBytes = 256 * 1024
	rt := pmop.NewRuntime(&cfg, 2*poolBytes)
	reg := testRegistry()
	p, err := rt.Create("frag", poolBytes, pageShift, reg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewCtx(&cfg)
	fx := &fixture{cfg: &cfg, rt: rt, p: p, ctx: ctx}
	fx.grow(t, rng, n, garbagePer, payloadMax)
	return fx
}

// grow appends n more nodes to the fixture's list the way buildRandomHeap
// describes and persists the result.
func (fx *fixture) grow(t testing.TB, rng *rand.Rand, n, garbagePer, payloadMax int) {
	t.Helper()
	p, ctx := fx.p, fx.ctx
	nodeT, _ := p.Types().LookupName("tvar")
	arrT, _ := p.Types().LookupName("tarr")
	garbT, _ := p.Types().LookupName("tgarbage")
	must := func(ptr pmop.Ptr, err error) pmop.Ptr {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return ptr
	}

	// Find the tail (and remember the nodes, for the pointer arrays).
	var nodes []pmop.Ptr
	for cur := p.Root(ctx); !cur.IsNull(); cur = p.ReadPtr(ctx, cur, 8) {
		nodes = append(nodes, cur)
	}
	var garbage []pmop.Ptr
	for i := 0; i < n; i++ {
		nd := must(p.Alloc(ctx, nodeT.ID, uint64(24+8*rng.Intn((payloadMax-24)/8+1))))
		p.WriteU64(ctx, nd, 0, uint64(fx.n))
		if len(nodes) == 0 {
			p.SetRoot(ctx, nd)
		} else {
			p.WritePtr(ctx, nodes[len(nodes)-1], 8, nd)
		}
		if fx.n%3 == 2 {
			arr := must(p.Alloc(ctx, arrT.ID, uint64(8*(1+rng.Intn(12)))))
			_, size := p.Header(ctx, arr)
			for o := uint64(0); o < size; o += 8 {
				if rng.Intn(4) != 0 {
					p.WritePtr(ctx, arr, o, nodes[rng.Intn(len(nodes))])
				}
			}
			p.WritePtr(ctx, nd, 16, arr)
		}
		nodes = append(nodes, nd)
		fx.n++
		for g := 0; g < garbagePer; g++ {
			garbage = append(garbage, must(p.Alloc(ctx, garbT.ID, uint64(16+rng.Intn(payloadMax)))))
		}
	}
	for _, g := range garbage {
		p.Free(ctx, g)
	}
	p.Device().FlushAll(ctx)
}

// checkVarList verifies the fixture's list still numbers its nodes 0..n-1.
func checkVarList(t testing.TB, p *pmop.Pool, ctx *sim.Ctx, n int) {
	t.Helper()
	i := 0
	for cur := p.Root(ctx); !cur.IsNull(); cur = p.ReadPtr(ctx, cur, 8) {
		if v := p.ReadU64(ctx, cur, 0); v != uint64(i) {
			t.Fatalf("node %d holds %d", i, v)
		}
		i++
	}
	if i != n {
		t.Fatalf("list has %d nodes, want %d", i, n)
	}
}

func TestDenseEpochMatchesMapReference(t *testing.T) {
	geometries := []struct {
		name                      string
		pageShift                 uint
		n, garbagePer, payloadMax int
	}{
		{"4K", 12, 700, 3, 200},
		{"2M", 21, 900, 40, 240},
	}
	for gi, g := range geometries {
		for _, s := range schemes() {
			if testing.Short() && g.pageShift > 12 && s != SchemeFFCCDCheckLookup {
				continue // the huge-page heaps take a while to build under -race
			}
			t.Run(fmt.Sprintf("%s/%s", g.name, s), func(t *testing.T) {
				seed := int64(100*gi) + int64(s)
				rng := rand.New(rand.NewSource(seed))
				fx := buildRandomHeap(t, seed, g.pageShift, g.n, g.garbagePer, g.payloadMax)
				opt := DefaultOptions()
				opt.Scheme = s
				e := NewEngine(fx.p, opt)
				ep := e.prepare(fx.ctx)
				if ep == nil {
					t.Fatal("no epoch")
				}
				checkAgainstRef(t, ep, fx.p, rng)
				want := slices.Clone(ep.objects)

				// Move part of the epoch, crash, and rebuild it from the PMFT
				// the way recovery does: same objects (in source-frame order
				// now), same answers from the tables.
				e.StepCompaction(fx.ctx, len(ep.objects)/3)
				fx.rt.Device().Crash()
				if e.RBB() != nil {
					e.RBB().PowerLossFlush()
				}
				rt2, err := pmop.Attach(fx.cfg, fx.rt.Device())
				if err != nil {
					t.Fatal(err)
				}
				p2, err := rt2.Open("frag", testRegistry())
				if err != nil {
					t.Fatal(err)
				}
				e2 := NewEngine(p2, opt)
				_, scheme, epochNo := pmop.UnpackGCPhase(p2.GCPhase(fx.ctx))
				ep2, err := e2.loadEpoch(fx.ctx, Scheme(scheme), epochNo)
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstRef(t, ep2, p2, rng)
				got := slices.Clone(ep2.objects)
				bySrc := func(a, b relocObj) int { return int(int64(a.srcHdr) - int64(b.srcHdr)) }
				slices.SortFunc(want, bySrc)
				slices.SortFunc(got, bySrc)
				if !slices.Equal(got, want) {
					t.Fatalf("loadEpoch rebuilt %d objects that differ from the %d summary placed", len(got), len(want))
				}

				// And the whole recovery still completes the epoch.
				e2.Close()
				e3, err := Recover(fx.ctx, p2, opt)
				if err != nil {
					t.Fatal(err)
				}
				defer e3.Close()
				checkVarList(t, p2, fx.ctx, fx.n)
			})
		}
	}
}

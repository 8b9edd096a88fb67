package main

import (
	"sort"
	"time"

	"ffccd/internal/alloc"
	"ffccd/internal/arch"
	"ffccd/internal/experiments"
	"ffccd/internal/obsv"
	"ffccd/internal/pmem"
	"ffccd/internal/redisws"
	"ffccd/internal/sim"
	"ffccd/internal/workload"
	"ffccd/internal/workpool"
)

// The ladder prices the layers the harness cannot intercept — sim, pmem,
// arch, alloc, pmop — and the small helpers of the layers it can, as host ns
// per call of their public functions, each on a machine of its own. The
// ledger multiplies these prices by the exact call counts a traced run
// reports; the product is a model of where store and engine time goes, not a
// measurement of it.

// perCall times batches of iters calls of f and returns the median batch's ns
// per call.
func perCall(iters int, f func(i int)) float64 {
	const batches = 5
	ns := make([]float64, batches)
	n := 0
	for b := range ns {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			f(n)
			n++
		}
		ns[b] = float64(time.Since(t0)) / float64(iters)
	}
	sort.Float64s(ns)
	return ns[batches/2]
}

// valueSize walks the serving regime's request sizes, 240–492 B.
func valueSize(i int) uint64 { return 240 + uint64(i*97)%253 }

// churn holds a heap's live objects; a step frees one picked pseudo-randomly
// and allocates a new one of another size in its place — what a SET does to
// the heap.
type churn struct {
	h    *alloc.Heap
	live []churnObj
}

type churnObj struct {
	off   uint64
	slots int
}

func (c *churn) fill(n int) {
	for i := 0; i < n; i++ {
		sz := valueSize(i)
		off, err := c.h.Alloc(sz)
		if err != nil {
			panic(err) // the ladder sizes its own heaps
		}
		c.live = append(c.live, churnObj{off, alloc.SlotsFor(sz)})
	}
}

func (c *churn) step(i int) {
	j := int(uint32(i) * 2654435761 % uint32(len(c.live)))
	c.h.Free(c.live[j].off, c.live[j].slots)
	sz := valueSize(i)
	off, err := c.h.Alloc(sz)
	if err != nil {
		panic(err)
	}
	c.live[j] = churnObj{off, alloc.SlotsFor(sz)}
}

// staticForwarder maps every other relocation page to a destination.
type staticForwarder struct{ base uint64 }

func (f staticForwarder) LookupAddr(_ *sim.Ctx, src uint64) (uint64, bool) {
	return f.base + src, (src>>12)&1 == 0
}

// runLadder returns every ladder.* metric; smoke shortens the loops.
func runLadder(smoke bool) (map[string]float64, error) {
	iters := 200_000
	if smoke {
		iters = 10_000
	}
	m := map[string]float64{}
	cfg := sim.DefaultConfig()

	// sim
	ctx := sim.NewCtx(&cfg)
	m["ladder.sim.charge_ns"] = perCall(iters*5, func(int) { ctx.Charge(3) })
	// One translation per call over 4096 pages, never the same page twice in
	// a row: the L1 misses, the 1536-entry L2 partly hits.
	m["ladder.sim.tlb_access_ns"] = perCall(iters, func(i int) {
		ctx.TLB.Access(uint64(uint32(i)*2654435761%4096)<<12, 12)
	})

	// pmem, on an exclusive 64 MB device as the micro machines use it.
	dev := pmem.NewDevice(&cfg, 64<<20)
	dev.SetExclusive(true)
	var word [8]byte
	for a := uint64(0); a < 1<<20; a += pmem.LineSize {
		dev.Load(ctx, a, word[:])
	}
	m["ladder.pmem.load_hit_ns"] = perCall(iters, func(i int) {
		dev.Load(ctx, uint64(i%16384)*pmem.LineSize, word[:])
	})
	// Sequential lines over 32 MB wrap long after the 3 MB cache has evicted
	// them: every load misses and evicts a clean line.
	m["ladder.pmem.load_miss_ns"] = perCall(iters, func(i int) {
		dev.Load(ctx, (8<<20)+uint64(i)%(32<<20/pmem.LineSize)*pmem.LineSize, word[:])
	})
	var two [16]byte
	m["ladder.pmem.store_clwb_sfence_ns"] = perCall(iters/2, func(i int) {
		a := uint64(i%8192) * pmem.LineSize
		dev.Store(ctx, a, two[:])
		dev.Clwb(ctx, a)
		dev.Sfence(ctx)
	})
	m["ladder.pmem.relocate_ns"] = perCall(iters/4, func(i int) {
		src := uint64(i%4096) * 512
		dev.Relocate(ctx, (48<<20)+src, src, 384)
	})
	// Checkpoint a device with 8 MB of dirty pages and restore it into a
	// fresh one, as each forked grid run does.
	for a := uint64(0); a < 8<<20; a += pmem.LineSize {
		dev.Store(ctx, (16<<20)+a, two[:])
	}
	rounds := 5
	if smoke {
		rounds = 1
	}
	m["ladder.pmem.checkpoint_restore_ms"] = perCall(rounds, func(int) {
		chk := dev.Checkpoint()
		d2 := pmem.NewDeviceForRestore(&cfg, 64<<20)
		d2.Restore(chk)
		d2.ReleaseMedia()
	}) / 1e6

	// arch
	pages := make([]uint64, 256)
	for i := range pages {
		pages[i] = (1 << 30) + uint64(i)<<12
	}
	bs := arch.NewBloomSetFromPages(pages, cfg.BloomFilters, cfg.BloomFilterBytes)
	clu := arch.NewCheckLookupUnit(&cfg)
	fwd := staticForwarder{base: 1 << 32}
	// Half the addresses fall in relocation pages, half outside every range.
	m["ladder.arch.checklookup_ns"] = perCall(iters, func(i int) {
		clu.CheckLookup(ctx, (1<<30)+uint64(i%512)<<12+uint64(i%60)*64, bs, fwd)
	})
	rbb := arch.NewRBB(&cfg, dev)
	rbb.Configure(60<<20, 0, 4096)
	m["ladder.arch.rbb_line_reached_ns"] = perCall(iters, func(i int) {
		rbb.LineReached(ctx, uint64(i%(4096*64))*pmem.LineSize)
	})
	rbb.Deactivate()
	dev.ReleaseMedia()

	// alloc, on a heap with the serve-* machine's geometry. Sparse is the
	// first-fit fast path: the cursor frame has room, so the pair never walks
	// the heap — the regime of the micro workloads' growing heaps.
	// Fragmented is the serving regime: the heap holds the LRU cap's worth of
	// live 240–492 B objects and has been churned to its steady fragmentation
	// (fragR ≈ 1.1, the trigger band), where first-fit walks many frames
	// whose holes do not fit the request.
	const serveHeapFrames = 38400
	sparse := &churn{h: alloc.NewHeap(0, serveHeapFrames)}
	sparse.fill(8)
	m["ladder.alloc.alloc_free_ns.sparse"] = perCall(iters, func(i int) {
		sz := valueSize(i)
		off, err := sparse.h.Alloc(sz)
		if err != nil {
			panic(err)
		}
		sparse.h.Free(off, alloc.SlotsFor(sz))
	})
	frag := &churn{h: alloc.NewHeap(0, serveHeapFrames)}
	frag.fill(20_000)
	for i := 0; i < iters/5; i++ {
		frag.step(i)
	}
	m["ladder.alloc.alloc_free_ns.fragmented"] = perCall(iters/20, func(i int) { frag.step(i + iters/5) })

	// pmop, on a pool built the way every machine builds it.
	env, err := experiments.NewEnv(32<<20, 12)
	if err != nil {
		return nil, err
	}
	env.RT.Device().SetExclusive(true)
	p, pctx := env.Pool, env.Ctx
	valT, _ := p.Types().LookupName("ds.value")
	rootT, _ := p.Types().LookupName("ds.listroot")
	// A few held objects keep the cursor frame active, so the pair is priced
	// at pmop's own work (zeroing, the persisted header) and not at a scan of
	// an empty heap.
	for i := 0; i < 8; i++ {
		if _, err := p.Alloc(pctx, valT.ID, valueSize(i)); err != nil {
			return nil, err
		}
	}
	m["ladder.pmop.alloc_free_ns"] = perCall(iters/8, func(i int) {
		obj, err := p.Alloc(pctx, valT.ID, valueSize(i))
		if err != nil {
			panic(err)
		}
		p.Free(pctx, obj)
	})
	holder, err := p.Alloc(pctx, rootT.ID, 0)
	if err != nil {
		return nil, err
	}
	target, err := p.Alloc(pctx, valT.ID, 64)
	if err != nil {
		return nil, err
	}
	p.WritePtr(pctx, holder, 0, target)
	m["ladder.pmop.read_ptr_ns"] = perCall(iters, func(int) { p.ReadPtr(pctx, holder, 0) })
	m["ladder.pmop.tx_add_commit_ns"] = perCall(iters/8, func(int) {
		tx := p.Begin(pctx)
		tx.AddPtr(pctx, holder, 0)
		tx.Commit(pctx)
	})
	env.RT.Device().ReleaseMedia()

	// redisws
	zipf := redisws.NewZipf(workload.NewRNG(1), 40000, 0.99)
	m["ladder.redisws.zipf_next_ns"] = perCall(iters, func(int) { zipf.Next() })
	perShard := iters / 8
	results := make([]redisws.ServeResult, 4)
	series := make([]*obsv.TimeSeries, 4)
	for s := range results {
		r := redisws.ServeResult{
			Lat: redisws.NewLatencyRecorder(0, int64(s)), AppHist: &obsv.Histogram{}, InterfHist: &obsv.Histogram{},
			StallHist: &obsv.Histogram{}, QueueHist: &obsv.Histogram{},
		}
		series[s] = obsv.NewTimeSeries("ffccd", serveWindowCycles, 0)
		for i := 0; i < perShard; i++ {
			at := uint64(i) * 4000
			lat := 1500 + uint64(i*31+s)%9000
			r.Lat.Observe(lat)
			r.AppHist.Observe(lat)
			series[s].ObserveOp(obsv.OpSample{Arrival: at, Start: at, Complete: at + lat, App: lat})
		}
		r.Ops = perShard
		results[s] = r
	}
	m["ladder.redisws.merge_ms"] = perCall(rounds, func(int) {
		redisws.MergeServeResults(results)
		if _, err := redisws.MergeShardSeries("ffccd", serveWindowCycles, 0, series); err != nil {
			panic(err)
		}
	}) / 1e6

	// workpool: one 64-way fan-out of empty jobs at the pool size in use.
	m["ladder.workpool.foreach_us"] = perCall(iters/100, func(int) {
		_ = workpool.ForEach(64, func(int) error { return nil })
	}) / 1e3

	// obsv
	var h obsv.Histogram
	m["ladder.obsv.hist_observe_ns"] = perCall(iters, func(i int) { h.Observe(uint64(i) * 37) })
	ts := obsv.NewTimeSeries("ffccd", serveWindowCycles, 0)
	m["ladder.obsv.series_observe_ns"] = perCall(iters, func(i int) {
		at := uint64(i) * 4000
		ts.ObserveOp(obsv.OpSample{Arrival: at, Start: at, Complete: at + 2000 + uint64(i%700), App: 2000})
	})
	return m, nil
}

// ffccd-inspect builds a demonstration pool, optionally crashes it mid-
// defragmentation, and prints a forensic dump of the persistent state: pool
// geometry, fragmentation, defragmentation phase word, PMFT entries, frame
// occupancy histogram, and a reachability summary. It demonstrates the kind
// of offline inspection the persistent metadata layout makes possible (every
// structure recovery relies on is readable from the media image alone).
//
//	ffccd-inspect             # clean pool
//	ffccd-inspect -crash      # crash mid-epoch first, inspect the wreckage
//	ffccd-inspect -timeline   # serving-path tail timeline, FFCCD vs STW
//
// Every run records a cycle-domain phase timeline (printed at the end). With
// -crash the tracer runs in flight-recorder mode: a bounded ring of the
// newest events per simulated thread, dumped at the instant of the fault —
// the pre-crash forensics a real PM module's debug port would give you.
//
// -timeline runs the open-loop serving simulation for FFCCD and the
// stop-the-world comparator and renders their per-window p999 series with
// defrag-epoch/STW-pause overlays, so the tail spikes line up visually
// against the GC phases that caused them. Adding -crash-at injects one
// power failure per scheme at that fraction of its crash-site census and
// renders the recovery blackout (R) and retry-backoff (B) overlays too:
//
//	ffccd-inspect -timeline -crash-at 0.5
//
// -shards N renders the timeline of a sharded deployment: one lane per
// simulated machine (its own clock domain and GC overlays) followed by the
// deterministic virtual-time merge of all lanes:
//
//	ffccd-inspect -timeline -shards 4
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"ffccd"
	"ffccd/internal/alloc"
	"ffccd/internal/checker"
	"ffccd/internal/experiments"
	"ffccd/internal/obsv"
)

func main() {
	crash := flag.Bool("crash", false, "crash mid-defragmentation before inspecting")
	keys := flag.Int("keys", 8000, "list entries to populate")
	flightrec := flag.Int("flightrec", 64, "flight-recorder ring capacity per simulated thread for -crash runs")
	timeline := flag.Bool("timeline", false, "render the serving-path tail timeline (FFCCD vs STW) and exit")
	scale := flag.Float64("scale", 0.002, "workload scale for -timeline")
	window := flag.Uint64("window", 0, "-timeline window width in simulated cycles (0 = scale-aware default)")
	crashAt := flag.Float64("crash-at", 0, "-timeline: crash each scheme at this fraction of its site census (0 = no crash)")
	shards := flag.Int("shards", 1, "-timeline: shard the deployment across N simulated machines (per-shard lanes + merged overlay)")
	flag.Parse()

	if *timeline {
		if *crashAt > 0 {
			runCrashTimeline(*crashAt, *window, *shards)
		} else {
			runTimeline(*scale, *window, *shards)
		}
		return
	}

	cfg := ffccd.DefaultConfig()
	rt := ffccd.NewRuntime(&cfg, 256<<20)
	ctx := ffccd.NewCtx(&cfg)
	reg := ffccd.NewRegistry()
	ffccd.RegisterStoreTypes(reg)
	pool, err := rt.Create("inspect", 64<<20, ffccd.Page4K, reg)
	if err != nil {
		log.Fatal(err)
	}
	list, _ := ffccd.NewList(ctx, pool)
	for i := uint64(0); i < uint64(*keys); i++ {
		list.Insert(ctx, i, []byte{byte(i), byte(i >> 8)})
	}
	for i := uint64(0); i < uint64(*keys); i += 2 {
		list.Delete(ctx, i)
	}
	pool.Device().FlushAll(ctx)

	// Observability: full trace for clean runs, flight-recorder ring for
	// crash runs (dumped by OnCrash at the fault, before recovery touches
	// anything). Reads simulated clocks, never charges them.
	ring := 0
	if *crash {
		ring = *flightrec
	}
	obs := obsv.New(ring)
	obs.OnCrash = func(o *obsv.Obs) {
		fmt.Println("== power loss: flight-recorder ring at the fault ==")
		if err := obsv.WriteFlightRecorder(os.Stdout, o); err != nil {
			log.Fatal(err)
		}
	}
	obs.Tracer.Name(ctx, "main")
	pool.Device().SetObs(obs)

	opt := ffccd.DefaultEngineOptions()
	opt.Scheme = ffccd.SchemeFFCCD
	opt.TriggerRatio, opt.TargetRatio = 1.05, 1.02
	opt.Obs = obs
	eng := ffccd.NewEngine(pool, opt)
	if *crash {
		if eng.BeginCycle(ctx) {
			eng.StepCompaction(ctx, *keys/4)
			pool.Device().Crash()
			if eng.RBB() != nil {
				eng.RBB().PowerLossFlush()
			}
			fmt.Println("== crashed mid-epoch; inspecting the persistent image ==")
			rt2, err := ffccd.AttachRuntime(&cfg, rt.Device())
			if err != nil {
				log.Fatal(err)
			}
			reg2 := ffccd.NewRegistry()
			ffccd.RegisterStoreTypes(reg2)
			pool, err = rt2.Open("inspect", reg2)
			if err != nil {
				log.Fatal(err)
			}
			dumpPhase(ctx, pool)
			// Recover, then dump the healthy state.
			eng2, err := ffccd.Recover(ctx, pool, opt)
			if err != nil {
				log.Fatal(err)
			}
			defer eng2.Close()
			fmt.Println("\n== after recovery ==")
		}
	} else {
		eng.RunCycle(ctx)
		defer eng.Close()
	}

	dumpPhase(ctx, pool)
	dumpGeometry(pool)
	dumpFragmentation(pool)
	dumpFrames(pool)
	dumpReachability(ctx, pool)

	fmt.Println("\nphase timeline (simulated time):")
	fmt.Print(obsv.TimelineTable(obs))
}

// runTimeline renders the per-window p999 timeline of the serving scenario
// for FFCCD and the STW comparator side by side, with GC overlay marks — the
// terminal version of the paper's tail-interference story.
func runTimeline(scale float64, window uint64, shards int) {
	res, err := experiments.Serving(experiments.ServingOptions{
		Scale:        scale,
		Schemes:      []string{"ffccd", "stw"},
		WindowCycles: window,
		Shards:       shards,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serving tail timeline: %d clients, %d ops, %.0f ops/s offered\n\n",
		res.Clients, res.Ops, res.Rate)
	for _, v := range res.Variants {
		if v.Series == nil {
			continue
		}
		renderShardLanes(v.Name, v.ShardSeries)
		fmt.Print(obsv.RenderTimeline(v.Series, 48))
		if ex, ok := v.Series.WorstExemplar(); ok {
			fmt.Printf("worst request: %s\n", ex)
		}
		ivs := v.Series.Intervals()
		stw, ep := 0, 0
		for _, iv := range ivs {
			switch iv.Kind {
			case obsv.IntervalSTW:
				stw++
			case obsv.IntervalEpoch:
				ep++
			}
		}
		fmt.Printf("overlays: %d stw pauses, %d concurrent epochs\n\n", stw, ep)
	}
}

// runCrashTimeline renders the availability grid's per-window p999 timelines:
// one injected power failure per scheme, with the recovery blackout (R) and
// retry-backoff (B) overlay marks alongside the usual S/E GC overlays.
func runCrashTimeline(frac float64, window uint64, shards int) {
	res, err := experiments.ServingCrash(experiments.ServingCrashOptions{
		SiteFrac:     frac,
		WindowCycles: window,
		Schemes:      []string{"ffccd", "stw"},
		Shards:       shards,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serving crash timeline: %d clients, %d ops, crash at %.0f%% of each scheme's site census\n\n",
		res.Clients, res.Ops, frac*100)
	for _, v := range res.Variants {
		if v.Series == nil {
			continue
		}
		fmt.Printf("%s: crash@%d, resume@%d (blackout %d cycles, first ack +%d, p999 ramp %d cycles)\n",
			v.Name, v.CrashCycle, v.ResumeCycle, v.BlackoutCycles, v.TimeToFirstAck, v.RampCycles)
		if v.Shards > 1 {
			fmt.Printf("%d shards, crash on shard %d; siblings served %d ops during the blackout\n",
				v.Shards, v.CrashShard, v.SiblingOps)
		}
		renderShardLanes(v.Name, v.ShardSeries)
		fmt.Print(obsv.RenderTimeline(v.Series, 48))
		rec, back := 0, 0
		for _, iv := range v.Series.Intervals() {
			switch iv.Kind {
			case obsv.IntervalRecovery:
				rec++
			case obsv.IntervalBackoff:
				back++
			}
		}
		fmt.Printf("overlays: %d recovery blackouts, %d retry backoffs, %d retries, %d rejects\n\n",
			rec, back, v.Retries, v.Rejects)
	}
}

// renderShardLanes prints one timeline lane per shard (each machine's own
// clock domain) ahead of the merged overlay; no-op for unsharded runs.
func renderShardLanes(scheme string, shardSeries []*obsv.TimeSeries) {
	if len(shardSeries) < 2 {
		return
	}
	for s, ts := range shardSeries {
		if ts == nil || ts.Count() == 0 {
			continue
		}
		fmt.Printf("%s shard %d lane:\n", scheme, s)
		fmt.Print(obsv.RenderTimeline(ts, 48))
	}
	fmt.Printf("%s merged (virtual-time union of all lanes):\n", scheme)
}

func dumpPhase(ctx *ffccd.Ctx, p *ffccd.Pool) {
	w := p.GCPhase(ctx)
	state := map[uint64]string{0: "idle", 1: "compacting"}[w&0xFF]
	fmt.Printf("defragmentation phase: %s (scheme=%d epoch=%d)\n", state, w>>8&0xFF, w>>16)
}

func dumpGeometry(p *ffccd.Pool) {
	heapOff, frames := p.HeapRange()
	gcOff, gcSize := p.GCMetaRange()
	t := obsv.NewTable("region", "offset", "size")
	t.Add("gc metadata", fmt.Sprintf("%#x", gcOff), fmt.Sprintf("%d KB", gcSize/1024))
	t.Add("object heap", fmt.Sprintf("%#x", heapOff), fmt.Sprintf("%d frames", frames))
	fmt.Print(t)
}

func dumpFragmentation(p *ffccd.Pool) {
	st := p.Heap().Frag(p.PageShift())
	fmt.Printf("footprint %.2f MB, live %.2f MB, fragR %.2f\n",
		float64(st.FootprintBytes)/(1<<20), float64(st.LiveBytes)/(1<<20), st.FragRatio)
}

func dumpFrames(p *ffccd.Pool) {
	hist := map[string]int{}
	occSum, occN := 0, 0
	for _, fi := range p.Heap().Snapshot() {
		name := map[alloc.FrameState]string{
			alloc.FrameActive: "active", alloc.FrameRelocation: "relocation",
			alloc.FrameDestination: "destination", alloc.FrameMeshed: "meshed",
		}[fi.State]
		hist[name]++
		occSum += fi.UsedSlots
		occN++
	}
	t := obsv.NewTable("frame state", "count")
	for k, v := range hist {
		t.Add(k, v)
	}
	fmt.Print(t)
	if occN > 0 {
		fmt.Printf("mean occupancy: %.1f%% of slots\n", float64(occSum)/float64(occN)/2.56)
	}
}

func dumpReachability(ctx *ffccd.Ctx, p *ffccd.Pool) {
	st, err := checker.CheckGraph(ctx, p)
	if err != nil {
		fmt.Printf("reachability check FAILED: %v\n", err)
		return
	}
	fmt.Printf("reachable graph: %d objects, %d pointer fields, %.2f MB\n",
		st.Objects, st.PtrFields, float64(st.Bytes)/(1<<20))
}

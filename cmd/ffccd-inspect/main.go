// ffccd-inspect builds a demonstration pool, optionally crashes it mid-
// defragmentation, and prints a forensic dump of the persistent state: pool
// geometry, fragmentation, defragmentation phase word, PMFT entries, frame
// occupancy histogram, and a reachability summary. It demonstrates the kind
// of offline inspection the persistent metadata layout makes possible (every
// structure recovery relies on is readable from the media image alone).
//
//	ffccd-inspect             # clean pool
//	ffccd-inspect -crash      # crash mid-epoch first, inspect the wreckage
//
// Every run records a cycle-domain phase timeline (printed at the end). With
// -crash the tracer runs in flight-recorder mode: a bounded ring of the
// newest events per simulated thread, dumped at the instant of the fault —
// the pre-crash forensics a real PM module's debug port would give you.
package main

import (
	"flag"
	"fmt"
	"os"

	"ffccd"
	"ffccd/internal/alloc"
	"ffccd/internal/checker"
	"ffccd/internal/obsv"
)

func main() { os.Exit(run(os.Args[1:])) }

// run is main with its arguments and exit code made explicit: 0 the pool was
// inspected, 1 building, crashing or recovering it failed, 2 the command line
// could not be used.
func run(args []string) int {
	fs := flag.NewFlagSet("ffccd-inspect", flag.ContinueOnError)
	crash := fs.Bool("crash", false, "crash mid-defragmentation before inspecting")
	keys := fs.Int("keys", 8000, "list entries to populate (at least 1)")
	flightrec := fs.Int("flightrec", 64, "flight-recorder ring capacity per simulated thread for -crash runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *keys < 1 {
		fmt.Fprintf(os.Stderr, "ffccd-inspect: -keys %d: the list needs at least one entry\n", *keys)
		return 2
	}
	if *flightrec < 0 {
		fmt.Fprintf(os.Stderr, "ffccd-inspect: -flightrec %d: counts cannot be negative\n", *flightrec)
		return 2
	}
	if err := inspect(*crash, *keys, *flightrec); err != nil {
		fmt.Fprintln(os.Stderr, "ffccd-inspect:", err)
		return 1
	}
	return 0
}

// inspect builds the demonstration pool of keys list entries, defragments
// it (crashing mid-epoch and recovering when crash is set) and prints the
// dump.
func inspect(crash bool, keys, flightrec int) error {
	cfg := ffccd.DefaultConfig()
	rt := ffccd.NewRuntime(&cfg, 256<<20)
	ctx := ffccd.NewCtx(&cfg)
	reg := ffccd.NewRegistry()
	ffccd.RegisterStoreTypes(reg)
	pool, err := rt.Create("inspect", 64<<20, ffccd.Page4K, reg)
	if err != nil {
		return err
	}
	list, err := ffccd.NewList(ctx, pool)
	if err != nil {
		return err
	}
	for i := uint64(0); i < uint64(keys); i++ {
		if err := list.Insert(ctx, i, []byte{byte(i), byte(i >> 8)}); err != nil {
			return fmt.Errorf("populating key %d of %d: %w", i, keys, err)
		}
	}
	for i := uint64(0); i < uint64(keys); i += 2 {
		if _, err := list.Delete(ctx, i); err != nil {
			return fmt.Errorf("deleting key %d: %w", i, err)
		}
	}
	pool.Device().FlushAll(ctx)

	// Observability: full trace for clean runs, flight-recorder ring for
	// crash runs (dumped by OnCrash at the fault, before recovery touches
	// anything). Reads simulated clocks, never charges them.
	ring := 0
	if crash {
		ring = flightrec
	}
	obs := obsv.New(ring)
	var dumpErr error
	obs.OnCrash = func(o *obsv.Obs) {
		fmt.Println("== power loss: flight-recorder ring at the fault ==")
		dumpErr = obsv.WriteFlightRecorder(os.Stdout, o)
	}
	obs.Tracer.Name(ctx, "main")
	pool.Device().SetObs(obs)

	opt := ffccd.DefaultEngineOptions()
	opt.Scheme = ffccd.SchemeFFCCD
	opt.TriggerRatio, opt.TargetRatio = 1.05, 1.02
	opt.Obs = obs
	eng := ffccd.NewEngine(pool, opt)
	if crash {
		if eng.BeginCycle(ctx) {
			eng.StepCompaction(ctx, keys/4)
			pool.Device().Crash()
			if eng.RBB() != nil {
				eng.RBB().PowerLossFlush()
			}
			if dumpErr != nil {
				return dumpErr
			}
			fmt.Println("== crashed mid-epoch; inspecting the persistent image ==")
			rt2, err := ffccd.AttachRuntime(&cfg, rt.Device())
			if err != nil {
				return err
			}
			reg2 := ffccd.NewRegistry()
			ffccd.RegisterStoreTypes(reg2)
			pool, err = rt2.Open("inspect", reg2)
			if err != nil {
				return err
			}
			dumpPhase(ctx, pool)
			// Recover, then dump the healthy state.
			eng2, err := ffccd.Recover(ctx, pool, opt)
			if err != nil {
				return err
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
	return nil
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

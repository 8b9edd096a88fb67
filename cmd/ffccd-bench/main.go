// ffccd-bench regenerates the paper's tables and figures on the simulated
// machine, and optionally times them.
//
// Usage:
//
//	ffccd-bench -experiment all            # everything (slow)
//	ffccd-bench -experiment table3 -scale 0.004
//	ffccd-bench -experiment fig5 -parallel 8 -json fig5.json
//	ffccd-bench -experiment serving -shards 4 -scheme ffccd
//	ffccd-bench -list
//
// The §7.4 Redis results are fig16 (footprint over time and closed-loop tail
// latency), serving (the open-loop SLO grid with per-window p999 timelines)
// and servingcrash (availability after one mid-run power failure per
// scheme); -scheme and -shards apply to the last two. A sharded run also
// prints each shard's own timeline lane ahead of the merged one.
//
// Every run is hermetic (its own simulated machine), so -parallel only
// changes host wall-clock — simulated cycle totals are identical at any
// worker count. -json writes one record per experiment (experiment, scale,
// parallel, host_seconds, metrics) for the scaling scripts; the repo's
// benchmark of host cost is `go run ./bench`, not this command.
//
// Observability (simulated cycle totals stay bit-identical either way):
//
//	ffccd-bench -experiment fig14 -trace out.json   # Perfetto-loadable trace
//	ffccd-bench -experiment fig5 -trace-ring 256 -trace ring.json
//	ffccd-bench -experiment all -httpobs localhost:6060  # pprof + OpenMetrics /metrics
//
// -httpobs serves pprof live, and an experiment's collection on /metrics
// only once the experiment has finished (see observe).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"ffccd/internal/experiments"
	"ffccd/internal/obsv"
	"ffccd/internal/redisws"
	"ffccd/internal/workpool"
)

// benchRecord is one -json entry: what ran, how long the host took, and the
// experiment's simulated metrics (identical across revisions and worker
// counts — see the golden test). The scaling scripts read host_seconds.
type benchRecord struct {
	Experiment  string             `json:"experiment"`
	Scale       float64            `json:"scale"`
	Parallel    int                `json:"parallel"`
	HostSeconds float64            `json:"host_seconds"`
	Metrics     map[string]float64 `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:])) }

// run is main with its arguments and exit code made explicit: 0 every
// experiment ran, 1 one failed or an output could not be written, 2 the
// command line could not be used. Every path returns, so a profile that was
// started is always finished.
func run(args []string) int {
	fs := flag.NewFlagSet("ffccd-bench", flag.ContinueOnError)
	experiment := fs.String("experiment", "all", "experiment id (or 'all')")
	scaleArg := fs.String("scale", "0.002", "workload scale relative to the paper's 5M-insert setup ('paper' = 1.0)")
	list := fs.Bool("list", false, "list experiment ids and exit")
	csvDir := fs.String("csv", "", "also write plot-ready CSV files into this directory")
	parallel := fs.Int("parallel", 0, "experiment-driver worker count (0 = GOMAXPROCS or $FFCCD_PARALLEL)")
	jsonPath := fs.String("json", "", "write one machine-readable record per experiment to this file")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write an allocation profile to this file on exit")
	tracePath := fs.String("trace", "", "write a Chrome trace-event JSON (open in ui.perfetto.dev) of every run's defrag phases to this file")
	traceRing := fs.Int("trace-ring", 0, "flight-recorder mode: keep only the newest N events per simulated thread (0 = full trace)")
	httpObs := fs.String("httpobs", "", "serve pprof (/debug/pprof) on this address, and the latest finished experiment's metrics (/metrics)")
	shards := fs.Int("shards", 1, "serving experiments: shard the keyspace across N independent simulated machines")
	scheme := fs.String("scheme", "", "serving experiments: run only this defrag scheme (none|ffccd|stw; empty = all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var schemes []string
	if *scheme != "" {
		if !slices.Contains(redisws.Schemes, *scheme) {
			fmt.Fprintf(os.Stderr, "-scheme: unknown scheme %q (want one of %v)\n", *scheme, redisws.Schemes)
			return 2
		}
		schemes = []string{*scheme}
	}

	scale, err := parseScale(*scaleArg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-scale: %v\n", err)
		return 2
	}

	type exp struct {
		id  string
		run func() (fmt.Stringer, error)
	}
	all := []exp{
		{"table1", func() (fmt.Stringer, error) { return str(experiments.Table1()), nil }},
		{"table2", func() (fmt.Stringer, error) { return str(experiments.Table2()), nil }},
		{"fig1", func() (fmt.Stringer, error) { r, err := experiments.Figure1(scale); return r, err }},
		{"fig5", func() (fmt.Stringer, error) { r, err := experiments.Figure5(scale); return r, err }},
		{"table3", func() (fmt.Stringer, error) { r, err := experiments.Table3(scale); return r, err }},
		{"fig14", func() (fmt.Stringer, error) { r, err := experiments.Figure14(scale); return r, err }},
		{"table4", func() (fmt.Stringer, error) { r, err := experiments.Table4(scale); return r, err }},
		{"fig15", func() (fmt.Stringer, error) { r, err := experiments.Figure15(scale); return r, err }},
		{"fig16", func() (fmt.Stringer, error) { r, err := experiments.Figure16(scale); return r, err }},
		{"serving", func() (fmt.Stringer, error) {
			r, err := experiments.Serving(experiments.ServingOptions{Scale: scale, Schemes: schemes, Shards: *shards})
			return r, err
		}},
		{"servingcrash", func() (fmt.Stringer, error) {
			r, err := experiments.ServingCrash(experiments.ServingCrashOptions{Schemes: schemes, Shards: *shards})
			return r, err
		}},
		{"ablation-rbb", func() (fmt.Stringer, error) {
			r, err := experiments.AblationRBB(scale, []int{1, 4, 8, 32})
			return r, err
		}},
		{"ablation-pmft", func() (fmt.Stringer, error) { r, err := experiments.AblationPMFT(scale); return r, err }},
		{"ablation-writes", func() (fmt.Stringer, error) { r, err := experiments.AblationWrites(scale); return r, err }},
	}
	if *list {
		for _, e := range all {
			fmt.Println(e.id)
		}
		return 0
	}
	selected := all
	if *experiment != "all" {
		i := slices.IndexFunc(all, func(e exp) bool { return e.id == *experiment })
		if i < 0 {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", *experiment)
			return 2
		}
		selected = all[i : i+1]
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	serving := slices.ContainsFunc(selected, func(e exp) bool { return e.id == "serving" || e.id == "servingcrash" })
	if (set["shards"] || set["scheme"]) && !serving {
		fmt.Fprintf(os.Stderr, "-shards and -scheme apply only to the serving experiments (serving, servingcrash), not %q\n", *experiment)
		return 2
	}

	if *parallel > 0 {
		workpool.SetParallelism(*parallel)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	obsEnabled := *tracePath != "" || *httpObs != ""
	var finished atomic.Pointer[obsv.Collector]
	if *httpObs != "" {
		// net/http/pprof registers itself on DefaultServeMux.
		http.Handle("/metrics", metricsHandler(&finished))
		go func() {
			if err := http.ListenAndServe(*httpObs, nil); err != nil {
				fmt.Fprintf(os.Stderr, "httpobs: %v\n", err)
			}
		}()
		fmt.Printf("(observability server on http://%s: /debug/pprof now, /metrics once an experiment finishes)\n", *httpObs)
	}

	var traceCols []*obsv.Collector
	var records []benchRecord
	for _, e := range selected {
		var col *obsv.Collector
		if obsEnabled {
			col = obsv.NewCollector(*traceRing)
			if *tracePath != "" {
				traceCols = append(traceCols, col)
			}
		}
		start := time.Now()
		out, err := observe(col, &finished, e.run)
		if err != nil {
			if errors.Is(err, redisws.ErrShards) {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.id, err)
			return 1
		}
		elapsed := time.Since(start).Seconds()
		fmt.Printf("==== %s (scale %g, %.1fs) ====\n%s\n", e.id, scale, elapsed, out)
		rec := benchRecord{Experiment: e.id, Scale: scale, Parallel: workpool.Parallelism(), HostSeconds: elapsed}
		if m, ok := out.(interface{ Metrics() map[string]float64 }); ok {
			rec.Metrics = m.Metrics()
		}
		records = append(records, rec)
		if c, ok := out.(interface{ CSV() string }); ok && *csvDir != "" {
			path := fmt.Sprintf("%s/%s.csv", *csvDir, e.id)
			if err := os.WriteFile(path, []byte(c.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "csv %s: %v\n", path, err)
			} else {
				fmt.Printf("(csv written to %s)\n", path)
			}
		}
	}
	if len(traceCols) > 0 {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace %s: %v\n", *tracePath, err)
			return 1
		}
		werr := obsv.WriteChromeTraceAll(f, traceCols...)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "trace %s: %v\n", *tracePath, werr)
			return 1
		}
		fmt.Printf("(chrome trace written to %s — open in https://ui.perfetto.dev)\n", *tracePath)
	}
	if *jsonPath != "" {
		b, err := json.MarshalIndent(records, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			return 1
		}
		if err := os.WriteFile(*jsonPath, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "json %s: %v\n", *jsonPath, err)
			return 1
		}
		fmt.Printf("(benchmark records written to %s)\n", *jsonPath)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			return 1
		}
	}
	return 0
}

// observe runs one experiment with col (nil: observability off) collecting
// its simulated runs, and only then publishes col as the latest finished
// collection. A collection's snapshot groups read its machines' plain
// counters and clocks, which only the goroutines running those machines may
// touch until the experiment returns.
func observe(col *obsv.Collector, finished *atomic.Pointer[obsv.Collector], run func() (fmt.Stringer, error)) (fmt.Stringer, error) {
	experiments.SetObsCollector(col)
	out, err := run()
	experiments.SetObsCollector(nil)
	if col != nil {
		finished.Store(col)
	}
	return out, err
}

// metricsHandler serves /metrics: the latest finished experiment's
// collection in OpenMetrics text format (histogram summaries, counter
// groups, per-window series with worst-request exemplars), or 503 before any
// experiment has finished.
func metricsHandler(finished *atomic.Pointer[obsv.Collector]) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		c := finished.Load()
		if c == nil {
			http.Error(w, "no finished experiment yet", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		if err := c.WriteOpenMetrics(w); err != nil {
			fmt.Fprintf(os.Stderr, "httpobs /metrics: %v\n", err)
		}
	}
}

// parseScale resolves the -scale argument: a finite positive float, or the
// shorthand "paper" for 1.0 (the paper's full 5M-insert setup).
func parseScale(s string) (float64, error) {
	if s == "paper" {
		return 1.0, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || !(v > 0) || math.IsInf(v, 1) {
		return 0, fmt.Errorf("want a finite positive number or 'paper', got %q", s)
	}
	return v, nil
}

type str string

func (s str) String() string { return string(s) }

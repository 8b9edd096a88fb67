// ffccd-bench regenerates the paper's tables and figures on the simulated
// machine.
//
// Usage:
//
//	ffccd-bench -experiment all            # everything (slow)
//	ffccd-bench -experiment table3 -scale 0.004
//	ffccd-bench -experiment fig5 -parallel 8 -json BENCH.json
//	ffccd-bench -list
//
// Experiments: fig1, fig5, table3, fig14, table4, fig15, fig16, table1,
// table2, ablation-rbb, ablation-pmft.
//
// Every run is hermetic (its own simulated machine), so -parallel only
// changes host wall-clock — simulated cycle totals are identical at any
// worker count. -json appends one machine-readable record per experiment
// (host seconds plus the experiment's simulated-cycle metrics) to a file,
// for tracking host performance across revisions.
//
// Observability (simulated cycle totals stay bit-identical either way):
//
//	ffccd-bench -experiment fig14 -trace out.json   # Perfetto-loadable trace
//	ffccd-bench -experiment fig5 -trace-ring 256 -trace ring.json
//	ffccd-bench -experiment all -httpobs localhost:6060  # expvar + pprof + OpenMetrics /metrics
package main

import (
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"ffccd/internal/experiments"
	"ffccd/internal/obsv"
)

// benchRecord is one -json entry: host-side timing plus whatever simulated
// metrics the experiment exposes. Simulated numbers must be identical across
// revisions (see the golden test); host_seconds is the number being tracked.
type benchRecord struct {
	Experiment string  `json:"experiment"`
	Scale      float64 `json:"scale"`
	Parallel   int     `json:"parallel"`
	// Shards is the serving experiment's simulated-machine count (-shards;
	// omitted for unsharded rows). Rows at different shard counts are
	// different simulated deployments, so the bench gate compares them
	// separately.
	Shards int `json:"shards,omitempty"`
	// HostCores and FFCCDParallel pin the host context every row was
	// measured under: the machine's logical CPU count and the effective
	// worker-pool size (FFCCD_PARALLEL / -parallel resolved). Scaling
	// comparisons across rows are meaningless without both.
	HostCores     int     `json:"host_cores"`
	FFCCDParallel int     `json:"ffccd_parallel"`
	Fork          bool    `json:"fork"`
	HostSeconds   float64 `json:"host_seconds"`
	Repeat        int     `json:"repeat,omitempty"`
	// Fork-driver counters for this experiment (zero when -fork=false or
	// the experiment has no scheme groups to share a prefix across).
	// fork_checkpoint_bytes is what the dirty-page checkpoints actually
	// captured; fork_media_bytes what full-image copies of the same devices
	// would have moved — their ratio is the sparse-checkpoint win.
	ForkPrefixes        uint64 `json:"fork_prefixes,omitempty"`
	ForkCheckpoints     uint64 `json:"fork_checkpoints,omitempty"`
	ForkRuns            uint64 `json:"fork_runs,omitempty"`
	ForkCheckpointBytes uint64 `json:"fork_checkpoint_bytes,omitempty"`
	ForkMediaBytes      uint64 `json:"fork_media_bytes,omitempty"`
	// fork_restore_seconds: cumulative host time forked runs spent
	// restoring machines from checkpoints. With the counter-based workload
	// RNG this is constant in scale (O(1) draw repositioning), where the
	// old draw-and-discard skip grew linearly with the prefix length.
	ForkRestoreSeconds float64            `json:"fork_restore_seconds,omitempty"`
	Metrics            map[string]float64 `json:"metrics,omitempty"`
	// TraceMode records whether observability collection was on for this
	// repetition ("full" or "ring"); absent means tracing disabled, i.e.
	// the row measures the zero-overhead-when-disabled configuration.
	TraceMode string `json:"trace_mode,omitempty"`
	// Obs carries the flattened observability summary (histogram
	// percentiles, counter groups, trace event counts) when -trace or
	// -httpobs enabled per-run collection for this repetition.
	Obs map[string]float64 `json:"obs,omitempty"`
	// Windows carries the per-window time series (keyed by scheme) for
	// experiments that expose one — the serving experiment's per-window SLO
	// rows with worst-request exemplars.
	Windows map[string][]obsv.WindowSnap `json:"windows,omitempty"`
}

func main() {
	experiment := flag.String("experiment", "all", "experiment id (or 'all')")
	scaleArg := flag.String("scale", "0.002", "workload scale relative to the paper's 5M-insert setup ('paper' = 1.0)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	csvDir := flag.String("csv", "", "also write plot-ready CSV files into this directory")
	parallel := flag.Int("parallel", 0, "experiment-driver worker count (0 = GOMAXPROCS or $FFCCD_PARALLEL)")
	jsonPath := flag.String("json", "", "write machine-readable benchmark records to this file")
	fork := flag.Bool("fork", true, "share checkpointed workload prefixes across a cell's schemes (host optimisation; simulated results are bit-identical either way)")
	repeat := flag.Int("repeat", 1, "run each experiment N times, recording every repetition (host-time variance)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON (open in ui.perfetto.dev) of every run's defrag phases to this file")
	traceRing := flag.Int("trace-ring", 0, "flight-recorder mode: keep only the newest N events per simulated thread (0 = full trace)")
	httpObs := flag.String("httpobs", "", "serve expvar metrics (/debug/vars) and pprof (/debug/pprof) on this address while experiments run")
	shards := flag.Int("shards", 1, "serving experiment: shard the keyspace across N independent simulated machines")
	scheme := flag.String("scheme", "", "serving experiment: run only this defrag scheme (none|ffccd|stw|mesh; empty = all)")
	flag.Parse()

	scaleVal, err := parseScale(*scaleArg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-scale: %v\n", err)
		os.Exit(2)
	}
	scale := &scaleVal

	if *parallel > 0 {
		experiments.SetParallelism(*parallel)
	}
	experiments.SetFork(*fork)
	if *repeat < 1 {
		*repeat = 1
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	obsEnabled := *tracePath != "" || *httpObs != ""
	var latestCol atomic.Pointer[obsv.Collector]
	if *httpObs != "" {
		// expvar and net/http/pprof register themselves on DefaultServeMux;
		// ffccd_obs exposes the most recent repetition's merged summary.
		expvar.Publish("ffccd_obs", expvar.Func(func() any {
			if c := latestCol.Load(); c != nil {
				return c.MetricsSummary()
			}
			return map[string]float64{}
		}))
		// /metrics: the most recent repetition's collection in OpenMetrics
		// text format (histogram summaries, counter groups, per-window series
		// with worst-request exemplars).
		http.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			c := latestCol.Load()
			if c == nil {
				http.Error(w, "no collection yet", http.StatusServiceUnavailable)
				return
			}
			w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
			if err := c.WriteOpenMetrics(w); err != nil {
				fmt.Fprintf(os.Stderr, "httpobs /metrics: %v\n", err)
			}
		})
		go func() {
			if err := http.ListenAndServe(*httpObs, nil); err != nil {
				fmt.Fprintf(os.Stderr, "httpobs: %v\n", err)
			}
		}()
		fmt.Printf("(observability server on http://%s/debug/vars and /debug/pprof)\n", *httpObs)
	}
	var traceCols []*obsv.Collector

	type exp struct {
		id  string
		run func() (fmt.Stringer, error)
	}
	all := []exp{
		{"table1", func() (fmt.Stringer, error) { return str(experiments.Table1()), nil }},
		{"table2", func() (fmt.Stringer, error) { return str(experiments.Table2()), nil }},
		{"fig1", func() (fmt.Stringer, error) { r, err := experiments.Figure1(*scale); return r, err }},
		{"fig5", func() (fmt.Stringer, error) { r, err := experiments.Figure5(*scale); return r, err }},
		{"table3", func() (fmt.Stringer, error) { r, err := experiments.Table3(*scale); return r, err }},
		{"fig14", func() (fmt.Stringer, error) { r, err := experiments.Figure14(*scale); return r, err }},
		{"table4", func() (fmt.Stringer, error) { r, err := experiments.Table4(*scale); return r, err }},
		{"fig15", func() (fmt.Stringer, error) { r, err := experiments.Figure15(*scale); return r, err }},
		{"fig16", func() (fmt.Stringer, error) { r, err := experiments.Figure16(*scale); return r, err }},
		{"serving", func() (fmt.Stringer, error) {
			o := experiments.ServingOptions{Scale: *scale, Shards: *shards}
			if *scheme != "" {
				o.Schemes = []string{*scheme}
			}
			r, err := experiments.Serving(o)
			return r, err
		}},
		{"ablation-rbb", func() (fmt.Stringer, error) {
			r, err := experiments.AblationRBB(*scale, []int{1, 4, 8, 32})
			return r, err
		}},
		{"ablation-pmft", func() (fmt.Stringer, error) { r, err := experiments.AblationPMFT(*scale); return r, err }},
		{"ablation-writes", func() (fmt.Stringer, error) { r, err := experiments.AblationWrites(*scale); return r, err }},
	}

	if *list {
		for _, e := range all {
			fmt.Println(e.id)
		}
		return
	}

	ran := 0
	var records []benchRecord
	for _, e := range all {
		if *experiment != "all" && *experiment != e.id {
			continue
		}
		ran++
		for rep := 1; rep <= *repeat; rep++ {
			experiments.ResetForkCounters()
			var col *obsv.Collector
			if obsEnabled {
				col = obsv.NewCollector(*traceRing)
				experiments.SetObsCollector(col)
				latestCol.Store(col)
			}
			start := time.Now()
			out, err := e.run()
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", e.id, err)
				os.Exit(1)
			}
			elapsed := time.Since(start).Seconds()
			fmt.Printf("==== %s (scale %g, %.1fs) ====\n%s\n", e.id, *scale, elapsed, out)
			rec := benchRecord{
				Experiment:    e.id,
				Scale:         *scale,
				Parallel:      experiments.Parallelism(),
				Shards:        shardsFor(e.id, *shards),
				HostCores:     runtime.NumCPU(),
				FFCCDParallel: experiments.Parallelism(),
				Fork:          experiments.ForkEnabled(),
				HostSeconds:   elapsed,
			}
			if *repeat > 1 {
				rec.Repeat = rep
			}
			rec.ForkPrefixes, rec.ForkCheckpoints, rec.ForkRuns = experiments.ForkCounters()
			rec.ForkCheckpointBytes, rec.ForkMediaBytes = experiments.ForkCheckpointBytes()
			rec.ForkRestoreSeconds = experiments.ForkRestoreSeconds()
			if m, ok := out.(interface{ Metrics() map[string]float64 }); ok {
				rec.Metrics = m.Metrics()
			}
			if wf, ok := out.(interface {
				BenchWindows() map[string][]obsv.WindowSnap
			}); ok {
				if w := wf.BenchWindows(); len(w) > 0 {
					rec.Windows = w
				}
			}
			if col != nil {
				experiments.SetObsCollector(nil)
				rec.Obs = col.MetricsSummary()
				rec.TraceMode = "full"
				if *traceRing > 0 {
					rec.TraceMode = "ring"
				}
				if *tracePath != "" {
					traceCols = append(traceCols, col)
				}
			}
			records = append(records, rec)
			if *csvDir != "" && rep == 1 {
				if c, ok := out.(interface{ CSV() string }); ok {
					path := fmt.Sprintf("%s/%s.csv", *csvDir, e.id)
					if err := os.WriteFile(path, []byte(c.CSV()), 0o644); err != nil {
						fmt.Fprintf(os.Stderr, "csv %s: %v\n", path, err)
					} else {
						fmt.Printf("(csv written to %s)\n", path)
					}
				}
			}
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", *experiment)
		os.Exit(2)
	}
	if *tracePath != "" && len(traceCols) > 0 {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace %s: %v\n", *tracePath, err)
			os.Exit(1)
		}
		werr := obsv.WriteChromeTraceAll(f, traceCols...)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "trace %s: %v\n", *tracePath, werr)
			os.Exit(1)
		}
		fmt.Printf("(chrome trace written to %s — open in https://ui.perfetto.dev)\n", *tracePath)
	}
	if *jsonPath != "" {
		b, err := json.MarshalIndent(records, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "json %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("(benchmark records written to %s)\n", *jsonPath)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
	}
}

// shardsFor reports the shard count to record for an experiment: only the
// serving experiment honours -shards, and unsharded rows omit the field.
func shardsFor(id string, shards int) int {
	if id == "serving" && shards > 1 {
		return shards
	}
	return 0
}

// parseScale resolves the -scale argument: a float, or the shorthand
// "paper" for 1.0 (the paper's full 5M-insert setup).
func parseScale(s string) (float64, error) {
	if s == "paper" {
		return 1.0, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || v <= 0 {
		return 0, fmt.Errorf("want a positive number or 'paper', got %q", s)
	}
	return v, nil
}

type str string

func (s str) String() string { return string(s) }

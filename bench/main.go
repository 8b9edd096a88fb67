// Command bench is the repo benchmark: host cost per simulated operation and
// simulated-design metrics on seven workloads, with a per-layer ledger
// measured from outside the program. See README.md in this directory.
//
//	go run ./bench                       # every workload: 5 untraced runs each, then a traced run
//	go run ./bench -smoke                # the same at ~1/20 size, for CI
//	go run ./bench -workload serve-read,serve-write -reps 3 -traced=false
//	go run ./bench -compare A.json B.json
//	go run ./bench --workload W --seed N --seconds S --trace 0|1   # the driver's contract
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ffccd/internal/workpool"
)

const outDir = "bench/out"

// defaultReps is the untraced repetitions per workload of a full set.
const defaultReps = 5

// minContractReps is the fewest untraced runs a --seconds run reports a
// median of, however long they take.
const minContractReps = 3

func main() {
	var (
		workloadArg = flag.String("workload", "", "comma-separated workloads (default: all)")
		reps        = flag.Int("reps", defaultReps, "untraced repetitions per workload")
		seed        = flag.Int64("seed", 11, "the only source of workload randomness")
		tracedArg   = flag.Bool("traced", true, "also make the traced run that gives the per-layer metrics")
		smoke       = flag.Bool("smoke", false, "run every workload and the ladder at about 1/20 size")
		compare     = flag.Bool("compare", false, "compare two results files: -compare A.json B.json")
		out         = flag.String("out", filepath.Join(outDir, "results.json"), "results file")
		seconds     = flag.Int("seconds", 0, "contract mode: measure one workload for about this long and print the contract's result line")
		trace       = flag.Int("trace", 0, "contract mode: 0 reports the end-to-end metrics, 1 the per-layer metrics")

		child    = flag.String("child", "", "internal: run|ladder in this process and print one JSON row")
		detail   = flag.Bool("detail", false, "internal: the child run is the traced one")
		spawned  = flag.Int64("spawned", 0, "internal: when the parent started this child (unix ns)")
		sizeName = flag.String("size", "full", "internal: full|smoke")
	)
	flag.Parse()
	if *smoke {
		*sizeName = "smoke"
		// Two repetitions keep a smoke set under 30 s unless -reps says more.
		repsSet := false
		flag.Visit(func(f *flag.Flag) { repsSet = repsSet || f.Name == "reps" })
		if !repsSet {
			*reps = 2
		}
	}

	var err error
	switch {
	case *child != "":
		err = childMain(*child, *workloadArg, *sizeName, *seed, *detail, *spawned)
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare takes two results files")
		} else {
			err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
	default:
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		err = parentMain(ctx, options{
			workloads: *workloadArg, reps: *reps, seed: *seed, traced: *tracedArg,
			size: *sizeName, out: *out, seconds: *seconds, trace: *trace,
		})
		stop()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

type options struct {
	workloads string
	reps      int
	seed      int64
	traced    bool
	size      string
	out       string
	seconds   int
	trace     int
}

func selectWorkloads(arg string) ([]*workloadDef, error) {
	if arg == "" {
		all := make([]*workloadDef, len(workloads))
		for i := range workloads {
			all[i] = &workloads[i]
		}
		return all, nil
	}
	var sel []*workloadDef
	for _, name := range strings.Split(arg, ",") {
		w := findWorkload(name)
		if w == nil {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		sel = append(sel, w)
	}
	return sel, nil
}

// parentMain runs a set: every (workload, repetition) in a fresh child
// process, so peak RSS and GC state are per run.
func parentMain(ctx context.Context, o options) error {
	sel, err := selectWorkloads(o.workloads)
	if err != nil {
		return err
	}
	contract := o.seconds > 0
	if contract && len(sel) != 1 {
		return errors.New("--seconds measures one --workload")
	}
	if o.reps < 1 {
		return errors.New("-reps must be at least 1")
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	start := time.Now()
	untraced := make([][]*row, len(sel))
	tracedRows := make([]*row, len(sel))
	spawn := func(i int, detail bool) (time.Duration, error) {
		t0 := time.Now()
		r, err := runChild[row](ctx, exe, "run", sel[i].Name, o.size, o.seed, detail)
		if err != nil {
			return 0, err
		}
		if detail {
			tracedRows[i] = r
		} else {
			untraced[i] = append(untraced[i], r)
		}
		return time.Since(t0), nil
	}

	wantTraced := o.traced
	switch {
	case contract && o.trace == 0:
		// Repeat until the time is used, and at least minContractReps times:
		// the line reports medians.
		wantTraced = false
		budget := time.Duration(o.seconds) * time.Second
		var longest time.Duration
		for n := 0; n < minContractReps || time.Since(start)+longest <= budget; n++ {
			d, err := spawn(0, false)
			if err != nil {
				return err
			}
			longest = max(longest, d)
		}
	case contract:
		// The per-layer numbers come from one traced run; two untraced runs
		// beside it give the tracing overhead its base.
		wantTraced = true
		for n := 0; n < 2; n++ {
			if _, err := spawn(0, false); err != nil {
				return err
			}
		}
	default:
		// Round-robin across workloads, so drift of the host over the set
		// lands on all of them alike.
		for n := 0; n < o.reps; n++ {
			for i := range sel {
				if _, err := spawn(i, false); err != nil {
					return err
				}
			}
		}
	}

	var ladder map[string]float64
	if wantTraced {
		l, err := runChild[map[string]float64](ctx, exe, "ladder", "", o.size, o.seed, false)
		if err != nil {
			return err
		}
		ladder = *l
		for i := range sel {
			if _, err := spawn(i, true); err != nil {
				return err
			}
		}
	}

	rep := &report{Host: untraced[0][0].Host, Seed: o.seed, Size: o.size, Notes: notes, Ladder: ladder}
	for i, w := range sel {
		rep.Workloads = append(rep.Workloads, buildReport(w, untraced[i], tracedRows[i], ladder))
	}
	printReport(os.Stdout, rep)
	if err := writeReport(o.out, rep); err != nil {
		return err
	}
	fmt.Printf("\nresults written to %s in %.1f s\n", o.out, time.Since(start).Seconds())
	if contract {
		return printContractLine(&rep.Workloads[0], o.trace == 1)
	}
	for _, w := range rep.Workloads {
		if !w.Correct {
			return fmt.Errorf("%s failed its output checks", w.Name)
		}
	}
	return nil
}

// runChild re-executes the harness for one run and decodes the JSON value it
// prints as its last line. The child is killed if ctx ends, and always waited
// for.
func runChild[T any](ctx context.Context, exe, kind, workload, size string, seed int64, detail bool) (*T, error) {
	cmd := exec.CommandContext(ctx, exe,
		"-child", kind, "-workload", workload, "-size", size,
		"-seed", strconv.FormatInt(seed, 10), "-detail="+strconv.FormatBool(detail),
		"-spawned", strconv.FormatInt(time.Now().UnixNano(), 10))
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child %s %s: %w", kind, workload, err)
	}
	lines := strings.Split(strings.TrimSpace(string(outBytes)), "\n")
	v := new(T)
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), v); err != nil {
		return nil, fmt.Errorf("child %s %s: bad result line: %w", kind, workload, err)
	}
	return v, nil
}

// childMain is one run. It prints one JSON value as the last line of stdout.
func childMain(kind, workload, size string, seed int64, detail bool, spawnedNs int64) error {
	// Host parallelism is what a user gets by default.
	workpool.SetParallelism(min(runtime.NumCPU(), 4))
	var v any
	switch kind {
	case "ladder":
		m, err := runLadder(size == "smoke")
		if err != nil {
			return err
		}
		v = m
	case "run":
		w := findWorkload(workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", workload)
		}
		var spawned time.Time
		if spawnedNs != 0 {
			spawned = time.Unix(0, spawnedNs)
		}
		r, tr, err := runOne(w, size, seed, detail, spawned)
		if err != nil {
			return err
		}
		if detail {
			if err := os.MkdirAll(outDir, 0o755); err != nil {
				return err
			}
			if err := tr.write(filepath.Join(outDir, "trace-"+w.Name+".json")); err != nil {
				return err
			}
		}
		v = r
	default:
		return fmt.Errorf("unknown child kind %q", kind)
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

// runOne executes one run of w in this process and assembles its row; the
// tracer holds the run's spans.
func runOne(w *workloadDef, size string, seed int64, detail bool, spawned time.Time) (*row, *tracer, error) {
	p := w.Full
	if size == "smoke" {
		p = w.Smoke
	}
	tr := newTracer(fmt.Sprintf("%s-seed%d-%d", w.Name, seed, os.Getpid()), detail)
	if spawned.IsZero() {
		spawned = tr.t0 // run in-process (tests): set-up starts here
	}
	cpu0 := cpuSeconds()
	root := tr.begin("bench.run", -1)
	res, err := w.run(p, seed, tr, root)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	reportID := tr.begin("bench.report", root)

	r := &row{
		Workload: w.Name, Seed: seed, Size: size, Traced: detail, Host: thisHost(),
		Ops: res.ops, Attempted: res.attempted, Failed: res.failed, Checks: res.checks,
		SimDigest: res.digest.sum(), Metrics: res.metrics,
	}
	if res.ops == 0 {
		return nil, nil, fmt.Errorf("%s completed no operation: %s", w.Name, strings.Join(res.checks, "; "))
	}
	var measured time.Duration
	for _, name := range w.Measured {
		measured += tr.total(name)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m := r.Metrics
	m["host_ns_per_sim_op"] = float64(measured) / float64(res.ops)
	m["host_alloc_b_per_sim_op"] = float64(ms.TotalAlloc) / float64(res.ops)
	m["host_peak_rss_mb"] = peakRSSMB()
	m["setup_s"] = (tr.t0.Sub(spawned) + tr.total("experiments.build")).Seconds()
	m["failed_op_share"] = float64(res.failed) / float64(res.attempted)
	// The grid and the campaign build and check their machines inside the
	// program: no build or verify span exists, so neither metric applies.
	for name, span := range map[string]string{"experiments.build_s": "experiments.build", "checker.verify_s": "checker.verify"} {
		if d := tr.total(span); d > 0 {
			m[name] = d.Seconds()
		}
	}
	m["workpool.parallelism"] = float64(workpool.Parallelism())

	tr.end(reportID)
	r.WallS = tr.end(root).Seconds()
	r.CPUS = cpuSeconds() - cpu0
	if detail {
		m["trace.harness_s"] = (tr.total("experiments.build") + tr.total("checker.verify") + tr.total("bench.report")).Seconds()
	}
	return r, tr, nil
}

func thisHost() hostInfo {
	h := hostInfo{
		HostCores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Parallelism: workpool.Parallelism(), GoVersion: runtime.Version(), Commit: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// ---- the driver's contract --------------------------------------------------

// benchmarkFile is BENCHMARK.json at the root of the checkout: the contract
// line reports exactly the metrics it lists, with its units.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printContractLine prints the one-object result line the driver reads as
// the last line of stdout.
func printContractLine(w *workloadReport, perLayer bool) error {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	metrics := map[string]contractValue{}
	if perLayer {
		// The line must carry every per-layer metric; one that does not
		// apply to this workload reads 0 here (and is absent from the
		// harness's own rows).
		for _, m := range bf.PerLayer {
			metrics[m.Name] = contractValue{w.PerLayer[m.Name], m.Unit}
		}
	} else {
		for _, m := range bf.EndToEnd {
			s, ok := w.EndToEnd[m.Name]
			if !ok {
				return fmt.Errorf("%s did not report end-to-end metric %s", w.Name, m.Name)
			}
			metrics[m.Name] = contractValue{s.Median, m.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                     `json:"correct"`
		Attempted int64                    `json:"attempted"`
		Failed    int64                    `json:"failed"`
		Metrics   map[string]contractValue `json:"metrics"`
	}{w.Correct, w.Attempted, w.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

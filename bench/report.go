package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// hostInfo is recorded on every row: host timings mean nothing without it.
type hostInfo struct {
	HostCores   int    `json:"host_cores"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Parallelism int    `json:"workpool_parallelism"`
	GoVersion   string `json:"go_version"`
	Commit      string `json:"commit"`
}

// row is what one child process — one run of one workload — reports. Rows
// carry scalars only: no window series, no histograms.
type row struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Size      string             `json:"size"`
	Traced    bool               `json:"traced"`
	Host      hostInfo           `json:"host"`
	Ops       int64              `json:"sim_ops"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Checks    []string           `json:"failed_checks,omitempty"`
	SimDigest string             `json:"sim_digest"`
	WallS     float64            `json:"wall_s"` // the bench.run span
	CPUS      float64            `json:"cpu_s"`  // process CPU time over the same interval
	Metrics   map[string]float64 `json:"metrics"`
}

// summary is the distribution of one end-to-end metric over the untraced
// repetitions of one workload.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

// quartiles returns what Python's statistics.quantiles(values, n=4) returns
// (the exclusive method) — the definition the builder's contract uses for
// run-to-run spread.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	if len(d) == 1 {
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		m := len(d) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func summarize(unit string, values []float64) summary {
	s := summary{Unit: unit, N: len(values), Values: values}
	s.Q1, s.Median, s.Q3 = quartiles(values)
	s.Min, s.Max = values[0], values[0]
	for _, v := range values {
		s.Min = min(s.Min, v)
		s.Max = max(s.Max, v)
	}
	return s
}

// workloadReport is everything the harness knows about one workload after a
// set of runs.
type workloadReport struct {
	Name      string             `json:"name"`
	Why       string             `json:"why"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Checks    []string           `json:"failed_checks,omitempty"`
	SimDigest string             `json:"sim_digest"`
	SimOps    int64              `json:"sim_ops"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	// PerLayer comes from the one traced run, the ladder and the ledger.
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
}

// report is the results file: what -compare reads.
type report struct {
	Host      hostInfo           `json:"host"`
	Seed      int64              `json:"seed"`
	Size      string             `json:"size"`
	Notes     []string           `json:"notes"`
	Ladder    map[string]float64 `json:"ladder,omitempty"`
	Workloads []workloadReport   `json:"workloads"`
}

// notes are the statements every set of results carries.
var notes = []string{
	"host_* metrics are wall-clock and memory of the simulator (host clock); sim_* metrics are the modelled machine (simulated clock) and repeat exactly for a fixed seed",
	"the open-loop generator runs in virtual time, so it is never late: no lateness figure is reported",
	"the modelled caches and TLBs start empty and are warmed by each workload's load phase",
	"the model is validated against the paper in direction and band only (EXPERIMENTS.md): no error figure is reported",
}

// buildReport folds the rows of one workload into its report. untraced must
// be non-empty; traced may be nil.
func buildReport(w *workloadDef, untraced []*row, traced *row, ladder map[string]float64) workloadReport {
	rep := workloadReport{Name: w.Name, Why: w.Why, EndToEnd: map[string]summary{}}
	first := untraced[0]
	rep.SimDigest, rep.SimOps = first.SimDigest, first.Ops
	values := map[string][]float64{}
	all := untraced
	if traced != nil {
		all = append(append([]*row(nil), untraced...), traced)
	}
	for _, r := range all {
		rep.Checks = append(rep.Checks, r.Checks...)
		if r.SimDigest != rep.SimDigest {
			rep.Checks = append(rep.Checks, fmt.Sprintf("sim_digest %s differs from %s (traced=%v)", r.SimDigest, rep.SimDigest, r.Traced))
		}
	}
	for _, r := range untraced {
		rep.Attempted += r.Attempted
		rep.Failed += r.Failed
		for k, v := range r.Metrics {
			if isEndToEnd(k) {
				values[k] = append(values[k], v)
			}
		}
	}
	rep.Correct = len(rep.Checks) == 0 && rep.Failed == 0
	for k, vs := range values {
		rep.EndToEnd[k] = summarize(unitOf(k), vs)
	}
	if traced != nil {
		rep.PerLayer = map[string]float64{}
		for k, v := range traced.Metrics {
			if !isEndToEnd(k) || strings.HasPrefix(k, "sim_") {
				rep.PerLayer[k] = v
			}
		}
		for k, v := range ladder {
			rep.PerLayer[k] = v
		}
		ledger(rep.PerLayer, traced, ladder)
		if base := rep.EndToEnd["host_ns_per_sim_op"].Median; base > 0 {
			rep.PerLayer["bench.trace_overhead_share"] = traced.Metrics["host_ns_per_sim_op"]/base - 1
		}
	}
	return rep
}

// ledger writes the ledger.* rows of a traced run into m. Span-measured
// layers (store, core, driver, harness) are busy time over the run's CPU
// time — or over its wall-clock when that is longer, as on a contended host,
// where spans stretch and CPU time does not. On a quiet host a one-thread
// workload's CPU time is its wall-clock plus the runtime's background work,
// and CPU time keeps the shares of a host-parallel workload (batched GETs,
// shards as pool jobs) from adding up past 1. The two model rows price the
// layers the harness cannot intercept as exact call counts × ladder ns; they
// lie inside store and core time, so they are a second cut, not further
// summands.
func ledger(m map[string]float64, tr *row, ladder map[string]float64) {
	total := max(tr.CPUS, tr.WallS)
	if total <= 0 {
		return
	}
	t := tr.Metrics
	store := t["trace.store_ns"] / 1e9
	core := t["trace.hook_ns"] / 1e9
	driver := t["workload.self_s"] + t["redisws.dispatch_self_s"] + t["redisws.merge_s"]
	harness := t["trace.harness_s"]
	m["ledger.store_share"] = store / total
	m["ledger.core_share"] = core / total
	m["ledger.driver_share"] = driver / total
	m["ledger.harness_share"] = harness / total
	m["ledger.unattributed_share"] = 1 - (store+core+driver+harness)/total
	m["bench.wall_s"], m["bench.cpu_s"] = tr.WallS, tr.CPUS
	if len(ladder) == 0 {
		return
	}
	hit, miss := ladder["ladder.pmem.load_hit_ns"], ladder["ladder.pmem.load_miss_ns"]
	persist := max(0, ladder["ladder.pmem.store_clwb_sfence_ns"]-hit)
	lines := t["pmem.cache_hits"]*hit + t["pmem.cache_misses"]*miss
	pm := lines + t["pmem.clwbs"]*persist + t["pmem.relocate_ops"]*ladder["ladder.pmem.relocate_ns"]
	m["ledger.pmem_model_share"] = pm / 1e9 / total
	// One alloc call pair is priced at the serving regime's fragmented heap
	// when the store layer is kv, at the sparse heap otherwise.
	price := ladder["ladder.alloc.alloc_free_ns.sparse"]
	if _, serving := t["kv.insert_ns"]; serving {
		price = ladder["ladder.alloc.alloc_free_ns.fragmented"]
	}
	m["ledger.alloc_model_share"] = t["alloc.calls"] / 2 * price / 1e9 / total
}

func writeReport(path string, rep *report) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// printReport prints every metric by name with its unit.
func printReport(w io.Writer, rep *report) {
	h := rep.Host
	fmt.Fprintf(w, "host: %d cores, GOMAXPROCS %d, workpool parallelism %d, %s, commit %s; seed %d, size %s\n",
		h.HostCores, h.GOMAXPROCS, h.Parallelism, h.GoVersion, h.Commit, rep.Seed, rep.Size)
	for _, n := range rep.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	for _, wl := range rep.Workloads {
		verdict := "all output checks passed"
		if !wl.Correct {
			verdict = "FAILED output checks"
		}
		fmt.Fprintf(w, "\n== %s: %d sim ops, attempted %d, failed %d, sim_digest %s, %s\n",
			wl.Name, wl.SimOps, wl.Attempted, wl.Failed, wl.SimDigest, verdict)
		for _, c := range wl.Checks {
			fmt.Fprintf(w, "   check failed: %s\n", c)
		}
		fmt.Fprintf(w, "   %-28s %-7s %14s %14s %14s %14s %14s %3s\n", "end-to-end", "unit", "median", "q1", "q3", "min", "max", "n")
		for _, def := range endToEnd {
			s, ok := wl.EndToEnd[def.Name]
			if !ok {
				continue // does not apply to this workload
			}
			fmt.Fprintf(w, "   %-28s %-7s %14.6g %14.6g %14.6g %14.6g %14.6g %3d\n",
				def.Name, s.Unit, s.Median, s.Q1, s.Q3, s.Min, s.Max, s.N)
		}
		if len(wl.PerLayer) > 0 {
			fmt.Fprintf(w, "   per-layer (one traced run, ladder, ledger)\n")
			keys := make([]string, 0, len(wl.PerLayer))
			for k := range wl.PerLayer {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(w, "   %-44s %-7s %14.6g\n", k, unitOf(k), wl.PerLayer[k])
			}
		}
	}
}

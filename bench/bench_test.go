package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ffccd/internal/workpool"
)

// smokeRun is every workload run once untraced and once traced at smoke size,
// plus the ladder — shared by the tests below.
type smokeRun struct {
	untraced, traced map[string]*row
	ladder           map[string]float64
	err              error
}

var (
	smokeOnce sync.Once
	smoke     smokeRun
)

func smokeRows(t *testing.T) *smokeRun {
	t.Helper()
	if testing.Short() {
		t.Skip("runs every workload at smoke size; skipped under -short")
	}
	smokeOnce.Do(func() {
		workpool.SetParallelism(2)
		smoke.untraced, smoke.traced = map[string]*row{}, map[string]*row{}
		for i := range workloads {
			w := &workloads[i]
			for _, detail := range []bool{false, true} {
				r, _, err := runOne(w, "smoke", 11, detail, time.Time{})
				if err != nil {
					smoke.err = err
					return
				}
				if detail {
					smoke.traced[w.Name] = r
				} else {
					smoke.untraced[w.Name] = r
				}
			}
		}
		smoke.ladder, smoke.err = runLadder(true)
	})
	if smoke.err != nil {
		t.Fatal(smoke.err)
	}
	return &smoke
}

// simulated reports whether a metric describes the modelled machine or the
// dispatch shape: those must not depend on tracing.
func simulated(name string) bool {
	for _, p := range []string{"sim_", "sim.", "pmem.", "alloc.frag", "alloc.used", "core.epochs", "core.objects_moved",
		"core.barrier_moves", "core.frames_released", "redisws.parallel_op_ratio", "redisws.ops_per_batch",
		"redisws.hit_ratio", "redisws.evictions", "redisws.stall", "redisws.queue", "redisws.shard_sim",
		"experiments.fork_runs", "faultinject.trials", "faultinject.sites_total", "failed_op_share"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// Tracing must observe the run, not change it: a traced and an untraced run
// of every workload agree on every simulated metric, the device counters and
// the dispatch-shape counters, and every output check passes on both.
func TestTracedRunMatchesUntraced(t *testing.T) {
	s := smokeRows(t)
	for _, w := range workloads {
		u, tr := s.untraced[w.Name], s.traced[w.Name]
		for _, r := range []*row{u, tr} {
			if r.Failed != 0 || len(r.Checks) != 0 {
				t.Errorf("%s (traced=%v): %d failed, checks %v", w.Name, r.Traced, r.Failed, r.Checks)
			}
		}
		if u.SimDigest != tr.SimDigest {
			t.Errorf("%s: sim_digest %s untraced, %s traced", w.Name, u.SimDigest, tr.SimDigest)
		}
		n := 0
		for k, v := range u.Metrics {
			if !simulated(k) {
				continue
			}
			n++
			if tv, ok := tr.Metrics[k]; !ok || tv != v {
				t.Errorf("%s: %s = %v untraced, %v traced", w.Name, k, v, tr.Metrics[k])
			}
		}
		if n < 3 {
			t.Errorf("%s: only %d simulated metrics compared", w.Name, n)
		}
	}
	// The properties the workloads exist for hold at smoke size too.
	if s.untraced["micro-nodefrag"].Metrics["core.epochs"] != 0 || s.untraced["micro-defrag"].Metrics["core.epochs"] == 0 {
		t.Error("micro-nodefrag must run no epoch and micro-defrag at least one")
	}
	if p := s.untraced["serve-read"].Metrics["redisws.parallel_op_ratio"]; p < 0.5 {
		t.Errorf("serve-read dispatched only %.2f of its requests in batches: the decorator or the hooks broke batching", p)
	}
	for name, r := range s.untraced {
		forks := r.Metrics["experiments.fork_runs"]
		if (name == "fig14-grid") != (forks > 0) {
			t.Errorf("%s: %v forked runs", name, forks)
		}
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// BENCHMARK.json and the harness describe the same benchmark: the same
// workloads for the same reasons, the same metric names and units, and no
// metric the harness never reports.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	bf := readBenchmarkJSON(t)
	if !reflect.DeepEqual(bf.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(bf.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", bf.Command, bf.Paths)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.Name || bf.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.Name, w.Why)
		}
	}
	s := smokeRows(t)
	setup := false
	for _, m := range bf.EndToEnd {
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		if !isEndToEnd(m.Name) || unitOf(m.Name) != m.Unit || m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v: not the harness's (unit %q)", m, unitOf(m.Name))
		}
		// The contract wants every end-to-end metric on every workload, never
		// 0. (Run in-process, as here, a workload that builds no machine of
		// its own has no set-up at all; a child process always has its start.)
		for name, r := range s.untraced {
			if v, ok := r.Metrics[m.Name]; !ok || v < 0 || (v == 0 && m.Name != "setup_s") {
				t.Errorf("%s reports %s = %v", name, m.Name, v)
			}
		}
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range bf.PerLayer {
		if unitOf(m.Name) != m.Unit {
			t.Errorf("per-layer metric %s: unit %q in BENCHMARK.json, %q in the harness", m.Name, m.Unit, unitOf(m.Name))
		}
		reported := false
		for _, w := range workloads {
			rep := buildReport(&w, []*row{s.untraced[w.Name]}, s.traced[w.Name], s.ladder)
			if _, ok := rep.PerLayer[m.Name]; ok {
				reported = true
			}
		}
		if !reported {
			t.Errorf("per-layer metric %s is in BENCHMARK.json but no workload's traced run reports it", m.Name)
		}
	}
}

// The ledger reproduces the properties the sizing runs found: no core share
// without an engine, a store share wherever the decorator ran, and an
// allocator priced dearer where the heap is fragmented.
func TestLedger(t *testing.T) {
	s := smokeRows(t)
	layers := map[string]map[string]float64{}
	for _, w := range workloads {
		p := buildReport(&w, []*row{s.untraced[w.Name]}, s.traced[w.Name], s.ladder).PerLayer
		layers[w.Name] = p
		for _, name := range []string{"ledger.unattributed_share", "bench.trace_overhead_share"} {
			if _, ok := p[name]; !ok {
				t.Errorf("%s: no %s", w.Name, name)
			}
		}
	}
	if c := layers["micro-nodefrag"]["ledger.core_share"]; c != 0 {
		t.Errorf("micro-nodefrag has no engine, yet ledger.core_share = %v", c)
	}
	if c := layers["micro-defrag"]["ledger.core_share"]; c <= 0 {
		t.Errorf("micro-defrag: ledger.core_share = %v", c)
	}
	if layers["serve-write"]["ledger.store_share"] <= 0 || layers["micro-nodefrag"]["ds.get_ns"] <= 0 {
		t.Error("the store decorator recorded nothing")
	}
	if a, b := layers["serve-write"]["ledger.alloc_model_share"], layers["micro-nodefrag"]["ledger.alloc_model_share"]; a <= b {
		t.Errorf("allocator-priced share %v on serve-write, %v on micro-nodefrag: the serving regime should be the dearer", a, b)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 = quartiles([]float64{4, 1, 2}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles of 1,2,4 = %v %v %v", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	sum := func(v ...float64) summary { return summarize("ns", v) }
	host := endToEnd[0] // host_ns_per_sim_op, bound 10%
	sim := e2eMetric{Name: "sim_cycles_per_op"}
	setup := e2eMetric{Name: "setup_s", Bound: 0.25, AbsBound: 0.05}
	for _, tc := range []struct {
		name string
		def  e2eMetric
		a, b summary
		want string
	}{
		{"within bound", host, sum(100, 101, 102, 103, 104), sum(104, 105, 106, 107, 108), "same"},
		{"median 20% up", host, sum(100, 101, 102, 103, 104), sum(120, 121, 122, 123, 124), "worse"},
		{"every run faster", host, sum(100, 101, 102, 103, 104), sum(80, 81, 82, 83, 84), "better"},
		{"spread wider than bound", host, sum(80, 90, 100, 110, 120), sum(85, 95, 108, 118, 128), "unresolved"},
		{"noisy but disjoint", host, sum(80, 90, 100, 110, 120), sum(140, 150, 160, 170, 180), "worse"},
		{"sim exact", sim, sum(500, 500, 500), sum(500, 500, 500), "same"},
		{"sim drift", sim, sum(500, 500, 500), sum(501, 501, 501), "worse"},
		{"setup under the absolute floor", setup, sum(0.010, 0.011, 0.012), sum(0.020, 0.021, 0.022), "same"},
	} {
		if got, _ := verdict(tc.def, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// A repetition whose simulated results differ from the others makes the
// workload incorrect, however fast it was.
func TestDigestMismatchFailsWorkload(t *testing.T) {
	mk := func(d string) *row {
		return &row{SimDigest: d, Ops: 10, Attempted: 10, Metrics: map[string]float64{"host_ns_per_sim_op": 5}}
	}
	w := &workloads[0]
	if rep := buildReport(w, []*row{mk("a"), mk("a")}, nil, nil); !rep.Correct {
		t.Errorf("equal digests reported incorrect: %v", rep.Checks)
	}
	if rep := buildReport(w, []*row{mk("a"), mk("b")}, nil, nil); rep.Correct {
		t.Error("differing digests reported correct")
	}
	bad := mk("a")
	bad.Failed, bad.Checks = 3, []string{"checker: key 4 lost"}
	if rep := buildReport(w, []*row{mk("a"), bad}, nil, nil); rep.Correct || rep.Failed != 3 {
		t.Errorf("a failed check reported correct=%v failed=%d", rep.Correct, rep.Failed)
	}
}

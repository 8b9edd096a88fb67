// bench_gate compares the two newest BENCH_<n>.json host-performance
// records in the repository root and fails when the newer one regresses:
//
//   - any sim_cycles_total drift, within a file (rows of the same
//     experiment+scale must agree — fork and parallelism change
//     wall-clock only) or between the two files for matching
//     experiment+scale rows. Simulated cycles are the repo's correctness
//     currency; a drift here is a behaviour change, never noise.
//   - a >15% host_seconds regression for a matching configuration
//     (experiment, scale, parallel, ffccd_parallel, fork), compared
//     min-across-repeats and only when both rows ran on the same
//     host_cores — wall-clock on different machines is not comparable.
//     FFCCD_BENCHGATE_TOL overrides the tolerance (e.g. 0.30 on noisy CI).
//
// With fewer than two BENCH files the gate prints a notice and exits 0, so
// `make check` works on a fresh clone. Rows only one file has (new
// experiments, paper-scale rows skipped via FFCCD_BENCH_PAPER=0) are
// ignored: the gate compares what both files measured.
//
// Usage: go run ./scripts/bench_gate [old.json new.json]
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

type record struct {
	Experiment    string             `json:"experiment"`
	Scale         float64            `json:"scale"`
	Parallel      int                `json:"parallel"`
	Shards        int                `json:"shards"`
	HostCores     int                `json:"host_cores"`
	FFCCDParallel int                `json:"ffccd_parallel"`
	Fork          bool               `json:"fork"`
	HostSeconds   float64            `json:"host_seconds"`
	Repeat        int                `json:"repeat"`
	Metrics       map[string]float64 `json:"metrics"`
}

// simKey groups rows whose simulated results must be bit-identical. Shards
// joins in because an N-shard deployment is a different simulated machine
// set — its cycle totals legitimately differ from the unsharded run's.
func (r record) simKey() string {
	return fmt.Sprintf("%s/scale=%g/shards=%d", r.Experiment, r.Scale, r.Shards)
}

// hostKey groups rows whose wall-clock is comparable like-for-like.
func (r record) hostKey() string {
	return fmt.Sprintf("%s/scale=%g/shards=%d/parallel=%d/ffccd_parallel=%d/fork=%t",
		r.Experiment, r.Scale, r.Shards, r.Parallel, r.FFCCDParallel, r.Fork)
}

func load(path string) ([]record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	if err := json.Unmarshal(b, &recs); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return recs, nil
}

// simTotals returns sim_cycles_total per simKey, reporting within-file
// drift through fail. Rows without the metric (old files predating it)
// are skipped.
func simTotals(path string, recs []record, fail func(string, ...any)) map[string]float64 {
	totals := map[string]float64{}
	for _, r := range recs {
		sc, ok := r.Metrics["sim_cycles_total"]
		if !ok {
			continue
		}
		if prev, seen := totals[r.simKey()]; seen && prev != sc {
			fail("%s: %s: sim_cycles_total drifts WITHIN the file (%.0f vs %.0f)",
				path, r.simKey(), prev, sc)
			continue
		}
		totals[r.simKey()] = sc
	}
	return totals
}

// hostMins returns the fastest repeat per hostKey plus the host_cores it
// ran on (rows of one key share host_cores; bench.sh writes them in one
// process).
func hostMins(recs []record) map[string]record {
	mins := map[string]record{}
	for _, r := range recs {
		if best, ok := mins[r.hostKey()]; !ok || r.HostSeconds < best.HostSeconds {
			mins[r.hostKey()] = r
		}
	}
	return mins
}

func benchFiles(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	type numbered struct {
		n    int
		path string
	}
	var files []numbered
	for _, m := range matches {
		base := filepath.Base(m)
		numStr := strings.TrimSuffix(strings.TrimPrefix(base, "BENCH_"), ".json")
		n, err := strconv.Atoi(numStr)
		if err != nil {
			continue
		}
		files = append(files, numbered{n, m})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].n < files[j].n })
	out := make([]string, len(files))
	for i, f := range files {
		out[i] = f.path
	}
	return out, nil
}

func main() {
	var oldPath, newPath string
	switch len(os.Args) {
	case 1:
		files, err := benchFiles(".")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench_gate:", err)
			os.Exit(1)
		}
		if len(files) < 2 {
			fmt.Printf("bench_gate: %d BENCH_*.json file(s) found, need 2 to compare; skipping\n", len(files))
			return
		}
		oldPath, newPath = files[len(files)-2], files[len(files)-1]
	case 3:
		oldPath, newPath = os.Args[1], os.Args[2]
	default:
		fmt.Fprintln(os.Stderr, "usage: bench_gate [old.json new.json]")
		os.Exit(2)
	}

	tol := 0.15
	if env := os.Getenv("FFCCD_BENCHGATE_TOL"); env != "" {
		v, err := strconv.ParseFloat(env, 64)
		if err != nil || v < 0 {
			fmt.Fprintf(os.Stderr, "bench_gate: bad FFCCD_BENCHGATE_TOL %q\n", env)
			os.Exit(2)
		}
		tol = v
	}

	// Name the pair up front: on failure the message below names only the
	// offending key, and knowing WHICH two records disagreed is the first
	// thing a triage needs.
	fmt.Printf("bench_gate: comparing %s (old) vs %s (new)\n",
		filepath.Base(oldPath), filepath.Base(newPath))

	oldRecs, err := load(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench_gate:", err)
		os.Exit(1)
	}
	newRecs, err := load(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench_gate:", err)
		os.Exit(1)
	}

	failed := false
	fail := func(format string, args ...any) {
		fmt.Printf("bench_gate FAIL: "+format+"\n", args...)
		failed = true
	}

	oldSim := simTotals(oldPath, oldRecs, fail)
	newSim := simTotals(newPath, newRecs, fail)
	simKeys := 0
	for key, oldTotal := range oldSim {
		newTotal, ok := newSim[key]
		if !ok {
			continue
		}
		simKeys++
		if newTotal != oldTotal {
			fail("%s: sim_cycles_total drifted %.0f -> %.0f (simulated behaviour changed)",
				key, oldTotal, newTotal)
		}
	}

	oldHost := hostMins(oldRecs)
	newHost := hostMins(newRecs)
	hostKeys := 0
	for key, o := range oldHost {
		n, ok := newHost[key]
		if !ok || n.HostCores != o.HostCores {
			continue // new experiment, skipped row, or different machine
		}
		hostKeys++
		if n.HostSeconds > o.HostSeconds*(1+tol) {
			fail("%s: host_seconds regressed %.2fs -> %.2fs (+%.0f%%, tolerance %.0f%%; set FFCCD_BENCHGATE_TOL to override)",
				key, o.HostSeconds, n.HostSeconds,
				100*(n.HostSeconds/o.HostSeconds-1), 100*tol)
		}
	}

	if failed {
		os.Exit(1)
	}
	fmt.Printf("bench_gate OK: %s vs %s — %d sim keys identical, %d host configs within %.0f%%\n",
		filepath.Base(oldPath), filepath.Base(newPath), simKeys, hostKeys, 100*tol)
}

package main

import (
	"fmt"
	"io"
)

// verdict judges one workload × end-to-end metric between two sets of runs.
// a is the reference, b the candidate; lower is better for every metric.
//
//   - a metric with bound 0 (sim_*, failed_op_share) repeats exactly on one
//     program, so any difference is a verdict;
//   - otherwise the medians are compared against the bound, and when the
//     run-to-run spread (the wider interquartile range, as a share of a's
//     median) exceeds the bound the result is unresolved — unless every run of
//     one side reads better than every run of the other.
func verdict(def e2eMetric, a, b summary) (v string, spread float64) {
	if a.Median != 0 {
		spread = max(a.Q3-a.Q1, b.Q3-b.Q1) / a.Median
	}
	bound := def.Bound * a.Median
	if def.AbsBound > bound {
		bound = def.AbsBound
	}
	delta := b.Median - a.Median
	switch {
	case def.Bound == 0 && delta == 0:
		return "same", spread
	case def.Bound == 0 && delta > 0:
		return "worse", spread
	case def.Bound == 0:
		return "better", spread
	case b.Max < a.Min:
		return "better", spread
	case b.Min > a.Max && delta > bound:
		return "worse", spread
	case spread*a.Median > bound:
		return "unresolved", spread
	case delta > bound:
		return "worse", spread
	case delta < -bound:
		return "better", spread
	}
	return "same", spread
}

// compareFiles prints, per workload × end-to-end metric, both medians, the
// spread and a verdict. It returns an error when anything is worse.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readReport(pathA)
	if err != nil {
		return err
	}
	b, err := readReport(pathB)
	if err != nil {
		return err
	}
	if a.Seed != b.Seed || a.Size != b.Size {
		return fmt.Errorf("not comparable: seed %d size %s vs seed %d size %s", a.Seed, a.Size, b.Seed, b.Size)
	}
	fmt.Fprintf(w, "A: %s (commit %s, %d cores)\nB: %s (commit %s, %d cores)\n",
		pathA, a.Host.Commit, a.Host.HostCores, pathB, b.Host.Commit, b.Host.HostCores)
	fmt.Fprintf(w, "%-16s %-26s %-7s %14s %14s %8s %7s %7s  %s\n",
		"workload", "metric", "unit", "median A", "median B", "B/A-1", "spread", "bound", "verdict")
	worse := 0
	for _, wa := range a.Workloads {
		var wb *workloadReport
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			continue
		}
		if wa.SimDigest != wb.SimDigest {
			fmt.Fprintf(w, "%-16s sim_digest %s vs %s: the simulated results differ\n", wa.Name, wa.SimDigest, wb.SimDigest)
		}
		for _, def := range endToEnd {
			sa, okA := wa.EndToEnd[def.Name]
			sb, okB := wb.EndToEnd[def.Name]
			if !okA || !okB {
				continue
			}
			v, spread := verdict(def, sa, sb)
			if v == "worse" {
				worse++
			}
			rel := 0.0
			if sa.Median != 0 {
				rel = sb.Median/sa.Median - 1
			}
			fmt.Fprintf(w, "%-16s %-26s %-7s %14.6g %14.6g %+7.2f%% %6.2f%% %6.2f%%  %s\n",
				wa.Name, def.Name, def.Unit, sa.Median, sb.Median, rel*100, spread*100, def.Bound*100, v)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d workload × metric pairs are worse", worse)
	}
	return nil
}

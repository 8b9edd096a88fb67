package main

import "strings"

// Every number says which clock it uses. host_* metrics are wall-clock and
// memory of the simulator itself: noisy, so bounded. sim_* metrics are the
// modelled machine: deterministic for a fixed seed, so their bound is 0 and
// any drift is a finding. failed_op_share has no clock.

// e2eMetric is one end-to-end metric of the harness's own table and the bound
// -compare judges it by. Lower is better for all of them.
type e2eMetric struct {
	Name  string
	Unit  string
	Clock string
	// Bound is the share of the first file's median by which the second may
	// be worse before -compare says so; AbsBound, when set, is an absolute
	// floor under it (a 25% bound on a 20 ms set-up is 5 ms of noise).
	Bound    float64
	AbsBound float64
}

var endToEnd = []e2eMetric{
	{Name: "host_ns_per_sim_op", Unit: "ns", Clock: "host", Bound: 0.10},
	{Name: "host_alloc_b_per_sim_op", Unit: "B", Clock: "host", Bound: 0.03},
	{Name: "host_peak_rss_mb", Unit: "MB", Clock: "host", Bound: 0.10},
	{Name: "setup_s", Unit: "s", Clock: "host", Bound: 0.25, AbsBound: 0.05},
	{Name: "sim_cycles_per_op", Unit: "cycles", Clock: "sim"},
	{Name: "sim_gc_cycle_share", Unit: "ratio", Clock: "sim"},
	{Name: "sim_pm_writes_per_op", Unit: "lines", Clock: "sim"},
	{Name: "sim_frag_ratio", Unit: "ratio", Clock: "sim"},
	{Name: "sim_p50_cycles", Unit: "cycles", Clock: "sim"},
	{Name: "sim_p999_cycles", Unit: "cycles", Clock: "sim"},
	{Name: "failed_op_share", Unit: "ratio", Clock: "-"},
}

func isEndToEnd(name string) bool {
	for _, m := range endToEnd {
		if m.Name == name {
			return true
		}
	}
	return false
}

// unitOf derives a metric's unit from its name: per-layer names end in their
// unit (or, for the two-regime allocator ladder, carry it before the regime).
func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.Name == name {
			return m.Unit
		}
	}
	base := name
	if i := strings.Index(name, "_ns."); i >= 0 {
		base = name[:i+3]
	}
	switch {
	case strings.Contains(base, ".cycles_"), strings.HasSuffix(base, "_cycles"):
		return "cycles"
	case strings.Contains(base, "host_ns_per_"), strings.HasSuffix(base, "_ns"):
		return "ns"
	case strings.HasSuffix(base, "_us"):
		return "us"
	case strings.HasSuffix(base, "_ms"), strings.HasSuffix(base, "_ms_mean"):
		return "ms"
	case strings.HasSuffix(base, "_s"), strings.HasSuffix(base, "_s_max"):
		return "s"
	case strings.HasSuffix(base, "_mb"):
		return "MB"
	case strings.HasSuffix(base, "_share"), strings.HasSuffix(base, "_ratio"),
		strings.HasSuffix(base, "_ratio_end"), strings.HasSuffix(base, "_imbalance"):
		return "ratio"
	}
	return "count"
}

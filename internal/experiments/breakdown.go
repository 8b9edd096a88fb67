package experiments

import (
	"fmt"
	"strings"

	"ffccd/internal/core"
	"ffccd/internal/obsv"
	"ffccd/internal/sim"
)

// BreakdownRow is one (store, scheme) cell of Figures 5/14/15: the
// defragmentation time split over the application-only baseline and the
// normalised total execution time.
type BreakdownRow struct {
	Store  string
	Scheme core.Scheme

	// Percent of baseline application time spent in each GC activity.
	MarkPct, SummaryPct, CopyPct, CheckLookupPct, MiscPct float64
	// GCPct is their sum — Fig. 14(a)'s bar height.
	GCPct float64
	// NormalizedTime is (application + defragmentation) / baseline —
	// Fig. 14(b). Values below ~1+GCPct mean defragmentation sped the
	// application up (fewer TLB/cache misses).
	NormalizedTime float64
	// FragReduction is the fragmentation reduction (eq. 1) vs baseline.
	FragReduction float64
	// SimCycles is the run's total simulated cycles (app + GC), for the
	// machine-readable benchmark record.
	SimCycles uint64
}

// BreakdownResult is a whole figure.
type BreakdownResult struct {
	Title string
	Rows  []BreakdownRow
}

// allSchemes is the Fig. 14/15 scheme axis.
var allSchemes = []core.Scheme{
	core.SchemeEspresso, core.SchemeSFCCD, core.SchemeFFCCD, core.SchemeFFCCDCheckLookup,
}

// breakdownCell is one (store, threads) column of a breakdown figure.
type breakdownCell struct {
	store   string
	threads int
}

// runBreakdowns measures every cell under every scheme against its no-GC
// baseline. All runs of the whole figure — one baseline plus one run per
// scheme for each cell — are fanned out together, so a figure's wall-clock
// is bounded by its slowest single run, not the sum. When the fork driver is
// enabled, each cell's scheme axis shares one checkpointed workload prefix
// (see fork.go) instead of rebuilding it per scheme.
func runBreakdowns(cells []breakdownCell, scale float64, schemes []core.Scheme) ([]BreakdownRow, error) {
	specs := make([]Spec, 0, len(cells)*(1+len(schemes)))
	for _, cell := range cells {
		base := Spec{
			Store: cell.store, Threads: cell.threads, Scheme: core.SchemeNone,
			Scale: scale, PageShift: 12, Seed: 11,
		}
		specs = append(specs, base)
		for _, scheme := range schemes {
			spec := base
			spec.Scheme = scheme
			spec.Trigger, spec.Target = core.NormalParams()
			specs = append(specs, spec)
		}
	}
	outs, err := RunSpecsForked(specs)
	if err != nil {
		return nil, err
	}

	var rows []BreakdownRow
	i := 0
	for _, cell := range cells {
		baseOut := outs[i]
		i++
		baseline := float64(baseOut.AppCycles())
		for _, scheme := range schemes {
			out := outs[i]
			i++
			row := BreakdownRow{
				Store:          cell.store,
				Scheme:         scheme,
				MarkPct:        pct(out.Cycles[sim.CatMark], baseline),
				SummaryPct:     pct(out.Cycles[sim.CatSummary], baseline),
				CopyPct:        pct(out.Cycles[sim.CatCopy], baseline),
				CheckLookupPct: pct(out.Cycles[sim.CatCheckLookup], baseline),
				MiscPct:        pct(out.Cycles[sim.CatGCMisc], baseline),
				NormalizedTime: float64(out.TotalCycles()) / baseline,
				SimCycles:      out.TotalCycles(),
			}
			row.GCPct = row.MarkPct + row.SummaryPct + row.CopyPct + row.CheckLookupPct + row.MiscPct
			row.FragReduction = fragReduction(baseOut, out)
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func pct(v uint64, base float64) float64 {
	if base == 0 {
		return 0
	}
	return float64(v) / base * 100
}

// fragReduction implements eq. 1 of the paper.
func fragReduction(base, ours Outcome) float64 {
	denom := base.AvgFootprintMB - base.AvgLiveMB
	if denom <= 0 {
		return 0
	}
	return (base.AvgFootprintMB - ours.AvgFootprintMB) / denom * 100
}

// Figure5 reproduces Fig. 5: the Espresso-design baseline GC overhead
// breakdown on the five microbenchmarks.
func Figure5(scale float64) (BreakdownResult, error) {
	res := BreakdownResult{Title: "Figure 5 — Espresso (baseline crash-consistent GC) overhead breakdown"}
	rows, err := runBreakdowns(microCells(), scale, []core.Scheme{core.SchemeEspresso})
	if err != nil {
		return res, err
	}
	res.Rows = rows
	return res, nil
}

// microCells returns the microbenchmark columns (all single-threaded).
func microCells() []breakdownCell {
	cells := make([]breakdownCell, len(Micros))
	for i, store := range Micros {
		cells[i] = breakdownCell{store: store, threads: 1}
	}
	return cells
}

// Figure14 reproduces Fig. 14: defragmentation time breakdown and
// normalised execution time for the microbenchmarks under all four schemes.
func Figure14(scale float64) (BreakdownResult, error) {
	res := BreakdownResult{Title: "Figure 14 — defragmentation overhead on microbenchmarks"}
	rows, err := runBreakdowns(microCells(), scale, allSchemes)
	if err != nil {
		return res, err
	}
	res.Rows = rows
	return res, nil
}

// Figure15 reproduces Fig. 15: the same axes on the concurrent data
// structures and KV applications.
func Figure15(scale float64) (BreakdownResult, error) {
	res := BreakdownResult{Title: "Figure 15 — defragmentation overhead on applications"}
	cells := []breakdownCell{{"BzTree", 1}, {"FPTree", 1}, {"Echo", 1}, {"pmemkv", 1}}
	rows, err := runBreakdowns(cells, scale, allSchemes)
	if err != nil {
		return res, err
	}
	res.Rows = rows
	return res, nil
}

func (r BreakdownResult) String() string {
	var b strings.Builder
	fmt.Fprintln(&b, r.Title)
	t := obsv.NewTable("store", "scheme", "mark%", "summary%", "copy%", "chk+lkp%", "misc%", "gc-total%", "norm-time", "frag-red%")
	for _, row := range r.Rows {
		t.Add(row.Store, row.Scheme.String(), row.MarkPct, row.SummaryPct, row.CopyPct,
			row.CheckLookupPct, row.MiscPct, row.GCPct, row.NormalizedTime, row.FragReduction)
	}
	b.WriteString(t.String())
	b.WriteString("\n")
	b.WriteString(r.GCShares())
	return b.String()
}

// GCShares renders Fig. 5(b)'s view: each GC activity as a share of total
// defragmentation time (rather than of application time) — the breakdown
// showing that the compacting phase's copy-persist and check+lookup dominate.
func (r BreakdownResult) GCShares() string {
	t := obsv.NewTable("store", "scheme", "mark", "summary", "copy", "chk+lkp", "misc")
	for _, row := range r.Rows {
		if row.GCPct == 0 {
			continue
		}
		share := func(v float64) string { return fmt.Sprintf("%.0f%%", v/row.GCPct*100) }
		t.Add(row.Store, row.Scheme.String(), share(row.MarkPct), share(row.SummaryPct),
			share(row.CopyPct), share(row.CheckLookupPct), share(row.MiscPct))
	}
	return "GC-time shares (Fig. 5b view):\n" + t.String()
}

// CopyReductionVsEspresso summarises, per store, how much each scheme cut
// the data-copy slice relative to Espresso — the headline §7.2 numbers
// (SFCCD ≈40 %, FFCCD ≈66–70 %).
func (r BreakdownResult) CopyReductionVsEspresso() map[string]map[string]float64 {
	byStore := map[string]map[core.Scheme]BreakdownRow{}
	for _, row := range r.Rows {
		if byStore[row.Store] == nil {
			byStore[row.Store] = map[core.Scheme]BreakdownRow{}
		}
		byStore[row.Store][row.Scheme] = row
	}
	out := map[string]map[string]float64{}
	for store, rows := range byStore {
		esp, ok := rows[core.SchemeEspresso]
		if !ok || esp.CopyPct == 0 {
			continue
		}
		out[store] = map[string]float64{}
		for scheme, row := range rows {
			if scheme == core.SchemeEspresso {
				continue
			}
			out[store][scheme.String()] = (esp.CopyPct - row.CopyPct) / esp.CopyPct * 100
		}
	}
	return out
}

// Metrics returns the headline numbers plus total simulated cycles, for the
// machine-readable benchmark record (cmd/ffccd-bench -json).
func (r BreakdownResult) Metrics() map[string]float64 {
	var gc, norm float64
	var cycles uint64
	for _, row := range r.Rows {
		gc += row.GCPct
		norm += row.NormalizedTime
		cycles += row.SimCycles
	}
	n := float64(len(r.Rows))
	if n == 0 {
		return nil
	}
	return map[string]float64{
		"avg_gc_over_app_pct": gc / n,
		"avg_norm_time":       norm / n,
		"sim_cycles_total":    float64(cycles),
	}
}

// CSV renders the breakdown rows as comma-separated values — plot-ready
// Figure 5/14/15 data.
func (r BreakdownResult) CSV() string {
	var b strings.Builder
	b.WriteString("store,scheme,mark,summary,copy,checklookup,misc,gctotal,normtime,fragreduction\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%s,%s,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.4f,%.2f\n",
			row.Store, row.Scheme, row.MarkPct, row.SummaryPct, row.CopyPct,
			row.CheckLookupPct, row.MiscPct, row.GCPct, row.NormalizedTime, row.FragReduction)
	}
	return b.String()
}

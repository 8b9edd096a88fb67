package experiments

import (
	"errors"
	"strings"
	"testing"

	"ffccd/internal/core"
	"ffccd/internal/pmem"
)

// Small scale for CI: 1/2000 of the paper (2.5k inserts).
const testScale = 0.001

func TestRunBaselineAndFFCCD(t *testing.T) {
	base := Spec{Store: "LL", Threads: 1, Scheme: core.SchemeNone, Scale: testScale, PageShift: 12, Seed: 1}
	b, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if b.AvgFootprintMB <= 0 || b.AvgLiveMB <= 0 || b.AppCycles() == 0 {
		t.Fatalf("degenerate baseline: %+v", b)
	}
	if b.GCCycles() != 0 {
		t.Fatalf("baseline charged GC cycles: %d", b.GCCycles())
	}
	ours := base
	ours.Scheme = core.SchemeFFCCDCheckLookup
	ours.Trigger, ours.Target = core.NormalParams()
	o, err := Run(ours)
	if err != nil {
		t.Fatal(err)
	}
	if o.Engine.Cycles == 0 {
		t.Fatal("no defragmentation cycles ran")
	}
	if o.AvgFootprintMB >= b.AvgFootprintMB {
		t.Errorf("footprint not reduced: %.2f vs %.2f", o.AvgFootprintMB, b.AvgFootprintMB)
	}
	if red := fragReduction(b, o); red < 10 {
		t.Errorf("fragmentation reduction = %.1f%%, want >10%%", red)
	}
}

func TestRunConcurrent(t *testing.T) {
	spec := Spec{Store: "FPTree", Threads: 4, Scheme: core.SchemeFFCCD, Scale: testScale, PageShift: 12, Seed: 2}
	spec.Trigger, spec.Target = core.NormalParams()
	out, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if out.TotalOps == 0 || out.AppCycles() == 0 {
		t.Fatalf("degenerate concurrent run: %+v", out)
	}
}

func TestFigure14SchemeOrdering(t *testing.T) {
	rows, err := runBreakdowns([]breakdownCell{{"LL", 1}}, testScale, allSchemes)
	if err != nil {
		t.Fatal(err)
	}
	byScheme := map[core.Scheme]BreakdownRow{}
	for _, r := range rows {
		byScheme[r.Scheme] = r
	}
	esp := byScheme[core.SchemeEspresso]
	sf := byScheme[core.SchemeSFCCD]
	ff := byScheme[core.SchemeFFCCD]
	cl := byScheme[core.SchemeFFCCDCheckLookup]
	// The paper's headline ordering: each design cuts the copy cost further.
	if !(esp.CopyPct > sf.CopyPct && sf.CopyPct > ff.CopyPct) {
		t.Errorf("copy%% ordering violated: esp=%.2f sfccd=%.2f ffccd=%.2f",
			esp.CopyPct, sf.CopyPct, ff.CopyPct)
	}
	// checklookup slashes the check+lookup slice.
	if cl.CheckLookupPct >= ff.CheckLookupPct {
		t.Errorf("checklookup did not reduce check+lookup: %.2f vs %.2f",
			cl.CheckLookupPct, ff.CheckLookupPct)
	}
	// Total defragmentation time must shrink from Espresso to FFCCD+CL.
	if cl.GCPct >= esp.GCPct {
		t.Errorf("FFCCD+CL gc%%=%.2f not below Espresso %.2f", cl.GCPct, esp.GCPct)
	}
}

func TestTable1And2Render(t *testing.T) {
	t1 := Table1()
	if !strings.Contains(t1, "2256 bytes") || !strings.Contains(t1, "PMFT") {
		t.Errorf("Table1 wrong:\n%s", t1)
	}
	t2 := Table2()
	if !strings.Contains(t2, "360") || !strings.Contains(t2, "RBB entries") {
		t.Errorf("Table2 wrong:\n%s", t2)
	}
}

func TestFigure1Shape(t *testing.T) {
	res, err := Figure1(testScale)
	if err != nil {
		t.Fatal(err)
	}
	for name, runs := range res.Series {
		if len(runs) != 3 {
			t.Fatalf("%s: runs = %d", name, len(runs))
		}
		// Fragmentation must not improve run over run (at the tiny CI scale
		// the coarse scaled-huge-page series can plateau; the 4 KB series
		// must grow strictly).
		if runs[2].FragR < runs[0].FragR-0.01 {
			t.Errorf("%s: fragR improved across runs: %.2f → %.2f → %.2f",
				name, runs[0].FragR, runs[1].FragR, runs[2].FragR)
		}
		if name == "4KB" && !(runs[2].FragR > runs[0].FragR) {
			t.Errorf("4KB fragR did not grow: %.2f → %.2f → %.2f",
				runs[0].FragR, runs[1].FragR, runs[2].FragR)
		}
		if runs[2].ThroughputRel > runs[0].ThroughputRel+1 {
			t.Errorf("%s: throughput rose across runs: %v", name, runs)
		}
	}
}

func TestAblationPMFT(t *testing.T) {
	res, err := AblationPMFT(testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Hardware checklookup must be the cheapest per op.
	if res.Rows[2].CyclesPerCheck >= res.Rows[1].CyclesPerCheck {
		t.Errorf("checklookup not cheaper: %.2f vs %.2f",
			res.Rows[2].CyclesPerCheck, res.Rows[1].CyclesPerCheck)
	}
}

func TestAblationWritesShape(t *testing.T) {
	res, err := AblationWrites(testScale)
	if err != nil {
		t.Fatal(err)
	}
	byScheme := map[core.Scheme]AblationWritesRow{}
	for _, row := range res.Rows {
		byScheme[row.Scheme] = row
	}
	esp := byScheme[core.SchemeEspresso]
	ff := byScheme[core.SchemeFFCCD]
	if esp.MediaWrites == 0 || ff.MediaWrites == 0 {
		t.Fatalf("degenerate traffic: %+v", res)
	}
	// §3.3.3: the fence-free design incurs fewer PM writes per move.
	if ff.WritesPerMove >= esp.WritesPerMove {
		t.Errorf("FFCCD writes/move %.2f not below Espresso %.2f",
			ff.WritesPerMove, esp.WritesPerMove)
	}
	// And far fewer GC-issued fences overall.
	if ff.Sfences >= esp.Sfences {
		t.Errorf("FFCCD sfences %d not below Espresso %d", ff.Sfences, esp.Sfences)
	}
}

func TestBreakdownRenderings(t *testing.T) {
	rows, err := runBreakdowns([]breakdownCell{{"LL", 1}}, testScale, []core.Scheme{core.SchemeEspresso})
	if err != nil {
		t.Fatal(err)
	}
	res := BreakdownResult{Title: "t", Rows: rows}
	out := res.String()
	if !strings.Contains(out, "GC-time shares") || !strings.Contains(out, "espresso") {
		t.Errorf("rendering incomplete:\n%s", out)
	}
	// Only Espresso present: the per-store map exists but holds no
	// comparisons.
	for store, m := range res.CopyReductionVsEspresso() {
		if len(m) != 0 {
			t.Errorf("unexpected reductions for %s: %v", store, m)
		}
	}
}

func TestFigure16Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	res, err := Figure16(testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Variants) != 4 {
		t.Fatalf("variants = %d", len(res.Variants))
	}
	base := res.Variants[0]
	ffccd := res.Variants[1]
	if len(base.Samples) == 0 || len(ffccd.Samples) == 0 {
		t.Fatal("no samples")
	}
	// FFCCD must not end with a larger footprint than the baseline.
	bf := base.Samples[len(base.Samples)-1].Footprint
	ff := ffccd.Samples[len(ffccd.Samples)-1].Footprint
	if ff > bf {
		t.Errorf("FFCCD final footprint %d above baseline %d", ff, bf)
	}
}

// Every experiment gives its machines' media back, on success and on error: a
// device no checkpoint has seen returns every page it materialised once it is
// released.
func TestExperimentsReleaseTheirMachines(t *testing.T) {
	unknown := Spec{Store: "no such store", Threads: 1, Scheme: core.SchemeEspresso, Scale: testScale, PageShift: 12}
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"fig1", func() error { _, err := Figure1(testScale); return err }},
		{"ablation-rbb", func() error { _, err := AblationRBB(testScale, []int{4}); return err }},
		{"fig16", func() error { _, err := Figure16(testScale / 10); return err }},
		{"fig14 cell, forked", func() error {
			ResetForkCounters()
			if _, err := RunSpecsForked(fig14Cell("LL", testScale)); err != nil {
				return err
			}
			if _, _, forks := ForkCounters(); forks == 0 {
				return errors.New("the cell forked no run")
			}
			return nil
		}},
		{"serving", func() error {
			_, err := Serving(ServingOptions{Clients: 4, Ops: 1200, Keyspace: 400, Shards: 1, Schemes: []string{"ffccd", "stw"}})
			return err
		}},
		{"run error", func() error {
			if _, err := Run(unknown); err == nil {
				return errors.New("a run of an unknown store succeeded")
			}
			return nil
		}},
		{"prefix error", func() error {
			if _, err := buildPrefix(unknown); err == nil {
				return errors.New("a prefix of an unknown store was built")
			}
			return nil
		}},
	} {
		taken, returned := pmem.MaterializedPages(), pmem.ReturnedPages()
		if err := c.run(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if dt, dr := pmem.MaterializedPages()-taken, pmem.ReturnedPages()-returned; dt != dr || dt == 0 {
			t.Errorf("%s materialised %d media pages and returned %d", c.name, dt, dr)
		}
	}
}

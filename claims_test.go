package ffccd_test

import (
	"testing"

	"ffccd/internal/core"
	"ffccd/internal/experiments"
)

// TestFigure14Claims asserts the paper's Fig. 14 claims on the five
// microbenchmarks, each as a direction or a band, at scale 0.001 (the figure
// driver's seed is 11). A drift in any scheme's cost model fails here, not in
// a reader's comparison of EXPERIMENTS.md with a fresh run. The bands are the
// reproduction's, not the paper's: a failure is recorded, never widened.
// -short skips it: the figure is the same simulated result under any flags,
// and its 2.5 s run takes about a minute under the race detector, which
// `make race` runs with -short.
func TestFigure14Claims(t *testing.T) {
	if testing.Short() {
		t.Skip("fig14 at scale 0.001; the claims do not depend on -short")
	}
	res, err := experiments.Figure14(0.001)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]map[core.Scheme]experiments.BreakdownRow{}
	for _, r := range res.Rows {
		if rows[r.Store] == nil {
			rows[r.Store] = map[core.Scheme]experiments.BreakdownRow{}
		}
		rows[r.Store][r.Scheme] = r
	}
	for _, store := range []string{"LL", "AVL", "SS", "BT", "RBT"} {
		r := rows[store]
		esp, sf, ff, cl := r[core.SchemeEspresso], r[core.SchemeSFCCD], r[core.SchemeFFCCD], r[core.SchemeFFCCDCheckLookup]
		if len(r) != 4 || esp.CopyPct == 0 {
			t.Errorf("%s: %d scheme rows, Espresso's copy slice %.2f %%: the figure is missing a cell", store, len(r), esp.CopyPct)
			continue
		}
		if !(esp.GCPct > sf.GCPct && sf.GCPct > ff.GCPct && ff.GCPct > cl.GCPct) {
			t.Errorf("%s: gc-total Espresso %.2f > SFCCD %.2f > FFCCD %.2f > FFCCD+CL %.2f does not hold",
				store, esp.GCPct, sf.GCPct, ff.GCPct, cl.GCPct)
		}
		if !(esp.CopyPct > sf.CopyPct && sf.CopyPct > ff.CopyPct) {
			t.Errorf("%s: copy Espresso %.2f > SFCCD %.2f > FFCCD %.2f does not hold", store, esp.CopyPct, sf.CopyPct, ff.CopyPct)
		}
		if cut := 1 - ff.CopyPct/esp.CopyPct; cut < 0.60 {
			t.Errorf("%s: FFCCD cuts the copy slice by %.1f %% against Espresso, want at least 60 %%", store, 100*cut)
		}
		if cut := 1 - sf.CopyPct/esp.CopyPct; cut < 0.15 || cut > 0.45 {
			t.Errorf("%s: SFCCD cuts the copy slice by %.1f %% against Espresso, want 15–45 %%", store, 100*cut)
		}
	}
}

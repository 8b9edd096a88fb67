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
// At this scale the heap's peak footprint is 0.26–0.41 of the modelled cache.
// Out of the cache the copy bands fail (EXPERIMENTS.md, "Regime record"):
// FFCCD's cut against Espresso, at least 60 % here, is 58/54/50/48/55 % on
// LL/AVL/SS/BT/RBT at scale 0.01 (peak footprint 2.6–4.1 times the cache)
// and 53/48/43/44/48 % at 0.02 (5.1–8.2 times), and SFCCD's falls below
// 15 % on SS and BT at 0.01 and on four micros at 0.02.
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

// TestWriteTrafficClaims asserts the paper's write-traffic claims on the LL
// ablation (experiments.AblationWrites, seed 41) at scale 0.001, against the
// no-GC baseline run of the same operations. Per moved object, FFCCD's
// extra media writes are at least 30 % below Espresso's, and the extra
// sfences sit in bands around the paper's 2 (Espresso), 1 (SFCCD) and 0
// (FFCCD). Checklookup changes how a barrier finds a destination, not what
// a move writes or fences, so FFCCD+CL's row equals FFCCD's. The bands are
// the reproduction's, not the paper's: a failure is recorded, never widened.
func TestWriteTrafficClaims(t *testing.T) {
	res, err := experiments.AblationWrites(0.001)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[core.Scheme]experiments.AblationWritesRow{}
	for _, r := range res.Rows {
		if r.ObjectsMoved == 0 {
			t.Fatalf("%s moved no object", r.Scheme)
		}
		rows[r.Scheme] = r
	}
	esp, sf, ff, cl := rows[core.SchemeEspresso], rows[core.SchemeSFCCD], rows[core.SchemeFFCCD], rows[core.SchemeFFCCDCheckLookup]
	if len(rows) != 4 {
		t.Fatalf("%d scheme rows, want 4", len(rows))
	}
	if cut := 1 - ff.WritesPerMove/esp.WritesPerMove; cut < 0.30 {
		t.Errorf("FFCCD's extra media writes per moved object %.2f are %.1f %% below Espresso's %.2f, want at least 30 %%",
			ff.WritesPerMove, 100*cut, esp.WritesPerMove)
	}
	fences := func(r experiments.AblationWritesRow) float64 {
		return (float64(r.Sfences) - float64(res.Baseline.Sfences)) / float64(r.ObjectsMoved)
	}
	for _, b := range []struct {
		row    experiments.AblationWritesRow
		lo, hi float64
	}{{esp, 1.8, 2.5}, {sf, 0.9, 1.5}, {ff, 0, 0.25}} {
		if f := fences(b.row); f < b.lo || f > b.hi {
			t.Errorf("%s: %.2f extra sfences per moved object, want %.2f–%.2f", b.row.Scheme, f, b.lo, b.hi)
		}
	}
	if cl.Scheme = ff.Scheme; cl != ff {
		t.Errorf("FFCCD+CL's write traffic %+v differs from FFCCD's %+v", cl, ff)
	}
	t.Logf("extra writes per move: Espresso %.2f, SFCCD %.2f, FFCCD %.2f; extra sfences per move: %.2f / %.2f / %.2f",
		esp.WritesPerMove, sf.WritesPerMove, ff.WritesPerMove, fences(esp), fences(sf), fences(ff))
}

// TestFigure16Claims asserts the paper's two Redis rows (§7.4) on
// experiments.Figure16 at scale 0.001: FFCCD's fragmentation reduction
// against the PMDK baseline is more than twice Mesh's, and the stop-the-world
// compactor's longest operation latency is above FFCCD's. Figure 16 drives
// the serving layer's LRU cache, so the test also pins that. The bands are the
// reproduction's, not the paper's: a failure is recorded, never widened. Like
// TestFigure14Claims, -short skips it.
func TestFigure16Claims(t *testing.T) {
	if testing.Short() {
		t.Skip("fig16 at scale 0.001; the claims do not depend on -short")
	}
	res, err := experiments.Figure16(0.001)
	if err != nil {
		t.Fatal(err)
	}
	v := map[string]experiments.Fig16Variant{}
	for _, r := range res.Variants {
		v[r.Name] = r
	}
	ff, stw, mesh := v["FFCCD"], v["STW defrag"], v["Mesh"]
	if len(v) != 4 || ff.MaxPause == 0 || stw.MaxPause == 0 {
		t.Fatalf("%d variants, max pause FFCCD %.0f and STW %.0f: the figure is missing a row", len(v), ff.MaxPause, stw.MaxPause)
	}
	if !(ff.FragReduction > 2*mesh.FragReduction) {
		t.Errorf("FFCCD reduces fragmentation by %.2f %%, not more than twice Mesh's %.2f %%", ff.FragReduction, mesh.FragReduction)
	}
	if !(stw.MaxPause > ff.MaxPause) {
		t.Errorf("STW's max pause %.0f cycles is not above FFCCD's %.0f", stw.MaxPause, ff.MaxPause)
	}
	t.Logf("fragmentation reduction: FFCCD %.2f %%, Mesh %.2f %%; max pause: STW %.0f, FFCCD %.0f cycles",
		ff.FragReduction, mesh.FragReduction, stw.MaxPause, ff.MaxPause)
}

// TestTable3Claims asserts the paper's Table 3 directions on
// experiments.Table3 at scale 0.002: on every micro the Normal setting
// reduces the footprint against the PMDK baseline at least as much as the
// Relaxed one, and B+tree has the lowest reduction under both. At scale 0.001
// LL, AVL and SS invert Normal and Relaxed, so the test does not run there.
// The bands are the reproduction's, not the paper's: a failure is recorded,
// never widened. Like TestFigure14Claims, -short skips it.
func TestTable3Claims(t *testing.T) {
	if testing.Short() {
		t.Skip("table3 at scale 0.002; the claims do not depend on -short")
	}
	res, err := experiments.Table3(0.002)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]experiments.Table3Row{}
	for _, r := range res.Rows {
		rows[r.Store] = r
	}
	if len(rows) != len(experiments.Micros) {
		t.Fatalf("%d store rows, want %d", len(rows), len(experiments.Micros))
	}
	bt := rows["BT"]
	for _, store := range experiments.Micros {
		r := rows[store]
		if r.ReductionN < r.ReductionR {
			t.Errorf("%s: Normal reduces the footprint by %.2f %%, below Relaxed's %.2f %%", store, r.ReductionN, r.ReductionR)
		}
		if store != "BT" && (r.ReductionN <= bt.ReductionN || r.ReductionR <= bt.ReductionR) {
			t.Errorf("%s's reductions %.2f / %.2f %% are not above BT's %.2f / %.2f %%",
				store, r.ReductionN, r.ReductionR, bt.ReductionN, bt.ReductionR)
		}
		t.Logf("%s: Red-N %.2f %%, Red-R %.2f %%", store, r.ReductionN, r.ReductionR)
	}
}

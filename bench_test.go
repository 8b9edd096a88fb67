package ffccd

// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark runs the corresponding experiment from internal/experiments
// once per iteration and reports the headline numbers as custom metrics; run
// with -v to see the full rendered tables.
//
//	go test -bench=. -benchmem
//	FFCCD_SCALE=0.004 go test -bench=BenchmarkTable3 -v   # paper/250 scale
//
// The default scale keeps the whole suite within a few minutes; results are
// recorded in EXPERIMENTS.md.

import (
	"os"
	"strconv"
	"testing"

	"ffccd/internal/core"
	"ffccd/internal/experiments"
	"ffccd/internal/faultinject"
	"ffccd/internal/sim"
	"ffccd/internal/workload"
)

// benchScale returns the workload scale relative to the paper's 5M-insert
// setup (override with FFCCD_SCALE).
func benchScale() float64 {
	if s := os.Getenv("FFCCD_SCALE"); s != "" {
		if f, err := strconv.ParseFloat(s, 64); err == nil && f > 0 {
			return f
		}
	}
	return 0.002 // 10k inserts
}

// BenchmarkFigure1 regenerates Fig. 1: fragmentation growth and throughput
// decline across three runs of Echo without defragmentation.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure1(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		runs := res.Series["4KB"]
		b.ReportMetric(runs[0].FragR, "fragR-run1")
		b.ReportMetric(runs[2].FragR, "fragR-run3")
		b.ReportMetric(runs[2].ThroughputRel, "thr-run3-%")
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkFigure5 regenerates Fig. 5: the Espresso baseline GC overhead
// breakdown on the microbenchmarks.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure5(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		var gc, norm float64
		for _, r := range res.Rows {
			gc += r.GCPct
			norm += r.NormalizedTime
		}
		n := float64(len(res.Rows))
		b.ReportMetric(gc/n, "gc-over-app-%")
		b.ReportMetric(norm/n, "norm-time")
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkTable3 regenerates Table 3: fragmentation effectiveness on the
// five microbenchmarks under Normal and Relaxed parameters.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table3(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		var rn, rr float64
		for _, row := range res.Rows {
			rn += row.ReductionN
			rr += row.ReductionR
		}
		n := float64(len(res.Rows))
		b.ReportMetric(rn/n, "avg-reduction-N-%")
		b.ReportMetric(rr/n, "avg-reduction-R-%")
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkFigure14 regenerates Fig. 14: defragmentation time breakdown and
// normalised execution time for the microbenchmarks under all four schemes.
func BenchmarkFigure14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure14(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		avg := map[core.Scheme][]float64{}
		for _, r := range res.Rows {
			avg[r.Scheme] = append(avg[r.Scheme], r.NormalizedTime)
		}
		mean := func(s core.Scheme) float64 {
			var t float64
			for _, v := range avg[s] {
				t += v
			}
			return t / float64(len(avg[s]))
		}
		b.ReportMetric(mean(core.SchemeEspresso), "norm-espresso")
		b.ReportMetric(mean(core.SchemeSFCCD), "norm-sfccd")
		b.ReportMetric(mean(core.SchemeFFCCD), "norm-ffccd")
		b.ReportMetric(mean(core.SchemeFFCCDCheckLookup), "norm-ffccd+cl")
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkTable4 regenerates Table 4: fragmentation effectiveness on the
// concurrent data structures and KV applications.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table4(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		var red float64
		for _, row := range res.Rows {
			red += row.Reduction
		}
		b.ReportMetric(red/float64(len(res.Rows)), "avg-reduction-%")
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkFigure15 regenerates Fig. 15: the Fig. 14 axes on applications.
func BenchmarkFigure15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure15(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		var norm float64
		n := 0
		for _, r := range res.Rows {
			if r.Scheme == core.SchemeFFCCDCheckLookup {
				norm += r.NormalizedTime
				n++
			}
		}
		b.ReportMetric(norm/float64(n), "norm-ffccd+cl")
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkFigure16 regenerates the Redis case study (§7.4).
func BenchmarkFigure16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure16(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range res.Variants {
			switch v.Name {
			case "FFCCD":
				b.ReportMetric(v.FragReduction, "ffccd-red-%")
				b.ReportMetric(v.P99, "ffccd-p99-cyc")
			case "STW defrag":
				b.ReportMetric(v.FragReduction, "stw-red-%")
				b.ReportMetric(v.P99, "stw-p99-cyc")
			}
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkTable1 renders the hardware-cost model (static).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := experiments.Table1()
		if i == 0 {
			b.Log("\n" + out)
		}
	}
}

// BenchmarkTable2 renders the simulation parameters (static).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := experiments.Table2()
		if i == 0 {
			b.Log("\n" + out)
		}
	}
}

// BenchmarkAblationRBB sweeps the Reached Bitmap Buffer size.
func BenchmarkAblationRBB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationRBB(benchScale(), []int{1, 4, 8, 32})
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.Entries == 8 && row.Hits+row.Misses > 0 {
				b.ReportMetric(float64(row.Hits)/float64(row.Hits+row.Misses)*100, "rbb8-hit-%")
			}
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkAblationPMFT compares forwarding-table designs.
func BenchmarkAblationPMFT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationPMFT(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 3 && res.Rows[1].CyclesPerCheck > 0 {
			red := (res.Rows[1].CyclesPerCheck - res.Rows[2].CyclesPerCheck) / res.Rows[1].CyclesPerCheck * 100
			b.ReportMetric(red, "checklookup-red-%")
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkAblationWrites compares PM write traffic across schemes (the
// §3.3.3 endurance argument).
func BenchmarkAblationWrites(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationWrites(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		byScheme := map[core.Scheme]experiments.AblationWritesRow{}
		for _, row := range res.Rows {
			byScheme[row.Scheme] = row
		}
		esp := byScheme[core.SchemeEspresso]
		ff := byScheme[core.SchemeFFCCD]
		if esp.MediaWrites > 0 {
			b.ReportMetric(float64(ff.MediaWrites)/float64(esp.MediaWrites)*100, "ffccd-writes-vs-espresso-%")
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkFaultInjection runs a small §7.1 campaign: a few scheduled crash
// sites of every one of the 26 settings (the full campaign is
// cmd/ffccd-crashtest).
func BenchmarkFaultInjection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		passed, trials := 0, 0
		for _, s := range faultinject.AllSettings() {
			out := faultinject.ExploreSetting(s, faultinject.CampaignOptions{Seed: int64(7000 + i), MaxSites: 2})
			passed += out.Passed
			trials += out.Scheduled
			if len(out.Failures) > 0 {
				b.Fatalf("%s: %s", s, out.Failures[0])
			}
		}
		b.ReportMetric(float64(passed)/float64(max(trials, 1))*100, "pass-%")
	}
}

// BenchmarkReadBarrier measures the raw D_RW resolve cost during an open
// epoch — the paper's core fast-path (software check vs checklookup).
func BenchmarkReadBarrier(b *testing.B) {
	for _, scheme := range []core.Scheme{core.SchemeFFCCD, core.SchemeFFCCDCheckLookup} {
		b.Run(scheme.String(), func(b *testing.B) {
			env, err := experiments.NewEnv(64<<20, 12)
			if err != nil {
				b.Fatal(err)
			}
			store, err := experiments.BuildStore(env.Ctx, env.Pool, "LL", workload.Config{InitInserts: 2100})
			if err != nil {
				b.Fatal(err)
			}
			ctx := env.Ctx
			for i := uint64(0); i < 2000; i++ {
				if err := store.Insert(ctx, i, make([]byte, 128)); err != nil {
					b.Fatal(err)
				}
			}
			for i := uint64(0); i < 2000; i += 2 {
				store.Delete(ctx, i)
			}
			opt := core.DefaultOptions()
			opt.Scheme = scheme
			opt.TriggerRatio, opt.TargetRatio = 1.01, 1.005
			eng := core.NewEngine(env.Pool, opt)
			defer eng.Close()
			gcCtx := sim.NewCtx(&env.Cfg)
			if !eng.BeginCycle(gcCtx) {
				b.Fatal("no epoch")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				store.Get(ctx, uint64(i)%2000)
			}
			b.StopTimer()
			b.ReportMetric(float64(ctx.Clock.Cycles(sim.CatCheckLookup))/float64(b.N), "chk-cyc/op")
		})
	}
}

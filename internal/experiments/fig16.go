package experiments

import (
	"fmt"
	"strings"

	"ffccd/internal/alloc"
	"ffccd/internal/mesh"
	"ffccd/internal/obsv"
	"ffccd/internal/redisws"
	"ffccd/internal/sim"
	"ffccd/internal/workpool"
)

// Fig16Variant is one scheme's Redis run.
type Fig16Variant struct {
	Name          string
	Samples       []redisws.Sample
	FinalFragR    float64
	FragReduction float64 // vs the PMDK baseline, eq. 1
	P90, P95, P99 float64 // op latency percentiles (cycles)
	P999          float64
	MaxPause      float64
}

// Fig16Result is the whole case study.
type Fig16Result struct {
	Variants []Fig16Variant
}

// Figure16 reproduces the §7.4 Redis case study: memory footprint over time
// and tail latency for the PMDK baseline, FFCCD (concurrent), a
// stop-the-world compactor (jemalloc-style) and Mesh. Each scheme runs the
// closed-loop driver (redisws.Run) on its serving machine and hooks
// (redisws.NewMachine), so FFCCD's epochs overlap the application's
// operations. Mesh is no serving scheme: it runs on a "none" machine whose
// maintenance point meshes frames and whose footprint is the physical one.
func Figure16(scale float64) (Fig16Result, error) {
	// The run's regime (redisws.RegimeConfig): LRU expiry near the cap and a
	// value-size drift halfway through — the long-running-cache regime in
	// which Redis fragments (§7.4).
	keys := max(int(1_000_000*scale*20), 2000)
	res := Fig16Result{Variants: make([]Fig16Variant, len(redisws.Schemes)+1)}
	// Every scheme drives its own simulated machine; fan them out. Mesh's
	// is the last.
	err := workpool.ForEach(len(res.Variants), func(i int) error {
		scheme := "none"
		if i < len(redisws.Schemes) {
			scheme = redisws.Schemes[i]
		}
		m, err := redisws.NewMachine(sim.DefaultConfig(), scheme, "bench", keys, 32<<20)
		if err != nil {
			return err
		}
		defer func() {
			if m.Eng != nil {
				m.Eng.Close()
			}
			m.Release()
		}()
		name := servingNames[scheme]
		if i == len(redisws.Schemes) {
			name = "Mesh"
			d := mesh.New(m.Pool)
			m.Hooks.Maintenance = func(uint64) uint64 {
				before := m.GC.Clock.Total()
				d.RunCycle(m.GC)
				return m.GC.Clock.Total() - before // meshing pauses the world
			}
			m.Hooks.Foot = func() alloc.FragStats { return d.PhysFrag(12) }
		}
		sh := m.Shard()
		out, err := redisws.Run(sh.Ctx, sh.Pool, sh.Store, keys, sh.Hooks)
		if err != nil {
			return err
		}
		res.Variants[i] = Fig16Variant{
			Name:       name,
			Samples:    out.Samples,
			FinalFragR: out.Final.FragRatio,
			P90:        out.Lat.Percentile(90),
			P95:        out.Lat.Percentile(95),
			P99:        out.Lat.Percentile(99),
			P999:       out.Lat.Percentile(99.9),
			MaxPause:   out.Lat.Max(),
		}
		return nil
	})
	if err != nil {
		return Fig16Result{}, err
	}
	// Fragmentation reduction vs baseline.
	base := res.Variants[0]
	baseFoot := float64(base.Samples[len(base.Samples)-1].Footprint)
	baseLive := float64(base.Samples[len(base.Samples)-1].Live)
	for i := range res.Variants[1:] {
		v := &res.Variants[i+1]
		foot := float64(v.Samples[len(v.Samples)-1].Footprint)
		if denom := baseFoot - baseLive; denom > 0 {
			v.FragReduction = (baseFoot - foot) / denom * 100
		}
	}
	return res, nil
}

func (r Fig16Result) String() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 16 — Redis case study: footprint over time and tail latency")
	t := obsv.NewTable("variant", "final fragR", "frag-red(%)", "p90(cyc)", "p95(cyc)", "p99(cyc)", "p999(cyc)", "max(cyc)")
	for _, v := range r.Variants {
		t.Add(v.Name, v.FinalFragR, v.FragReduction, v.P90, v.P95, v.P99, v.P999, v.MaxPause)
	}
	b.WriteString(t.String())
	fmt.Fprintln(&b, "\nfootprint series (MB at sampled ops):")
	cols := []string{"op"}
	for _, v := range r.Variants {
		cols = append(cols, v.Name)
	}
	st := obsv.NewTable(cols...)
	if len(r.Variants) > 0 {
		n := len(r.Variants[0].Samples)
		step := max(n/20, 1)
		for i := 0; i < n; i += step {
			cells := []any{r.Variants[0].Samples[i].Op}
			for _, v := range r.Variants {
				if i < len(v.Samples) {
					cells = append(cells, float64(v.Samples[i].Footprint)/(1<<20))
				} else {
					cells = append(cells, "-")
				}
			}
			st.Add(cells...)
		}
	}
	b.WriteString(st.String())
	return b.String()
}

// CSV renders the footprint-over-time series as comma-separated values
// (op, then one column per variant, in MB) — plot-ready Figure 16 data.
func (r Fig16Result) CSV() string {
	var b strings.Builder
	b.WriteString("op")
	for _, v := range r.Variants {
		b.WriteString(",")
		b.WriteString(v.Name)
	}
	b.WriteString("\n")
	if len(r.Variants) == 0 {
		return b.String()
	}
	for i := range r.Variants[0].Samples {
		fmt.Fprintf(&b, "%d", r.Variants[0].Samples[i].Op)
		for _, v := range r.Variants {
			if i < len(v.Samples) {
				fmt.Fprintf(&b, ",%.4f", float64(v.Samples[i].Footprint)/(1<<20))
			} else {
				b.WriteString(",")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

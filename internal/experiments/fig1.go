package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"ffccd/internal/core"
	"ffccd/internal/kv"
	"ffccd/internal/machine"
	"ffccd/internal/obsv"
	"ffccd/internal/sim"
)

// Fig1Run is one run of the Figure 1 experiment.
type Fig1Run struct {
	Run           int
	FragR         float64
	ThroughputRel float64 // normalised to run 1 = 100
}

// Fig1Result holds the Figure 1 series per page configuration.
type Fig1Result struct {
	Series map[string][]Fig1Run // "4KB" and "2MB(scaled)"
}

// Figure1 reproduces Fig. 1: PM fragmentation worsens across three
// consecutive runs of Echo without defragmentation — the fragmentation ratio
// grows and throughput declines. The paper's 2 MB huge pages are represented
// by a scaled page size (64 KB) so the pages-per-live-data ratio matches the
// scaled-down workload; see EXPERIMENTS.md.
func Figure1(scale float64) (Fig1Result, error) {
	res := Fig1Result{Series: map[string][]Fig1Run{}}
	configs := []struct {
		name  string
		shift uint
	}{{"4KB", 12}, {"2MB(scaled)", 16}}
	series := make([][]Fig1Run, len(configs))
	// The three runs of one page config share a device and must stay
	// sequential; the two page configs are independent machines.
	err := parallelFor(len(configs), func(i int) error {
		runs, err := figure1Runs(scale, configs[i].shift)
		series[i] = runs
		return err
	})
	if err != nil {
		return res, err
	}
	for i, pc := range configs {
		res.Series[pc.name] = series[i]
	}
	return res, nil
}

func figure1Runs(scale float64, pageShift uint) ([]Fig1Run, error) {
	n := int(5_000_000 * scale)
	if n < 1000 {
		n = 1000
	}
	churnOps := n * 4 / 5 // the paper churns 4M of 5M objects per run

	// Figure 1 measures the throughput cost of a bloated footprint on real
	// Optane, where TLB misses trigger page-table walks in PM; the pure
	// Table 2 penalty (60 cycles) models only the simulator's TLB. Charge
	// the walk's PM read here (see EXPERIMENTS.md).
	cfg := sim.DefaultConfig()
	cfg.TLBWalkPenaltyExtra = cfg.PMReadLatency
	m, err := machine.Build(machine.Spec{Name: "bench", PoolBytes: uint64(n)*512*4 + (16 << 20), PageShift: pageShift, Sim: cfg})
	if err != nil {
		return nil, err
	}
	defer m.Release()

	// Persistent driver state across runs (the application's own knowledge).
	rng := rand.New(rand.NewSource(7))
	var live []uint64
	nextKey := uint64(0)
	val := func(k uint64) []byte {
		// WHISPER's Echo stores variable-sized values; mismatched hole sizes
		// are what make fragmentation accumulate across runs.
		b := make([]byte, 64+int(k*37%160))
		for i := range b {
			b[i] = byte(k) + byte(i)
		}
		return b
	}

	var out []Fig1Run
	for run := 1; run <= 3; run++ {
		if run > 1 {
			// A later run is a fresh process on the same device: reopen the
			// pool, then a clean recovery rebuilds the allocator (no
			// defragmentation).
			if err := m.Reopen(); err != nil {
				return nil, err
			}
			m.Ctx = sim.NewCtx(&m.Cfg)
			eng, err := core.Recover(m.Ctx, m.Pool, core.Options{Scheme: core.SchemeNone})
			if err != nil {
				return nil, err
			}
			eng.Close()
		}
		ctx, pool := m.Ctx, m.Pool // this run's
		store, err := kv.NewEcho(ctx, pool, n/4+64)
		if err != nil {
			return nil, err
		}

		ops := 0
		var footSum, liveSum float64
		sample := func() {
			st := pool.Heap().Frag(pageShift)
			footSum += float64(st.FootprintBytes)
			liveSum += float64(st.LiveBytes)
		}
		insert := func() error {
			k := nextKey
			nextKey++
			if err := store.Insert(ctx, k, val(k)); err != nil {
				return err
			}
			live = append(live, k)
			ops++
			return nil
		}
		remove := func() error {
			if len(live) == 0 {
				return nil
			}
			i := rng.Intn(len(live))
			k := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			if _, err := store.Delete(ctx, k); err != nil {
				return err
			}
			ops++
			return nil
		}

		if run == 1 {
			// Initial population is setup, not measured (it has a different
			// op mix from the steady-state churn the figure compares).
			for i := 0; i < n; i++ {
				if err := insert(); err != nil {
					return nil, err
				}
			}
			ops = 0
		}
		// Measured churn: delete then reinsert — each run inherits and
		// worsens the previous run's fragmentation.
		start := ctx.Clock.Total()
		for i := 0; i < churnOps; i++ {
			if err := remove(); err != nil {
				return nil, err
			}
			if i%500 == 0 {
				sample()
			}
		}
		for i := 0; i < churnOps; i++ {
			if err := insert(); err != nil {
				return nil, err
			}
			if i%500 == 0 {
				sample()
			}
		}
		sample()

		cycles := ctx.Clock.Total() - start
		thr := float64(ops) / float64(cycles)
		out = append(out, Fig1Run{Run: run, FragR: footSum / liveSum, ThroughputRel: thr})

		// Clean shutdown persists everything for the next run.
		m.Device().FlushAll(ctx)
	}
	// Normalise throughput to run 1 = 100.
	base := out[0].ThroughputRel
	for i := range out {
		out[i].ThroughputRel = out[i].ThroughputRel / base * 100
	}
	return out, nil
}

func (r Fig1Result) String() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 1 — PM fragmentation across runs of Echo (no defragmentation)")
	for _, name := range []string{"4KB", "2MB(scaled)"} {
		t := obsv.NewTable("pages", "run", "fragR", "throughput(%)")
		for _, r := range r.Series[name] {
			t.Add(name, r.Run, r.FragR, r.ThroughputRel)
		}
		b.WriteString(t.String())
	}
	return b.String()
}

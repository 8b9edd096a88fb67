package ffccd

// BenchmarkReadBarrier is the one Go benchmark at the module root: the raw
// D_RW resolve cost during an open epoch, which no experiment reports on its
// own. The paper's tables, figures and ablations run through
// `ffccd-bench -experiment <id>`, the §7.1 crash campaign through
// ffccd-crashtest.
//
//	go test -run '^$' -bench ReadBarrier -benchmem

import (
	"testing"

	"ffccd/internal/core"
	"ffccd/internal/experiments"
	"ffccd/internal/sim"
	"ffccd/internal/workload"
)

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

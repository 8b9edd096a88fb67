// Package workload generates the paper's evaluation workloads (§6): each
// benchmark is initialised with N insertions of 128-byte values, then runs
// three phases — delete, insert, delete — representing application memory
// decreasing and increasing stages. Sizes are scaled down from the paper's
// 5M/4M via the Scale factor so the simulated machine finishes in reasonable
// time; fragmentation ratios are scale-invariant (see DESIGN.md).
package workload

import (
	"fmt"

	"ffccd/internal/alloc"
	"ffccd/internal/ds"
	"ffccd/internal/pmop"
	"ffccd/internal/sim"
)

const valueSize = 128 // bytes per value before jitter, as in the paper

// Config parameterises a run.
type Config struct {
	InitInserts int    // paper: 5,000,000
	PhaseOps    int    // paper: 4,000,000
	ValueJitter int    // ± bytes of size variation (string-swap style); 0 = fixed
	KeyCap      uint64 // >0 bounds the key space (slot-addressed stores)
	KeyBase     uint64 // added to every key: disjoint ranges for threads
	Seed        int64
	// SampleEvery controls footprint sampling (ops between samples).
	SampleEvery int
	// PreSample, when set, runs at every sample point before the footprint
	// is read — the place a harness completes an in-flight defragmentation
	// epoch so samples see quiesced state.
	PreSample func()
	// Maintenance, when set, is invoked at every sample point after the
	// footprint is read — the place a harness runs/starts synchronous
	// defragmentation, mirroring the §5 pmalloc/pfree trigger
	// deterministically.
	Maintenance func()
}

// DefaultConfig returns the paper's shape scaled by 1/250 (5M → 20k).
func DefaultConfig() Config {
	return Config{
		InitInserts: 20000,
		PhaseOps:    16000,
		Seed:        1,
		SampleEvery: 500,
	}
}

// Scaled returns DefaultConfig with both sizes multiplied by f.
func Scaled(f float64) Config {
	c := DefaultConfig()
	c.InitInserts = int(float64(c.InitInserts) * f)
	c.PhaseOps = int(float64(c.PhaseOps) * f)
	return c
}

// PhaseResult reports one phase of a run.
type PhaseResult struct {
	Name         string
	Ops          int
	Cycles       uint64 // application cycles spent in the phase
	AvgFootprint float64
	AvgLive      float64
	End          alloc.FragStats
}

// AvgFragRatio is the phase's mean footprint over mean live size.
func (r PhaseResult) AvgFragRatio() float64 {
	if r.AvgLive == 0 {
		return 0
	}
	return r.AvgFootprint / r.AvgLive
}

// Result is a whole run.
type Result struct {
	Phases []PhaseResult
	// Aggregates over the post-init phases (what Table 3/4 report).
	AvgFootprint float64
	AvgLive      float64
	TotalOps     int
	TotalCycles  uint64
}

// AvgFragRatio over the measured phases.
func (r Result) AvgFragRatio() float64 {
	if r.AvgLive == 0 {
		return 0
	}
	return r.AvgFootprint / r.AvgLive
}

// Run drives the §6 workload against a store. The engine (if any) runs via
// its own triggers; Run only measures. It is a closed-loop convenience over
// Runner, which exposes the same execution as a suspendable state machine.
func Run(ctx *sim.Ctx, p *pmop.Pool, s ds.Store, cfg Config) (Result, error) {
	r := NewRunner(ctx, p, s, cfg)
	res, finished, err := r.Run()
	if err != nil {
		return Result{}, err
	}
	if !finished {
		return Result{}, fmt.Errorf("workload: run suspended without completing")
	}
	return res, nil
}

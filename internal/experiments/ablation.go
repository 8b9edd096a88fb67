package experiments

import (
	"fmt"
	"strings"

	"ffccd/internal/core"
	"ffccd/internal/ds"
	"ffccd/internal/machine"
	"ffccd/internal/obsv"
	"ffccd/internal/sim"
	"ffccd/internal/workload"
	"ffccd/internal/workpool"
)

// AblationRBBRow is one RBB-size data point.
type AblationRBBRow struct {
	Entries    int
	Hits       uint64
	Misses     uint64
	Writebacks uint64
	GCCycles   uint64
}

// AblationRBBResult sweeps the Reached Bitmap Buffer size (DESIGN.md §4
// ablation: reached-bitmap write-back traffic vs buffer capacity).
type AblationRBBResult struct{ Rows []AblationRBBRow }

// AblationRBB runs the LL workload under FFCCD with varying RBB entry
// counts, reporting the buffer's hit/miss/write-back behaviour.
func AblationRBB(scale float64, sizes []int) (AblationRBBResult, error) {
	var res AblationRBBResult
	rows := make([]AblationRBBRow, len(sizes))
	err := workpool.ForEach(len(sizes), func(i int) error {
		entries := sizes[i]
		wl := workload.Scaled(scale / DefaultScale)
		wl.Seed = 21

		cfg := sim.DefaultConfig()
		cfg.RBBEntries = entries
		m, err := machine.Build(machine.Spec{Name: "ablation", PoolBytes: poolSizeFor(wl), PageShift: 12, Sim: cfg})
		if err != nil {
			return err
		}
		defer m.Release()
		ctx, p := m.Ctx, m.Pool
		store, err := ds.NewList(ctx, p)
		if err != nil {
			return err
		}
		tr, tg := core.NormalParams()
		eng := m.NewEngine(core.Options{Scheme: core.SchemeFFCCD, TriggerRatio: tr, TargetRatio: tg})
		gcCtx := sim.NewCtx(&m.Cfg)
		wl.Maintenance = func() {
			if eng.Triggered() {
				eng.RunCycle(gcCtx)
			}
		}
		if _, err := workload.Run(ctx, p, store, wl); err != nil {
			return err
		}
		rbb := eng.RBB()
		row := AblationRBBRow{Entries: entries, GCCycles: gcCtx.Clock.GCTotal()}
		if rbb != nil {
			row.Hits, row.Misses, row.Writebacks = rbb.Hits, rbb.Misses, rbb.Writebacks
		}
		eng.Close()
		rows[i] = row
		return nil
	})
	if err != nil {
		return res, err
	}
	res.Rows = rows
	return res, nil
}

func (r AblationRBBResult) String() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Ablation — Reached Bitmap Buffer size (LL workload, FFCCD)")
	t := obsv.NewTable("RBB entries", "hits", "misses", "writebacks", "gc cycles")
	for _, row := range r.Rows {
		t.Add(row.Entries, row.Hits, row.Misses, row.Writebacks, row.GCCycles)
	}
	b.WriteString(t.String())
	return b.String()
}

// llGrid runs the LL workload at seed under each of schemes with the Normal
// parameters on 4 KB pages through the fork driver (RunSpecsForked) and
// returns the outcomes in scheme order.
func llGrid(scale float64, seed int64, schemes []core.Scheme) ([]Outcome, error) {
	specs := make([]Spec, len(schemes))
	for i, scheme := range schemes {
		specs[i] = Spec{Store: "LL", Threads: 1, Scheme: scheme, Scale: scale, PageShift: 12, Seed: seed}
		specs[i].Trigger, specs[i].Target = core.NormalParams()
	}
	return RunSpecsForked(specs)
}

// AblationPMFTRow compares forwarding-lookup models.
type AblationPMFTRow struct {
	Model          string
	CyclesPerCheck float64
	SpacePct       float64 // persistent space over relocation-page size
}

// AblationPMFTResult compares the PMFT (major+minor distance, hardware-
// friendly) against a hashed forwarding table model (§4.3.1's discarded
// alternative) on check+lookup cost per barrier event.
type AblationPMFTResult struct{ Rows []AblationPMFTRow }

// AblationPMFT measures the check+lookup cycles per D_RW during compaction
// for the software PMFT walk (FFCCD), the hardware checklookup
// (FFCCD+BFC/PMFTLB), and an Espresso-style table, on the LL workload.
func AblationPMFT(scale float64) (AblationPMFTResult, error) {
	var res AblationPMFTResult
	models := []struct {
		name   string
		scheme core.Scheme
		space  float64
	}{
		{"software table walk (Espresso-style)", core.SchemeEspresso, 3.2},
		{"PMFT, software walk (FFCCD)", core.SchemeFFCCD, 6.32},
		{"PMFT + BFC/PMFTLB (checklookup)", core.SchemeFFCCDCheckLookup, 6.32},
	}
	schemes := make([]core.Scheme, len(models))
	for i, m := range models {
		schemes[i] = m.scheme
	}
	outs, err := llGrid(scale, 31, schemes)
	if err != nil {
		return res, err
	}
	for i, m := range models {
		out := outs[i]
		// Normalise check+lookup cycles per application operation.
		per := float64(out.Cycles[sim.CatCheckLookup]) / float64(out.TotalOps)
		res.Rows = append(res.Rows, AblationPMFTRow{Model: m.name, CyclesPerCheck: per, SpacePct: m.space})
	}
	return res, nil
}

func (r AblationPMFTResult) String() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Ablation — forwarding-table design (check+lookup cost per op)")
	t := obsv.NewTable("model", "cycles/op", "space (% of reloc pages)")
	for _, row := range r.Rows {
		t.Add(row.Model, row.CyclesPerCheck, row.SpacePct)
	}
	b.WriteString(t.String())
	return b.String()
}

// AblationWritesRow is one scheme's PM traffic.
type AblationWritesRow struct {
	Scheme        core.Scheme
	MediaWrites   uint64 // lines written to PM media
	Clwbs         uint64
	Sfences       uint64
	ObjectsMoved  uint64
	WritesPerMove float64
}

// AblationWritesResult compares persistent-memory write traffic across the
// schemes — the §3.3.3 endurance argument: the fence-free design "incurs
// fewer PM writes (good for performance and write endurance) while the
// cacheline remains available in the cache for future reuse".
type AblationWritesResult struct {
	Baseline AblationWritesRow // SchemeNone traffic for reference
	Rows     []AblationWritesRow
}

// AblationWrites measures device write traffic for the LL workload under
// every scheme.
func AblationWrites(scale float64) (AblationWritesResult, error) {
	var res AblationWritesResult
	schemes := []core.Scheme{core.SchemeNone, core.SchemeEspresso, core.SchemeSFCCD,
		core.SchemeFFCCD, core.SchemeFFCCDCheckLookup}
	outs, err := llGrid(scale, 41, schemes)
	if err != nil {
		return res, err
	}
	for i, scheme := range schemes {
		out := outs[i]
		row := AblationWritesRow{
			Scheme:       scheme,
			MediaWrites:  out.Device.MediaWrites,
			Clwbs:        out.Device.Clwbs,
			Sfences:      out.Device.Sfences,
			ObjectsMoved: out.Engine.ObjectsMoved,
		}
		if row.ObjectsMoved > 0 {
			row.WritesPerMove = float64(row.MediaWrites-res.Baseline.MediaWrites) / float64(row.ObjectsMoved)
		}
		if scheme == core.SchemeNone {
			res.Baseline = row
			continue
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func (r AblationWritesResult) String() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Ablation — PM write traffic per scheme (LL workload)")
	t := obsv.NewTable("scheme", "media writes", "clwbs", "sfences", "objects moved", "extra writes/move")
	t.Add("baseline (no GC)", r.Baseline.MediaWrites, r.Baseline.Clwbs, r.Baseline.Sfences, "-", "-")
	for _, row := range r.Rows {
		t.Add(row.Scheme.String(), row.MediaWrites, row.Clwbs, row.Sfences, row.ObjectsMoved, row.WritesPerMove)
	}
	b.WriteString(t.String())
	return b.String()
}

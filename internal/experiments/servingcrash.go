package experiments

import (
	"fmt"
	"strings"

	"ffccd/internal/faultinject"
	"ffccd/internal/obsv"
	"ffccd/internal/redisws"
	"ffccd/internal/workpool"
)

// ServingCrashOptions parameterizes the serving-availability grid: one
// mid-run power failure per scheme, with the full online
// crash-recovery-resume loop (durable-ack validation, degraded-mode
// admission, retry/backoff) and the post-recovery tail measured. Every run
// has the crash campaign's default trial volume (faultinject.DefaultServe*)
// and seed 7, and crashes shard 0 in the middle of its site census.
type ServingCrashOptions struct {
	Schemes []string // subset of faultinject.ServeSchemes; nil = all

	// Shards runs each variant as a sharded deployment (1 = unsharded);
	// the crash blacks out shard 0 while its siblings keep serving, so the
	// grid also measures partial availability.
	Shards int
}

// The grid's fixed trial: its seed, and a window width that gives ~64
// windows over the run — enough rows to see the blackout gap and the ramp
// without drowning the timeline.
const (
	servingCrashSeed   = 7
	servingCrashWindow = faultinject.DefaultServeOps * 256
)

// ServingCrashVariant is one scheme's crash-availability measurement.
type ServingCrashVariant struct {
	Name       string
	SitesTotal uint64 // census sites in the dispatch phase
	Site       int64  // armed site index
	CrashClass string // site class the crash fired in

	// Availability metrics, all in simulated cycles of the serving run's
	// virtual-time domain.
	CrashCycle     uint64
	ResumeCycle    uint64
	BlackoutCycles uint64
	// RecoveryCycles is core.Recover's part of the blackout; the rest is
	// reopening the pool (Mesh's remap table included) and the store.
	RecoveryCycles uint64
	TimeToFirstAck uint64
	// RampCycles is the post-recovery p999 ramp: cycles from resume until the
	// first window whose p999 is back within 2x the pre-crash median window
	// p999 (the full remaining tail if it never requalifies; 0 when no
	// window completed before the crash, so there is no baseline).
	// RampWindows counts the windows the ramp spans.
	RampCycles  uint64
	RampWindows int

	Retries  int // lost or rejected requests rescheduled with backoff
	Rejects  int // admission-queue rejections during the blackout
	Admitted int // requests parked in the bounded admission queue

	P999      float64 // whole-run p999 (crash included)
	SimCycles uint64

	// Series is the run's windowed time series with recovery/backoff overlay
	// intervals. For a sharded variant it is the deterministic merge and
	// ShardSeries carries the per-shard lanes.
	Series      *obsv.TimeSeries
	ShardSeries []*obsv.TimeSeries

	// Sharded-deployment fields (zero when Shards <= 1). SiblingOps counts
	// the completions sibling shards served inside the crashed shard's
	// blackout — the partial-availability measurement a sharded deployment
	// buys.
	Shards     int
	SiblingOps uint64
}

// ServingCrashResult is the whole grid.
type ServingCrashResult struct {
	Clients  int
	Ops      int
	Variants []ServingCrashVariant
}

// ServingCrash runs the availability grid: per scheme, a census pass counts
// the dispatch phase's crash sites, then an armed pass fires a power failure
// at the middle of the census and measures the blackout, time-to-first-ack,
// degraded-mode admission and the post-recovery p999 ramp.
func ServingCrash(o ServingCrashOptions) (ServingCrashResult, error) {
	if len(o.Schemes) == 0 {
		o.Schemes = faultinject.ServeSchemes
	}
	res := ServingCrashResult{Clients: faultinject.DefaultServeClients, Ops: faultinject.DefaultServeOps}
	if _, err := redisws.ShardKeys(faultinject.DefaultServeKeys, o.Shards); err != nil {
		return res, err
	}
	outs := make([]ServingCrashVariant, len(o.Schemes))
	err := workpool.ForEach(len(o.Schemes), func(i int) error {
		v, err := runServingCrashVariant(o.Schemes[i], o)
		outs[i] = v
		return err
	})
	if err != nil {
		return res, err
	}
	res.Variants = outs
	return res, nil
}

func runServingCrashVariant(scheme string, o ServingCrashOptions) (ServingCrashVariant, error) {
	base := faultinject.NewRepro(faultinject.Setting{Serve: scheme, Shards: o.Shards}, servingCrashSeed).(faultinject.ServeRepro)

	census, err := base.Run(faultinject.TrialOptions{})
	if err != nil {
		return ServingCrashVariant{}, fmt.Errorf("experiments.ServingCrash: %s census: %w", scheme, err)
	}
	// The armed site indexes the crash-target shard's own site space, which
	// for a sharded deployment is that shard's census, not the sum.
	total := census.Census.Total
	if o.Shards > 1 {
		total = census.ShardCensus[0].Total
	}
	if total == 0 {
		return ServingCrashVariant{}, fmt.Errorf("experiments.ServingCrash: %s: no crash sites in dispatch phase", scheme)
	}

	armed := base
	armed.Site = int64(total / 2)
	shardSeries := make([]*obsv.TimeSeries, o.Shards)
	for i := range shardSeries {
		shardSeries[i] = obsv.NewTimeSeries(scheme, servingCrashWindow, 0)
	}
	out, err := armed.Run(faultinject.TrialOptions{
		Series: func(_ faultinject.ServeRepro, shard int) *obsv.TimeSeries { return shardSeries[shard] },
	})
	if err != nil {
		return ServingCrashVariant{}, fmt.Errorf("experiments.ServingCrash: %s armed trial: %w\n  repro: %s",
			scheme, err, armed.Command())
	}
	if out.Crash == nil {
		return ServingCrashVariant{}, fmt.Errorf("experiments.ServingCrash: %s: armed site %d did not fire", scheme, armed.Site)
	}
	series := shardSeries[0]
	if o.Shards > 1 {
		if series, err = redisws.MergeShardSeries(scheme, servingCrashWindow, 0, shardSeries); err != nil {
			return ServingCrashVariant{}, fmt.Errorf("experiments.ServingCrash: %s: %w", scheme, err)
		}
	} else {
		shardSeries = nil
	}

	sv := out.Serve
	v := ServingCrashVariant{
		Name:           scheme,
		SitesTotal:     total,
		Site:           armed.Site,
		CrashClass:     out.Crash.Class.String(),
		CrashCycle:     sv.CrashCycle,
		ResumeCycle:    sv.ResumeCycle,
		BlackoutCycles: sv.BlackoutCycles,
		RecoveryCycles: out.RecoveryCycles,
		TimeToFirstAck: sv.TimeToFirstAck,
		Retries:        sv.Retries,
		Rejects:        sv.Rejects,
		Admitted:       sv.Admitted,
		P999:           sv.Lat.Percentile(99.9),
		SimCycles:      sv.SimCycles,
		Series:         series,
		ShardSeries:    shardSeries,
		Shards:         o.Shards,
	}
	if o.Shards > 1 {
		v.SiblingOps = siblingOpsInBlackout(shardSeries, sv.CrashCycle, sv.ResumeCycle)
	}
	if v.Series != nil {
		v.RampCycles, v.RampWindows = p999Ramp(v.Series.Windows(), sv.CrashCycle, sv.ResumeCycle)
	}
	return v, nil
}

// siblingOpsInBlackout counts the completions the non-crashed shards (all but
// shard 0) served in windows overlapping [crash, resume) — the work the
// deployment kept doing while one machine was dark.
func siblingOpsInBlackout(shardSeries []*obsv.TimeSeries, crash, resume uint64) uint64 {
	var ops uint64
	for _, ts := range shardSeries[1:] {
		for _, w := range ts.Windows() {
			if w.Start < resume && w.End > crash {
				ops += w.Count
			}
		}
	}
	return ops
}

// p999Ramp measures how long the tail stays degraded after a resume: the
// cycles from resume until the end of the first window at-or-after resume
// whose p999 is within 2x the median p999 of the fully-pre-crash windows.
// Returns the cycles and the number of windows the ramp spans; if no window
// requalifies, the ramp runs to the last window's end.
func p999Ramp(wins []obsv.WindowSnap, crash, resume uint64) (uint64, int) {
	var pre []uint64
	for _, w := range wins {
		if w.End <= crash && w.Count > 0 {
			pre = append(pre, w.P999)
		}
	}
	if len(pre) == 0 {
		return 0, 0
	}
	// wins is sorted by window index; median of the pre-crash p999s.
	sorted := append([]uint64(nil), pre...)
	for i := 1; i < len(sorted); i++ { // insertion sort: short slice
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	baseline := sorted[len(sorted)/2]
	threshold := 2 * baseline

	ramp, n := uint64(0), 0
	seen := false
	for _, w := range wins {
		if w.End <= resume || w.Count == 0 {
			continue
		}
		seen = true
		n++
		ramp = w.End - resume
		if w.P999 <= threshold {
			return ramp, n
		}
	}
	if !seen {
		return 0, 0
	}
	return ramp, n
}

func (r ServingCrashResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ServingCrash — availability under one mid-run power failure: %d clients, %d ops\n",
		r.Clients, r.Ops)
	t := obsv.NewTable("scheme", "sites", "site", "class", "blackout(cyc)", "recovery(cyc)",
		"ttfa(cyc)", "ramp(cyc)", "retries", "rejects", "admitted", "p999(cyc)")
	for _, v := range r.Variants {
		t.Add(v.Name, v.SitesTotal, v.Site, v.CrashClass, v.BlackoutCycles, v.RecoveryCycles,
			v.TimeToFirstAck, v.RampCycles, v.Retries, v.Rejects, v.Admitted, v.P999)
	}
	b.WriteString(t.String())
	for _, v := range r.Variants {
		if v.Shards > 1 {
			fmt.Fprintf(&b, "%s: %d shards, crash on shard 0; siblings served %d ops during the blackout\n",
				v.Name, v.Shards, v.SiblingOps)
		}
	}
	for _, v := range r.Variants {
		if v.Series == nil || v.Series.Count() == 0 {
			continue
		}
		writeShardLanes(&b, v.Name, v.ShardSeries)
		fmt.Fprintf(&b, "\nper-window p999 — %s (crash@%d, resume@%d):\n", v.Name, v.CrashCycle, v.ResumeCycle)
		b.WriteString(obsv.RenderTimeline(v.Series, 40))
	}
	return b.String()
}

// Metrics flattens the grid for benchmark records.
func (r ServingCrashResult) Metrics() map[string]float64 {
	m := map[string]float64{
		"servingcrash.clients": float64(r.Clients),
		"servingcrash.ops":     float64(r.Ops),
	}
	var total uint64
	for _, v := range r.Variants {
		k := "servingcrash." + v.Name + "."
		m[k+"sites_total"] = float64(v.SitesTotal)
		m[k+"blackout_cycles"] = float64(v.BlackoutCycles)
		m[k+"recovery_cycles"] = float64(v.RecoveryCycles)
		m[k+"time_to_first_ack_cycles"] = float64(v.TimeToFirstAck)
		m[k+"ramp_cycles"] = float64(v.RampCycles)
		m[k+"ramp_windows"] = float64(v.RampWindows)
		m[k+"retries"] = float64(v.Retries)
		m[k+"rejects"] = float64(v.Rejects)
		m[k+"admitted"] = float64(v.Admitted)
		m[k+"p999_cycles"] = v.P999
		m[k+"sim_cycles"] = float64(v.SimCycles)
		if v.Shards > 1 {
			m["servingcrash.shards"] = float64(v.Shards)
			m[k+"sibling_ops_in_blackout"] = float64(v.SiblingOps)
		}
		total += v.SimCycles
	}
	m["sim_cycles_total"] = float64(total)
	return m
}

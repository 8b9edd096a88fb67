package experiments

import (
	"fmt"
	"strings"

	"ffccd/internal/obsv"
	"ffccd/internal/redisws"
	"ffccd/internal/sim"
	"ffccd/internal/workpool"
)

// ServingOptions parameterizes the serving grid. Zero values of Scale,
// Clients, Ops, Keyspace, Seed and Schemes select paper-regime defaults
// scaled by Scale (the same knob every other experiment uses; 1.0 is the
// paper's full setup). Shards has no default: a count under 1 is
// redisws.ErrShards. The offered load is always auto-calibrated, so every
// scheme lands on the same rate.
type ServingOptions struct {
	Scale    float64
	Clients  int
	Ops      int
	Keyspace int
	Seed     int64
	Schemes  []string // subset of redisws.Schemes; nil = all

	// Shards is the number of independent simulated machines the keyspace is
	// hash-partitioned across (1 = one machine, the pre-sharding setup; every
	// shard must own a key — redisws.ShardKeys). Each shard gets its own
	// device, heap, clock domain, scheme engine, and RNG stream; shards run
	// host-parallel as workpool jobs and their results merge
	// deterministically (see internal/redisws/shard.go).
	Shards int
}

// ServingVariant is one scheme's serving run.
type ServingVariant struct {
	Name       string
	Scheme     string  // the redisws.Schemes key Name displays
	P50        float64 // per-op latency percentiles, simulated cycles
	P99        float64
	P999       float64
	Max        float64
	MeanApp    float64 // decomposition: the op's own work…
	MeanInterf float64 // …barrier/checklookup interference…
	MeanStall  float64 // …STW-pause wait…
	MeanQueue  float64 // …and open-loop queueing behind the connection.
	HitRate    float64
	FinalFragR float64
	SimCycles  uint64 // loader + clients + defrag thread
	Parallel   int    // ops executed in conflict-free batches
	Serial     int
	Batches    int
	Evictions  int

	// Series is the run's windowed time series (per-window SLO metrics,
	// worst-request exemplars, GC overlay intervals). In a sharded run this
	// is the deterministic merge of the per-shard series.
	Series *obsv.TimeSeries

	// Shards is the machine count this variant ran on; PerShard and
	// ShardSeries carry the per-machine rows (nil when Shards <= 1).
	Shards      int
	PerShard    []ServingShard
	ShardSeries []*obsv.TimeSeries
}

// ServingShard is one machine's row of a sharded serving variant.
type ServingShard struct {
	Shard     int
	Ops       int
	P50       float64
	P999      float64
	Rate      float64
	SimCycles uint64
	Parallel  int
	Serial    int
	Evictions int
}

// ServingResult is the whole serving grid.
type ServingResult struct {
	Clients  int
	Ops      int
	Shards   int
	Rate     float64 // offered load (ops/sec), equal across schemes
	Variants []ServingVariant
}

// servingDefaults fills unset options from Scale.
func servingDefaults(o ServingOptions) ServingOptions {
	if o.Scale <= 0 {
		o.Scale = 0.002
	}
	if o.Keyspace <= 0 {
		o.Keyspace = max(int(1_000_000*o.Scale*20), 2000)
	}
	if o.Ops <= 0 {
		o.Ops = 6 * o.Keyspace
	}
	if o.Clients <= 0 {
		o.Clients = 32
	}
	if o.Seed == 0 {
		o.Seed = 7
	}
	if len(o.Schemes) == 0 {
		o.Schemes = redisws.Schemes
	}
	return o
}

// servingWindow is the time-series window width in simulated cycles. The
// run's virtual makespan grows roughly linearly with scale (ops ∝ keyspace ∝
// scale at a calibrated fixed utilization), so a proportional window keeps
// the timeline at a useful row count at any scale: 0.002 → 1M cycles
// (~0.4ms), capped at obsv.DefaultWindowCycles (50M) for paper-scale runs.
func servingWindow(scale float64) uint64 {
	w := uint64(scale * 500_000_000)
	return min(max(w, 250_000), obsv.DefaultWindowCycles)
}

// servingConfig is the serving grid's workload: the §7.4 regime under o's
// traffic.
func servingConfig(o ServingOptions) redisws.ServeConfig {
	cfg := redisws.RegimeConfig(o.Keyspace)
	cfg.Clients = o.Clients
	cfg.Ops = o.Ops
	cfg.Seed = o.Seed
	return cfg
}

// Serving runs the SLO grid: the same offered load against one machine per
// scheme, reporting per-op latency percentiles and their decomposition.
// This is the paper's §7.4 tail-latency story under open-loop load: STW
// pauses stall every in-flight and arriving op, so they surface at p999;
// FFCCD's short mark/summary pauses plus concurrent compaction trade that
// for small per-op barrier interference.
func Serving(o ServingOptions) (ServingResult, error) {
	o = servingDefaults(o)
	res := ServingResult{Clients: o.Clients, Ops: o.Ops, Shards: o.Shards}
	shardKeys, err := redisws.ShardKeys(o.Keyspace, o.Shards)
	if err != nil {
		return res, err
	}
	outs := make([]ServingVariant, len(o.Schemes))
	rates := make([]float64, len(o.Schemes))
	err = workpool.ForEach(len(o.Schemes), func(i int) error {
		v, rate, err := runServingVariant(o.Schemes[i], o, shardKeys)
		outs[i], rates[i] = v, rate
		return err
	})
	if err != nil {
		return res, err
	}
	res.Variants = outs
	res.Rate = rates[0]
	for _, r := range rates[1:] {
		if r != res.Rate {
			return res, fmt.Errorf("experiments.Serving: unequal offered load across schemes (%v vs %v)", res.Rate, r)
		}
	}
	return res, nil
}

// servingNames are the display names of the serving schemes, in the serving
// grid and in Figure 16.
var servingNames = map[string]string{
	"none": "PMDK (baseline)", "ffccd": "FFCCD", "stw": "STW defrag",
}

// newServingMachine builds one machine for scheme (redisws.NewMachine) with
// the grid's observability hookup. keys sizes the pool and store index (the
// machine's owned keyspace — the whole keyspace unsharded, the hash-owned
// subset per shard); shard/shards label the observability hookup. Every part
// is private to the machine's clock domain, so shards never share simulated
// state.
func newServingMachine(scheme string, o ServingOptions, keys, shard, shards int) (*redisws.Machine, error) {
	m, err := redisws.NewMachine(sim.DefaultConfig(), scheme, "bench", keys, 32<<20)
	if err != nil {
		return nil, fmt.Errorf("experiments.Serving: %w", err)
	}
	// The series label is the scheme on every shard; exemplar stall causes
	// carry the shard id, which the merge's total order uses.
	m.Hooks.Series = obsv.NewTimeSeries(scheme, servingWindow(o.Scale), 0)
	if col := obsCollector.Load(); col != nil {
		label := "serving/" + scheme
		if shards > 1 {
			label = fmt.Sprintf("serving/%s/s%d", scheme, shard)
		}
		ob := col.NewObs(label)
		ob.Series = m.Hooks.Series
		ob.Tracer.Name(m.Ctx, "loader")
		ob.Tracer.Name(m.GC, "gc")
		m.Device().SetObs(ob)
		if m.Eng != nil {
			m.Eng.SetObs(ob)
		}
		registerRunGroups(ob, m.Machine)
	}
	return m, nil
}

// runServingVariant runs scheme on one machine per entry of shardKeys (the
// keys each shard owns).
func runServingVariant(scheme string, o ServingOptions, shardKeys []int) (ServingVariant, float64, error) {
	n := len(shardKeys)
	cfgs := redisws.ShardConfigs(servingConfig(o), n)
	machines := make([]*redisws.Machine, 0, n)
	defer func() {
		for _, m := range machines {
			if m.Eng != nil {
				m.Eng.Close()
			}
			m.Release()
		}
	}()
	shards := make([]redisws.Shard, n)
	for i, keys := range shardKeys {
		m, err := newServingMachine(scheme, o, keys, i, n)
		if err != nil {
			return ServingVariant{}, 0, err
		}
		machines = append(machines, m)
		shards[i] = m.Shard()
	}

	sh, err := redisws.ServeSharded(shards, cfgs)
	if err != nil {
		return ServingVariant{}, 0, err
	}
	out := sh.Merged

	series := machines[0].Hooks.Series
	var shardSeries []*obsv.TimeSeries
	if n > 1 {
		shardSeries = make([]*obsv.TimeSeries, n)
		for i, m := range machines {
			shardSeries[i] = m.Hooks.Series
		}
		series, err = redisws.MergeShardSeries(scheme, servingWindow(o.Scale), 0, shardSeries)
		if err != nil {
			return ServingVariant{}, 0, err
		}
	}

	simTotal := out.SimCycles
	for _, m := range machines {
		simTotal += m.GC.Clock.Total()
	}

	nOps := float64(out.Ops)
	v := ServingVariant{
		Name:       servingNames[scheme],
		Scheme:     scheme,
		P50:        out.Lat.Percentile(50),
		P99:        out.Lat.Percentile(99),
		P999:       out.Lat.Percentile(99.9),
		Max:        out.Lat.Max(),
		MeanApp:    float64(out.AppCycles) / nOps,
		MeanInterf: float64(out.InterfCycles) / nOps,
		MeanStall:  float64(out.StallWaitCycles) / nOps,
		MeanQueue:  float64(out.QueueWaitCycles) / nOps,
		FinalFragR: out.Final.FragRatio,
		SimCycles:  simTotal,
		Parallel:   out.ParallelOps,
		Serial:     out.SerialOps,
		Batches:    out.Batches,
		Evictions:  out.Evictions,
		Series:     series,
		Shards:     n,
	}
	if n > 1 {
		v.ShardSeries = shardSeries
		v.PerShard = make([]ServingShard, n)
		for i := range sh.Shards {
			r := &sh.Shards[i]
			v.PerShard[i] = ServingShard{
				Shard:     i,
				Ops:       r.Ops,
				P50:       r.Lat.Percentile(50),
				P999:      r.Lat.Percentile(99.9),
				Rate:      r.RateUsed,
				SimCycles: r.SimCycles + machines[i].GC.Clock.Total(),
				Parallel:  r.ParallelOps,
				Serial:    r.SerialOps,
				Evictions: r.Evictions,
			}
		}
	}
	if out.Gets > 0 {
		v.HitRate = float64(out.Hits) / float64(out.Gets)
	}
	return v, out.RateUsed, nil
}

func (r ServingResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Serving — open-loop SLO comparison: %d clients, %d ops, %.0f ops/s offered",
		r.Clients, r.Ops, r.Rate)
	if r.Shards > 1 {
		fmt.Fprintf(&b, ", %d shards", r.Shards)
	}
	b.WriteString("\n")
	t := obsv.NewTable("scheme", "p50(cyc)", "p99(cyc)", "p999(cyc)", "max(cyc)",
		"app(cyc)", "interf", "stall", "queue", "hit%", "fragR", "par-ops")
	for _, v := range r.Variants {
		t.Add(v.Name, v.P50, v.P99, v.P999, v.Max,
			v.MeanApp, v.MeanInterf, v.MeanStall, v.MeanQueue, v.HitRate*100, v.FinalFragR, v.Parallel)
	}
	b.WriteString(t.String())
	for _, v := range r.Variants {
		if len(v.PerShard) == 0 {
			continue
		}
		fmt.Fprintf(&b, "\nper-shard rows — %s:\n", v.Name)
		st := obsv.NewTable("shard", "ops", "p50(cyc)", "p999(cyc)", "rate(ops/s)", "par-ops", "serial", "evict")
		for _, s := range v.PerShard {
			st.Add(s.Shard, s.Ops, s.P50, s.P999, s.Rate, s.Parallel, s.Serial, s.Evictions)
		}
		b.WriteString(st.String())
	}
	for _, v := range r.Variants {
		if v.Series.Count() == 0 {
			continue
		}
		writeShardLanes(&b, v.Name, v.ShardSeries)
		b.WriteString("\nper-window p999 — " + v.Name + ":\n")
		b.WriteString(obsv.RenderTimeline(v.Series, 40))
		if ex, ok := v.Series.WorstExemplar(); ok {
			fmt.Fprintf(&b, "worst request: %s\n", ex)
		}
	}
	return b.String()
}

// writeShardLanes renders one timeline lane per shard of a sharded run (each
// machine's own clock domain), ahead of the merged timeline; lanes is nil for
// an unsharded run.
func writeShardLanes(b *strings.Builder, name string, lanes []*obsv.TimeSeries) {
	for s, ts := range lanes {
		if ts.Count() == 0 {
			continue
		}
		fmt.Fprintf(b, "\n%s shard %d lane:\n", name, s)
		b.WriteString(obsv.RenderTimeline(ts, 40))
	}
}

// CSV renders the per-window time series of every scheme as CSV rows (with
// header), the per-window export ffccd-bench -csv writes.
func (r ServingResult) CSV() string {
	var b strings.Builder
	b.WriteString(obsv.CSVHeader + "\n")
	for _, v := range r.Variants {
		b.WriteString(v.Series.CSV())
	}
	return b.String()
}

// Metrics flattens the grid for benchmark records; sim_cycles_total is the
// cross-host-parallelism determinism pin.
func (r ServingResult) Metrics() map[string]float64 {
	m := map[string]float64{
		"serving.clients":      float64(r.Clients),
		"serving.ops":          float64(r.Ops),
		"serving.rate_per_sec": r.Rate,
	}
	if r.Shards > 0 {
		m["serving.shards"] = float64(r.Shards)
	}
	var total uint64
	for _, v := range r.Variants {
		k := "serving." + v.Scheme + "."
		m[k+"p50_cycles"] = v.P50
		m[k+"p99_cycles"] = v.P99
		m[k+"p999_cycles"] = v.P999
		m[k+"max_cycles"] = v.Max
		m[k+"mean_app_cycles"] = v.MeanApp
		m[k+"mean_interf_cycles"] = v.MeanInterf
		m[k+"mean_stall_cycles"] = v.MeanStall
		m[k+"mean_queue_cycles"] = v.MeanQueue
		m[k+"hit_rate"] = v.HitRate
		m[k+"final_frag_ratio"] = v.FinalFragR
		m[k+"sim_cycles"] = float64(v.SimCycles)
		m[k+"parallel_ops"] = float64(v.Parallel)
		m[k+"serial_ops"] = float64(v.Serial)
		m[k+"batches"] = float64(v.Batches)
		wins := v.Series.Windows()
		m[k+"windows"] = float64(len(wins))
		var worst uint64
		for _, w := range wins {
			if w.P999 > worst {
				worst = w.P999
			}
		}
		m[k+"worst_window_p999_cycles"] = float64(worst)
		for _, s := range v.PerShard {
			sk := fmt.Sprintf("%sshard%d.", k, s.Shard)
			m[sk+"ops"] = float64(s.Ops)
			m[sk+"p999_cycles"] = s.P999
			m[sk+"sim_cycles"] = float64(s.SimCycles)
		}
		total += v.SimCycles
	}
	m["sim_cycles_total"] = float64(total)
	return m
}

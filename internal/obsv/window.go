// Cycle-domain time series: fixed-width windows in simulated time that
// snapshot throughput, tail percentiles, and the app/interference/stall/queue
// cycle decomposition, plus the K worst requests per window captured as
// exemplars with a full stall-cause record. Defrag epochs and stop-the-world
// pauses are recorded as overlay intervals so a timeline shows tail spikes
// aligned against the GC phase that caused them.
//
// The layer obeys the package invariants: it only reads values the serving
// loop has already committed (virtual-time cycles, per-op decompositions), it
// never charges a simulated cycle, and it draws from no RNG stream — enabling
// it reproduces simulated results bit-identically (pinned by
// TestServeWindowsDoNotPerturb and TestServingWindowsDoNotPerturb).
package obsv

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"ffccd/internal/sim"
)

// DefaultWindowCycles is the default time-series window width: 50M simulated
// cycles, ~19.2ms at the machine's 2.6GHz clock.
const DefaultWindowCycles = 50_000_000

// DefaultExemplarK is the default number of worst-request exemplars retained
// per window.
const DefaultExemplarK = 4

// Overlay interval kinds.
const (
	// IntervalSTW is a stop-the-world pause (mark+summary, terminate fixup,
	// or a full STW compaction cycle).
	IntervalSTW = "stw"
	// IntervalEpoch is an open concurrent defragmentation epoch, from the
	// opening pause to terminate.
	IntervalEpoch = "epoch"
	// IntervalRecovery is post-crash recovery.
	IntervalRecovery = "recovery"
	// IntervalBackoff is one client's retry backoff wait after an admission
	// rejection during recovery (Epoch carries the client id).
	IntervalBackoff = "backoff"
)

// Interval is one overlay annotation on the time series: a span of simulated
// cycles during which a GC phase was active.
type Interval struct {
	Kind  string `json:"kind"`
	Start uint64 `json:"start_cycle"`
	End   uint64 `json:"end_cycle"`
	Epoch uint64 `json:"epoch,omitempty"`
}

// Overlaps reports whether the interval intersects [start, end).
func (iv Interval) Overlaps(start, end uint64) bool {
	return iv.Start < end && iv.End > start
}

// StallCause is the full attribution record carried by an exemplar: which
// scheme and epoch the request dispatched against, and where its cycles went.
// All cycle fields are simulated cycles.
type StallCause struct {
	// Scheme is the defrag scheme of the run ("ffccd", "stw", ...).
	Scheme string `json:"scheme"`
	// Epoch is the defrag epoch open at dispatch (meaningful when Phase is
	// "compacting").
	Epoch uint64 `json:"epoch,omitempty"`
	// Phase at dispatch: "idle" or "compacting".
	Phase string `json:"phase"`
	// App is pure application service time (service minus WPQ-drain stalls).
	App uint64 `json:"app_cycles"`
	// WPQDrain is fence time: cycles the request spent draining the device
	// write-pending queue at sfences.
	WPQDrain uint64 `json:"wpq_drain_cycles"`
	// Interf is barrier interference: extra service cycles from read-barrier
	// checks and relocation fixups during an open epoch.
	Interf uint64 `json:"barrier_interf_cycles"`
	// STWWait is dispatch stall: cycles the request waited for a
	// stop-the-world pause to lift.
	STWWait uint64 `json:"stw_wait_cycles"`
	// QueueWait is connection queueing: cycles the request waited behind
	// earlier requests on its connection.
	QueueWait uint64 `json:"queue_wait_cycles"`
	// STWRef, when nonzero, is the end cycle of the STW pause this request's
	// delay chains back to — directly (the request dispatched against the
	// pause) or transitively (it queued behind requests that did). It matches
	// the End of an IntervalSTW overlay recorded by the same run.
	STWRef uint64 `json:"stw_ref_cycle,omitempty"`
	// CacheSet is the device cache set of the request's primary line
	// (-1 unknown).
	CacheSet int `json:"cache_set"`
	// Key is the workload key the request touched.
	Key uint64 `json:"key"`
	// Shard is the serving shard the request executed on (0 in unsharded
	// runs; omitted from JSON there so pre-sharding records are unchanged).
	Shard int `json:"shard,omitempty"`
}

// Dominant names the largest cycle component of the cause: "app",
// "wpq-drain", "barrier", "stw", or "queue".
func (c StallCause) Dominant() string {
	name, best := "app", c.App
	for _, cand := range []struct {
		name string
		v    uint64
	}{
		{"wpq-drain", c.WPQDrain},
		{"barrier", c.Interf},
		{"stw", c.STWWait},
		{"queue", c.QueueWait},
	} {
		if cand.v > best {
			name, best = cand.name, cand.v
		}
	}
	return name
}

// Exemplar is one captured worst request: its latency breakdown plus the
// stall-cause record, OpenTelemetry-exemplar style.
type Exemplar struct {
	Latency  uint64     `json:"latency_cycles"`
	Arrival  uint64     `json:"arrival_cycle"`
	Start    uint64     `json:"start_cycle"`
	Complete uint64     `json:"complete_cycle"`
	Cause    StallCause `json:"cause"`
}

func (e Exemplar) String() string {
	c := e.Cause
	s := fmt.Sprintf("latency=%.3fms (arrival %.3fms) dominant=%s: app=%d wpq=%d barrier=%d stw=%d queue=%d cycles; phase=%s",
		sim.CyclesToMillis(e.Latency), sim.CyclesToMillis(e.Arrival),
		c.Dominant(), c.App, c.WPQDrain, c.Interf, c.STWWait, c.QueueWait, c.Phase)
	if c.Phase == "compacting" {
		s += fmt.Sprintf(" epoch=%d", c.Epoch)
	}
	if c.STWRef != 0 {
		s += fmt.Sprintf(" stw_ref=%.3fms", sim.CyclesToMillis(c.STWRef))
	}
	if c.CacheSet >= 0 {
		s += fmt.Sprintf(" set=%d", c.CacheSet)
	}
	return s
}

// OpSample is one completed request handed to the time series. All fields are
// simulated cycles; Latency is Complete-Arrival.
type OpSample struct {
	Arrival  uint64
	Start    uint64
	Complete uint64
	App      uint64
	Interf   uint64
	Stall    uint64
	Queue    uint64
	Cause    StallCause
}

// window accumulates one fixed-width slice of simulated time.
type window struct {
	index uint64
	count uint64
	hist  Histogram
	app   uint64
	inter uint64
	stall uint64
	queue uint64
	ex    []Exemplar // worst-K, sorted by latency descending
}

// exLess orders exemplars worst-first with a deterministic tie-break, so
// worst-K selection is independent of host scheduling and needs no RNG.
func exLess(a, b Exemplar) bool {
	if a.Latency != b.Latency {
		return a.Latency > b.Latency
	}
	if a.Arrival != b.Arrival {
		return a.Arrival < b.Arrival
	}
	if a.Cause.Key != b.Cause.Key {
		return a.Cause.Key < b.Cause.Key
	}
	// Sharded merge: two shards can each complete a request with identical
	// (latency, arrival, key); the shard id makes worst-K selection total.
	return a.Cause.Shard < b.Cause.Shard
}

// WindowSnap is the exported snapshot of one completed window.
type WindowSnap struct {
	Index uint64 `json:"window"`
	Start uint64 `json:"start_cycle"`
	End   uint64 `json:"end_cycle"`
	Count uint64 `json:"count"`
	// ThroughputOpsSec is completions per simulated second over the window.
	ThroughputOpsSec float64 `json:"throughput_ops_sec"`
	P50              uint64  `json:"p50_cycles"`
	P99              uint64  `json:"p99_cycles"`
	P999             uint64  `json:"p999_cycles"`
	Max              uint64  `json:"max_cycles"`
	AppCycles        uint64  `json:"app_cycles"`
	InterfCycles     uint64  `json:"interf_cycles"`
	StallCycles      uint64  `json:"stall_cycles"`
	QueueCycles      uint64  `json:"queue_cycles"`
	// STWOverlap/EpochOverlap/RecoveryOverlap/BackoffOverlap report whether
	// an overlay interval of that kind intersects the window.
	STWOverlap      bool       `json:"stw_overlap"`
	EpochOverlap    bool       `json:"epoch_overlap"`
	RecoveryOverlap bool       `json:"recovery_overlap,omitempty"`
	BackoffOverlap  bool       `json:"backoff_overlap,omitempty"`
	Exemplars       []Exemplar `json:"exemplars,omitempty"`
}

// TimeSeries is the windowed metric accumulator for one run. Requests are
// bucketed by completion cycle into fixed-width windows; overlay intervals
// mark GC activity. Safe for concurrent use, though the serving loop commits
// serially.
type TimeSeries struct {
	scheme string
	width  uint64
	k      int

	mu   sync.Mutex
	win  map[uint64]*window
	ivs  []Interval
	wex  *Exemplar // worst exemplar across all windows
	seen uint64
}

// NewTimeSeries creates a time series for one run. windowCycles = 0 selects
// DefaultWindowCycles; k = 0 selects DefaultExemplarK.
func NewTimeSeries(scheme string, windowCycles uint64, k int) *TimeSeries {
	if windowCycles == 0 {
		windowCycles = DefaultWindowCycles
	}
	if k <= 0 {
		k = DefaultExemplarK
	}
	return &TimeSeries{scheme: scheme, width: windowCycles, k: k, win: map[uint64]*window{}}
}

// Scheme returns the run's defrag scheme label.
func (ts *TimeSeries) Scheme() string { return ts.scheme }

// WindowCycles returns the window width in simulated cycles.
func (ts *TimeSeries) WindowCycles() uint64 { return ts.width }

// ObserveOp records one completed request into its completion-cycle window.
func (ts *TimeSeries) ObserveOp(op OpSample) {
	lat := op.Complete - op.Arrival
	idx := op.Complete / ts.width
	ex := Exemplar{Latency: lat, Arrival: op.Arrival, Start: op.Start, Complete: op.Complete, Cause: op.Cause}

	ts.mu.Lock()
	defer ts.mu.Unlock()
	w := ts.win[idx]
	if w == nil {
		w = &window{index: idx}
		ts.win[idx] = w
	}
	w.count++
	ts.seen++
	w.hist.Observe(lat)
	w.app += op.App
	w.inter += op.Interf
	w.stall += op.Stall
	w.queue += op.Queue
	if len(w.ex) < ts.k {
		w.ex = append(w.ex, ex)
		sort.SliceStable(w.ex, func(i, j int) bool { return exLess(w.ex[i], w.ex[j]) })
	} else if exLess(ex, w.ex[len(w.ex)-1]) {
		w.ex[len(w.ex)-1] = ex
		sort.SliceStable(w.ex, func(i, j int) bool { return exLess(w.ex[i], w.ex[j]) })
	}
	if ts.wex == nil || exLess(ex, *ts.wex) {
		cp := ex
		ts.wex = &cp
	}
}

// AddInterval records one overlay interval (an open epoch or an STW pause).
func (ts *TimeSeries) AddInterval(kind string, start, end, epoch uint64) {
	ts.mu.Lock()
	ts.ivs = append(ts.ivs, Interval{Kind: kind, Start: start, End: end, Epoch: epoch})
	ts.mu.Unlock()
}

// Merge folds another series (same window width required) into ts — the
// sharded-serving merge. Per-window histograms merge exactly, cycle sums and
// counts add, worst-K exemplars re-select under the total exLess order
// (latency desc, arrival asc, key asc, shard asc), and overlay intervals
// union. Windows fold in ascending index order and every per-window
// operation is order-insensitive or totally ordered, so the merged series is
// bit-identical however the shards were scheduled on the host.
func (ts *TimeSeries) Merge(o *TimeSeries) error {
	if o == nil {
		return nil
	}
	if o.width != ts.width {
		return fmt.Errorf("obsv: TimeSeries.Merge width mismatch: %d vs %d", ts.width, o.width)
	}

	o.mu.Lock()
	idxs := make([]uint64, 0, len(o.win))
	for idx := range o.win {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })

	ts.mu.Lock()
	for _, idx := range idxs {
		ow := o.win[idx]
		w := ts.win[idx]
		if w == nil {
			w = &window{index: idx}
			ts.win[idx] = w
		}
		w.count += ow.count
		w.hist.Merge(&ow.hist)
		w.app += ow.app
		w.inter += ow.inter
		w.stall += ow.stall
		w.queue += ow.queue
		w.ex = append(w.ex, ow.ex...)
		sort.SliceStable(w.ex, func(i, j int) bool { return exLess(w.ex[i], w.ex[j]) })
		if len(w.ex) > ts.k {
			w.ex = w.ex[:ts.k:ts.k]
		}
	}
	if o.wex != nil && (ts.wex == nil || exLess(*o.wex, *ts.wex)) {
		cp := *o.wex
		ts.wex = &cp
	}
	ts.seen += o.seen
	ts.ivs = append(ts.ivs, o.ivs...)
	ts.mu.Unlock()
	o.mu.Unlock()
	return nil
}

// Intervals returns the overlay intervals sorted by start cycle.
func (ts *TimeSeries) Intervals() []Interval {
	ts.mu.Lock()
	out := append([]Interval(nil), ts.ivs...)
	ts.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Count returns the number of requests observed.
func (ts *TimeSeries) Count() uint64 {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.seen
}

// WorstExemplar returns the single worst request seen across all windows.
func (ts *TimeSeries) WorstExemplar() (Exemplar, bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.wex == nil {
		return Exemplar{}, false
	}
	return *ts.wex, true
}

// Windows snapshots every populated window, sorted by window index, with
// overlay-overlap flags resolved against the recorded intervals.
func (ts *TimeSeries) Windows() []WindowSnap {
	ivs := ts.Intervals()
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]WindowSnap, 0, len(ts.win))
	for _, w := range ts.win {
		start, end := w.index*ts.width, (w.index+1)*ts.width
		h := w.hist.Snapshot("")
		ws := WindowSnap{
			Index: w.index, Start: start, End: end, Count: w.count,
			ThroughputOpsSec: float64(w.count) * float64(sim.CyclesPerSecond) / float64(ts.width),
			P50:              h.P50, P99: h.P99, P999: h.P999, Max: h.Max,
			AppCycles: w.app, InterfCycles: w.inter,
			StallCycles: w.stall, QueueCycles: w.queue,
			Exemplars: append([]Exemplar(nil), w.ex...),
		}
		for _, iv := range ivs {
			if !iv.Overlaps(start, end) {
				continue
			}
			switch iv.Kind {
			case IntervalSTW:
				ws.STWOverlap = true
			case IntervalEpoch:
				ws.EpochOverlap = true
			case IntervalRecovery:
				ws.RecoveryOverlap = true
			case IntervalBackoff:
				ws.BackoffOverlap = true
			}
		}
		out = append(out, ws)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// LastWindows returns the up-to-n most recent populated windows — the slice a
// flight-recorder crash dump renders.
func (ts *TimeSeries) LastWindows(n int) []WindowSnap {
	all := ts.Windows()
	if len(all) > n {
		all = all[len(all)-n:]
	}
	return all
}

// CSVHeader is the column list of TimeSeries.CSV rows.
const CSVHeader = "scheme,window,start_cycle,end_cycle,count,throughput_ops_sec," +
	"p50_cycles,p99_cycles,p999_cycles,max_cycles," +
	"app_cycles,interf_cycles,stall_cycles,queue_cycles," +
	"stw_overlap,epoch_overlap,worst_latency_cycles,worst_dominant,worst_epoch,worst_stw_ref"

// CSV renders the per-window rows (no header; see CSVHeader).
func (ts *TimeSeries) CSV() string {
	var b strings.Builder
	for _, w := range ts.Windows() {
		worstLat, worstDom, worstEpoch, worstRef := uint64(0), "", uint64(0), uint64(0)
		if len(w.Exemplars) > 0 {
			e := w.Exemplars[0]
			worstLat, worstDom = e.Latency, e.Cause.Dominant()
			worstEpoch, worstRef = e.Cause.Epoch, e.Cause.STWRef
		}
		fmt.Fprintf(&b, "%s,%d,%d,%d,%d,%.0f,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%s,%d,%d\n",
			ts.scheme, w.Index, w.Start, w.End, w.Count, w.ThroughputOpsSec,
			w.P50, w.P99, w.P999, w.Max,
			w.AppCycles, w.InterfCycles, w.StallCycles, w.QueueCycles,
			boolBit(w.STWOverlap), boolBit(w.EpochOverlap),
			worstLat, worstDom, worstEpoch, worstRef)
	}
	return b.String()
}

func boolBit(v bool) int {
	if v {
		return 1
	}
	return 0
}

// RenderTimeline renders the time series as a terminal timeline: one row per
// window with a log-free linear p999 bar plus overlay marks (S = an STW pause
// intersects the window, E = a concurrent epoch is open, R = post-crash
// recovery, B = retry backoff after an admission rejection). barWidth is the
// bar column width (<=0 selects 40).
func RenderTimeline(ts *TimeSeries, barWidth int) string {
	if barWidth <= 0 {
		barWidth = 40
	}
	wins := ts.Windows()
	if len(wins) == 0 {
		return "(no windows recorded)\n"
	}
	var maxP999 uint64
	for _, w := range wins {
		if w.P999 > maxP999 {
			maxP999 = w.P999
		}
	}
	if maxP999 == 0 {
		maxP999 = 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d windows x %.1fms (p999 bar full scale = %.3fms; S=stw pause, E=epoch open, R=recovery, B=backoff)\n",
		ts.scheme, len(wins), sim.CyclesToMillis(ts.width), sim.CyclesToMillis(maxP999))
	fmt.Fprintf(&b, "%6s %10s %8s %10s %10s  %-*s ov\n",
		"win", "t(ms)", "ops", "p50(ms)", "p999(ms)", barWidth, "p999")
	for _, w := range wins {
		n := int(float64(w.P999) / float64(maxP999) * float64(barWidth))
		if n > barWidth {
			n = barWidth
		}
		if n == 0 && w.P999 > 0 {
			n = 1
		}
		ov := ""
		if w.STWOverlap {
			ov += "S"
		}
		if w.EpochOverlap {
			ov += "E"
		}
		if w.RecoveryOverlap {
			ov += "R"
		}
		if w.BackoffOverlap {
			ov += "B"
		}
		fmt.Fprintf(&b, "%6d %10.1f %8d %10.3f %10.3f  %-*s %s\n",
			w.Index, sim.CyclesToMillis(w.Start), w.Count,
			sim.CyclesToMillis(w.P50), sim.CyclesToMillis(w.P999),
			barWidth, strings.Repeat("#", n), ov)
	}
	return b.String()
}

package obsv

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"ffccd/internal/sim"
)

// Collector owns the observability of a whole benchmark invocation: one Obs
// ("process" in trace terms) per experiment run, including separate processes
// for a fork driver's shared prefix so prefix work is attributed distinctly
// from per-scheme forks. Exporters render all processes into one artifact.
type Collector struct {
	mu      sync.Mutex
	ringCap int
	names   []string
	procs   []*Obs
}

// NewCollector creates a collector. ringCap is forwarded to every per-run
// tracer (0 = unbounded, >0 = flight-recorder ring).
func NewCollector(ringCap int) *Collector {
	return &Collector{ringCap: ringCap}
}

// NewObs creates, registers, and returns the observability bundle for one
// run. name becomes the Perfetto process name.
func (c *Collector) NewObs(name string) *Obs {
	o := New(c.ringCap)
	c.mu.Lock()
	c.names = append(c.names, name)
	c.procs = append(c.procs, o)
	c.mu.Unlock()
	return o
}

// Processes returns the registered process names and observability bundles,
// in creation order.
func (c *Collector) Processes() ([]string, []*Obs) { return c.snapshot() }

func (c *Collector) snapshot() (names []string, procs []*Obs) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.names...), append([]*Obs(nil), c.procs...)
}

// cyclesPerMicro converts simulated cycles to trace microseconds.
const cyclesPerMicro = float64(sim.CyclesPerSecond) / 1e6

// chromeEvent is one Chrome trace-event (the JSON array format Perfetto
// loads). ph "X" = complete (span), "i" = instant, "M" = metadata.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// laneOf maps an event kind to a per-thread lane so Perfetto renders
// mark/summary/copy/barrier/STW on distinct tracks instead of one overloaded
// row. Lanes nest related kinds: the epoch/STW skeleton, the phases, the
// barrier work, and the persist domain.
func laneOf(k Kind) (lane int, label string) {
	switch k {
	case KindEpoch, KindTrigger:
		return 0, "epoch"
	case KindSTW:
		return 1, "stw"
	case KindMark:
		return 2, "mark"
	case KindSummary:
		return 3, "summary"
	case KindCopy:
		return 4, "copy"
	case KindBarrierFix, KindCheckLookup:
		return 5, "barrier"
	case KindRecovery, KindCrash:
		return 6, "recovery"
	default: // KindWPQDrain, KindRelocate
		return 7, "persist"
	}
}

const lanesPerThread = 8

// WriteChromeTrace renders every process of the collector as Chrome
// trace-event JSON. Load the file in Perfetto (ui.perfetto.dev) or
// chrome://tracing; timestamps are simulated cycles scaled to microseconds
// at the machine's configured clock, so the timeline is the simulated
// machine's, not the host's.
func (c *Collector) WriteChromeTrace(w io.Writer) error {
	names, procs := c.snapshot()
	var evs []chromeEvent
	for pid, o := range procs {
		evs = append(evs, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": names[pid]},
		})
		for _, b := range o.Tracer.Threads() {
			tname := b.Name
			if tname == "" {
				tname = fmt.Sprintf("thread%d", b.ID)
			}
			lanesSeen := map[int]string{}
			for _, e := range b.Events() {
				lane, label := laneOf(e.Kind)
				tid := b.ID*lanesPerThread + lane
				lanesSeen[lane] = label
				ce := chromeEvent{
					Name: e.Kind.String(),
					Ts:   float64(e.Start) / cyclesPerMicro,
					Pid:  pid,
					Tid:  tid,
					Args: map[string]any{"arg": e.Arg, "start_cycle": e.Start},
				}
				if e.End > e.Start {
					dur := float64(e.End-e.Start) / cyclesPerMicro
					ce.Ph, ce.Dur = "X", &dur
					ce.Args["cycles"] = e.End - e.Start
				} else {
					ce.Ph, ce.S = "i", "t"
				}
				evs = append(evs, ce)
			}
			for lane := 0; lane < lanesPerThread; lane++ {
				label, ok := lanesSeen[lane]
				if !ok {
					continue
				}
				evs = append(evs, chromeEvent{
					Name: "thread_name", Ph: "M", Pid: pid,
					Tid:  b.ID*lanesPerThread + lane,
					Args: map[string]any{"name": tname + "/" + label},
				})
			}
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(evs)
}

// TimelineTable renders one Obs's events as a text phase timeline in
// internal/stats table style, sorted by start cycle: the ffccd-inspect view
// and the flight-recorder dump format.
func TimelineTable(o *Obs) string {
	type row struct {
		thread string
		Event
	}
	var all []row
	for _, b := range o.Tracer.Threads() {
		tname := b.Name
		if tname == "" {
			tname = fmt.Sprintf("thread%d", b.ID)
		}
		for _, e := range b.Events() {
			all = append(all, row{tname, e})
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].Start != all[j].Start {
			return all[i].Start < all[j].Start
		}
		return all[i].End < all[j].End
	})
	t := NewTable("start_ms", "dur_ms", "thread", "event", "arg")
	for _, r := range all {
		dur := "-"
		if r.End > r.Start {
			dur = fmt.Sprintf("%.3f", sim.CyclesToMillis(r.End-r.Start))
		}
		t.Add(fmt.Sprintf("%.3f", sim.CyclesToMillis(r.Start)), dur,
			r.thread, r.Kind.String(), fmt.Sprintf("%d", r.Arg))
	}
	return t.String()
}

// flightRecorderWindows is how many completed metric windows a crash dump
// renders: the tail trajectory leading into the fault.
const flightRecorderWindows = 8

// WriteFlightRecorder dumps a flight-recorder ring (or any Obs) as a text
// timeline plus drop counts — what crash harnesses write at the fault. When
// the Obs carries a windowed time series, the last few completed windows are
// appended so post-crash inspection shows the tail trajectory into the crash.
func WriteFlightRecorder(w io.Writer, o *Obs) error {
	if _, err := fmt.Fprintf(w, "flight recorder dump (crashed=%v, events=%d)\n",
		o.Tracer.Crashed(), o.Tracer.EventCount()); err != nil {
		return err
	}
	for _, b := range o.Tracer.Threads() {
		if b.Dropped > 0 {
			if _, err := fmt.Fprintf(w, "thread %d (%s): %d older events overwritten by ring\n",
				b.ID, b.Name, b.Dropped); err != nil {
				return err
			}
		}
	}
	if _, err := io.WriteString(w, TimelineTable(o)); err != nil {
		return err
	}
	if o.Series != nil && o.Series.Count() > 0 {
		wins := o.Series.LastWindows(flightRecorderWindows)
		if _, err := fmt.Fprintf(w, "last %d metric windows before the fault:\n", len(wins)); err != nil {
			return err
		}
		t := NewTable("window", "start_ms", "ops", "p50", "p999", "worst_cause")
		for _, win := range wins {
			cause := "-"
			if len(win.Exemplars) > 0 {
				cause = win.Exemplars[0].Cause.Dominant()
			}
			t.Add(fmt.Sprintf("%d", win.Index),
				fmt.Sprintf("%.3f", sim.CyclesToMillis(win.Start)),
				fmt.Sprintf("%d", win.Count),
				fmt.Sprintf("%d", win.P50), fmt.Sprintf("%d", win.P999), cause)
		}
		if _, err := io.WriteString(w, t.String()); err != nil {
			return err
		}
	}
	return nil
}

// WriteChromeTraceAll merges several collectors (e.g. one per benchmark
// repetition) into a single Chrome trace file, renumbering pids.
func WriteChromeTraceAll(w io.Writer, cols ...*Collector) error {
	merged := NewCollector(0)
	for _, c := range cols {
		names, procs := c.snapshot()
		merged.mu.Lock()
		merged.names = append(merged.names, names...)
		merged.procs = append(merged.procs, procs...)
		merged.mu.Unlock()
	}
	return merged.WriteChromeTrace(w)
}

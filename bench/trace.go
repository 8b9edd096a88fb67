package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// A span is one interval recorded by the harness around a call into a layer.
// Spans come only from files under bench/: the program itself is not
// instrumented (in-program spans are a later issue), so a layer the harness
// cannot intercept (sim, pmem, arch, alloc, pmop) has no span and is priced
// by the ladder instead (ladder.go).
type span struct {
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"` // since the run's first span
	End    int64              `json:"end_ns"`
	Parent int                `json:"parent"` // index of the causing span, -1 for the root
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// sampleEvery thins per-operation spans (store calls, compaction steps) in the
// trace file: every call is still timed and counted exactly, but only one in
// sampleEvery is kept as a span, so a traced run of 500k operations neither
// holds 500k spans nor pays for appending them.
const sampleEvery = 64

// tracer keeps the spans of one run in memory and writes them out at exit.
// The phase spans (build, run, merge, verify, report) are recorded on every
// run because setup_s and host_ns_per_sim_op are read from them; detail turns
// on everything a traced run adds — the store decorator, per-hook spans with
// counter deltas, and the alloc-call counter.
type tracer struct {
	runID  string
	t0     time.Time
	detail bool

	mu    sync.Mutex
	spans []span
}

func newTracer(runID string, detail bool) *tracer {
	return &tracer{runID: runID, t0: time.Now(), detail: detail}
}

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.t0)) }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int) int {
	now := t.since(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := t.since(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return time.Duration(now - t.spans[id].Start)
}

// add records an already-measured span (the sampled per-operation ones).
func (t *tracer) add(name string, start time.Time, d time.Duration, parent int, attrs map[string]float64) {
	s := t.since(start)
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: s, End: s + int64(d), Parent: parent, Attrs: attrs})
	t.mu.Unlock()
}

// total sums the durations of every closed span called name.
func (t *tracer) total(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d int64
	for i := range t.spans {
		if t.spans[i].Name == name && t.spans[i].End >= 0 {
			d += t.spans[i].End - t.spans[i].Start
		}
	}
	return time.Duration(d)
}

// write dumps the spans as JSON. Per-operation spans are sampled 1 in
// sampleEvery; exact counts and totals are in the result row, not here.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := struct {
		RunID       string `json:"run_id"`
		SampleEvery int    `json:"per_op_span_sample_every"`
		Spans       []span `json:"spans"`
	}{t.runID, sampleEvery, t.spans}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

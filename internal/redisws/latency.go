package redisws

import (
	"ffccd/internal/obsv"
	"ffccd/internal/workpool"
)

// LatencyRecorder streams per-operation latencies (simulated cycles) into a
// log-linear obsv.Histogram, so memory is O(histogram buckets) regardless of
// operation count and every percentile is an upper bound within 1/16
// relative error.
type LatencyRecorder struct {
	Hist *obsv.Histogram
}

// latencyHists holds released recorders' histograms, two per pool worker (a
// crash campaign releases a serving trial's recorders when the trial
// returns).
var latencyHists = workpool.FreeList[*obsv.Histogram]{PerWorker: 2}

// NewLatencyRecorder returns an empty recorder, on the histogram a released
// recorder handed on when there is one. Both parameters are ignored; they
// remain for the repo benchmark's ladder, which still passes them.
func NewLatencyRecorder(int, int64) *LatencyRecorder {
	h, ok := latencyHists.Take(nil)
	if !ok {
		h = new(obsv.Histogram)
	}
	return &LatencyRecorder{Hist: h}
}

// Release empties the recorder's histogram and hands it to the next
// NewLatencyRecorder. The recorder is unusable afterwards; releasing a nil
// or released recorder does nothing.
func (r *LatencyRecorder) Release() {
	if r == nil || r.Hist == nil {
		return
	}
	r.Hist.Reset()
	latencyHists.Put(r.Hist)
	r.Hist = nil
}

// Observe records one latency.
func (r *LatencyRecorder) Observe(v uint64) { r.Hist.Observe(v) }

// Merge folds another recorder into r (sharded-serving merge); the
// histogram merge is exact.
func (r *LatencyRecorder) Merge(o *LatencyRecorder) { r.Hist.Merge(o.Hist) }

// Max returns the largest recorded latency.
func (r *LatencyRecorder) Max() float64 {
	return float64(r.Hist.Snapshot("").Max)
}

// Percentile resolves percentile p (0..100) by nearest rank — the
// observation at 0-based position ⌊p/100·count⌋ of the sorted latencies,
// the largest for p = 100 — from the histogram: an upper bound within 1/16
// relative error.
func (r *LatencyRecorder) Percentile(p float64) float64 {
	return float64(r.Hist.Quantile(p / 100))
}

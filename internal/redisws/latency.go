package redisws

import "ffccd/internal/obsv"

// LatencyRecorder streams per-operation latencies (simulated cycles) into a
// log-linear obsv.Histogram, so memory is O(histogram buckets) regardless of
// operation count and every percentile is an upper bound within 1/16
// relative error.
type LatencyRecorder struct {
	Hist *obsv.Histogram
}

// NewLatencyRecorder returns an empty recorder. Both parameters are
// ignored; they remain for the repo benchmark's ladder, which still passes
// them.
func NewLatencyRecorder(int, int64) *LatencyRecorder {
	return &LatencyRecorder{Hist: &obsv.Histogram{}}
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

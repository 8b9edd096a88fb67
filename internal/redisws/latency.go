package redisws

import (
	"sort"

	"ffccd/internal/obsv"
	"ffccd/internal/workload"
)

// DefaultReservoirCap bounds the exact-latency side channel: at million-op
// serving scale the histogram is the record of truth and the reservoir is a
// fixed-size uniform sample kept only for exact-percentile cross-checks.
const DefaultReservoirCap = 4096

// LatencyRecorder streams per-operation latencies (simulated cycles) into a
// log-linear obsv.Histogram plus a bounded uniform reservoir (Vitter's
// algorithm R, driven by its own counter-based RNG stream so sampling never
// perturbs the workload's draws). It replaces the unbounded
// Result.Latencies slice: memory is O(histBuckets + cap) regardless of
// operation count, and the reservoir gives tests an exact percentile when
// the run is smaller than the cap.
type LatencyRecorder struct {
	Hist *obsv.Histogram

	cap    int
	seen   uint64
	sample []uint64
	rng    *workload.RNG
}

// NewLatencyRecorder returns a recorder with the given reservoir capacity
// (<=0 selects DefaultReservoirCap). seed selects the reservoir's private
// sampling stream.
func NewLatencyRecorder(capacity int, seed int64) *LatencyRecorder {
	if capacity <= 0 {
		capacity = DefaultReservoirCap
	}
	return &LatencyRecorder{
		Hist:   &obsv.Histogram{},
		cap:    capacity,
		sample: make([]uint64, 0, capacity),
		rng:    workload.NewRNG(seed),
	}
}

// Observe records one latency.
func (r *LatencyRecorder) Observe(v uint64) {
	r.Hist.Observe(v)
	r.seen++
	if len(r.sample) < r.cap {
		r.sample = append(r.sample, v)
		return
	}
	// One draw per overflowing observation keeps the stream position a pure
	// function of the op count (checkpoint-friendly, like the workload RNG).
	if j := r.rng.Intn(int(r.seen)); j < r.cap {
		r.sample[j] = v
	}
}

// Cap returns the reservoir capacity.
func (r *LatencyRecorder) Cap() int { return r.cap }

// Merge folds another recorder into r (sharded-serving merge). The histogram
// merge is exact. The reservoirs concatenate in call order; when the result
// overflows the capacity it is thinned by a systematic (every len/cap-th
// element) subsample — deterministic, which the bit-identical merge needs,
// though no longer a uniform sample of the combined stream. The histogram
// remains the record of truth; ReservoirPercentile stays exact whenever the
// combined count fits the capacity.
func (r *LatencyRecorder) Merge(o *LatencyRecorder) {
	r.Hist.Merge(o.Hist)
	combined := make([]uint64, 0, len(r.sample)+len(o.sample))
	combined = append(combined, r.sample...)
	combined = append(combined, o.sample...)
	if len(combined) > r.cap {
		kept := make([]uint64, r.cap)
		for i := range kept {
			kept[i] = combined[i*len(combined)/r.cap]
		}
		combined = kept
	}
	r.sample = combined
	r.seen += o.seen
}

// Count returns the number of recorded latencies.
func (r *LatencyRecorder) Count() uint64 { return r.seen }

// Max returns the largest recorded latency.
func (r *LatencyRecorder) Max() float64 {
	s := r.Hist.Snapshot("")
	return float64(s.Max)
}

// Mean returns the exact mean latency.
func (r *LatencyRecorder) Mean() float64 {
	return r.Hist.Snapshot("").Mean()
}

// Percentile resolves percentile p (0..100) by nearest rank — the
// observation at 0-based position ⌊p/100·Count()⌋ of the sorted latencies,
// the largest for p = 100 — from the histogram: an upper bound within 1/16
// relative error.
func (r *LatencyRecorder) Percentile(p float64) float64 {
	return float64(r.Hist.Quantile(p / 100))
}

// ReservoirPercentile resolves percentile p from the reservoir sample by
// nearest rank — exact over all observations when Count() <= the capacity,
// an unbiased estimate otherwise. Tests use it to cross-check the
// histogram's bounded-error percentiles.
func (r *LatencyRecorder) ReservoirPercentile(p float64) float64 {
	if len(r.sample) == 0 {
		return 0
	}
	s := append([]uint64(nil), r.sample...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(p / 100 * float64(len(s)))
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return float64(s[idx])
}

package obsv

import (
	"math/bits"
	"sort"
	"sync"
)

// The histogram is HDR-style log-linear: each power-of-two octave is split
// into histSubCount linear sub-buckets, so the relative width of any bucket
// is at most 2^-histSubBits (6.25%) — fine enough to resolve p999 tails.
// Values below histSubCount get one exact bucket each.
const (
	histSubBits  = 4
	histSubCount = 1 << histSubBits // sub-buckets per octave
	// Octaves 4..63 contribute histSubCount buckets each on top of the
	// histSubCount exact small-value buckets: indices 0..975.
	histBuckets = histSubCount + (64-histSubBits)*histSubCount
)

// bucketIndex maps a value to its log-linear bucket.
func bucketIndex(v uint64) int {
	if v < histSubCount {
		return int(v)
	}
	e := uint(bits.Len64(v)) - 1
	return int((e-histSubBits)<<histSubBits) + int(v>>(e-histSubBits))
}

// Histogram is a cycle-domain histogram with log-linear buckets (16
// sub-buckets per power-of-two octave). It trades a bounded ≤1/16 relative
// bucket width for O(1) constant-memory observation, which is what a
// hot-path latency recorder needs; percentile estimates are resolved to the
// upper bound of the containing bucket, clamped to the observed max.
type Histogram struct {
	mu      sync.Mutex
	count   uint64
	sum     uint64
	min     uint64
	max     uint64
	buckets [histBuckets]uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketIndex(v)]++
	h.mu.Unlock()
}

// Merge folds other's observations into h (bucket-wise; exact for count,
// sum, min, max, and every quantile estimate, as if all values had been
// observed on h).
func (h *Histogram) Merge(other *Histogram) {
	other.mu.Lock()
	count, sum, mn, mx := other.count, other.sum, other.min, other.max
	var b [histBuckets]uint64
	copy(b[:], other.buckets[:])
	other.mu.Unlock()
	if count == 0 {
		return
	}
	h.mu.Lock()
	if h.count == 0 || mn < h.min {
		h.min = mn
	}
	if mx > h.max {
		h.max = mx
	}
	h.count += count
	h.sum += sum
	for i := range b {
		h.buckets[i] += b[i]
	}
	h.mu.Unlock()
}

// HistSnapshot is a point-in-time summary of one histogram.
type HistSnapshot struct {
	Name  string
	Count uint64
	Sum   uint64
	Min   uint64
	Max   uint64
	P50   uint64 // bucket-upper-bound estimates
	P90   uint64
	P95   uint64
	P99   uint64
	P999  uint64
}

// Mean returns the exact arithmetic mean of observed values.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// bucketUpper is the largest value bucket i holds (inverse of bucketIndex).
func bucketUpper(i int) uint64 {
	if i < histSubCount {
		return uint64(i)
	}
	shift := uint(i>>histSubBits) - 1
	lower := (uint64(i&(histSubCount-1)) + histSubCount) << shift
	return lower + (1 << shift) - 1
}

// quantileLocked resolves quantile q (0..1) to the upper bound of its
// bucket, clamped to the observed max. Caller holds h.mu.
func (h *Histogram) quantileLocked(q float64) uint64 {
	if h.count == 0 {
		return 0
	}
	target := uint64(q * float64(h.count))
	if target >= h.count {
		target = h.count - 1
	}
	var seen uint64
	for i, c := range h.buckets {
		seen += c
		if seen > target {
			u := bucketUpper(i)
			if u > h.max {
				u = h.max
			}
			return u
		}
	}
	return h.max
}

// Quantile resolves quantile q in [0,1] to the upper bound of its log-linear
// bucket (relative error ≤ 2^-4), clamped to the observed max.
func (h *Histogram) Quantile(q float64) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}

// Reset empties the histogram.
func (h *Histogram) Reset() {
	h.mu.Lock()
	h.count, h.sum, h.min, h.max = 0, 0, 0, 0
	clear(h.buckets[:])
	h.mu.Unlock()
}

// Count returns the number of observed values.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Snapshot summarizes the histogram. Percentiles are upper bounds of the
// containing log-linear bucket, clamped to the observed max.
func (h *Histogram) Snapshot(name string) HistSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistSnapshot{Name: name, Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	if h.count == 0 {
		return s
	}
	s.P50 = h.quantileLocked(0.50)
	s.P90 = h.quantileLocked(0.90)
	s.P95 = h.quantileLocked(0.95)
	s.P99 = h.quantileLocked(0.99)
	s.P999 = h.quantileLocked(0.999)
	return s
}

// GroupSnapshot is a point-in-time reading of one registered counter group,
// with keys sorted for stable output.
type GroupSnapshot struct {
	Name string
	Keys []string
	Vals []uint64
}

// Snapshot is a full registry reading: every histogram and group.
type Snapshot struct {
	Hists  []HistSnapshot
	Groups []GroupSnapshot
}

// Registry holds the machine's metrics: named histograms created by
// instrumented components, plus snapshot groups — closures over counters
// that already live elsewhere (device stats, engine stats, TLB and
// checklookup counters), registered so one Snapshot call unifies them all.
type Registry struct {
	mu        sync.Mutex
	hists     map[string]*Histogram
	histOrder []string
	groups    []struct {
		name string
		fn   func() map[string]uint64
	}
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{hists: map[string]*Histogram{}}
}

// Hist returns the named histogram, creating it on first use. The returned
// pointer is stable: components resolve it once at wiring time and keep it,
// so hot paths never touch the registry map.
func (r *Registry) Hist(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := &Histogram{}
	r.hists[name] = h
	r.histOrder = append(r.histOrder, name)
	return h
}

// RegisterGroup registers a named snapshot closure. fn is invoked at
// Snapshot time and must be safe to call after the run completes.
func (r *Registry) RegisterGroup(name string, fn func() map[string]uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.groups = append(r.groups, struct {
		name string
		fn   func() map[string]uint64
	}{name, fn})
}

func sortedGroup(name string, m map[string]uint64) GroupSnapshot {
	g := GroupSnapshot{Name: name, Keys: make([]string, 0, len(m))}
	for k := range m {
		g.Keys = append(g.Keys, k)
	}
	sort.Strings(g.Keys)
	g.Vals = make([]uint64, len(g.Keys))
	for i, k := range g.Keys {
		g.Vals[i] = m[k]
	}
	return g
}

// Snapshot reads every histogram and registered group.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	hists := append([]string(nil), r.histOrder...)
	groups := append(r.groups[:0:0], r.groups...)
	r.mu.Unlock()

	var s Snapshot
	for _, name := range hists {
		s.Hists = append(s.Hists, r.Hist(name).Snapshot(name))
	}
	for _, g := range groups {
		s.Groups = append(s.Groups, sortedGroup(g.name, g.fn()))
	}
	return s
}

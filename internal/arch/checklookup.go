package arch

import (
	"slices"
	"sort"

	"ffccd/internal/bloom"
	"ffccd/internal/sim"
)

// CLUStats is an optional shared sink for checklookup-unit counters. An
// engine that wants machine-wide BFC/PMFTLB totals (the obsv snapshot
// groups) points its unit's Shared at one CLUStats. Plain counters: every
// simulated thread's resolves run on the machine's one goroutine. Purely
// host-side bookkeeping: it never charges cycles.
type CLUStats struct {
	BFCHits, BFCMisses       uint64
	PMFTLBHits, PMFTLBMisses uint64
}

// Map renders the counters as a snapshot-group map.
func (s *CLUStats) Map() map[string]uint64 {
	return map[string]uint64{
		"bfc_hits":      s.BFCHits,
		"bfc_misses":    s.BFCMisses,
		"pmftlb_hits":   s.PMFTLBHits,
		"pmftlb_misses": s.PMFTLBMisses,
	}
}

// Forwarder is the functional interface to the PM-aware forwarding table
// (built by the GC's summary phase). The PMFTLB models its lookup *timing*;
// values come from the table itself.
type Forwarder interface {
	// LookupAddr returns the destination address for a source address inside
	// a relocation page, and whether the address maps to a relocated object.
	LookupAddr(ctx *sim.Ctx, src uint64) (dst uint64, ok bool)
}

// BloomRange is one in-memory bloom filter covering a contiguous VA range
// (§4.3.2: "Several in-memory bloom filters are constructed to record all
// relocation pages during the summary phase"). Ranges are *tight* around the
// relocation pages they record: an address outside every range is resolved
// by the BFC's range compare alone — the cheap common case that gives
// checklookup its ≈80 % check+lookup reduction.
type BloomRange struct {
	Start, End uint64 // [Start, End)
	Filter     *bloom.Filter
}

// BloomSet holds the epoch's filters, ordered by Start. Rebuild refills a
// set in place, so an engine builds every epoch's set in the filters and
// scratch of the last one.
type BloomSet struct {
	Ranges []BloomRange

	filters []*bloom.Filter // every filter the set has built, Ranges' first
	pages   []uint64
	gaps    []bloomGap
	splits  []int
}

// bloomGap is a split candidate: split before pages[at], size bytes past the
// page before it.
type bloomGap struct {
	at   int
	size uint64
}

// NewBloomSetFromPages builds filters of filterBytes each over the given
// relocation page addresses. The pages are split into at most n contiguous
// chunks at their largest VA gaps (and only at gaps of at least 64 pages), so
// clustered relocation sets get tight ranges — addresses between clusters
// resolve on the BFC's range compare alone — while scattered sets collapse to
// a single filter that keeps the one-entry Bloom Filter Cache stable. Both
// are the cheap paths that give checklookup its ≈80 % check+lookup reduction.
func NewBloomSetFromPages(pageVAs []uint64, n, filterBytes int) *BloomSet {
	bs := &BloomSet{}
	bs.Rebuild(pageVAs, n, filterBytes)
	return bs
}

// Rebuild makes bs the set NewBloomSetFromPages(pageVAs, n, filterBytes)
// returns, reusing its filters and scratch. pageVAs is not modified.
func (bs *BloomSet) Rebuild(pageVAs []uint64, n, filterBytes int) {
	if n < 1 {
		n = 1
	}
	bs.Ranges = bs.Ranges[:0]
	if len(pageVAs) == 0 {
		return
	}
	pages := append(bs.pages[:0], pageVAs...)
	slices.Sort(pages)
	bs.pages = pages

	// Choose up to n-1 split points at the largest gaps ≥ 64 pages.
	const minGap = 64 << FrameShift
	gaps := bs.gaps[:0]
	for i := 1; i < len(pages); i++ {
		if g := pages[i] - pages[i-1]; g >= minGap {
			gaps = append(gaps, bloomGap{i, g})
		}
	}
	bs.gaps = gaps
	sort.Slice(gaps, func(a, b int) bool { return gaps[a].size > gaps[b].size })
	if len(gaps) > n-1 {
		gaps = gaps[:n-1]
	}
	splits := append(bs.splits[:0], 0)
	for _, g := range gaps {
		splits = append(splits, g.at)
	}
	slices.Sort(splits)
	splits = append(splits, len(pages))
	bs.splits = splits

	for i := 0; i+1 < len(splits); i++ {
		chunk := pages[splits[i]:splits[i+1]]
		if i == len(bs.filters) {
			bs.filters = append(bs.filters, new(bloom.Filter))
		}
		f := bs.filters[i]
		f.Init(filterBytes, 4)
		for _, pg := range chunk {
			f.Add(pg >> FrameShift)
		}
		bs.Ranges = append(bs.Ranges, BloomRange{
			Start:  chunk[0],
			End:    chunk[len(chunk)-1] + (1 << FrameShift),
			Filter: f,
		})
	}
}

// rangeFor returns the index of the filter covering va, or -1.
func (bs *BloomSet) rangeFor(va uint64) int {
	for i := range bs.Ranges {
		if va >= bs.Ranges[i].Start && va < bs.Ranges[i].End {
			return i
		}
	}
	return -1
}

// CheckLookupUnit models the checklookup instruction's two hardware
// structures (§4.3.2): the Bloom Filter Cache holding one filter at a time,
// and the 16-entry PMFT Lookaside Buffer. Both only affect timing; the
// functional result always comes from the BloomSet and Forwarder.
//
// A CheckLookupUnit belongs to one simulated core; it is not safe for
// concurrent use (each worker thread gets its own, like a real per-core TLB).
type CheckLookupUnit struct {
	cfg *sim.Config

	// BFC state: which filter (by index into the BloomSet) is cached.
	bfcValid bool
	bfcIdx   int

	// PMFTLB state.
	tlb  []pmftlbEntry
	tick uint32

	// Counters.
	BFCHits, BFCMisses       uint64
	PMFTLBHits, PMFTLBMisses uint64

	// Shared, when non-nil, additionally receives every counter increment
	// (see CLUStats).
	Shared *CLUStats
}

type pmftlbEntry struct {
	valid bool
	frame uint64
	age   uint32
}

// NewCheckLookupUnit builds a per-core unit with Table 2 geometry.
func NewCheckLookupUnit(cfg *sim.Config) *CheckLookupUnit {
	return &CheckLookupUnit{
		cfg: cfg,
		tlb: make([]pmftlbEntry, cfg.PMFTLBEntries),
	}
}

// Reset restores power-on state: BFC and PMFTLB invalid, LRU clock at zero.
// A reset unit simulates bit-identically to a freshly constructed one (the
// counters are host-side totals and charge nothing). The engine resets its
// one unit before every read-barrier resolve, so each resolve starts cold.
func (u *CheckLookupUnit) Reset() {
	u.bfcValid = false
	for i := range u.tlb {
		u.tlb[i] = pmftlbEntry{}
	}
	u.tick = 0
}

// check runs the BFC stage: is va possibly on a relocation page?
func (u *CheckLookupUnit) check(ctx *sim.Ctx, va uint64, bs *BloomSet) bool {
	idx := bs.rangeFor(va)
	if idx < 0 {
		ctx.Charge(u.cfg.BloomCheckLatency)
		return false
	}
	if !u.bfcValid || u.bfcIdx != idx {
		// §4.3.2 step 1: fetch the covering bloom filter from memory.
		u.BFCMisses++
		if u.Shared != nil {
			u.Shared.BFCMisses++
		}
		ctx.Charge(u.cfg.BloomMissLatency)
		u.bfcValid = true
		u.bfcIdx = idx
	} else {
		u.BFCHits++
		if u.Shared != nil {
			u.Shared.BFCHits++
		}
	}
	ctx.Charge(u.cfg.BloomCheckLatency)
	return bs.Ranges[idx].Filter.Test(va >> FrameShift)
}

// lookup runs the PMFTLB stage and delegates the value to fwd.
func (u *CheckLookupUnit) lookup(ctx *sim.Ctx, va uint64, fwd Forwarder) (uint64, bool) {
	frame := va >> FrameShift
	u.tick++
	var victim *pmftlbEntry
	var oldest uint32 = ^uint32(0)
	hit := false
	for i := range u.tlb {
		e := &u.tlb[i]
		if e.valid && e.frame == frame {
			e.age = u.tick
			hit = true
			break
		}
		if !e.valid {
			if oldest != 0 {
				victim, oldest = e, 0
			}
			continue
		}
		if e.age < oldest {
			victim, oldest = e, e.age
		}
	}
	if hit {
		u.PMFTLBHits++
		if u.Shared != nil {
			u.Shared.PMFTLBHits++
		}
		ctx.Charge(u.cfg.PMFTLBLatency)
	} else {
		u.PMFTLBMisses++
		if u.Shared != nil {
			u.Shared.PMFTLBMisses++
		}
		// Walk the in-PM PMFT (persisted by the summary phase).
		ctx.Charge(u.cfg.PMFTLBLatency + u.cfg.PMReadLatency)
		victim.valid = true
		victim.frame = frame
		victim.age = u.tick
	}
	return fwd.LookupAddr(ctx, va)
}

// CheckLookup executes the checklookup instruction (§4.1): it returns the
// destination address of the object at va if va points into a relocation
// page, or (0, false) otherwise. Bloom-filter false positives resolve to
// "not found" in the PMFT, exactly as the paper describes.
func (u *CheckLookupUnit) CheckLookup(ctx *sim.Ctx, va uint64, bs *BloomSet, fwd Forwarder) (uint64, bool) {
	if bs == nil || !u.check(ctx, va, bs) {
		return 0, false
	}
	return u.lookup(ctx, va, fwd)
}

package sim

import "ffccd/internal/workpool"

// TLB models the per-core translation hierarchy from Table 2: a split L1
// (separate 4 KB and 2 MB structures) backed by a unified L2. It is a
// functional model — it tracks which virtual page numbers are resident and
// charges the configured hit/miss latencies. Fragmentation shows up here: a
// bloated footprint touches more pages, thrashing the TLB exactly as the
// paper's Figure 1 throughput decline describes.
//
// A TLB belongs to one simulated hardware thread and is not safe for
// concurrent use.
type TLB struct {
	cfg *Config

	l14k setAssoc // 4 KB pages
	l12m setAssoc // 2 MB pages
	l2   setAssoc // unified

	// buf backs all three structures' tags and ages. It is nil until the
	// first translation that is not a streak hit (a streak is only ever
	// armed by such a translation), and a nil buf is exactly the power-on
	// state: every entry invalid, every age and tick 0. released marks a TLB
	// whose arrays went back to the pool (Release); it never gets new ones.
	buf      []uint64
	released bool

	// Counters for reporting.
	Accesses uint64
	L1Misses uint64
	L2Misses uint64

	// Same-page streak fast path (ROADMAP: skip the VPN shift/mask and the
	// set-associative lookup entirely while consecutive accesses stay on one
	// page). The streak always describes the immediately preceding Access —
	// nothing else mutates the L1 arrays between Accesses — so streakIdx
	// needs no tag revalidation, but it MUST be cleared by Flush and by a
	// checkpoint Restore (unlike mruIdx/mruTag it is trusted, not validated).
	// A streak hit replicates an L1 MRU hit exactly — Accesses++, tick bump,
	// age refresh, TLB1Latency — but the bookkeeping is batched in streakLen
	// and materialized lazily; cycles stay bit-identical, pinned by
	// TestGoldenCycles and TestTLBStreakFastPathBitIdentical.
	streakMask  uint64 // ^(pageSize-1); 0 = no streak armed
	streakTag   uint64 // va & streakMask of the last translation
	streakShift uint
	streakSA    *setAssoc
	streakIdx   int
	// streakLen counts streak hits whose bookkeeping is deferred: a hit only
	// bumps this counter, and syncStreak materializes the batch (Accesses,
	// tick, age refresh) the moment anything else needs the arrays or the
	// counters. N deferred hits materialize to the exact state N immediate
	// hits would have left — nothing else touches the streak's set-assoc
	// between hits — so cycles and checkpoints stay bit-identical.
	streakLen uint64
}

// setAssoc is a small set-associative array of tags with round-robin-ish LRU.
// Its tags and ages are views into its TLB's arrays, nil while the TLB has
// none.
type setAssoc struct {
	sets int
	mask uint64 // sets-1 when sets is a power of two, else 0 (use modulo)
	ways int
	tags []uint64 // sets*ways entries; 0 means invalid (VPN 0 is never used)
	// age and tick are 64-bit: the L1 4 KB clock counts every translation,
	// and a 32-bit one would wrap within a paper-scale run.
	age  []uint64
	tick uint64
	// mruIdx/mruTag are a host-side hint for consecutive translations of the
	// same page — always validated against tags, so stale values (including
	// across a checkpoint restore) only cost the scan they avoid. mruTag 0
	// never matches (VPN tags are biased nonzero).
	mruIdx int
	mruTag uint64
}

// geometry returns an array of entries entries in ways ways, without its
// tags and ages.
func geometry(entries, ways int) setAssoc {
	sets := entries / ways
	if sets < 1 {
		sets = 1
	}
	s := setAssoc{sets: sets, ways: ways}
	if sets&(sets-1) == 0 {
		s.mask = uint64(sets - 1)
	}
	return s
}

// attach points the array's tags and ages at the front of buf and returns
// the rest of buf.
func (s *setAssoc) attach(buf []uint64) []uint64 {
	n := s.sets * s.ways
	s.tags, s.age = buf[:n:n], buf[n:2*n:2*n]
	return buf[2*n:]
}

// detach forgets the array's tags and ages and every hint into them, leaving
// the power-on state of an array that has none.
func (s *setAssoc) detach() {
	s.tags, s.age, s.tick, s.mruIdx, s.mruTag = nil, nil, 0, 0, 0
}

// setBase returns the first slice index of tag's set. The set count is a
// runtime value, so the masked path spares a hardware divide on every
// translation for the (default-config) power-of-two geometries.
func (s *setAssoc) setBase(tag uint64) int {
	if s.sets&(s.sets-1) == 0 {
		return int(tag&s.mask) * s.ways
	}
	return int(tag%uint64(s.sets)) * s.ways
}

// lookup probes for tag; on miss it inserts tag, evicting the LRU way.
// Returns true on hit.
func (s *setAssoc) lookup(tag uint64) bool {
	if tag == s.mruTag && s.tags[s.mruIdx] == tag {
		s.tick++
		s.age[s.mruIdx] = s.tick
		return true
	}
	s.tick++
	base := s.setBase(tag)
	victim := base
	oldest := s.age[base]
	for i := 0; i < s.ways; i++ {
		idx := base + i
		if s.tags[idx] == tag {
			s.age[idx] = s.tick
			s.mruIdx, s.mruTag = idx, tag
			return true
		}
		if s.age[idx] < oldest {
			oldest = s.age[idx]
			victim = idx
		}
	}
	s.tags[victim] = tag
	s.age[victim] = s.tick
	s.mruIdx, s.mruTag = victim, tag
	return false
}

// contains probes without inserting or touching LRU state.
func (s *setAssoc) contains(tag uint64) bool {
	base := s.setBase(tag)
	for i := 0; i < s.ways; i++ {
		if s.tags[base+i] == tag {
			return true
		}
	}
	return false
}

// NewTLB builds the Table 2 TLB hierarchy. It holds no arrays until its first
// translation (or the restore of a checkpoint that has some): a context that
// never translates, such as an engine's own, costs the host a few words.
func NewTLB(cfg *Config) *TLB {
	return &TLB{
		cfg:  cfg,
		l14k: geometry(cfg.L1TLB4KEntries, cfg.L1TLB4KWays),
		l12m: geometry(cfg.L1TLB2MEntries, cfg.L1TLB2MWays),
		l2:   geometry(cfg.L2TLBEntries, cfg.L2TLBWays),
	}
}

// words is the length of the TLB's one backing array: a tag and an age per
// entry of its three structures.
func (t *TLB) words() int {
	return 2 * (t.l14k.sets*t.l14k.ways + t.l12m.sets*t.l12m.ways + t.l2.sets*t.l2.ways)
}

// arm gives the TLB its arrays, cleared to the power-on state when clean is
// set; a caller that overwrites every entry passes false.
func (t *TLB) arm(clean bool) {
	if t.released {
		panic("sim: translation on a released context")
	}
	t.buf = takeTLBArrays(t.words(), clean)
	t.l2.attach(t.l12m.attach(t.l14k.attach(t.buf)))
}

// disarm gives the TLB's arrays back to the pool and returns it to the
// power-on state. Its counters stay.
func (t *TLB) disarm() {
	if t.buf == nil {
		return
	}
	tlbPool.Put(t.buf)
	t.buf = nil
	t.l14k.detach()
	t.l12m.detach()
	t.l2.detach()
	t.streakMask, t.streakLen = 0, 0
}

// Release gives the TLB's arrays back to the process pool for good. Its
// counters stay readable; its next translation panics, as does the restore
// of a checkpoint that holds arrays. A second call does nothing.
func (t *TLB) Release() {
	t.syncStreak()
	t.disarm()
	t.released = true
}

// Access translates virtual address va under the given page-size shift
// (12 for 4 KB pages, 21 for 2 MB pages) and returns the cycles charged.
func (t *TLB) Access(va uint64, pageShift uint) uint64 {
	if t.streakMask != 0 && pageShift == t.streakShift && va&t.streakMask == t.streakTag {
		t.streakLen++
		return t.cfg.TLB1Latency
	}
	t.syncStreak()
	if t.buf == nil {
		t.arm(true)
	}
	t.Accesses++
	// Tags must be nonzero; VPN 0 would alias the invalid marker, so bias by 1.
	vpn := (va >> pageShift) + 1
	cycles := t.cfg.TLB1Latency
	l1 := &t.l14k
	if pageShift >= 21 {
		l1 = &t.l12m
	}
	hit := l1.lookup(vpn)
	// lookup set l1.mruIdx to vpn's slot on hit and insert alike, so the next
	// same-page access can refresh its recency without re-probing.
	t.streakMask = ^uint64(0) << pageShift
	t.streakTag = va & t.streakMask
	t.streakShift = pageShift
	t.streakSA = l1
	t.streakIdx = l1.mruIdx
	if hit {
		return cycles
	}
	t.L1Misses++
	cycles += t.cfg.TLB2Latency
	if t.l2.lookup(vpn) {
		return cycles
	}
	t.L2Misses++
	cycles += t.cfg.TLBMissPenalty + t.cfg.TLBWalkPenaltyExtra
	return cycles
}

// syncStreak materializes the deferred streak bookkeeping. Must run before
// anything reads or mutates the L1 arrays, the tick clocks, or Accesses —
// i.e. on every non-streak Access, on Flush, and before a checkpoint.
func (t *TLB) syncStreak() {
	if t.streakLen == 0 {
		return
	}
	t.Accesses += t.streakLen
	sa := t.streakSA
	sa.tick += t.streakLen
	sa.age[t.streakIdx] = sa.tick
	t.streakLen = 0
}

// AccessCount is the total translation count including streak hits whose
// bookkeeping is still deferred. Readers (snapshot groups, tests) must use
// this instead of the Accesses field, which lags by the open streak.
func (t *TLB) AccessCount() uint64 { return t.Accesses + t.streakLen }

// tlbsPerWorker bounds the TLB arrays the pool keeps per pool worker: a
// serving trial's machine releases about ten contexts at once (loader,
// defragmentation thread, clients, recovery and check contexts).
const tlbsPerWorker = 16

// tlbPool holds released TLBs' arrays for the next contexts of the same
// geometry, up to tlbsPerWorker per pool worker; beyond that the oldest go
// to the garbage collector.
var tlbPool = workpool.FreeList[[]uint64]{PerWorker: tlbsPerWorker}

// takeTLBArrays returns a backing array of n words, a pooled one if a
// released TLB of the same geometry left one, cleared when clean is set.
func takeTLBArrays(n int, clean bool) []uint64 {
	buf, ok := tlbPool.Take(func(buf []uint64) bool { return len(buf) == n })
	if !ok {
		return make([]uint64, n)
	}
	if clean {
		clear(buf)
	}
	return buf
}

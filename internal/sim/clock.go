package sim

import (
	"fmt"
	"sync/atomic"
)

// Category attributes simulated cycles to a phase of execution so that the
// defragmentation time breakdowns (Fig. 5, 14, 15) can be reconstructed.
type Category int

const (
	// CatApp is application work: loads, stores, allocation.
	CatApp Category = iota
	// CatMark is the stop-the-world marking phase.
	CatMark
	// CatSummary is the summary phase: page ranking, PMFT construction.
	CatSummary
	// CatCopy is object movement plus the persistence operations that guard
	// it (memcpy, clwb, sfence, relocate) — the "data copy" slice.
	CatCopy
	// CatCheckLookup is the read-barrier relocation-page check and forwarding
	// table lookup — the "check & lookup" slice.
	CatCheckLookup
	// CatGCMisc is other defragmentation work: bitmap upkeep, page release,
	// pacing, terminate.
	CatGCMisc
	// CatRecovery is post-crash recovery work.
	CatRecovery

	numCategories
)

// NumCategories is the number of cycle-attribution categories.
const NumCategories = int(numCategories)

var categoryNames = [...]string{"app", "mark", "summary", "copy", "checklookup", "gcmisc", "recovery"}

func (c Category) String() string {
	if c < 0 || int(c) >= len(categoryNames) {
		return fmt.Sprintf("Category(%d)", int(c))
	}
	return categoryNames[c]
}

// Clock accumulates simulated cycles per category. A Clock is owned by a
// single thread of execution (goroutine) and is not safe for concurrent use;
// use Stats to merge clocks from multiple threads.
type Clock struct {
	cycles [numCategories]uint64
}

// NewClock returns a zeroed clock.
func NewClock() *Clock { return &Clock{} }

// Add charges n cycles to category cat.
func (c *Clock) Add(cat Category, n uint64) { c.cycles[cat] += n }

// Cycles returns the cycles charged to cat.
func (c *Clock) Cycles(cat Category) uint64 { return c.cycles[cat] }

// Total returns cycles across all categories.
func (c *Clock) Total() uint64 {
	var t uint64
	for _, v := range c.cycles {
		t += v
	}
	return t
}

// GCTotal returns cycles attributed to defragmentation (everything except
// application and recovery work).
func (c *Clock) GCTotal() uint64 {
	return c.cycles[CatMark] + c.cycles[CatSummary] + c.cycles[CatCopy] +
		c.cycles[CatCheckLookup] + c.cycles[CatGCMisc]
}

// Merge adds other's cycles into c.
func (c *Clock) Merge(other *Clock) {
	for i := range c.cycles {
		c.cycles[i] += other.cycles[i]
	}
}

// Reset zeroes all counters.
func (c *Clock) Reset() { c.cycles = [numCategories]uint64{} }

// Snapshot returns a copy of the per-category counters.
func (c *Clock) Snapshot() [NumCategories]uint64 {
	var out [NumCategories]uint64
	copy(out[:], c.cycles[:])
	return out
}

// Ctx is the per-thread simulation context threaded through every simulated
// memory operation: a clock to charge, the category to attribute to, and the
// thread's private TLB state. Derived returns a context charging a different
// category to the same clock and TLB.
//
// A context whose driver is done with it gives its TLB arrays back with
// Release. From then on it, and every context derived from it, panics on its
// next translation; its clock and TLB counters stay readable. A nil TLB is
// something else: a context that charges no translation at all.
type Ctx struct {
	Clock *Clock
	TLB   *TLB
	Cat   Category

	// PendingFlushes counts clwbs issued by this thread since its last
	// sfence; the device uses it to decide whether a fence stalls.
	PendingFlushes int

	// Shard is a small per-context integer assigned at NewCtx, unique in the
	// process. The obsv tracer keys each thread's event buffer by it. It never
	// influences simulated cycles.
	Shard uint32

	// derived holds one reusable child context per category for Derived.
	// Host-only: it spares a heap allocation per derived context, which
	// escapes into interface calls.
	derived [numCategories]*Ctx
}

var ctxSeq atomic.Uint32

// NewCtx returns a fresh per-thread context with its own clock and TLB.
func NewCtx(cfg *Config) *Ctx {
	return &Ctx{Clock: NewClock(), TLB: NewTLB(cfg), Cat: CatApp, Shard: ctxSeq.Add(1)}
}

// Release gives the context's TLB arrays back to the process pool. A second
// call does nothing.
func (x *Ctx) Release() {
	if x.TLB != nil {
		x.TLB.Release()
	}
}

// Charge adds n cycles to the context's current category.
func (x *Ctx) Charge(n uint64) {
	if x.Clock != nil {
		x.Clock.Add(x.Cat, n)
	}
}

// Derived returns a context attributing to cat, backed by a per-category
// scratch slot on the receiver, so repeated calls on a hot path do not
// allocate. It shares the receiver's clock, TLB and Shard, and receives a
// *copy* of PendingFlushes — the child's changes to it never propagate back
// to the parent (the fence-stall accounting in Device.Sfence depends on that
// isolation).
//
// The scratch slot is reused by the next Derived(cat) call on the same
// receiver, so callers must not retain the result across a subsequent call
// with the same category. All uses in this codebase are sequential
// call-then-drop sites.
func (x *Ctx) Derived(cat Category) *Ctx {
	d := x.derived[cat]
	if d == nil {
		d = &Ctx{}
		x.derived[cat] = d
	}
	// Reinitialize field-by-field rather than assigning a whole Ctx value:
	// a struct assignment would wipe the child's own scratch slots.
	d.Clock, d.TLB, d.Cat, d.PendingFlushes, d.Shard =
		x.Clock, x.TLB, cat, x.PendingFlushes, x.Shard
	return d
}

// Package obsv is the machine-wide observability layer for the simulated
// machine: structured event tracing of defragmentation epochs, a metrics
// registry of cycle-domain histograms and counter groups, and exporters
// (Chrome trace-event JSON loadable in Perfetto, OpenMetrics text, and the
// text timeline of a flight-recorder dump).
//
// Two invariants govern everything in this package (DESIGN.md §8):
//
//   - Zero overhead when disabled. Every instrumentation site in core/pmem is
//     guarded by a nil pointer check on its component's *Obs; a disabled
//     machine executes one predictable branch per site and nothing else.
//
//   - Non-perturbing when enabled. Events are keyed by *simulated* cycles
//     (ctx.Clock totals), never host wall time, and no obsv code path ever
//     calls ctx.Charge or touches device/heap state — enabling tracing on a
//     pinned run reproduces the committed cycle totals bit-identically
//     (pinned by TestGoldenCycles, whose runs have tracing enabled, and
//     TestTracingDoesNotPerturb).
//
// The tracer keeps one buffer per simulated thread (keyed by the sim.Ctx
// shard hint, so derived contexts share their parent's buffer) and supports a
// flight-recorder ring mode that retains only the most recent events per
// thread — the mode fault-injection harnesses dump on a crash.
package obsv

import (
	"sync"
	"sync/atomic"

	"ffccd/internal/sim"
)

// Kind identifies one traced event type. Span kinds cover an interval of
// simulated cycles; instant kinds mark a point.
type Kind uint8

const (
	// KindTrigger is a defragmentation trigger attempt (instant; Arg=1 when
	// an epoch began, 0 when the heap was already at target).
	KindTrigger Kind = iota
	// KindMark is the stop-the-world marking phase (span; Arg=live objects).
	KindMark
	// KindSummary is the stop-the-world summary phase (span; Arg=relocation
	// objects selected).
	KindSummary
	// KindCopy is one background-mover compaction call (span; Arg=objects
	// relocated by the call).
	KindCopy
	// KindBarrierFix is the terminate-phase reference fixup pass (span).
	KindBarrierFix
	// KindSTW is a stop-the-world window (span; the mark+summary pause or the
	// terminate pause of a concurrent cycle, or a whole stop-the-world
	// cycle).
	KindSTW
	// KindEpoch is a whole defragmentation epoch, from the opening
	// stop-the-world to terminate (span; Arg=epoch number).
	KindEpoch
	// KindCheckLookup is the window during which the read barrier (and under
	// §4.3 the checklookup hardware) is live for an epoch (span; Arg=epoch
	// number).
	KindCheckLookup
	// KindCrash is a simulated power failure (instant).
	KindCrash
	// KindRecovery is post-crash recovery, reconciliation through epoch
	// completion (span).
	KindRecovery
	// KindWPQDrain is one sfence draining in-flight lines (instant; Arg=lines
	// drained). Emitted only in flight-recorder ring mode: full traces would
	// drown in per-fence events, but the last few before a crash are exactly
	// what persist-domain forensics needs.
	KindWPQDrain
	// KindRelocate is one relocate-instruction issue (instant; Arg=bytes).
	// Ring mode only, like KindWPQDrain.
	KindRelocate
	// KindSite is one crash-site passage (instant; Arg = siteIndex<<8 |
	// siteClass). Ring mode only: a flight-recorder dump at an injected
	// crash then shows the exact site indices leading up to the fault,
	// which is what a crash-schedule repro needs.
	KindSite

	numKinds
)

var kindNames = [numKinds]string{
	"trigger", "mark", "summary", "copy", "barrier-fix", "stw", "epoch",
	"checklookup", "crash", "recovery", "wpq-drain", "relocate", "site",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one recorded trace event. Start and End are simulated cycle
// totals of the emitting thread's clock; Start==End marks an instant.
type Event struct {
	Kind       Kind
	Start, End uint64
	Arg        uint64
}

// ThreadBuf collects the events of one simulated thread. Appends happen only
// from the owning goroutine; the tracer mutex guards discovery and export.
type ThreadBuf struct {
	ID      int
	Name    string
	Dropped uint64 // events overwritten in ring mode

	ring int
	ev   []Event
	head int // next overwrite slot once len(ev)==ring
}

func (b *ThreadBuf) add(e Event) {
	if b.ring > 0 && len(b.ev) >= b.ring {
		b.ev[b.head] = e
		b.head = (b.head + 1) % b.ring
		b.Dropped++
		return
	}
	b.ev = append(b.ev, e)
}

// Events returns the buffer's events in emission order (unwinding the ring).
func (b *ThreadBuf) Events() []Event {
	if b.ring == 0 || len(b.ev) < b.ring || b.head == 0 {
		return b.ev
	}
	out := make([]Event, 0, len(b.ev))
	out = append(out, b.ev[b.head:]...)
	out = append(out, b.ev[:b.head]...)
	return out
}

// Tracer records events into per-thread buffers. Buffers are keyed by the
// emitting context's Shard hint: derived contexts share their parent's shard,
// so all phases of one simulated thread land in one buffer. Lookup is a
// lock-free sync.Map read on the hot path; the mutex is taken only when a new
// thread first emits.
type Tracer struct {
	ringCap int

	bufs sync.Map // uint32 (ctx shard) → *ThreadBuf
	mu   sync.Mutex
	all  []*ThreadBuf

	crashed atomic.Bool
	events  atomic.Uint64
}

// NewTracer creates a tracer. ringCap > 0 selects flight-recorder mode:
// each thread retains only its most recent ringCap events (older ones are
// overwritten), and the high-frequency persist-domain instants
// (KindWPQDrain, KindRelocate) are recorded too.
func NewTracer(ringCap int) *Tracer {
	if ringCap < 0 {
		ringCap = 0
	}
	return &Tracer{ringCap: ringCap}
}

// RingMode reports whether the tracer is a bounded flight recorder.
func (t *Tracer) RingMode() bool { return t.ringCap > 0 }

// Now returns the emitting thread's current simulated cycle total — the
// timestamp domain of every event.
func Now(ctx *sim.Ctx) uint64 { return ctx.Clock.Total() }

func (t *Tracer) buf(ctx *sim.Ctx) *ThreadBuf {
	if v, ok := t.bufs.Load(ctx.Shard); ok {
		return v.(*ThreadBuf)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if v, ok := t.bufs.Load(ctx.Shard); ok {
		return v.(*ThreadBuf)
	}
	b := &ThreadBuf{ID: len(t.all), ring: t.ringCap}
	t.all = append(t.all, b)
	t.bufs.Store(ctx.Shard, b)
	return b
}

// Name labels the thread buffer of ctx (e.g. "app", "gc") for exporters.
func (t *Tracer) Name(ctx *sim.Ctx, name string) {
	b := t.buf(ctx)
	t.mu.Lock()
	b.Name = name
	t.mu.Unlock()
}

// Span records an interval event that started at simulated cycle start and
// ends now (the emitting thread's current clock total).
func (t *Tracer) Span(ctx *sim.Ctx, k Kind, start, arg uint64) {
	t.buf(ctx).add(Event{Kind: k, Start: start, End: Now(ctx), Arg: arg})
	t.events.Add(1)
}

// Instant records a point event at the emitting thread's current cycle.
func (t *Tracer) Instant(ctx *sim.Ctx, k Kind, arg uint64) {
	now := Now(ctx)
	t.buf(ctx).add(Event{Kind: k, Start: now, End: now, Arg: arg})
	t.events.Add(1)
}

// MarkCrash records a simulated power failure. The crash has no issuing
// thread or clock, so the instant is placed on a dedicated "machine" buffer
// at the latest cycle any thread has reached — the moment power was lost.
func (t *Tracer) MarkCrash() {
	t.crashed.Store(true)
	t.mu.Lock()
	defer t.mu.Unlock()
	var at uint64
	for _, b := range t.all {
		for _, e := range b.ev {
			if e.End > at {
				at = e.End
			}
		}
	}
	b := &ThreadBuf{ID: len(t.all), Name: "machine", ring: t.ringCap}
	b.add(Event{Kind: KindCrash, Start: at, End: at})
	t.all = append(t.all, b)
	t.events.Add(1)
}

// Crashed reports whether MarkCrash was called.
func (t *Tracer) Crashed() bool { return t.crashed.Load() }

// EventCount returns the number of events recorded (including any later
// overwritten by ring mode).
func (t *Tracer) EventCount() uint64 { return t.events.Load() }

// Threads returns every thread buffer, in first-emission order. The caller
// must not race it with active emission.
func (t *Tracer) Threads() []*ThreadBuf {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*ThreadBuf, len(t.all))
	copy(out, t.all)
	return out
}

// Obs bundles the tracer and metrics registry that one simulated machine's
// components share. Components hold a *Obs that is nil when observability is
// off — the zero-overhead contract is that nil check.
type Obs struct {
	Tracer  *Tracer
	Metrics *Registry

	// Series, when set, is the run's windowed time series (per-window SLO
	// metrics and worst-request exemplars). Wired by serving harnesses; nil
	// for runs without a request stream.
	Series *TimeSeries

	// OnCrash, when set, runs after a simulated power failure is recorded
	// (Device.Crash). Flight-recorder harnesses use it to dump the ring at
	// the moment of the fault.
	OnCrash func(*Obs)
}

// New builds an enabled observability bundle. ringCap > 0 selects
// flight-recorder mode (see NewTracer).
func New(ringCap int) *Obs {
	return &Obs{Tracer: NewTracer(ringCap), Metrics: NewRegistry()}
}

// Package pmem simulates byte-addressable persistent memory behind a
// write-back processor cache, reproducing the Intel ADR failure model the
// paper assumes:
//
//   - Stores land in a volatile set-associative cache.
//   - clwb copies a dirty line toward the Write Pending Queue; until the next
//     sfence the line is "in flight" and MAY OR MAY NOT survive a crash.
//   - sfence drains in-flight lines into the persistence domain (WPQ → media).
//   - Natural evictions write lines back to media lazily — this is the path
//     FFCCD's fence-free design relies on.
//   - relocate (the paper's new instruction, §4.2) copies data through the
//     cache setting a pending bit on every destination line; when a pending
//     line reaches the persistence domain the Reached Bitmap Buffer is
//     notified via the RBBSink hook.
//   - Crash() discards all cached lines, applies a configurable policy to
//     in-flight lines (ADR guarantees only what reached the WPQ), and leaves
//     the media array as the exact post-crash machine state.
//
// All latencies are charged to the sim.Ctx passed to each operation. The
// device is engineered so that simulation threads share no contended host
// state on the per-access path: statistics counters are sharded atomics,
// and in-flight (clwb'd, unfenced) lines live with their cache set, under
// the same per-set lock every access already takes. See DESIGN.md ("Host
// performance model") for the invariant host-side optimizations must keep.
package pmem

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"ffccd/internal/obsv"
	"ffccd/internal/sim"
	"ffccd/internal/workpool"
)

// LineSize is the cacheline size in bytes.
const LineSize = 64

// LineShift is log2(LineSize).
const LineShift = 6

// DirtyPageShift is log2 of the dirty-tracking granularity (4 KB): the unit
// in which the device remembers which media pages may differ from the
// all-zero image a fresh device starts from. Checkpoints capture and
// restores re-apply only those pages, so fork cost tracks the workload's
// footprint instead of the media size (DESIGN.md §7).
const DirtyPageShift = 12

// DirtyPageSize is the dirty-tracking page size in bytes.
const DirtyPageSize = 1 << DirtyPageShift

// RBBSink receives notifications when a cacheline tagged by relocate reaches
// the persistence domain. The arch package's Reached Bitmap Buffer implements
// it. Implementations must not call back into Device cache operations (they
// may use MediaWrite/MediaRead, which bypass the cache).
type RBBSink interface {
	LineReached(ctx *sim.Ctx, lineAddr uint64)
}

// CrashPolicy decides, for a line that was clwb'd but not yet fenced at the
// moment of a crash, whether it reached the persistence domain. Fault
// injection enumerates both outcomes; the default policy drops everything
// (the most adversarial interpretation). Policies must be pure functions of
// the line address: they are invoked in ascending line order.
type CrashPolicy func(lineAddr uint64) bool

// PowerLossFlusher is an RBBSink whose volatile state is battery-flushed to
// media at power failure (the RBB's small residual-energy domain, §4.3).
// Crash() invokes it after the post-crash media image is final, so harnesses
// that lose the engine handle mid-recovery (nested crash schedules) still get
// the architecturally guaranteed RBB flush. The flush must be idempotent:
// engine-level harnesses may also call it explicitly.
type PowerLossFlusher interface {
	PowerLossFlush()
}

// DropAllInflight is the default CrashPolicy: no unfenced line survives.
func DropAllInflight(uint64) bool { return false }

// KeepAllInflight persists every unfenced clwb'd line.
func KeepAllInflight(uint64) bool { return true }

// cacheLine holds one way's payload. Tags and LRU ages live in separate
// per-set arrays (cacheSet.tags/ages) so the way scan on every access walks a
// few contiguous host cachelines instead of striding through the line bodies.
type cacheLine struct {
	dirty   bool
	pending bool // destination of a relocate, not yet reached persistence
	data    [LineSize]byte
}

// inflightEntry is one clwb'd-but-unfenced line. Entries live with the cache
// set their line maps to, so the per-set lock that already serializes cache
// accesses to the line also serializes its in-flight state — no global
// in-flight lock exists.
type inflightEntry struct {
	lineIdx uint64
	pending bool
	data    [LineSize]byte
}

type cacheSet struct {
	mu   sync.Mutex
	tags []uint64 // line index + 1 per way; 0 = invalid
	ages []uint32 // LRU age per way
	ways []cacheLine
	tick uint32
	// mruWay is a host-side hint: the way of the most recent hit. It is
	// always validated against tags before use, so stale values (including
	// across a checkpoint restore) only cost the full scan they avoid.
	mruWay uint32

	// inflight holds this set's clwb'd-but-unfenced lines (guarded by mu).
	// The slice's capacity is retained across drains so the steady state
	// allocates nothing.
	inflight []inflightEntry
	// enqueued records whether this set is already on the device's
	// pending-set list (guarded by mu).
	enqueued bool

	_ [64]byte // keep adjacent sets off each other's cachelines
}

// Device is a simulated persistent-memory module plus the volatile cache in
// front of it. It is safe for concurrent use by multiple simulation threads;
// per-access state is partitioned per cache set so threads touching
// different lines share no locks.
type Device struct {
	cfg   *sim.Config
	media []byte
	nset  int
	nway  int
	sets  []cacheSet

	// setMagic enables the division-free set mapping (Lemire's fastmod).
	// Non-zero only when nset is not a power of two and every line index
	// fits in 32 bits; zero falls back to the plain modulo. Either path
	// computes exactly lineIdx % nset.
	setMagic uint64

	// dirty marks DirtyPageSize media pages that may differ from the
	// all-zero base image, one bit per page. Every media-write path sets the
	// page's bit (plain or-in under exclusive mode, atomic otherwise);
	// CheckpointInto captures only marked pages, Restore zeroes/overwrites
	// only marked pages, and ReleaseMedia wipes marked pages so recycled
	// buffers are always all-zero. A spuriously set bit only costs a no-op
	// copy; a missed bit would corrupt forked runs, so every write to
	// d.media must be paired with touchLine/touchRange.
	dirty []uint64

	// pend lists the indices of sets that currently hold in-flight lines, so
	// Sfence visits only those sets instead of scanning the whole cache.
	pendMu sync.Mutex
	pend   []int

	rbbMu sync.Mutex
	rbb   RBBSink

	policyMu sync.Mutex
	policy   CrashPolicy

	eADR atomic.Bool

	// exclusive elides the per-access host locks (per-set, pending-set and
	// RBB mutexes) when a single goroutine owns the device — the dominant
	// experiment configuration (Threads == 1, where workload and GC share one
	// simulation thread). Purely a host optimization: simulated behavior is
	// identical either way. May only be toggled while the device is quiescent,
	// and must stay false whenever two goroutines can touch the device.
	exclusive bool

	stat [statShards]statShard

	// Observability (nil when disabled). hWPQ is resolved once in SetObs so
	// Sfence never touches the registry; ringRec additionally enables the
	// per-fence/per-relocate instants that only flight-recorder traces keep.
	obs     *obsv.Obs
	hWPQ    *obsv.Histogram
	ringRec bool

	// drainProbe, when set, is called at the end of every Sfence with the
	// stall cycles the fence charged to the issuing context (drain bandwidth
	// plus exposed write latency). It is a host-side read-only tap — the
	// serving path uses it for per-request WPQ-drain attribution — and costs
	// one nil check when unset.
	drainProbe func(ctx *sim.Ctx, stallCycles uint64)

	// sites is the armed crash-site recorder (nil when disarmed — the
	// default; see site.go). Atomic so arming/disarming never touches the
	// per-access locks.
	sites atomic.Pointer[SiteRecorder]

	// span gates the multi-line span fast path in Load/Store (see loadSpan).
	// Purely a host optimization — span and per-line paths produce
	// bit-identical simulated results (pinned by the span property tests) —
	// so the toggle exists only for A/B benchmarking.
	span bool
}

// spanPathDefault seeds the span flag of newly created devices (on by
// default; cmd/ffccd-bench -span=false measures the off configuration).
var spanPathDefault atomic.Bool

func init() { spanPathDefault.Store(true) }

// SetSpanPathDefault sets whether devices created from now on use the
// multi-line span fast path.
func SetSpanPathDefault(on bool) { spanPathDefault.Store(on) }

// SetSpanPath toggles this device's multi-line span fast path. Call only on
// a quiescent device.
func (d *Device) SetSpanPath(on bool) { d.span = on }

// SetObs wires the observability bundle into the device: the wpq_drain_lines
// histogram, the "device" stats snapshot group, crash instants (plus the
// bundle's OnCrash hook), and — in flight-recorder ring mode — per-fence
// drain instants. Call on a quiescent device; nil disables (the default).
// Never charges simulated cycles.
func (d *Device) SetObs(o *obsv.Obs) {
	d.obs = o
	if o == nil {
		d.hWPQ, d.ringRec = nil, false
		return
	}
	d.hWPQ = o.Metrics.Hist("wpq_drain_lines")
	d.ringRec = o.Tracer.RingMode()
	o.Metrics.RegisterGroup("device", func() map[string]uint64 {
		s := d.Stats()
		return map[string]uint64{
			"loads": s.Loads, "stores": s.Stores, "clwbs": s.Clwbs,
			"sfences": s.Sfences, "cache_hits": s.CacheHits,
			"cache_misses": s.CacheMisses, "evictions": s.Evictions,
			"media_writes": s.MediaWrites, "media_reads": s.MediaReads,
			"relocate_ops": s.RelocateOps, "pending_reach": s.PendingReach,
		}
	})
}

// SetDrainProbe installs (or with nil removes) the per-fence stall tap: fn
// runs at the end of every Sfence with the issuing context and the stall
// cycles the fence charged. fn must not charge cycles or touch device state.
// Call only on a quiescent device.
func (d *Device) SetDrainProbe(fn func(ctx *sim.Ctx, stallCycles uint64)) { d.drainProbe = fn }

// SetExclusive declares that exactly one goroutine will use the device until
// the flag is cleared, allowing the per-access locks to be skipped. Call only
// on a quiescent device.
func (d *Device) SetExclusive(on bool) { d.exclusive = on }

// Exclusive reports the current mode, so a caller that takes the device for
// a while can hand it back the way it found it.
func (d *Device) Exclusive() bool { return d.exclusive }

// lockSet/unlockSet guard a cache set's per-access state, compiling to a
// plain branch in exclusive mode.
func (d *Device) lockSet(set *cacheSet) {
	if !d.exclusive {
		set.mu.Lock()
	}
}

func (d *Device) unlockSet(set *cacheSet) {
	if !d.exclusive {
		set.mu.Unlock()
	}
}

// SetEADR switches the platform persistence domain to eADR (§4.4): on power
// failure the battery flushes *all* cache levels, so every store is durable
// once globally visible and crash consistency needs no clwb/sfence at all.
// The paper contrasts eADR's ~300 mm³ battery volume against the 0.017 mm³
// the RBB needs; this switch exists for that ablation.
func (d *Device) SetEADR(on bool) { d.eADR.Store(on) }

// EADR reports whether the device is in eADR mode.
func (d *Device) EADR() bool { return d.eADR.Load() }

// NewDevice creates a device with size bytes of all-zero persistent media,
// recycling a released device's array when one fits (recycled arrays are
// wiped back to zero by ReleaseMedia, so this is indistinguishable from a
// fresh allocation).
func NewDevice(cfg *sim.Config, size uint64) *Device {
	return newDevice(cfg, zeroMedia(size))
}

// mediaFree recycles media arrays across short-lived simulated devices: the
// fork-based experiment driver and the crash campaigns create (and drop) one
// multi-MB device per forked run or trial, and allocating plus zeroing a
// fresh multi-MB array each time dominates their setup cost. Listed arrays
// are always all-zero over their whole capacity: that is the base image the
// dirty-page bitmap is relative to, so ReleaseMedia wipes exactly the dirty
// pages before listing — footprint-proportional work.
//
// The list is a plain bounded free list rather than a sync.Pool: a Pool is
// emptied by every GC cycle, and a campaign trial allocates enough to trigger
// one, so pooled buffers rarely survived to the next trial. It holds at most
// one array per pool worker (the most devices a fan-out of single-machine
// jobs has live at once), so it never retains more than such a fan-out's own
// peak.
var mediaFree struct {
	sync.Mutex
	bufs [][]byte // ascending capacity
}

// mediaFresh counts the arrays zeroMedia had to allocate (list misses).
var mediaFresh atomic.Uint64

// FreshMediaAllocs reports how many media arrays this process has allocated
// fresh rather than recycled — the number a steady-state campaign keeps flat.
func FreshMediaAllocs() uint64 { return mediaFresh.Load() }

// zeroMedia returns an all-zero media array of the given size: the smallest
// listed array that fits (so large ones stay available for large devices),
// else a fresh allocation. Arrays that are too small stay listed.
func zeroMedia(size uint64) []byte {
	mediaFree.Lock()
	for i, b := range mediaFree.bufs { // ascending capacity: first fit is best fit
		if uint64(cap(b)) >= size {
			mediaFree.bufs = slices.Delete(mediaFree.bufs, i, i+1)
			mediaFree.Unlock()
			return b[:size]
		}
	}
	mediaFree.Unlock()
	mediaFresh.Add(1)
	return make([]byte, size)
}

// recycleMedia lists an all-zero array for reuse. When that overfills the
// list the smallest array goes (to the garbage collector): a larger one
// serves every request a smaller one can.
func recycleMedia(buf []byte) {
	mediaFree.Lock()
	defer mediaFree.Unlock()
	i, _ := slices.BinarySearchFunc(mediaFree.bufs, cap(buf), func(b []byte, c int) int {
		return cmp.Compare(cap(b), c)
	})
	mediaFree.bufs = slices.Insert(mediaFree.bufs, i, buf)
	if len(mediaFree.bufs) > workpool.Parallelism() {
		mediaFree.bufs = slices.Delete(mediaFree.bufs, 0, 1)
	}
}

// NewDeviceForRestore creates a device intended to receive a checkpoint via
// Restore. Since pooled media is pre-zeroed it is today identical to
// NewDevice; the separate entry point remains because restore targets are
// the call sites that must pair with ReleaseMedia.
func NewDeviceForRestore(cfg *sim.Config, size uint64) *Device {
	return NewDevice(cfg, size)
}

// ReleaseMedia wipes the device's dirty pages back to the all-zero base
// image and lists the media array for reuse. The device is unusable
// afterwards; callers do this only when dropping it, and only once nothing
// else can still touch it (the next NewDevice may adopt the array at once).
func (d *Device) ReleaseMedia() {
	if d.media != nil {
		d.wipeDirty()
		recycleMedia(d.media)
		d.media = nil
	}
}

// wipeDirty zeroes every dirty page (returning the media to the all-zero
// base image) and clears the bitmap. Call only on a quiescent device.
func (d *Device) wipeDirty() {
	size := uint64(len(d.media))
	for w, bw := range d.dirty {
		for bw != 0 {
			p := uint64(w<<6 + bits.TrailingZeros64(bw))
			bw &= bw - 1
			start := p << DirtyPageShift
			end := start + DirtyPageSize
			if end > size {
				end = size
			}
			clear(d.media[start:end])
		}
		d.dirty[w] = 0
	}
}

// touchLine marks the dirty bit of the page holding lineIdx's line. Lines
// never straddle pages (LineSize divides DirtyPageSize).
func (d *Device) touchLine(lineIdx uint64) {
	p := lineIdx >> (DirtyPageShift - LineShift)
	if d.exclusive {
		d.dirty[p>>6] |= 1 << (p & 63)
	} else {
		atomic.OrUint64(&d.dirty[p>>6], 1<<(p&63))
	}
}

// touchRange marks every page overlapping [addr, addr+n).
func (d *Device) touchRange(addr, n uint64) {
	if n == 0 {
		return
	}
	for p, last := addr>>DirtyPageShift, (addr+n-1)>>DirtyPageShift; p <= last; p++ {
		if d.exclusive {
			d.dirty[p>>6] |= 1 << (p & 63)
		} else {
			atomic.OrUint64(&d.dirty[p>>6], 1<<(p&63))
		}
	}
}

func newDevice(cfg *sim.Config, media []byte) *Device {
	size := uint64(len(media))
	nline := cfg.CacheBytes / cfg.CacheLineSize
	nway := cfg.CacheWays
	nset := nline / nway
	if nset < 1 {
		nset = 1
	}
	npages := (size + DirtyPageSize - 1) >> DirtyPageShift
	d := &Device{
		cfg:    cfg,
		media:  media,
		nset:   nset,
		nway:   nway,
		sets:   make([]cacheSet, nset),
		dirty:  make([]uint64, (npages+63)/64),
		policy: DropAllInflight,
		span:   spanPathDefault.Load(),
	}
	for i := range d.sets {
		d.sets[i].tags = make([]uint64, nway)
		d.sets[i].ages = make([]uint32, nway)
		d.sets[i].ways = make([]cacheLine, nway)
	}
	if nset > 1 && nset&(nset-1) != 0 && size>>LineShift <= 1<<32 {
		d.setMagic = ^uint64(0)/uint64(nset) + 1
	}
	return d
}

// Size returns the media capacity in bytes.
func (d *Device) Size() uint64 { return uint64(len(d.media)) }

// SetRBB installs the reached-bitmap sink (nil disables notifications).
func (d *Device) SetRBB(s RBBSink) {
	d.rbbMu.Lock()
	d.rbb = s
	d.rbbMu.Unlock()
}

// SetCrashPolicy installs the policy applied to in-flight lines at Crash().
func (d *Device) SetCrashPolicy(p CrashPolicy) {
	d.policyMu.Lock()
	if p == nil {
		p = DropAllInflight
	}
	d.policy = p
	d.policyMu.Unlock()
}

// setOf returns the cache set for lineIdx.
func (d *Device) setOf(lineIdx uint64) *cacheSet {
	return &d.sets[d.setIndex(lineIdx)]
}

// setIndex computes lineIdx % nset without a hardware divide when setMagic
// is armed (the set count is a runtime value, so the compiler cannot
// strength-reduce the modulo itself).
func (d *Device) setIndex(lineIdx uint64) int {
	if m := d.setMagic; m != 0 {
		hi, _ := bits.Mul64(m*lineIdx, uint64(d.nset))
		return int(hi)
	}
	return int(lineIdx % uint64(d.nset))
}

func (d *Device) checkRange(addr, n uint64) {
	if addr+n > uint64(len(d.media)) || addr+n < addr {
		panic(fmt.Sprintf("pmem: access out of range: addr=%#x len=%d size=%d", addr, n, len(d.media)))
	}
}

// notifyReached reports a pending line's arrival in the persistence domain.
func (d *Device) notifyReached(ctx *sim.Ctx, lineIdx uint64) {
	d.lineShard(lineIdx).c[cPendingReach].Add(1)
	var sink RBBSink
	if d.exclusive {
		sink = d.rbb
	} else {
		d.rbbMu.Lock()
		sink = d.rbb
		d.rbbMu.Unlock()
	}
	if sink != nil {
		sink.LineReached(ctx, lineIdx<<LineShift)
	}
}

// inflightIndex returns the position of lineIdx in set.inflight, or -1.
// Caller holds set.mu.
func (set *cacheSet) inflightIndex(lineIdx uint64) int {
	for i := range set.inflight {
		if set.inflight[i].lineIdx == lineIdx {
			return i
		}
	}
	return -1
}

// writeMediaLine commits a full line to media, dropping any stale in-flight
// copy so a later crash cannot regress the line to older data. The caller
// holds the lock of the set the line maps to (set), which is the same lock
// Clwb and Sfence take for the line's in-flight state, so the media copy
// cannot interleave with a drain of the same line.
func (d *Device) writeMediaLine(ctx *sim.Ctx, set *cacheSet, lineIdx uint64, data *[LineSize]byte, pending bool) {
	copy(d.media[lineIdx<<LineShift:], data[:])
	d.touchLine(lineIdx)
	if i := set.inflightIndex(lineIdx); i >= 0 {
		last := len(set.inflight) - 1
		set.inflight[i] = set.inflight[last]
		set.inflight = set.inflight[:last]
	}
	d.lineShard(lineIdx).c[cMediaWrites].Add(1)
	if ctx != nil {
		ctx.Charge(d.cfg.PMWriteBandwidthPenalty)
	}
	if pending {
		d.notifyReached(ctx, lineIdx)
	}
}

// SnapshotMedia returns a copy of the full persistent image (for
// determinism tests and offline analysis). Call only on a quiescent device.
func (d *Device) SnapshotMedia() []byte {
	out := make([]byte, len(d.media))
	copy(out, d.media)
	return out
}

// RestoreMedia overwrites the persistent image and drops all volatile state
// — reconstructing a captured post-crash machine. Testing only.
func (d *Device) RestoreMedia(img []byte) {
	if len(img) != len(d.media) {
		panic("pmem: RestoreMedia size mismatch")
	}
	copy(d.media, img)
	// The image is arbitrary: conservatively mark every page dirty (only
	// pages that exist — the bitmap walks index media by their bits).
	d.touchRange(0, uint64(len(d.media)))
	d.dropVolatile()
}

// dropVolatile clears every cached line, all in-flight state and the
// pending-set list.
func (d *Device) dropVolatile() {
	for i := range d.sets {
		set := &d.sets[i]
		set.mu.Lock()
		set.clearWays()
		set.inflight = set.inflight[:0]
		set.enqueued = false
		set.mu.Unlock()
	}
	d.pendMu.Lock()
	d.pend = d.pend[:0]
	d.pendMu.Unlock()
}

// clearWays invalidates every way of the set. Caller holds set.mu.
func (set *cacheSet) clearWays() {
	for w := range set.ways {
		set.tags[w] = 0
		set.ages[w] = 0
		set.ways[w] = cacheLine{}
	}
	set.tick = 0
}

// MediaRead copies persisted bytes (media only — the post-crash view). It is
// intended for recovery code, checkers and tests; it does not model latency
// and must not race with concurrent cache operations on the same lines.
func (d *Device) MediaRead(addr uint64, buf []byte) {
	d.checkRange(addr, uint64(len(buf)))
	copy(buf, d.media[addr:])
}

// MediaWrite writes bytes straight to media, bypassing the cache — the
// memory-controller-side path used by the RBB to maintain the in-memory
// reached bitmap, and by tests to construct post-crash states.
func (d *Device) MediaWrite(addr uint64, data []byte) {
	d.checkRange(addr, uint64(len(data)))
	copy(d.media[addr:], data)
	d.touchRange(addr, uint64(len(data)))
	d.lineShard(addr >> LineShift).c[cMediaWrites].Add(1)
}

// MediaZero is MediaWrite of n zero bytes without the caller having to hold
// them: same media bytes, same dirty-page marks, one media write counted. The
// RBB clears the reached bitmap with it at the start of every epoch.
func (d *Device) MediaZero(addr, n uint64) {
	d.checkRange(addr, n)
	clear(d.media[addr : addr+n])
	d.touchRange(addr, n)
	d.lineShard(addr >> LineShift).c[cMediaWrites].Add(1)
}

// Crash simulates a power failure: every cached line is lost, the crash
// policy decides the fate of in-flight (clwb'd, unfenced) lines, and ADR
// drains whatever reached the WPQ. After Crash the media array is the
// machine's post-restart persistent state. Not safe to call concurrently
// with other operations (a real crash stops the machine too).
func (d *Device) Crash() {
	if o := d.obs; o != nil {
		// Record the power failure once the post-crash media state is final,
		// then hand the bundle to the flight-recorder dump hook.
		defer func() {
			o.Tracer.MarkCrash()
			if o.OnCrash != nil {
				o.OnCrash(o)
			}
		}()
	}
	defer d.powerLossFlushRBB()
	if d.eADR.Load() {
		// eADR: the battery flushes every cache level; nothing volatile is
		// lost. Pending lines reach the persistence domain and notify the
		// RBB exactly as a normal write-back would.
		d.FlushAll(sim.NewCtx(d.cfg))
		return
	}
	d.policyMu.Lock()
	policy := d.policy
	d.policyMu.Unlock()

	// Harvest all in-flight lines and clear the volatile state under the set
	// locks, then apply the policy and notify the RBB with no locks held
	// (the sink may call back into MediaWrite/MediaRead).
	var pending []inflightEntry
	for i := range d.sets {
		set := &d.sets[i]
		set.mu.Lock()
		pending = append(pending, set.inflight...)
		set.inflight = set.inflight[:0]
		set.enqueued = false
		set.clearWays()
		set.mu.Unlock()
	}
	d.pendMu.Lock()
	d.pend = d.pend[:0]
	d.pendMu.Unlock()

	sort.Slice(pending, func(i, j int) bool { return pending[i].lineIdx < pending[j].lineIdx })
	var reached []uint64
	for i := range pending {
		fl := &pending[i]
		if policy(fl.lineIdx << LineShift) {
			copy(d.media[fl.lineIdx<<LineShift:], fl.data[:])
			d.touchLine(fl.lineIdx)
			if fl.pending {
				// Reached the WPQ at power-off; ADR flushes it and the RBB
				// update logic runs during the flush (§4.2).
				reached = append(reached, fl.lineIdx)
			}
		}
	}
	for _, lineIdx := range reached {
		d.notifyReached(nil, lineIdx)
	}
}

// powerLossFlushRBB runs the installed sink's battery-backed flush, if it
// has one. Runs after Crash finalizes the media image so the flush sees the
// full set of reached-line notifications.
func (d *Device) powerLossFlushRBB() {
	d.rbbMu.Lock()
	sink := d.rbb
	d.rbbMu.Unlock()
	if f, ok := sink.(PowerLossFlusher); ok {
		f.PowerLossFlush()
	}
}

// InflightLines returns the addresses of clwb'd-but-unfenced lines in
// ascending order (for fault injection to enumerate crash outcomes).
func (d *Device) InflightLines() []uint64 {
	var out []uint64
	for i := range d.sets {
		set := &d.sets[i]
		set.mu.Lock()
		for j := range set.inflight {
			out = append(out, set.inflight[j].lineIdx<<LineShift)
		}
		set.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LineState reports, for tests, where the newest copy of the line containing
// addr currently lives.
type LineState int

const (
	// LineMediaOnly means the newest data is only in media (persistent).
	LineMediaOnly LineState = iota
	// LineCachedClean means cached and identical to media.
	LineCachedClean
	// LineCachedDirty means the newest data is volatile (lost on crash).
	LineCachedDirty
	// LineCachedPending means dirty and tagged by relocate.
	LineCachedPending
	// LineInflight means clwb'd but not fenced (crash-policy dependent).
	LineInflight
)

// NumSets returns the number of cache sets — the conflict granularity for
// host-parallel dispatch: operations whose lines map to disjoint sets share
// no per-access device state.
func (d *Device) NumSets() int { return d.nset }

// SetOfAddr returns the cache-set index the line containing addr maps to.
func (d *Device) SetOfAddr(addr uint64) int { return d.setIndex(addr >> LineShift) }

// Peek copies the newest value of [addr, addr+len(buf)) into buf — cached
// way first, then in-flight copy, then media — without simulating the
// access: no cycles are charged, no cache fill or LRU aging happens, and no
// stats move. The serving layer's dispatch-time footprint prediction uses
// it on a quiescent device; it takes the per-set locks, so it is safe
// against concurrent ops but reflects no single instant across lines.
func (d *Device) Peek(addr uint64, buf []byte) {
	d.checkRange(addr, uint64(len(buf)))
	for len(buf) > 0 {
		lineIdx := addr >> LineShift
		off := addr & (LineSize - 1)
		n := LineSize - off
		if n > uint64(len(buf)) {
			n = uint64(len(buf))
		}
		set := d.setOf(lineIdx)
		d.lockSet(set)
		copied := false
		for w, t := range set.tags {
			if t == lineIdx+1 {
				copy(buf[:n], set.ways[w].data[off:off+n])
				copied = true
				break
			}
		}
		if !copied {
			if i := set.inflightIndex(lineIdx); i >= 0 {
				copy(buf[:n], set.inflight[i].data[off:off+n])
			} else {
				copy(buf[:n], d.media[addr:addr+n])
			}
		}
		d.unlockSet(set)
		addr += n
		buf = buf[n:]
	}
}

// StateOf returns the LineState for the line containing addr.
func (d *Device) StateOf(addr uint64) LineState {
	lineIdx := addr >> LineShift
	set := d.setOf(lineIdx)
	set.mu.Lock()
	defer set.mu.Unlock()
	inflight := set.inflightIndex(lineIdx) >= 0
	for w, t := range set.tags {
		if t == lineIdx+1 {
			l := &set.ways[w]
			st := LineCachedClean
			if l.pending {
				st = LineCachedPending
			} else if l.dirty {
				st = LineCachedDirty
			} else if inflight {
				// Cached clean but the durable copy is still in flight.
				st = LineInflight
			}
			return st
		}
	}
	if inflight {
		return LineInflight
	}
	return LineMediaOnly
}

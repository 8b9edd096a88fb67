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
//     the media as the exact post-crash machine state.
//
// The media is a two-level table of 4 KB pages (DESIGN.md §7, "Media
// pages"). A page nothing has written is nil and reads as zeros, so a device
// costs the pages it has written, not its size. A checkpoint captures page
// references rather than bytes and marks them shared; a device copies a shared
// page before it first writes it, so every fork of one checkpoint shares the
// pages none of them wrote.
//
// All latencies are charged to the sim.Ctx passed to each operation. A device
// has one owner: one goroutine drives every simulated thread of its machine,
// so the device is plain data, statistics included, and takes no host lock
// or atomic. Simulated threads are sim.Ctx values, not goroutines. See
// DESIGN.md ("Host performance model") for the invariant host-side
// optimizations must keep.
//
// The modelled cache is laid out for the host's cache (DESIGN.md §7, "A cache
// laid out for the host"): each set is one 128-byte block of tags, masks,
// in-flight lines and an exact LRU stack. A way holds a line body only where
// the persistence domain cannot rebuild it: it is dirty, or media changed
// under it. Every other way reads its in-flight copy or media. An MRU hit
// reads the block and one line, its body or media's. Two invariants are fixed
// at construction and checked there, because only a bug in a caller's
// geometry can break them: at most 16 ways (the stack holds 16 4-bit way
// indices) and at most 2³²−2 media lines ≈ 256 GB (tags are uint32).
package pmem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"unsafe"

	"ffccd/internal/obsv"
	"ffccd/internal/sim"
)

// LineSize is the cacheline size in bytes.
const LineSize = 64

// LineShift is log2(LineSize).
const LineShift = 6

// DirtyPageShift is log2 of the media page size (4 KB): the unit in which a
// device holds media. A page is dirty — may differ from the all-zero image a
// fresh device starts from — exactly when the device holds it; checkpoints,
// restores, digests and releases visit only those pages, so their cost tracks
// the workload's footprint instead of the media size (DESIGN.md §7).
const DirtyPageShift = 12

// DirtyPageSize is the media page size in bytes.
const DirtyPageSize = 1 << DirtyPageShift

// leafShift is log2 of the pages one page-table leaf maps (512 × 4 KB = 2 MB
// of media).
const (
	leafShift = 9
	leafPages = 1 << leafShift

	pageLineShift = DirtyPageShift - LineShift // log2 of the lines in a page
)

// mediaPage is one page of media bytes.
type mediaPage = [DirtyPageSize]byte

// zeroPage is what every page nothing has written reads as. Only readers see
// it: writers get their pages from writable.
var zeroPage mediaPage

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

// inflightEntry is one clwb'd-but-unfenced line. Entries live with the cache
// set their line maps to, so a fence visits only the sets that hold some.
type inflightEntry struct {
	lineIdx uint64
	pending bool
	data    [LineSize]byte
}

// cacheSet is one set of the modelled cache, one 128-byte host block. An MRU
// hit reads stack, one tag (ways 0–13 share the first host line with stack)
// and, in the second line, the body mask and the in-flight slice.
type cacheSet struct {
	// stack is the exact LRU order of the valid ways: nibble i is the way
	// touched i-th most recently, for i < fill. The head is the MRU way, and
	// in a full set nibble nway-1 is the next victim.
	stack uint64
	tags  [16]uint32 // line index + 1; 0 = invalid
	// fill counts the valid ways. A miss fills the next way in index order,
	// and only dropVolatile invalidates ways, all at once, so ways [0, fill)
	// are exactly the valid ones.
	fill    uint32
	dirty   uint32 // bit w: way w differs from the persistence domain
	pending uint32 // bit w: way w is a relocate destination not yet persistent
	body    uint32 // bit w: way w holds a body (it is dirty, or media changed under it)
	// enqueued records whether this set is already on the device's
	// pending-set list.
	enqueued bool
	// inflight holds this set's clwb'd-but-unfenced lines. The slice's
	// capacity is retained across drains so the steady state allocates
	// nothing.
	inflight []inflightEntry

	_ [8]byte
}

// A cacheSet is two host lines, 128-byte aligned: the Go allocator gives a set
// array of 32 KB (minSetAlloc sets) or more pages of its own, where a smaller
// one would start 8 bytes past a boundary (TestSetBlocksAligned).
const minSetAlloc = 256

var (
	_ [unsafe.Sizeof(cacheSet{}) - 128]struct{}
	_ [128 - unsafe.Sizeof(cacheSet{})]struct{}
)

// mru returns the set's most recently used way.
func (set *cacheSet) mru() int { return int(set.stack & 15) }

// touch makes valid way w the set's most recently used: the ways above it on
// the stack move down one place.
func (set *cacheSet) touch(w int) {
	const nibbles = 0x1111111111111111
	// w's place on the stack: the lowest zero nibble of x.
	x := set.stack ^ uint64(w)*nibbles
	at := bits.TrailingZeros64((x-nibbles)&^x&(nibbles<<3)) &^ 3
	above := uint64(1)<<at - 1
	set.stack = set.stack&^(above<<4|0xF) | (set.stack&above)<<4 | uint64(w)
}

// Device is a simulated persistent-memory module plus the volatile cache in
// front of it. It belongs to one goroutine at a time, which runs every
// simulated thread (sim.Ctx) of its machine; no method takes a host lock, and
// Stats, like the observability groups built on it, is read on that goroutine
// or after the run.
type Device struct {
	cfg    *sim.Config
	size   uint64 // media bytes; 0 once released
	nset   int
	nway   int
	sets   []cacheSet
	bodies bodyStore // the bodies of the ways that hold one, by slot = set*nway + way
	valid  int       // the valid ways, every set's fill summed

	// setMagic is ⌈2⁶⁴/nset⌉ (mod 2⁶⁴), the multiplier of the division-free
	// set mapping (Lemire's fastmod), exact for every 32-bit line index.
	setMagic uint64

	// leaves is the media page table's directory: leaf k maps pages
	// [k*leafPages, (k+1)*leafPages), and is nil until one of them is
	// written. Readers go through page and mediaLine, writers through
	// writable, the one place a page is allocated or copied.
	leaves []*pageLeaf
	// gen counts the times the device let go of every page it held (a
	// Restore, RestoreMedia or ReleaseMedia): a checkpoint taken at an
	// earlier gen shares no page with the device any more.
	gen uint64

	// pend lists the indices of sets that currently hold in-flight lines, so
	// Sfence visits only those sets instead of scanning the whole cache.
	pend []int
	// fence is Sfence's reusable working set.
	fence sfenceScratch

	rbb    RBBSink
	policy CrashPolicy
	eADR   bool

	stat [statCount]uint64

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
	// default; see site.go).
	sites *SiteRecorder
}

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

// SetExclusive does nothing: a device always has exactly one owner
// goroutine. It remains for the repo benchmark's machine builders, which
// still call it.
func (d *Device) SetExclusive(bool) {}

// SetEADR switches the platform persistence domain to eADR (§4.4): on power
// failure the battery flushes *all* cache levels, so every store is durable
// once globally visible and crash consistency needs no clwb/sfence at all.
// The paper contrasts eADR's ~300 mm³ battery volume against the 0.017 mm³
// the RBB needs; this switch exists for that ablation.
func (d *Device) SetEADR(on bool) { d.eADR = on }

// EADR reports whether the device is in eADR mode.
func (d *Device) EADR() bool { return d.eADR }

// NewDevice creates a device with size bytes of all-zero persistent media.
// It holds no media page until one is written, and its cache arrays may be a
// released device's (ReleaseMedia), cleared.
func NewDevice(cfg *sim.Config, size uint64) *Device {
	return newDevice(cfg, size, true)
}

// NewDeviceForRestore creates a device that the caller will Restore a
// checkpoint into before anything else touches it. Its cache arrays may be
// a released device's, and are not cleared: Restore overwrites every set
// block and the index of every way the image holds a body for.
func NewDeviceForRestore(cfg *sim.Config, size uint64) *Device {
	return newDevice(cfg, size, false)
}

// newDevice builds a device over pooled cache arrays when a released device
// of the same geometry left some, clearing them when clean is set.
func newDevice(cfg *sim.Config, size uint64, clean bool) *Device {
	nline := cfg.CacheBytes / cfg.CacheLineSize
	nway := cfg.CacheWays
	nset := nline / nway
	if nset < 1 {
		nset = 1
	}
	if nway < 1 || nway > len(cacheSet{}.tags) || size>>LineShift > 1<<32-2 {
		panic(fmt.Sprintf("pmem: unsupported geometry: %d ways (1..16), %d media lines (<= 2^32-2)", nway, size>>LineShift))
	}
	npages := (size + DirtyPageSize - 1) >> DirtyPageShift
	d := &Device{
		cfg:      cfg,
		size:     size,
		nset:     nset,
		nway:     nway,
		setMagic: ^uint64(0)/uint64(nset) + 1,
		leaves:   make([]*pageLeaf, (npages+leafPages-1)>>leafShift),
		policy:   DropAllInflight,
	}
	if a, ok := takeArrays(nset, nway); ok {
		d.sets, d.bodies.of = a.sets, a.bodyOf
		if clean {
			d.dropVolatile(nil)
		}
	} else {
		d.sets = make([]cacheSet, max(nset, minSetAlloc))[:nset]
		d.bodies.of = make([]int32, nset*nway)
	}
	return d
}

// ReleaseMedia returns the device's private media pages, page-table leaves
// and cache arrays to the process pools; pages a checkpoint shares are left
// to it, which returns them when it is released. The device is unusable afterwards (Size reports 0); callers do this
// only when dropping it, and only once nothing else can still touch it (the
// next NewDevice may adopt its arrays at once). A second call does nothing.
func (d *Device) ReleaseMedia() {
	if d.sets == nil {
		return
	}
	for _, l := range d.leaves {
		if l != nil {
			l.release()
			putLeaf(l)
		}
	}
	pagePool.Lock()
	for _, pg := range d.bodies.pages {
		putPage(pg, false)
	}
	pagePool.Unlock()
	arrayPool.Put(cacheArrays{d.sets, d.bodies.of})
	d.gen++
	d.size, d.leaves = 0, nil
	d.sets, d.bodies = nil, bodyStore{}
	d.pend = nil
}

// Size returns the media capacity in bytes.
func (d *Device) Size() uint64 { return d.size }

// SetRBB installs the reached-bitmap sink (nil disables notifications).
func (d *Device) SetRBB(s RBBSink) { d.rbb = s }

// SetCrashPolicy installs the policy applied to in-flight lines at Crash().
func (d *Device) SetCrashPolicy(p CrashPolicy) {
	if p == nil {
		p = DropAllInflight
	}
	d.policy = p
}

// setIndex computes lineIdx % nset without a hardware divide (the set count
// is a runtime value, so the compiler cannot strength-reduce the modulo
// itself). Exact because line indices fit in 32 bits; nset == 1 wraps the
// multiplier to 0, which maps every line to set 0.
func (d *Device) setIndex(lineIdx uint64) int {
	hi, _ := bits.Mul64(d.setMagic*lineIdx, uint64(d.nset))
	return int(hi)
}

// findWay returns the way of set that holds lineIdx, or -1, without
// touching LRU state.
func (set *cacheSet) findWay(lineIdx uint64) int {
	return slices.Index(set.tags[:set.fill], uint32(lineIdx+1))
}

func (d *Device) checkRange(addr, n uint64) {
	if addr+n > d.size || addr+n < addr {
		panic(fmt.Sprintf("pmem: access out of range: addr=%#x len=%d size=%d", addr, n, d.size))
	}
}

// notifyReached reports a pending line's arrival in the persistence domain.
func (d *Device) notifyReached(ctx *sim.Ctx, lineIdx uint64) {
	d.stat[cPendingReach]++
	if d.rbb != nil {
		d.rbb.LineReached(ctx, lineIdx<<LineShift)
	}
}

// inflightIndex returns the position of lineIdx in set.inflight, or -1.
func (set *cacheSet) inflightIndex(lineIdx uint64) int {
	for i := range set.inflight {
		if set.inflight[i].lineIdx == lineIdx {
			return i
		}
	}
	return -1
}

// writeMediaLine commits a full line to media, dropping any stale in-flight
// copy (held by set, the line's set) so a later crash cannot regress the line
// to older data.
func (d *Device) writeMediaLine(ctx *sim.Ctx, set *cacheSet, lineIdx uint64, data *[LineSize]byte, pending bool) {
	copyLine(d.writableLine(lineIdx), data)
	if i := set.inflightIndex(lineIdx); i >= 0 {
		last := len(set.inflight) - 1
		set.inflight[i] = set.inflight[last]
		set.inflight = set.inflight[:last]
	}
	d.stat[cMediaWrites]++
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
	out := make([]byte, d.size)
	d.MediaRead(0, out)
	return out
}

// RestoreMedia overwrites the persistent image and drops all volatile state
// — reconstructing a captured post-crash machine. The device holds the
// image's pages that are not all zero. Testing only.
func (d *Device) RestoreMedia(img []byte) {
	if uint64(len(img)) != d.size {
		panic("pmem: RestoreMedia size mismatch")
	}
	d.dropPages()
	for start := uint64(0); start < d.size; start += DirtyPageSize {
		src := img[start:min(start+DirtyPageSize, d.size)]
		if !bytes.Equal(src, zeroPage[:len(src)]) {
			copy(bytesOf(d.writable(start>>DirtyPageShift)), src)
		}
	}
	d.dropVolatile(nil)
}

// dropVolatile invalidates every cached line, drops every body, all
// in-flight state and the pending-set list, and returns the in-flight lines
// it dropped appended to harvest (nil to discard them).
func (d *Device) dropVolatile(harvest *[]inflightEntry) {
	for i := range d.sets {
		set := &d.sets[i]
		if harvest != nil {
			*harvest = append(*harvest, set.inflight...)
		}
		*set = cacheSet{inflight: set.inflight[:0]}
	}
	d.valid = 0
	d.bodies.reset()
	d.pend = d.pend[:0]
}

// MediaRead copies persisted bytes (media only — the post-crash view). It is
// intended for recovery code, checkers and tests; it does not model latency.
func (d *Device) MediaRead(addr uint64, buf []byte) {
	d.checkRange(addr, uint64(len(buf)))
	for len(buf) > 0 {
		off := addr & (DirtyPageSize - 1)
		n := copy(buf, d.page(addr >> DirtyPageShift)[off:])
		addr += uint64(n)
		buf = buf[n:]
	}
}

// MediaWrite writes bytes straight to media, bypassing the cache — the
// memory-controller-side path used by the RBB to maintain the in-memory
// reached bitmap, and by tests to construct post-crash states.
func (d *Device) MediaWrite(addr uint64, data []byte) {
	d.checkRange(addr, uint64(len(data)))
	d.stale(addr, uint64(len(data)))
	for len(data) > 0 {
		off := addr & (DirtyPageSize - 1)
		n := copy(bytesOf(d.writable(addr >> DirtyPageShift))[off:], data)
		addr += uint64(n)
		data = data[n:]
	}
	d.stat[cMediaWrites]++
}

// MediaZero is MediaWrite of n zero bytes without the caller having to hold
// them: same media bytes, one media write counted. It keeps clean pages
// clean: a page the device does not hold is already zero, so it is left
// alone, and a page zeroed whole is dropped, so the device holds only pages
// that may hold data — a subset of what MediaWrite would leave it holding.
// Pool creation zeroes the tx log with it, and the RBB the reached bitmap at
// the start of every epoch.
func (d *Device) MediaZero(addr, n uint64) {
	d.checkRange(addr, n)
	d.stale(addr, n)
	d.stat[cMediaWrites]++
	for end := addr + n; addr < end; {
		p := addr >> DirtyPageShift
		start, next := p<<DirtyPageShift, min((p+1)<<DirtyPageShift, end)
		if addr == start && (next == start+DirtyPageSize || next == d.size) {
			d.dropPage(p)
		} else if d.holds(p) {
			clear(bytesOf(d.writable(p))[addr-start : next-start])
		}
		addr = next
	}
}

// Crash simulates a power failure: every cached line is lost, the crash
// policy decides the fate of in-flight (clwb'd, unfenced) lines, and ADR
// drains whatever reached the WPQ. After Crash the media is the machine's
// post-restart persistent state.
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
	if d.eADR {
		// eADR: the battery flushes every cache level; nothing volatile is
		// lost. Pending lines reach the persistence domain and notify the
		// RBB exactly as a normal write-back would.
		d.FlushAll(sim.NewCtx(d.cfg))
		return
	}
	// Harvest all in-flight lines and clear the volatile state, then apply the
	// policy and notify the RBB (the sink may call back into
	// MediaWrite/MediaRead).
	var pending []inflightEntry
	d.dropVolatile(&pending)

	sort.Slice(pending, func(i, j int) bool { return pending[i].lineIdx < pending[j].lineIdx })
	var reached []uint64
	for i := range pending {
		fl := &pending[i]
		if d.policy(fl.lineIdx << LineShift) {
			copyLine(d.writableLine(fl.lineIdx), &fl.data)
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
	if f, ok := d.rbb.(PowerLossFlusher); ok {
		f.PowerLossFlush()
	}
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
// batched dispatch: operations whose lines map to disjoint sets share no
// per-access device state, so they commute.
func (d *Device) NumSets() int { return d.nset }

// SetOfAddr returns the cache-set index the line containing addr maps to.
func (d *Device) SetOfAddr(addr uint64) int { return d.setIndex(addr >> LineShift) }

// newest returns the newest copy of lineIdx's bytes, from the line's first
// byte on — a cached way's body first, then in-flight copy, then media. set
// is si, the line's set.
func (d *Device) newest(set *cacheSet, si int, lineIdx uint64) []byte {
	if w := set.findWay(lineIdx); w >= 0 && set.body>>w&1 != 0 {
		return d.bodies.get(si*d.nway + w)[:]
	}
	return d.persisted(set, lineIdx)[:]
}

// Peek copies the newest value of [addr, addr+len(buf)) into buf — cached
// way first, then in-flight copy, then media — without simulating the
// access: no cycles are charged, no cache fill or LRU aging happens, and no
// stats move. The serving layer's dispatch-time footprint prediction uses
// it between operations.
func (d *Device) Peek(addr uint64, buf []byte) {
	d.checkRange(addr, uint64(len(buf)))
	for len(buf) > 0 {
		lineIdx := addr >> LineShift
		off := addr & (LineSize - 1)
		n := min(LineSize-off, uint64(len(buf)))
		si := d.setIndex(lineIdx)
		copy(buf[:n], d.newest(&d.sets[si], si, lineIdx)[off:])
		addr += n
		buf = buf[n:]
	}
}

// PeekU64 is Peek of a little-endian u64.
func (d *Device) PeekU64(addr uint64) uint64 {
	off := addr & (LineSize - 1)
	if off > LineSize-8 {
		var b [8]byte
		d.Peek(addr, b[:])
		return binary.LittleEndian.Uint64(b[:])
	}
	d.checkRange(addr, 8)
	lineIdx := addr >> LineShift
	si := d.setIndex(lineIdx)
	return binary.LittleEndian.Uint64(d.newest(&d.sets[si], si, lineIdx)[off:])
}

// StateOf returns the LineState for the line containing addr.
func (d *Device) StateOf(addr uint64) LineState {
	lineIdx := addr >> LineShift
	si := d.setIndex(lineIdx)
	set := &d.sets[si]
	inflight := set.inflightIndex(lineIdx) >= 0
	if w := set.findWay(lineIdx); w >= 0 {
		bit := uint32(1) << w
		if set.pending&bit != 0 {
			return LineCachedPending
		}
		if set.dirty&bit != 0 {
			return LineCachedDirty
		}
		if !inflight {
			return LineCachedClean
		}
		// Cached clean but the durable copy is still in flight.
	}
	if inflight {
		return LineInflight
	}
	return LineMediaOnly
}

package pmem

import (
	"math/bits"
	"slices"

	"ffccd/internal/workpool"
)

// Device checkpoint/restore for the fork-based experiment driver
// (DESIGN.md §7): capture the complete simulated machine-memory state —
// persistent media, the cache's tags/ages/line bodies, every set's LRU tick
// and dirty/pending masks, the in-flight (clwb'd, unfenced) lines, the
// pending-set list, eADR mode and the cumulative counters — and later
// reproduce it bit-identically on a fresh device of the same geometry.
//
// Media is captured SPARSELY against the all-zero base image every device
// starts from: only the pages marked in the device's dirty bitmap are
// copied, so checkpoint and restore cost tracks the workload's footprint,
// not the media size. Restore relies on the target device upholding the same
// invariant (its media equals the base image outside its own dirty bitmap),
// which NewDevice/NewDeviceForRestore guarantee — fresh arrays are zero, and
// ReleaseMedia wipes recycled ones. CheckpointInto reuses the checkpoint's
// buffers, so a driver that re-checkpoints at every candidate fork point
// allocates only while the captured footprint is still growing.

// setCheckpoint is a deep copy of one cache set's own state; its ways are in
// the checkpoint's flat slot arrays.
type setCheckpoint struct {
	Tick     uint32
	Dirty    uint32
	Pending  uint32
	Enqueued bool
	Inflight []inflightEntry
}

// DeviceCheckpoint is a deep, immutable-by-convention copy of a device's
// state. One checkpoint may be restored into any number of devices (fork
// fan-out reads it concurrently; Restore only reads the checkpoint).
type DeviceCheckpoint struct {
	// MediaLen is the source device's media size in bytes.
	MediaLen int
	// Dirty is the source's dirty-page bitmap; Pages lists the marked page
	// indices in ascending order and PageData their contents, one
	// DirtyPageSize stride per page (the final page of an unaligned media
	// size is zero-padded).
	Dirty    []uint64
	Pages    []uint32
	PageData []byte

	// Tags, Ages and Lines are the cache's slot arrays, with every age
	// explicit (no set's MRU age left implicit in its tick).
	Tags  []uint32
	Ages  []uint32
	Lines []byte
	Sets  []setCheckpoint
	Pend  []int
	EADR  bool

	// Stats holds the counters.
	Stats [statCount]uint64
}

// CapturedBytes is the volume of media data the checkpoint holds — the
// sparse alternative to the MediaBytes a full-image copy would move.
func (c *DeviceCheckpoint) CapturedBytes() uint64 {
	return uint64(len(c.Pages)) * DirtyPageSize
}

// MediaBytes is the source device's full media size.
func (c *DeviceCheckpoint) MediaBytes() uint64 { return uint64(c.MediaLen) }

// Checkpoint captures the device state. Call only on a quiescent device.
func (d *Device) Checkpoint() *DeviceCheckpoint {
	c := &DeviceCheckpoint{}
	d.CheckpointInto(c)
	return c
}

// CheckpointInto captures the device state into c, reusing c's buffers.
// Call only on a quiescent device.
func (d *Device) CheckpointInto(c *DeviceCheckpoint) {
	c.MediaLen = len(d.media)
	c.Dirty = append(c.Dirty[:0], d.dirty...)
	c.Pages = dirtyPages(c.Pages[:0], d.dirty)
	c.PageData = slices.Grow(c.PageData[:0], len(c.Pages)<<DirtyPageShift)
	size := uint64(len(d.media))
	for _, p := range c.Pages {
		start := uint64(p) << DirtyPageShift
		end := start + DirtyPageSize
		if end <= size {
			c.PageData = append(c.PageData, d.media[start:end]...)
			continue
		}
		// Unaligned tail: store the partial page zero-padded to full stride.
		var pad [DirtyPageSize]byte
		copy(pad[:], d.media[start:size])
		c.PageData = append(c.PageData, pad[:]...)
	}

	c.Tags = append(c.Tags[:0], d.tags...)
	c.Ages = append(c.Ages[:0], d.ages...)
	c.Lines = append(c.Lines[:0], d.lines...)
	if len(c.Sets) != len(d.sets) {
		c.Sets = make([]setCheckpoint, len(d.sets))
	}
	for i := range d.sets {
		set := &d.sets[i]
		if set.mruTag != 0 {
			c.Ages[i*d.nway+int(set.mru)] = set.tick
		}
		cs := &c.Sets[i]
		cs.Tick, cs.Dirty, cs.Pending, cs.Enqueued = set.tick, set.dirty, set.pending, set.enqueued
		cs.Inflight = append(cs.Inflight[:0], set.inflight...)
	}
	c.Pend = append(c.Pend[:0], d.pend...)
	c.EADR = d.eADR

	c.Stats = d.stat
}

// parallelRestoreBytes is the media volume above which Restore fans its
// spans out on the worker pool; below it the fan-out overhead exceeds the
// copy cost.
const parallelRestoreBytes = 1 << 20

// restoreSpan is one contiguous media range a Restore must rewrite: either
// zeroed (a page of the target's dirty set the checkpoint does not cover) or
// copied from the checkpoint's page data.
type restoreSpan struct {
	mediaOff uint64
	dataOff  uint64 // into DeviceCheckpoint.PageData; copy spans only
	n        uint64
	zero     bool
}

// restoreSpans plans a Restore as coalesced disjoint spans: the zero walk
// over own &^ checkpoint pages, then the checkpoint's page copies, with runs
// of consecutive pages merged. Zero and copy spans address disjoint page
// sets by construction.
func restoreSpans(own []uint64, c *DeviceCheckpoint, size uint64) []restoreSpan {
	var spans []restoreSpan
	push := func(s restoreSpan) {
		if n := len(spans); n > 0 {
			prev := &spans[n-1]
			if prev.zero == s.zero && prev.mediaOff+prev.n == s.mediaOff &&
				(s.zero || prev.dataOff+prev.n == s.dataOff) {
				prev.n += s.n
				return
			}
		}
		spans = append(spans, s)
	}
	for w, bw := range own {
		if w < len(c.Dirty) {
			bw &^= c.Dirty[w]
		}
		for bw != 0 {
			p := uint64(w<<6 + bits.TrailingZeros64(bw))
			bw &= bw - 1
			start := p << DirtyPageShift
			end := start + DirtyPageSize
			if end > size {
				end = size
			}
			if end > start {
				push(restoreSpan{mediaOff: start, n: end - start, zero: true})
			}
		}
	}
	for i, p := range c.Pages {
		start := uint64(p) << DirtyPageShift
		end := start + DirtyPageSize
		if end > size {
			end = size
		}
		if end > start {
			push(restoreSpan{mediaOff: start, dataOff: uint64(i) << DirtyPageShift, n: end - start})
		}
	}
	return spans
}

// dirtyPages appends a dirty bitmap's page indices to out, ascending.
func dirtyPages(out []uint32, bitmap []uint64) []uint32 {
	for w, bw := range bitmap {
		for bw != 0 {
			out = append(out, uint32(w<<6+bits.TrailingZeros64(bw)))
			bw &= bw - 1
		}
	}
	return out
}

// Restore overwrites the device's state from c. The device must have the
// same media size and cache geometry as the checkpoint's source, and must
// uphold the base-image invariant (media all-zero outside its dirty
// bitmap). Call only on a quiescent device; the checkpoint itself is not
// modified, so several devices may restore from the same checkpoint
// concurrently.
func (d *Device) Restore(c *DeviceCheckpoint) {
	if c.MediaLen != len(d.media) || len(c.Sets) != len(d.sets) || len(c.Tags) != len(d.tags) {
		panic("pmem: Restore geometry mismatch")
	}
	size := uint64(len(d.media))
	// Zero this device's dirty pages the checkpoint does not cover (its
	// covered pages are overwritten below) and copy the checkpoint's pages
	// in, then adopt its bitmap. Runs of consecutive pages coalesce into
	// spans — one clear()/copy() per span instead of one call per page — and
	// a large restore fans the spans out on the worker pool: the spans are
	// pairwise disjoint byte ranges and each span's content is independent
	// of every other, so host execution order cannot change the result.
	spans := restoreSpans(d.dirty, c, size)
	apply := func(s restoreSpan) {
		if s.zero {
			clear(d.media[s.mediaOff : s.mediaOff+s.n])
		} else {
			copy(d.media[s.mediaOff:s.mediaOff+s.n], c.PageData[s.dataOff:s.dataOff+s.n])
		}
	}
	var total uint64
	for _, s := range spans {
		total += s.n
	}
	if total >= parallelRestoreBytes && len(spans) > 1 {
		_ = workpool.ForEach(len(spans), func(i int) error {
			apply(spans[i])
			return nil
		})
	} else {
		for _, s := range spans {
			apply(s)
		}
	}
	copy(d.dirty, c.Dirty)
	copy(d.tags, c.Tags)
	copy(d.ages, c.Ages)
	copy(d.lines, c.Lines)
	for i := range d.sets {
		set := &d.sets[i]
		cs := &c.Sets[i]
		// The checkpoint's ages are all explicit: no way is trusted as MRU
		// until the next access finds one.
		set.mruTag, set.mru = 0, 0
		set.tick, set.dirty, set.pending, set.enqueued = cs.Tick, cs.Dirty, cs.Pending, cs.Enqueued
		set.inflight = append(set.inflight[:0], cs.Inflight...)
	}
	d.pend = append(d.pend[:0], c.Pend...)
	d.eADR = c.EADR
	d.stat = c.Stats
}

package pmem

import (
	"math/bits"
	"slices"
)

// Device checkpoint/restore for the fork drivers (DESIGN.md §13, "Images
// and forks"): capture the complete simulated machine-memory state —
// persistent media, the cache's set blocks (tags, recency stacks, fill counts,
// dirty/pending/body masks), the in-flight (clwb'd, unfenced) lines, the
// pending-set list, eADR mode and the cumulative counters — and later
// reproduce it bit-identically on a fresh device of the same geometry.
//
// Media is captured as page references, not bytes: a checkpoint lists the
// pages its source holds and points at them, and marks them shared in the
// source, which from then on copies a page before it writes it. Restore
// adopts the references as shared in the same way, so capture and restore
// cost the number of pages held, and each fork of a checkpoint holds private
// copies only of the pages it writes. No device writes or pools a shared
// page, so any number of devices may restore one checkpoint concurrently.
//
// The pages that were private in the source when it was captured belong to
// the checkpoint, and Release puts them into the page pool; pages the source
// itself shared (restored from, or captured by, another checkpoint) stay with
// that one. Release a checkpoint once its source has let go of its pages
// (ReleaseMedia or a Restore; Release panics before that) and every device
// restored from it has been released. CheckpointInto reuses the
// checkpoint's buffers, and a second capture of the same source takes over
// the pages the first one owned that the source still holds, pooling the
// rest.
//
// A checkpoint copies the line bodies the device holds, which are the ones
// the persistence domain cannot rebuild: dirty ways, and clean ones that
// MediaWrite or MediaZero changed media under.

// DeviceCheckpoint is a deep, immutable-by-convention copy of a device's
// state. One checkpoint may be restored into any number of devices (fork
// fan-out reads it concurrently; Restore only reads the checkpoint) until it
// is released.
type DeviceCheckpoint struct {
	// MediaLen is the source device's media size in bytes.
	MediaLen int
	// Pages lists the page indices the source held, ascending, and Refs the
	// pages themselves, which the checkpoint shares with the source and with
	// every device restored from it. Bit k of own is set when the checkpoint
	// owns Refs[k]: Release pools it.
	Pages []uint32
	Refs  []*mediaPage
	own   []uint64

	// src is the captured device, at generation srcGen; nil once released.
	src    *Device
	srcGen uint64

	// Sets are the cache's set blocks with their in-flight slices nil;
	// Inflight holds every set's in-flight lines, in set order.
	Sets     []cacheSet
	Valid    int // the valid ways
	Inflight []inflightEntry
	// Slots lists, ascending, the ways that hold a body; Lines their bodies.
	Slots []int
	Lines [][LineSize]byte
	Pend  []int
	EADR  bool

	// Stats holds the counters.
	Stats [statCount]uint64
}

// CapturedBytes is the volume of media the checkpoint references — the
// footprint a full-image copy would instead move MediaBytes of.
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

// CheckpointInto captures the device state into c, reusing c's buffers, and
// marks every page the device holds shared. Call only on a quiescent device.
// The pages c owns from an earlier capture stay c's where d still holds them;
// the rest go to the pool, as Release would put them.
func (d *Device) CheckpointInto(c *DeviceCheckpoint) {
	if c.src != d {
		c.mustBeLetGo()
	}
	d.reclaim(c)
	c.MediaLen, c.src, c.srcGen = int(d.size), d, d.gen
	c.Pages, c.Refs, c.own = c.Pages[:0], c.Refs[:0], c.own[:0]
	for k, l := range d.leaves {
		if l == nil {
			continue
		}
		for i, pg := range &l.pages {
			if pg == nil {
				continue
			}
			n := len(c.Refs)
			if n&63 == 0 {
				c.own = append(c.own, 0)
			}
			if !l.isShared(uint64(i)) {
				c.own[n>>6] |= 1 << (n & 63)
				l.shared[i>>6] |= 1 << (i & 63)
			}
			c.Pages = append(c.Pages, uint32(k<<leafShift+i))
			c.Refs = append(c.Refs, pg)
		}
	}
	clear(c.Refs[len(c.Refs):cap(c.Refs)]) // no stale reference keeps a page alive

	c.Sets, c.Valid = append(c.Sets[:0], d.sets...), d.valid
	n := 0
	for i := range d.sets {
		n += bits.OnesCount32(d.sets[i].body)
	}
	c.Inflight, c.Slots, c.Lines = c.Inflight[:0], slices.Grow(c.Slots[:0], n), slices.Grow(c.Lines[:0], n)
	for si := range d.sets {
		set := &d.sets[si]
		c.Sets[si].inflight = nil
		c.Inflight = append(c.Inflight, set.inflight...)
		for m := set.body; m != 0; m &= m - 1 {
			slot := si*d.nway + bits.TrailingZeros32(m)
			c.Slots = append(c.Slots, slot)
			c.Lines = append(c.Lines, *d.bodies.get(slot))
		}
	}
	c.Pend = append(c.Pend[:0], d.pend...)
	c.EADR = d.eADR

	c.Stats = d.stat
}

// reclaim hands the pages c owns back to d before d is captured into c: a
// page d holds becomes private to d again, so the new capture owns it, and
// one d has copied, dropped or never held is pooled.
func (d *Device) reclaim(c *DeviceCheckpoint) {
	pagePool.Lock()
	defer pagePool.Unlock()
	for k, p := range c.Pages {
		if c.own[k>>6]>>(k&63)&1 == 0 {
			continue
		}
		i := p & (leafPages - 1)
		if l := d.leaves[p>>leafShift]; l != nil && l.pages[i] == c.Refs[k] {
			l.shared[i>>6] &^= 1 << (i & 63)
		} else {
			putPage(c.Refs[k], true)
		}
	}
}

// Release puts the pages c owns into the page pool, counting them in
// ReturnedPages, and empties c; its buffers stay for the next CheckpointInto.
// c's source must have let go of its pages (ReleaseMedia or a Restore), and
// no device restored from c may still be live: they would read pages others
// reuse. Release panics when the source still holds them, and so does a
// Restore from a released checkpoint. A second Release does nothing.
func (c *DeviceCheckpoint) Release() {
	if c.src == nil {
		return
	}
	c.mustBeLetGo()
	pagePool.Lock()
	for k, pg := range c.Refs {
		if c.own[k>>6]>>(k&63)&1 != 0 {
			putPage(pg, true)
		}
	}
	pagePool.Unlock()
	clear(c.Refs)
	c.MediaLen, c.src = 0, nil
	c.Pages, c.Refs, c.own = c.Pages[:0], c.Refs[:0], c.own[:0]
}

// mustBeLetGo panics when c's source still holds the pages c captured.
func (c *DeviceCheckpoint) mustBeLetGo() {
	if c.src != nil && c.src.gen == c.srcGen {
		panic("pmem: checkpoint released while its source device still holds its pages")
	}
}

// Restore overwrites the device's state from c. The device must have the
// same media size and cache geometry as the checkpoint's source. Its own
// private pages go back to the pool, and it adopts c's pages as shared. Call
// only on a quiescent device; the checkpoint itself is not modified, so
// several devices may restore from the same checkpoint concurrently.
func (d *Device) Restore(c *DeviceCheckpoint) {
	if c.MediaLen != int(d.size) || len(c.Sets) != len(d.sets) || len(c.Sets)*d.nway != len(d.bodies.of) {
		panic("pmem: Restore geometry mismatch")
	}
	d.dropPages()
	for k, p := range c.Pages {
		l := d.leaves[p>>leafShift]
		if l == nil {
			l = d.newLeaf(uint64(p) >> leafShift)
		}
		i := p & (leafPages - 1)
		l.pages[i] = c.Refs[k]
		l.shared[i>>6] |= 1 << (i & 63)
	}
	for si := range d.sets {
		set := &d.sets[si]
		inflight := set.inflight[:0]
		*set = c.Sets[si]
		set.inflight = inflight
	}
	d.valid = c.Valid
	for _, fl := range c.Inflight {
		set := &d.sets[d.setIndex(fl.lineIdx)]
		set.inflight = append(set.inflight, fl)
	}
	d.bodies.reset()
	for k, slot := range c.Slots {
		d.bodies.add(slot, &c.Lines[k])
	}
	d.pend = append(d.pend[:0], c.Pend...)
	d.eADR = c.EADR
	d.stat = c.Stats
}

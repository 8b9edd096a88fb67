package pmem

import (
	"encoding/binary"
	"math/bits"
	"slices"

	"ffccd/internal/obsv"
	"ffccd/internal/sim"
)

// persisted returns the newest persistent copy of lineIdx, which a way with
// no body reads: in-flight beats media. set is the line's set.
func (d *Device) persisted(set *cacheSet, lineIdx uint64) *[LineSize]byte {
	if i := set.inflightIndex(lineIdx); i >= 0 {
		return &set.inflight[i].data
	}
	return d.mediaLine(lineIdx)
}

// write marks the set's MRU way, at slot, dirty and returns its body, giving
// it a copy of line, the bytes it reads, first when it has none.
func (d *Device) write(set *cacheSet, slot int, line *[LineSize]byte) *[LineSize]byte {
	bit := uint32(1) << set.mru()
	set.dirty |= bit
	if set.body&bit == 0 {
		set.body |= bit
		return d.bodies.add(slot, line)
	}
	return line
}

// stale gives every resident bodiless way of [addr, addr+n) a body holding
// its persisted line, before a media write changes the media under it.
func (d *Device) stale(addr, n uint64) {
	for l := addr >> LineShift; n > 0 && l <= (addr+n-1)>>LineShift; l++ {
		si := d.setIndex(l)
		set := &d.sets[si]
		if w := set.findWay(l); w >= 0 && set.body>>w&1 == 0 {
			set.body |= 1 << w
			d.bodies.add(si*d.nway+w, d.persisted(set, l))
		}
	}
}

// cached ensures lineIdx is resident, filling from the persistence domain on a
// miss (evicting a victim if needed). It returns the line's set, its slot —
// the set's MRU way —, the bytes the way reads and 1 if the access missed in
// the cache, 0 if it hit. A way reads its body, or the persisted line when it
// has none: a filled way has none until it is written (write).
func (d *Device) cached(ctx *sim.Ctx, lineIdx uint64) (set *cacheSet, slot int, line *[LineSize]byte, miss uint64) {
	si := d.setIndex(lineIdx)
	set = &d.sets[si]
	if w := set.mru(); set.tags[w] == uint32(lineIdx+1) {
		slot = si*d.nway + w
	} else {
		slot, miss = d.resident(ctx, set, si*d.nway, lineIdx)
	}
	if set.body>>set.mru()&1 != 0 {
		return set, slot, d.bodies.get(slot), miss
	}
	if len(set.inflight) != 0 {
		return set, slot, d.persisted(set, lineIdx), miss
	}
	return set, slot, d.mediaLine(lineIdx), miss // persisted, without its call
}

// resident is cached off the MRU way: it makes lineIdx resident in set, whose
// first slot is base, and leaves it the set's MRU way. A miss takes the next
// unfilled way while the set fills, else the least recently used one.
func (d *Device) resident(ctx *sim.Ctx, set *cacheSet, base int, lineIdx uint64) (slot int, miss uint64) {
	if w := set.findWay(lineIdx); w >= 0 {
		set.touch(w)
		return base + w, 0
	}
	victim := int(set.fill)
	if victim < d.nway {
		set.fill++
		set.stack = set.stack<<4 | uint64(victim)
	} else {
		at := 4 * (d.nway - 1)
		victim = int(set.stack >> at & 15)
		set.stack = (set.stack<<4 | uint64(victim)) & (uint64(1)<<(at+4) - 1)
	}
	slot = base + victim
	bit := uint32(1) << victim
	if set.dirty&bit != 0 {
		d.stat[cEvictions]++
		d.writeMediaLine(ctx, set, uint64(set.tags[victim]-1), d.bodies.get(slot), set.pending&bit != 0)
	}
	if set.body&bit != 0 {
		d.bodies.drop(slot)
	}
	set.tags[victim] = uint32(lineIdx + 1)
	set.dirty &^= bit
	set.pending &^= bit
	set.body &^= bit
	return slot, 1
}

// account counts one Load or Store (op is cLoads or cStores) that touched
// lines cachelines of which misses missed, and charges its latency. Hits are
// not counted: every touched line hits or misses, so Stats derives them, and
// a single-line hit — nearly every access — pays for one increment.
func (d *Device) account(ctx *sim.Ctx, op int, lines, misses uint64) {
	d.stat[op]++
	d.stat[cExtraLines] += lines - 1
	d.stat[cCacheMisses] += misses
	ctx.Charge(lines*d.cfg.L2Latency + misses*d.cfg.PMReadLatency)
}

// Load reads len(buf) bytes at addr through the cache, charging hit/miss
// latencies. TLB translation is charged by the caller, which knows the
// virtual address.
func (d *Device) Load(ctx *sim.Ctx, addr uint64, buf []byte) {
	d.checkRange(addr, uint64(len(buf)))
	lineIdx := addr >> LineShift
	off := addr & (LineSize - 1)
	var lines, misses uint64
	for {
		n := min(LineSize-off, uint64(len(buf)))
		_, _, line, miss := d.cached(ctx, lineIdx)
		copy(buf[:n], line[off:])
		lines++
		misses += miss
		if buf = buf[n:]; len(buf) == 0 {
			break
		}
		lineIdx++
		off = 0
	}
	d.account(ctx, cLoads, lines, misses)
}

// LoadU64 is Load of a little-endian u64 — the same access, counters and
// charges — without a buffer in between: the dominant access (headers,
// pointers, u64 fields). A word straddling two lines goes through Load.
func (d *Device) LoadU64(ctx *sim.Ctx, addr uint64) uint64 {
	off := addr & (LineSize - 1)
	if off > LineSize-8 {
		var b [8]byte
		d.Load(ctx, addr, b[:])
		return binary.LittleEndian.Uint64(b[:])
	}
	d.checkRange(addr, 8)
	lineIdx := addr >> LineShift
	_, _, line, miss := d.cached(ctx, lineIdx)
	v := binary.LittleEndian.Uint64(line[off:])
	d.account(ctx, cLoads, 1, miss)
	return v
}

// Store writes data at addr through the cache (write-allocate, write-back).
func (d *Device) Store(ctx *sim.Ctx, addr uint64, data []byte) {
	d.store(ctx, addr, data, false)
}

// store is Store, tagging every line it writes as a relocate destination
// when pending is set.
func (d *Device) store(ctx *sim.Ctx, addr uint64, data []byte, pending bool) {
	d.checkRange(addr, uint64(len(data)))
	lineIdx := addr >> LineShift
	off := addr & (LineSize - 1)
	var lines, misses uint64
	for {
		n := min(LineSize-off, uint64(len(data)))
		set, slot, line, miss := d.cached(ctx, lineIdx)
		copy(d.write(set, slot, line)[off:], data[:n])
		if pending {
			set.pending |= 1 << set.mru()
		}
		lines++
		misses += miss
		if data = data[n:]; len(data) == 0 {
			break
		}
		lineIdx++
		off = 0
	}
	d.account(ctx, cStores, lines, misses)
}

// StoreU64 is Store of a little-endian u64; see LoadU64.
func (d *Device) StoreU64(ctx *sim.Ctx, addr, v uint64) {
	off := addr & (LineSize - 1)
	if off > LineSize-8 {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		d.Store(ctx, addr, b[:])
		return
	}
	d.checkRange(addr, 8)
	lineIdx := addr >> LineShift
	set, slot, line, miss := d.cached(ctx, lineIdx)
	binary.LittleEndian.PutUint64(d.write(set, slot, line)[off:], v)
	d.account(ctx, cStores, 1, miss)
}

// Clwb initiates write-back of the line containing addr. The line becomes
// clean in the cache and its body moves to the in-flight buffer: durable
// only after the next Sfence (or if the crash policy is merciful). A clwb of
// a line that is not dirty is a no-op beyond its access cost.
func (d *Device) Clwb(ctx *sim.Ctx, addr uint64) {
	d.checkRange(addr, 1)
	lineIdx := addr >> LineShift
	d.stat[cClwbs]++
	si := d.setIndex(lineIdx)
	set := &d.sets[si]
	if w := set.findWay(lineIdx); w >= 0 && set.dirty>>w&1 != 0 {
		bit := uint32(1) << w
		i := set.inflightIndex(lineIdx)
		if i < 0 {
			i = len(set.inflight)
			set.inflight = append(set.inflight, inflightEntry{lineIdx: lineIdx})
			if !set.enqueued {
				set.enqueued = true
				d.pend = append(d.pend, si)
			}
		}
		fl := &set.inflight[i]
		slot := si*d.nway + w
		fl.data = *d.bodies.get(slot)
		fl.pending = fl.pending || set.pending&bit != 0
		d.bodies.drop(slot)
		set.dirty &^= bit
		set.pending &^= bit
		set.body &^= bit
		ctx.PendingFlushes++
	}
	ctx.Charge(d.cfg.L2Latency + d.cfg.WPQLatency)
}

// sfenceScratch holds Sfence's reusable working set.
type sfenceScratch struct {
	sets    []int
	reached []uint64
}

// Sfence drains all in-flight lines into the persistence domain and stalls
// the issuing thread. (Real sfence orders only the issuing core's stores;
// draining globally is a conservative simplification that never weakens the
// schemes' ordering assumptions — documented in DESIGN.md.) Only sets that
// actually hold in-flight lines are visited, and pending-line RBB
// notifications are issued in ascending line order, whichever sets held the
// lines.
func (d *Device) Sfence(ctx *sim.Ctx) {
	d.Site(ctx, SiteSfence)
	d.stat[cSfences]++

	// Take the pending-set list and leave the last fence's (drained) one in
	// its place.
	sc := &d.fence
	sc.sets, d.pend = d.pend, sc.sets[:0]

	drained := 0
	reached := sc.reached[:0]
	for _, si := range sc.sets {
		set := &d.sets[si]
		set.enqueued = false
		for i := range set.inflight {
			fl := &set.inflight[i]
			copyLine(d.writableLine(fl.lineIdx), &fl.data)
			if fl.pending {
				reached = append(reached, fl.lineIdx)
			}
		}
		drained += len(set.inflight)
		set.inflight = set.inflight[:0]
	}
	var stall uint64
	if drained > 0 {
		d.stat[cMediaWrites] += uint64(drained)
		stall = uint64(drained) * d.cfg.PMWriteBandwidthPenalty
		ctx.Charge(stall)
	}
	if h := d.hWPQ; h != nil {
		h.Observe(uint64(drained))
		if d.ringRec {
			d.obs.Tracer.Instant(ctx, obsv.KindWPQDrain, uint64(drained))
		}
	}
	if len(reached) > 1 {
		slices.Sort(reached)
	}
	for _, lineIdx := range reached {
		d.notifyReached(ctx, lineIdx)
	}
	sc.reached = reached[:0]
	d.Site(ctx, SiteWPQDrain)
	if ctx.PendingFlushes > 0 || drained > 0 {
		// The fence exposes the full PM write latency — the stall FFCCD's
		// fence-free design eliminates (§3.3.3).
		ctx.Charge(d.cfg.PMWriteLatency)
		stall += d.cfg.PMWriteLatency
	} else {
		ctx.Charge(d.cfg.WPQLatency)
		stall += d.cfg.WPQLatency
	}
	ctx.PendingFlushes = 0
	if p := d.drainProbe; p != nil {
		p(ctx, stall)
	}
}

// FlushAll writes every dirty cached line back to media (clwb+sfence over
// the whole cache). Used by terminate() before releasing relocation pages
// and by tests that need a fully persisted heap.
func (d *Device) FlushAll(ctx *sim.Ctx) {
	for si := range d.sets {
		set := &d.sets[si]
		for m := set.dirty; m != 0; m &= m - 1 {
			w := bits.TrailingZeros32(m)
			slot := si*d.nway + w
			d.writeMediaLine(ctx, set, uint64(set.tags[w]-1), d.bodies.get(slot), set.pending&(1<<w) != 0)
			d.bodies.drop(slot)
		}
		set.body &^= set.dirty
		set.dirty, set.pending = 0, 0
	}
	d.Sfence(ctx)
}

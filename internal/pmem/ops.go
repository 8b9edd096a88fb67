package pmem

import (
	"encoding/binary"
	"math/bits"
	"slices"

	"ffccd/internal/obsv"
	"ffccd/internal/sim"
)

// fillLine loads the newest persistent copy of lineIdx (in-flight beats
// media) into buf. set is the line's set.
func (d *Device) fillLine(set *cacheSet, lineIdx uint64, buf *[LineSize]byte) {
	if i := set.inflightIndex(lineIdx); i >= 0 {
		*buf = set.inflight[i].data
		return
	}
	copy(buf[:], d.media[lineIdx<<LineShift:(lineIdx+1)<<LineShift])
}

// cached ensures lineIdx is resident, filling from the persistence domain on a
// miss (evicting a victim if needed). It returns the line's set, its slot —
// way set.mru of the set — and 1 if the access missed in the cache, 0 if it
// hit. The caller accesses the body and updates the set's masks.
func (d *Device) cached(ctx *sim.Ctx, lineIdx uint64) (set *cacheSet, slot int, miss uint64) {
	si := d.setIndex(lineIdx)
	set = &d.sets[si]
	if set.mruTag == uint32(lineIdx+1) {
		// The set's last-touched way again: its age is the tick, implicitly.
		set.tick++
		return set, si*d.nway + int(set.mru), 0
	}
	slot, miss = d.resident(ctx, set, si*d.nway, lineIdx)
	return set, slot, miss
}

// resident is cached off the MRU way: it makes lineIdx resident in set, whose
// first slot is base, and leaves it the set's trusted MRU way.
func (d *Device) resident(ctx *sim.Ctx, set *cacheSet, base int, lineIdx uint64) (slot int, miss uint64) {
	tag := uint32(lineIdx + 1)
	tags := d.tags[base : base+d.nway]
	ages := d.ages[base : base+d.nway]
	if set.mruTag != 0 {
		// Another way is about to be touched: the old MRU way's age stops
		// being implicit.
		ages[set.mru] = set.tick
	}
	set.tick++
	victim := 0
	var oldest uint32 = ^uint32(0)
	for w, t := range tags {
		if t == tag {
			set.mruTag, set.mru = tag, uint32(w)
			return base + w, 0
		}
		if t == 0 {
			if oldest != 0 {
				victim, oldest = w, 0
			}
			continue
		}
		if a := ages[w]; a < oldest {
			victim, oldest = w, a
		}
	}
	// Miss: evict the victim and fill.
	slot = base + victim
	bit := uint32(1) << victim
	if vt := tags[victim]; vt != 0 && set.dirty&bit != 0 {
		d.lineShard(uint64(vt - 1)).c[cEvictions].Add(1)
		d.writeMediaLine(ctx, set, uint64(vt-1), d.body(slot), set.pending&bit != 0)
	}
	tags[victim] = tag
	set.mruTag, set.mru = tag, uint32(victim)
	set.dirty &^= bit
	set.pending &^= bit
	d.fillLine(set, lineIdx, d.body(slot))
	return slot, 1
}

// account counts one Load or Store (op is cLoads or cStores) that touched
// lines cachelines of which misses missed, and charges its latency. Hits are
// not counted: every touched line hits or misses, so Stats derives them, and
// a single-line hit — nearly every access — pays for one increment.
func (d *Device) account(ctx *sim.Ctx, shard *statShard, op int, lines, misses uint64) {
	shard.c[op].Add(1)
	if lines > 1 {
		shard.c[cExtraLines].Add(lines - 1)
	}
	if misses > 0 {
		shard.c[cCacheMisses].Add(misses)
		shard.c[cMediaReads].Add(misses)
	}
	ctx.Charge(lines*d.cfg.L2Latency + misses*d.cfg.PMReadLatency)
}

// Load reads len(buf) bytes at addr through the cache, charging hit/miss
// latencies. TLB translation is charged by the caller, which knows the
// virtual address.
func (d *Device) Load(ctx *sim.Ctx, addr uint64, buf []byte) {
	d.checkRange(addr, uint64(len(buf)))
	lineIdx := addr >> LineShift
	off := addr & (LineSize - 1)
	shard := d.lineShard(lineIdx)
	var lines, misses uint64
	for {
		n := min(LineSize-off, uint64(len(buf)))
		_, slot, miss := d.cached(ctx, lineIdx)
		copy(buf[:n], d.body(slot)[off:])
		lines++
		misses += miss
		if buf = buf[n:]; len(buf) == 0 {
			break
		}
		lineIdx++
		off = 0
	}
	d.account(ctx, shard, cLoads, lines, misses)
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
	_, slot, miss := d.cached(ctx, lineIdx)
	v := binary.LittleEndian.Uint64(d.body(slot)[off:])
	d.account(ctx, d.lineShard(lineIdx), cLoads, 1, miss)
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
	shard := d.lineShard(lineIdx)
	var lines, misses uint64
	for {
		n := min(LineSize-off, uint64(len(data)))
		set, slot, miss := d.cached(ctx, lineIdx)
		copy(d.body(slot)[off:], data[:n])
		set.dirty |= 1 << set.mru
		if pending {
			set.pending |= 1 << set.mru
		}
		lines++
		misses += miss
		if data = data[n:]; len(data) == 0 {
			break
		}
		lineIdx++
		off = 0
	}
	d.account(ctx, shard, cStores, lines, misses)
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
	set, slot, miss := d.cached(ctx, lineIdx)
	binary.LittleEndian.PutUint64(d.body(slot)[off:], v)
	set.dirty |= 1 << set.mru
	d.account(ctx, d.lineShard(lineIdx), cStores, 1, miss)
}

// Clwb initiates write-back of the line containing addr. The line becomes
// clean in the cache and its contents move to the in-flight buffer: durable
// only after the next Sfence (or if the crash policy is merciful). A clwb of
// a line that is not dirty is a no-op beyond its access cost.
func (d *Device) Clwb(ctx *sim.Ctx, addr uint64) {
	d.checkRange(addr, 1)
	lineIdx := addr >> LineShift
	d.lineShard(lineIdx).c[cClwbs].Add(1)
	si := d.setIndex(lineIdx)
	set := &d.sets[si]
	if w := d.findWay(set, si, lineIdx); w >= 0 && set.dirty>>w&1 != 0 {
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
		fl.data = *d.body(si*d.nway + w)
		fl.pending = fl.pending || set.pending&bit != 0
		set.dirty &^= bit
		set.pending &^= bit
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
	d.ctxShard(ctx).c[cSfences].Add(1)

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
			copy(d.media[fl.lineIdx<<LineShift:], fl.data[:])
			d.touchLine(fl.lineIdx)
			if fl.pending {
				reached = append(reached, fl.lineIdx)
			}
		}
		drained += len(set.inflight)
		set.inflight = set.inflight[:0]
	}
	var stall uint64
	if drained > 0 {
		d.ctxShard(ctx).c[cMediaWrites].Add(uint64(drained))
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
			d.writeMediaLine(ctx, set, uint64(d.tags[slot]-1), d.body(slot), set.pending&(1<<w) != 0)
		}
		set.dirty, set.pending = 0, 0
	}
	d.Sfence(ctx)
}

package pmem

import (
	"sync"

	"ffccd/internal/obsv"
	"ffccd/internal/sim"
)

// RelocatePart is one source→destination span of a relocate operation.
type RelocatePart struct {
	Dst, Src, N uint64
}

// relocSpan is one source chunk destined for (part of) one destination line.
// Data lives in the scratch arena at [start,end); next chains spans that
// target the same destination line, in chunk order.
type relocSpan struct {
	off        uint64 // offset within the destination line
	start, end int    // arena range
	next       int    // next span for the same line, or -1
}

// relocLine is one destination line with its chain of spans.
type relocLine struct {
	lineIdx    uint64
	head, tail int
}

// relocScratch is the reusable working set of one RelocateParts call. All
// slices retain capacity and the map retains its buckets across calls, so
// the steady-state hot path allocates nothing.
type relocScratch struct {
	arena   []byte
	spans   []relocSpan
	lines   []relocLine
	lineOf  map[uint64]int
	lineBuf [LineSize]byte
}

var relocPool = sync.Pool{
	New: func() any { return &relocScratch{lineOf: make(map[uint64]int)} },
}

var zeroLine [LineSize]byte

// Relocate implements the paper's relocate instruction (§4.2): it copies n
// bytes from src to dst through the cache, tagging every destination line
// with the pending bit. No flush or fence is issued; the copied data reaches
// the persistence domain lazily (eviction, a later clwb+sfence, or ADR at
// power-off), and the RBB is notified when it does.
func (d *Device) Relocate(ctx *sim.Ctx, dst, src, n uint64) {
	d.RelocateParts(ctx, []RelocatePart{{Dst: dst, Src: src, N: n}})
}

// RelocateParts performs one relocate operation over multiple spans,
// assembling each destination cacheline's new bytes in full before issuing a
// single store for it. Destination lines are therefore update-atomic: a line
// that reaches the persistence domain carries either none or all of the
// operation's bytes for that line — the invariant the reached bitmap's
// per-line granularity relies on during recovery (Observation 4), both for
// objects whose source is not line-aligned and for small objects sharing a
// destination line (which the defragmenter relocates as one cluster through
// this call).
func (d *Device) RelocateParts(ctx *sim.Ctx, parts []RelocatePart) {
	d.Site(ctx, SiteRelocate)
	d.stat[cRelocateOps]++
	if d.ringRec {
		var bytes uint64
		for _, p := range parts {
			bytes += p.N
		}
		d.obs.Tracer.Instant(ctx, obsv.KindRelocate, bytes)
	}
	sc := relocPool.Get().(*relocScratch)
	sc.arena = sc.arena[:0]
	sc.spans = sc.spans[:0]
	sc.lines = sc.lines[:0]
	clear(sc.lineOf)

	// Gather the per-destination-line writes: read every source chunk
	// through the cache (in operation order) into the arena and chain it to
	// its destination line.
	for _, p := range parts {
		d.checkRange(p.Src, p.N)
		d.checkRange(p.Dst, p.N)
		dst, src, n := p.Dst, p.Src, p.N
		for n > 0 {
			lineIdx := dst >> LineShift
			off := dst & (LineSize - 1)
			step := LineSize - off
			if step > n {
				step = n
			}
			start := len(sc.arena)
			sc.arena = append(sc.arena, zeroLine[:step]...)
			d.Load(ctx, src, sc.arena[start:start+int(step)])
			si := len(sc.spans)
			sc.spans = append(sc.spans, relocSpan{off: off, start: start, end: start + int(step), next: -1})
			if li, ok := sc.lineOf[lineIdx]; ok {
				sc.spans[sc.lines[li].tail].next = si
				sc.lines[li].tail = si
			} else {
				sc.lineOf[lineIdx] = len(sc.lines)
				sc.lines = append(sc.lines, relocLine{lineIdx: lineIdx, head: si, tail: si})
			}
			dst += step
			src += step
			n -= step
		}
	}
	// One pending-tagged store per destination line (in first-touch order),
	// covering the full span this operation writes there.
	for _, ln := range sc.lines {
		lo, hi := uint64(LineSize), uint64(0)
		for si := ln.head; si >= 0; si = sc.spans[si].next {
			s := &sc.spans[si]
			if s.off < lo {
				lo = s.off
			}
			if end := s.off + uint64(s.end-s.start); end > hi {
				hi = end
			}
		}
		buf := sc.lineBuf[:hi-lo]
		// Gaps between spans within [lo,hi) keep their current contents.
		d.Load(ctx, ln.lineIdx<<LineShift+lo, buf)
		for si := ln.head; si >= 0; si = sc.spans[si].next {
			s := &sc.spans[si]
			copy(buf[s.off-lo:], sc.arena[s.start:s.end])
		}
		d.store(ctx, ln.lineIdx<<LineShift+lo, buf, true)
		d.Site(ctx, SiteRelocateLine)
	}
	relocPool.Put(sc)
}

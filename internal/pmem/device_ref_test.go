package pmem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"ffccd/internal/sim"
)

// refDevice is the device's cache as it was before it was laid out for the
// host: per-set tag and age arrays, line bodies with inline dirty/pending
// flags, an MRU way that is only a hint, every LRU age written on every touch
// (the victim is the first invalid way, else the minimum age), and cache hits
// counted where they happen. The bodies of resident, Load, storeInternal,
// Clwb, Sfence, FlushAll, Crash, Peek, StateOf and RelocateParts are the old
// ones verbatim, minus host-only machinery (locks, counter shards, dirty-page
// bitmap, observability, crash sites), over a dense media array. It is the
// reference the set blocks must match in every returned byte, counter,
// charged cycle, LRU decision and media bit.

type refCacheLine struct {
	dirty   bool
	pending bool
	data    [LineSize]byte
}

type refCacheSet struct {
	tags     []uint64
	ages     []uint32
	ways     []refCacheLine
	tick     uint32
	mruWay   uint32
	inflight []inflightEntry
	enqueued bool
}

type refDevice struct {
	cfg    *sim.Config
	media  []byte
	nset   int
	nway   int
	sets   []refCacheSet
	pend   []int
	rbb    RBBSink
	policy CrashPolicy
	eADR   bool
	stat   Stats
}

func newRefDevice(cfg *sim.Config, size uint64) *refDevice {
	nway := cfg.CacheWays
	nset := cfg.CacheBytes / cfg.CacheLineSize / nway
	if nset < 1 {
		nset = 1
	}
	d := &refDevice{
		cfg: cfg, media: make([]byte, size), nset: nset, nway: nway,
		sets: make([]refCacheSet, nset), policy: DropAllInflight,
	}
	for i := range d.sets {
		d.sets[i].tags = make([]uint64, nway)
		d.sets[i].ages = make([]uint32, nway)
		d.sets[i].ways = make([]refCacheLine, nway)
	}
	return d
}

func (d *refDevice) setOf(lineIdx uint64) *refCacheSet {
	return &d.sets[lineIdx%uint64(d.nset)]
}

func (d *refDevice) notifyReached(ctx *sim.Ctx, lineIdx uint64) {
	d.stat.PendingReach++
	if d.rbb != nil {
		d.rbb.LineReached(ctx, lineIdx<<LineShift)
	}
}

func (set *refCacheSet) inflightIndex(lineIdx uint64) int {
	for i := range set.inflight {
		if set.inflight[i].lineIdx == lineIdx {
			return i
		}
	}
	return -1
}

func (d *refDevice) writeMediaLine(ctx *sim.Ctx, set *refCacheSet, lineIdx uint64, data *[LineSize]byte, pending bool) {
	copy(d.media[lineIdx<<LineShift:], data[:])
	if i := set.inflightIndex(lineIdx); i >= 0 {
		last := len(set.inflight) - 1
		set.inflight[i] = set.inflight[last]
		set.inflight = set.inflight[:last]
	}
	d.stat.MediaWrites++
	if ctx != nil {
		ctx.Charge(d.cfg.PMWriteBandwidthPenalty)
	}
	if pending {
		d.notifyReached(ctx, lineIdx)
	}
}

func (set *refCacheSet) clearWays() {
	for w := range set.ways {
		set.tags[w] = 0
		set.ages[w] = 0
		set.ways[w] = refCacheLine{}
	}
	set.tick = 0
}

func (d *refDevice) Crash() {
	if d.eADR {
		d.FlushAll(sim.NewCtx(d.cfg))
		return
	}
	policy := d.policy
	var pending []inflightEntry
	for i := range d.sets {
		set := &d.sets[i]
		pending = append(pending, set.inflight...)
		set.inflight = set.inflight[:0]
		set.enqueued = false
		set.clearWays()
	}
	d.pend = d.pend[:0]

	sort.Slice(pending, func(i, j int) bool { return pending[i].lineIdx < pending[j].lineIdx })
	var reached []uint64
	for i := range pending {
		fl := &pending[i]
		if policy(fl.lineIdx << LineShift) {
			copy(d.media[fl.lineIdx<<LineShift:], fl.data[:])
			if fl.pending {
				reached = append(reached, fl.lineIdx)
			}
		}
	}
	for _, lineIdx := range reached {
		d.notifyReached(nil, lineIdx)
	}
}

func (d *refDevice) MediaWrite(addr uint64, data []byte) {
	copy(d.media[addr:], data)
	d.stat.MediaWrites++
}

func (d *refDevice) InflightLines() []uint64 {
	var out []uint64
	for i := range d.sets {
		set := &d.sets[i]
		for j := range set.inflight {
			out = append(out, set.inflight[j].lineIdx<<LineShift)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (d *refDevice) Peek(addr uint64, buf []byte) {
	for len(buf) > 0 {
		lineIdx := addr >> LineShift
		off := addr & (LineSize - 1)
		n := LineSize - off
		if n > uint64(len(buf)) {
			n = uint64(len(buf))
		}
		set := d.setOf(lineIdx)
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
		addr += n
		buf = buf[n:]
	}
}

func (d *refDevice) StateOf(addr uint64) LineState {
	lineIdx := addr >> LineShift
	set := d.setOf(lineIdx)
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

func (d *refDevice) fillLine(set *refCacheSet, lineIdx uint64, buf *[LineSize]byte) {
	if i := set.inflightIndex(lineIdx); i >= 0 {
		*buf = set.inflight[i].data
		return
	}
	copy(buf[:], d.media[lineIdx<<LineShift:(lineIdx+1)<<LineShift])
}

func (d *refDevice) resident(ctx *sim.Ctx, set *refCacheSet, lineIdx uint64) (line *refCacheLine, hit bool) {
	tag := lineIdx + 1
	if w := set.mruWay; set.tags[w] == tag {
		set.tick++
		set.ages[w] = set.tick
		return &set.ways[w], true
	}
	set.tick++
	victim := 0
	var oldest uint32 = ^uint32(0)
	for w, t := range set.tags {
		if t == tag {
			set.ages[w] = set.tick
			set.mruWay = uint32(w)
			return &set.ways[w], true
		}
		if t == 0 {
			if oldest != 0 {
				victim, oldest = w, 0
			}
			continue
		}
		if a := set.ages[w]; a < oldest {
			victim, oldest = w, a
		}
	}
	// Miss: evict the victim and fill.
	l := &set.ways[victim]
	if vt := set.tags[victim]; vt != 0 && l.dirty {
		d.stat.Evictions++
		d.writeMediaLine(ctx, set, vt-1, &l.data, l.pending)
	}
	set.tags[victim] = tag
	set.ages[victim] = set.tick
	set.mruWay = uint32(victim)
	l.dirty = false
	l.pending = false
	d.fillLine(set, lineIdx, &l.data)
	return l, false
}

func (d *refDevice) Load(ctx *sim.Ctx, addr uint64, buf []byte) {
	lineIdx := addr >> LineShift
	off := addr & (LineSize - 1)
	if off+uint64(len(buf)) <= LineSize {
		l, hit := d.resident(ctx, d.setOf(lineIdx), lineIdx)
		copy(buf, l.data[off:off+uint64(len(buf))])
		d.stat.Loads++
		if hit {
			ctx.Charge(d.cfg.L2Latency)
			d.stat.CacheHits++
		} else {
			ctx.Charge(d.cfg.L2Latency + d.cfg.PMReadLatency)
			d.stat.CacheMisses++
			d.stat.MediaReads++
		}
		return
	}
	var hits, misses uint64
	for len(buf) > 0 {
		lineIdx = addr >> LineShift
		off = addr & (LineSize - 1)
		n := LineSize - off
		if n > uint64(len(buf)) {
			n = uint64(len(buf))
		}
		l, hit := d.resident(ctx, d.setOf(lineIdx), lineIdx)
		copy(buf[:n], l.data[off:off+n])
		if hit {
			hits++
		} else {
			misses++
		}
		buf = buf[n:]
		addr += n
	}
	ctx.Charge(hits*d.cfg.L2Latency + misses*(d.cfg.L2Latency+d.cfg.PMReadLatency))
	d.stat.Loads++
	d.stat.CacheHits += hits
	d.stat.CacheMisses += misses
	d.stat.MediaReads += misses
}

func (d *refDevice) Store(ctx *sim.Ctx, addr uint64, data []byte) {
	d.storeInternal(ctx, addr, data, false)
}

func (d *refDevice) storeInternal(ctx *sim.Ctx, addr uint64, data []byte, pending bool) {
	lineIdx := addr >> LineShift
	off := addr & (LineSize - 1)
	if off+uint64(len(data)) <= LineSize {
		l, hit := d.resident(ctx, d.setOf(lineIdx), lineIdx)
		copy(l.data[off:off+uint64(len(data))], data)
		l.dirty = true
		if pending {
			l.pending = true
		}
		d.stat.Stores++
		if hit {
			ctx.Charge(d.cfg.L2Latency)
			d.stat.CacheHits++
		} else {
			ctx.Charge(d.cfg.L2Latency + d.cfg.PMReadLatency)
			d.stat.CacheMisses++
			d.stat.MediaReads++
		}
		return
	}
	var hits, misses uint64
	for len(data) > 0 {
		lineIdx = addr >> LineShift
		off = addr & (LineSize - 1)
		n := LineSize - off
		if n > uint64(len(data)) {
			n = uint64(len(data))
		}
		l, hit := d.resident(ctx, d.setOf(lineIdx), lineIdx)
		copy(l.data[off:off+n], data[:n])
		l.dirty = true
		if pending {
			l.pending = true
		}
		if hit {
			hits++
		} else {
			misses++
		}
		data = data[n:]
		addr += n
	}
	ctx.Charge(hits*d.cfg.L2Latency + misses*(d.cfg.L2Latency+d.cfg.PMReadLatency))
	d.stat.Stores++
	d.stat.CacheHits += hits
	d.stat.CacheMisses += misses
	d.stat.MediaReads += misses
}

func (d *refDevice) Clwb(ctx *sim.Ctx, addr uint64) {
	lineIdx := addr >> LineShift
	d.stat.Clwbs++
	set := d.setOf(lineIdx)
	for w, t := range set.tags {
		if t == lineIdx+1 {
			l := &set.ways[w]
			if l.dirty {
				if i := set.inflightIndex(lineIdx); i >= 0 {
					fl := &set.inflight[i]
					fl.data = l.data
					fl.pending = fl.pending || l.pending
				} else {
					set.inflight = append(set.inflight, inflightEntry{
						lineIdx: lineIdx, pending: l.pending, data: l.data,
					})
					if !set.enqueued {
						set.enqueued = true
						d.pend = append(d.pend, int(lineIdx%uint64(d.nset)))
					}
				}
				l.dirty = false
				l.pending = false
				ctx.PendingFlushes++
			}
			break
		}
	}
	ctx.Charge(d.cfg.L2Latency + d.cfg.WPQLatency)
}

func (d *refDevice) Sfence(ctx *sim.Ctx) {
	d.stat.Sfences++
	sets := append([]int(nil), d.pend...)
	d.pend = d.pend[:0]

	drained := 0
	var reached []uint64
	for _, si := range sets {
		set := &d.sets[si]
		set.enqueued = false
		for i := range set.inflight {
			fl := &set.inflight[i]
			copy(d.media[fl.lineIdx<<LineShift:], fl.data[:])
			if fl.pending {
				reached = append(reached, fl.lineIdx)
			}
		}
		drained += len(set.inflight)
		set.inflight = set.inflight[:0]
	}
	if drained > 0 {
		d.stat.MediaWrites += uint64(drained)
		ctx.Charge(uint64(drained) * d.cfg.PMWriteBandwidthPenalty)
	}
	slices.Sort(reached)
	for _, lineIdx := range reached {
		d.notifyReached(ctx, lineIdx)
	}
	if ctx.PendingFlushes > 0 || drained > 0 {
		ctx.Charge(d.cfg.PMWriteLatency)
	} else {
		ctx.Charge(d.cfg.WPQLatency)
	}
	ctx.PendingFlushes = 0
}

func (d *refDevice) FlushAll(ctx *sim.Ctx) {
	for i := range d.sets {
		set := &d.sets[i]
		for w, t := range set.tags {
			l := &set.ways[w]
			if t != 0 && l.dirty {
				d.writeMediaLine(ctx, set, t-1, &l.data, l.pending)
				l.dirty = false
				l.pending = false
			}
		}
	}
	d.Sfence(ctx)
}

func (d *refDevice) RelocateParts(ctx *sim.Ctx, parts []RelocatePart) {
	d.stat.RelocateOps++
	sc := &relocScratch{lineOf: make(map[uint64]int)}
	for _, p := range parts {
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
		d.Load(ctx, ln.lineIdx<<LineShift+lo, buf)
		for si := ln.head; si >= 0; si = sc.spans[si].next {
			s := &sc.spans[si]
			copy(buf[s.off-lo:], sc.arena[s.start:s.end])
		}
		d.storeInternal(ctx, ln.lineIdx<<LineShift+lo, buf, true)
	}
}

// clone deep-copies the reference device: its checkpoint, and with the
// receiver overwritten by a clone, its restore.
func (d *refDevice) clone() *refDevice {
	c := *d
	c.media = slices.Clone(d.media)
	c.pend = slices.Clone(d.pend)
	c.sets = make([]refCacheSet, len(d.sets))
	for i := range d.sets {
		s := d.sets[i]
		s.tags = slices.Clone(s.tags)
		s.ages = slices.Clone(s.ages)
		s.ways = slices.Clone(s.ways)
		s.inflight = slices.Clone(s.inflight)
		c.sets[i] = s
	}
	return &c
}

// diffPair drives the device and the reference with the same operations and
// compares everything observable after each.
type diffPair struct {
	t    *testing.T
	cfg  *sim.Config
	size uint64
	dev  *Device
	ref  *refDevice
	dctx *sim.Ctx
	rctx *sim.Ctx
	// The sinks outlive restores into a fresh device, like an RBB would.
	dsink, rsink recordingSink
	step         int
	op           string
}

func newDiffPair(t *testing.T, cfg *sim.Config, size uint64) *diffPair {
	p := &diffPair{t: t, cfg: cfg, size: size}
	p.dev = p.freshDevice()
	t.Cleanup(func() { p.dev.ReleaseMedia() })
	p.ref = newRefDevice(cfg, size)
	p.ref.rbb = &p.rsink
	p.dctx, p.rctx = sim.NewCtx(cfg), sim.NewCtx(cfg)
	return p
}

func (p *diffPair) freshDevice() *Device {
	d := NewDevice(p.cfg, p.size)
	d.SetRBB(&p.dsink)
	return d
}

func (p *diffPair) failf(format string, args ...any) {
	p.t.Helper()
	p.t.Fatalf("step %d (%s): %s", p.step, p.op, fmt.Sprintf(format, args...))
}

// recency returns set si's tags in recency order, most recent first: the
// device's stack, and the reference's valid ways by descending age.
func (d *Device) recency(si int) []uint64 {
	set := &d.sets[si]
	var tags []uint64
	for i := uint32(0); i < set.fill; i++ {
		tags = append(tags, uint64(set.tags[set.stack>>(4*i)&15]))
	}
	return tags
}

func (set *refCacheSet) recency() []uint64 {
	var ways []int
	for w, t := range set.tags {
		if t != 0 {
			ways = append(ways, w)
		}
	}
	sort.Slice(ways, func(i, j int) bool { return set.ages[ways[i]] > set.ages[ways[j]] })
	var tags []uint64
	for _, w := range ways {
		tags = append(tags, set.tags[w])
	}
	return tags
}

// check compares the cheap observables after every step, and the media bytes
// and every set's tags, recency order, flags and the newest bytes of every
// valid way — its body or the persisted line it reads — when deep is set.
func (p *diffPair) check(touched []uint64, deep bool) {
	p.t.Helper()
	if got, want := p.dev.Stats(), p.ref.stat; got != want {
		p.failf("stats\n got %+v\nwant %+v", got, want)
	}
	if got, want := p.dctx.Clock.Total(), p.rctx.Clock.Total(); got != want {
		p.failf("cycles %d, want %d", got, want)
	}
	if p.dctx.PendingFlushes != p.rctx.PendingFlushes {
		p.failf("PendingFlushes %d, want %d", p.dctx.PendingFlushes, p.rctx.PendingFlushes)
	}
	if got, want := p.dev.InflightLines(), p.ref.InflightLines(); !slices.Equal(got, want) {
		p.failf("in-flight lines %x, want %x", got, want)
	}
	if !slices.Equal(p.dsink.lines, p.rsink.lines) {
		p.failf("RBB notifications diverge: %d vs %d", len(p.dsink.lines), len(p.rsink.lines))
	}
	for _, a := range touched {
		if got, want := p.dev.StateOf(a), p.ref.StateOf(a); got != want {
			p.failf("StateOf(%#x) = %v, want %v", a, got, want)
		}
	}
	if !deep {
		return
	}
	if !bytes.Equal(p.dev.SnapshotMedia(), p.ref.media) {
		p.failf("media differ")
	}
	for si := range p.ref.sets {
		rs := &p.ref.sets[si]
		set := &p.dev.sets[si]
		var tags []uint64
		for _, t := range set.tags[:p.dev.nway] {
			tags = append(tags, uint64(t))
		}
		if got, want := p.dev.recency(si), rs.recency(); !slices.Equal(tags, rs.tags) || !slices.Equal(got, want) {
			p.failf("set %d LRU state\n got tags %v recency %v\nwant tags %v recency %v", si, tags, got, rs.tags, want)
		}
		for w := range rs.ways {
			l := &rs.ways[w]
			bit := uint32(1) << w
			if set.dirty&bit != 0 != l.dirty || set.pending&bit != 0 != l.pending ||
				rs.tags[w] != 0 && !bytes.Equal(p.dev.newest(set, si, rs.tags[w]-1)[:LineSize], l.data[:]) {
				p.failf("set %d way %d differs (dirty/pending/body)", si, w)
			}
		}
	}
}

// run drives steps random operations. Addresses favour a handful of sets so
// that even the default 16-way geometry evicts.
func (p *diffPair) run(rng *rand.Rand, steps int) {
	nset := uint64(p.ref.nset)
	lines := p.size / LineSize
	addr := func(room uint64) uint64 {
		var line uint64
		if rng.Intn(10) < 7 {
			line = uint64(rng.Intn(int(min(lines/nset, 48))))*nset + uint64(rng.Intn(6))%nset
		} else {
			line = uint64(rng.Int63n(int64(lines)))
		}
		a := line*LineSize + uint64(rng.Intn(LineSize))
		if a+room > p.size {
			a = p.size - room
		}
		return a
	}
	span := func(a, n uint64) (touched []uint64) {
		for l := a >> LineShift; l <= (a+max(n, 1)-1)>>LineShift; l++ {
			touched = append(touched, l<<LineShift)
		}
		return touched
	}
	for p.step = 0; p.step < steps; p.step++ {
		var touched []uint64
		switch k := rng.Intn(100); {
		case k < 22:
			n := uint64(rng.Intn(601))
			if rng.Intn(2) == 0 {
				n = uint64(rng.Intn(17))
			}
			a := addr(n)
			p.op = fmt.Sprintf("Load %#x+%d", a, n)
			got, want := make([]byte, n), make([]byte, n)
			p.dev.Load(p.dctx, a, got)
			p.ref.Load(p.rctx, a, want)
			if !bytes.Equal(got, want) {
				p.failf("loaded bytes differ")
			}
			touched = span(a, n)
		case k < 40:
			n := uint64(rng.Intn(601))
			if rng.Intn(2) == 0 {
				n = uint64(rng.Intn(17))
			}
			a := addr(n)
			p.op = fmt.Sprintf("Store %#x+%d", a, n)
			data := make([]byte, n)
			rng.Read(data)
			p.dev.Store(p.dctx, a, data)
			p.ref.Store(p.rctx, a, data)
			touched = span(a, n)
		case k < 52:
			a := addr(8) // one offset in eight straddles two lines
			if rng.Intn(2) == 0 {
				a &^= 7
			}
			p.op = fmt.Sprintf("LoadU64 %#x", a)
			var want [8]byte
			p.ref.Load(p.rctx, a, want[:])
			if got := p.dev.LoadU64(p.dctx, a); got != binary.LittleEndian.Uint64(want[:]) {
				p.failf("got %#x, want %#x", got, binary.LittleEndian.Uint64(want[:]))
			}
			touched = span(a, 8)
		case k < 62:
			a := addr(8)
			if rng.Intn(2) == 0 {
				a &^= 7
			}
			p.op = fmt.Sprintf("StoreU64 %#x", a)
			var b [8]byte
			rng.Read(b[:])
			p.dev.StoreU64(p.dctx, a, binary.LittleEndian.Uint64(b[:]))
			p.ref.Store(p.rctx, a, b[:])
			touched = span(a, 8)
		case k < 74:
			a := addr(1)
			p.op = fmt.Sprintf("Clwb %#x", a)
			p.dev.Clwb(p.dctx, a)
			p.ref.Clwb(p.rctx, a)
			touched = span(a, 1)
		case k < 80:
			p.op = "Sfence"
			p.dev.Sfence(p.dctx)
			p.ref.Sfence(p.rctx)
		case k < 88:
			parts := make([]RelocatePart, 1+rng.Intn(3))
			dst := addr(700)
			for i := range parts {
				n := uint64(1 + rng.Intn(200))
				parts[i] = RelocatePart{Dst: dst, Src: addr(n), N: n}
				touched = append(touched, span(dst, n)...)
				dst += n + uint64(rng.Intn(3))*8
			}
			p.op = fmt.Sprintf("RelocateParts %v", parts)
			if len(parts) == 1 && rng.Intn(2) == 0 {
				p.dev.Relocate(p.dctx, parts[0].Dst, parts[0].Src, parts[0].N)
			} else {
				p.dev.RelocateParts(p.dctx, parts)
			}
			p.ref.RelocateParts(p.rctx, parts)
		case k < 91:
			n := uint64(rng.Intn(130))
			a := addr(n)
			p.op = fmt.Sprintf("MediaWrite %#x+%d", a, n)
			data := make([]byte, n)
			rng.Read(data)
			p.dev.MediaWrite(a, data)
			p.ref.MediaWrite(a, data)
			touched = span(a, n)
		case k < 93:
			n := uint64(rng.Intn(200))
			a := addr(n)
			p.op = fmt.Sprintf("Peek %#x+%d", a, n)
			got, want := make([]byte, n), make([]byte, n)
			p.dev.Peek(a, got)
			p.ref.Peek(a, want)
			if !bytes.Equal(got, want) {
				p.failf("peeked bytes differ")
			}
			if a+8 <= p.size {
				var w [8]byte
				p.ref.Peek(a, w[:])
				if got := p.dev.PeekU64(a); got != binary.LittleEndian.Uint64(w[:]) {
					p.failf("PeekU64 = %#x, want %#x", got, binary.LittleEndian.Uint64(w[:]))
				}
			}
		case k < 95:
			p.op = "FlushAll"
			p.dev.FlushAll(p.dctx)
			p.ref.FlushAll(p.rctx)
		case k < 97:
			kind := rng.Intn(3)
			salt := uint64(rng.Intn(7))
			policy := []CrashPolicy{
				DropAllInflight, KeepAllInflight,
				func(line uint64) bool { return (line>>LineShift+salt)%3 != 0 },
			}[kind]
			eadr := rng.Intn(4) == 0
			p.op = fmt.Sprintf("Crash policy %d eADR %v", kind, eadr)
			p.dev.SetCrashPolicy(policy)
			p.ref.policy = policy
			p.dev.SetEADR(eadr)
			p.ref.eADR = eadr
			p.dev.Crash()
			p.ref.Crash()
		case k < 99:
			p.op = "Checkpoint, diverge, Restore into the same device"
			chk := p.dev.Checkpoint()
			rchk := p.ref.clone()
			junk := make([]byte, 300)
			rng.Read(junk)
			jctx := sim.NewCtx(p.cfg)
			p.dev.SetRBB(nil) // what the detour evicts is not part of the history
			for i := 0; i < 4; i++ {
				p.dev.Store(jctx, addr(300), junk)
			}
			p.dev.Clwb(jctx, addr(1))
			p.dev.SetRBB(&p.dsink)
			p.dev.Restore(chk)
			*p.ref = *rchk
		default:
			p.op = "Checkpoint, Restore into a fresh device"
			chk := p.dev.Checkpoint()
			p.dev.ReleaseMedia()
			p.dev = p.freshDevice()
			p.dev.Restore(chk)
		}
		p.check(touched, p.step%97 == 0 || p.step == steps-1)
	}
	// The digest walks the pages the device holds: it also checks that no
	// media write of the flat cache was lost to a page it did not hold.
	if got, want := p.dev.HashMedia(), refHashMedia(p.ref.media); got != want {
		p.t.Fatalf("media hash %#x, want %#x", got, want)
	}
	if st := p.ref.stat; st.Evictions == 0 || st.PendingReach == 0 {
		p.t.Fatalf("vacuous run: %+v", st)
	}
}

// TestDeviceMatchesReferenceCache is the differential test of the set blocks
// against the age-based layout: three geometries, random operation sequences
// including media writes under cached lines, crashes under all three policy
// kinds and checkpoint/restore into the same and into a fresh device. Each
// geometry's subtest keeps the name "exclusive=true" it has always been
// reported under: the device's one mode is the single-owner one.
//
// Mutations that must each fail it (checked by hand, DESIGN.md §7): a miss
// not taking way fill while the set fills; an MRU hit shifting the stack as a
// miss does; Restore not refilling the clean ways; capture skipping a stale
// clean way; deriving CacheHits without cExtraLines.
func TestDeviceMatchesReferenceCache(t *testing.T) {
	geoms := []struct {
		name        string
		bytes, ways int
		size        uint64
		steps       int
	}{
		{"2way-4KB", 4 << 10, 2, 1 << 18, 6000},
		{"4way-16KB", 16 << 10, 4, 1 << 19, 6000},
		{"default", 0, 0, 8 << 20, 2500},
	}
	for _, g := range geoms {
		t.Run(g.name+"/exclusive=true", func(t *testing.T) {
			if raceEnabled && g.bytes == 0 {
				t.Skip("the detector prices every byte of the multi-MB checkpoints; the small geometries run the same code")
			}
			cfg := sim.DefaultConfig()
			if g.bytes != 0 {
				cfg.CacheBytes, cfg.CacheWays = g.bytes, g.ways
			}
			seeds := int64(3)
			if testing.Short() {
				seeds = 1
			}
			for seed := int64(1); seed <= seeds; seed++ {
				newDiffPair(t, &cfg, g.size).run(rand.New(rand.NewSource(seed)), g.steps)
			}
		})
	}
}

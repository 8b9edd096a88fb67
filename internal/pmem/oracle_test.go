package pmem

import (
	"fmt"
	"maps"
	"slices"

	"ffccd/internal/sim"
)

// persistOracle is an independent model of what a Device may hold on media.
// It knows nothing of the cache's geometry, so it cannot tell which dirty
// lines were evicted, unless the cache holds all of the media and evicts
// nothing, or which clean lines are resident: for every line an
// operation touched since the last crash it keeps the images media may hold
// and the images a load may read, whether a store may have left the line
// dirty, the images a clwb may have put in flight, and whether the line may
// carry a relocate's pending bit. A line it keeps no state for holds base, its
// exact media. The Device is its RBB sink: a notification must name a line a
// relocate wrote.
type persistOracle struct {
	evicts bool
	base   map[uint64]lineImg // absent: a zero line
	lines  map[uint64]*oracleLine
	err    error // the first notification no relocate explains
}

type lineImg = [LineSize]byte

type oracleLine struct {
	media, view []lineImg
	inflight    []lineImg // nil: nothing in flight
	// dirty: a store since the line was last clwb'd or flushed, so an
	// eviction may have written any view since then, and dropped the
	// in-flight copy. Media holds every view while dirty is set, if the
	// cache evicts.
	dirty bool
	// pendingWay: a relocate wrote the line since its last clwb or flush.
	// pendingFlight: the in-flight copy may be pending; mustReport: it is,
	// unless the RBB heard of the line when an eviction wrote it first.
	// reached: the RBB heard of the line since the last relocate.
	pendingWay, pendingFlight, mustReport, reached bool
}

func newPersistOracle(evicts bool) *persistOracle {
	return &persistOracle{evicts: evicts, base: map[uint64]lineImg{}, lines: map[uint64]*oracleLine{}}
}

func (o *persistOracle) clone() *persistOracle {
	c := &persistOracle{evicts: o.evicts, base: maps.Clone(o.base), lines: make(map[uint64]*oracleLine, len(o.lines)), err: o.err}
	for l, ol := range o.lines {
		cl := *ol
		cl.media, cl.view, cl.inflight = slices.Clone(ol.media), slices.Clone(ol.view), slices.Clone(ol.inflight)
		c.lines[l] = &cl
	}
	return c
}

func (o *persistOracle) line(l uint64) *oracleLine {
	ol := o.lines[l]
	if ol == nil {
		ol = &oracleLine{media: []lineImg{o.base[l]}, view: []lineImg{o.base[l]}}
		o.lines[l] = ol
	}
	return ol
}

// union adds the images of add that set does not hold.
func union(set []lineImg, add ...lineImg) []lineImg {
	for _, img := range add {
		if !slices.Contains(set, img) {
			set = append(set, img)
		}
	}
	return set
}

// written returns every image of set with each candidate of data written at off.
func written(set []lineImg, off uint64, data [][]byte) []lineImg {
	var out []lineImg
	for _, img := range set {
		for _, b := range data {
			copy(img[off:], b)
			out = union(out, img)
		}
	}
	return out
}

// reads returns what a load of [addr, addr+n) within one line pair may read.
func (o *persistOracle) reads(addr, n uint64) [][]byte {
	out := [][]byte{nil}
	for end := addr + n; addr < end; {
		next := min(addr|(LineSize-1)+1, end)
		var grown [][]byte
		for _, prefix := range out {
			for _, img := range o.line(addr >> LineShift).view {
				grown = append(grown, append(slices.Clip(prefix), img[addr&(LineSize-1):][:next-addr]...))
			}
		}
		out, addr = grown, next
	}
	return out
}

// each calls f for every line of [addr, addr+n) with the offset and length
// of the part there.
func each(addr, n uint64, f func(l, off, k uint64)) {
	for end := addr + n; addr < end; {
		next := min(addr|(LineSize-1)+1, end)
		f(addr>>LineShift, addr&(LineSize-1), next-addr)
		addr = next
	}
}

// dirty marks ol written: an eviction may write its views from now on.
func (o *persistOracle) dirty(ol *oracleLine) {
	if ol.dirty = true; o.evicts {
		ol.media = union(ol.media, ol.view...)
	}
}

func (o *persistOracle) store(addr uint64, data []byte) {
	each(addr, uint64(len(data)), func(l, off, k uint64) {
		ol := o.line(l)
		ol.view = written(ol.view, off, [][]byte{data[:k]})
		o.dirty(ol)
		data = data[k:]
	})
}

// relocate reads every source byte before it writes a destination line.
func (o *persistOracle) relocate(dst, src, n uint64) {
	var parts [][][]byte
	each(dst, n, func(_, _, k uint64) { parts = append(parts, o.reads(src, k)); src += k })
	each(dst, n, func(l, off, _ uint64) {
		ol := o.line(l)
		ol.view = written(ol.view, off, parts[0])
		o.dirty(ol)
		ol.pendingWay, ol.reached = true, false
		parts = parts[1:]
	})
}

func (o *persistOracle) clwb(addr uint64) {
	if ol := o.lines[addr>>LineShift]; ol != nil && ol.dirty {
		ol.inflight, ol.dirty = slices.Clone(ol.view), false
		ol.pendingFlight = ol.pendingFlight || ol.pendingWay
		ol.mustReport, ol.pendingWay = ol.pendingWay, false
	}
}

// drain lands the in-flight copies a fence or a merciful crash writes; a line
// written since its clwb may have been evicted, dropping its copy. A copy
// that lands pending must have been reported.
func (o *persistOracle) drain(lands func(l uint64) bool) error {
	for l, ol := range o.lines {
		if ol.inflight == nil || !lands(l) {
			continue
		}
		if ol.dirty && o.evicts {
			ol.media = union(ol.media, ol.inflight...)
		} else if ol.media = ol.inflight; ol.mustReport && !ol.reached {
			return fmt.Errorf("pending line %#x reached media unreported", l<<LineShift)
		}
	}
	return nil
}

func (o *persistOracle) sfence() error {
	err := o.drain(func(uint64) bool { return true })
	for _, ol := range o.lines {
		ol.inflight, ol.pendingFlight, ol.mustReport = nil, false, false
	}
	return err
}

func (o *persistOracle) mediaWrite(addr uint64, data []byte) {
	each(addr, uint64(len(data)), func(l, off, k uint64) {
		ol := o.line(l)
		media := written(ol.media, off, [][]byte{data[:k]})
		if ol.dirty && o.evicts {
			media = union(media, ol.view...)
		}
		ol.view, ol.media = union(union(ol.view, ol.inflight...), media...), media
		data = data[k:]
	})
}

// LineReached makes the oracle the device's RBB sink.
func (o *persistOracle) LineReached(_ *sim.Ctx, addr uint64) {
	ol := o.lines[addr>>LineShift]
	if ol == nil || !ol.pendingWay && !ol.pendingFlight {
		if o.err == nil {
			o.err = fmt.Errorf("the RBB heard of line %#x, which no relocate wrote", addr)
		}
		return
	}
	ol.reached = true
}

// flushAll: every line the device may hold dirty is on media, every
// in-flight copy too, and a relocated line in the cache has been reported.
func (o *persistOracle) flushAll(d *Device) error {
	for l, ol := range o.lines {
		if ol.dirty && ol.pendingWay && !ol.reached {
			return fmt.Errorf("relocated line %#x flushed unreported", l<<LineShift)
		}
		if ol.dirty { // written back over any in-flight copy; it reads media
			ol.media, ol.view, ol.dirty, ol.inflight = ol.view, nil, false, nil
		}
	}
	if err := o.sfence(); err != nil {
		return err
	}
	for _, ol := range o.lines {
		ol.pendingWay = false
	}
	return o.check(d, false)
}

// crash: the cache is lost, lands decides each in-flight copy, and the media
// must be one the oracle allows. The oracle then knows every line exactly.
func (o *persistOracle) crash(d *Device, lands func(l uint64) bool) error {
	if err := o.drain(lands); err != nil {
		return err
	}
	return o.check(d, true)
}

// check fails unless every line the oracle keeps holds an image it allows,
// and then takes the device's media as exact. lost drops the cached views, as
// a crash does; otherwise only the lines whose views can only be the media
// are forgotten.
func (o *persistOracle) check(d *Device, lost bool) error {
	for l, ol := range o.lines {
		var img lineImg
		d.MediaRead(l<<LineShift, img[:min(LineSize, d.size-l<<LineShift)])
		if err := o.allows(l, img); err != nil {
			return err
		}
		o.base[l], ol.media = img, []lineImg{img}
		if ol.view == nil {
			ol.view = ol.media
		}
		if lost || ol.inflight == nil && !ol.dirty && !ol.pendingWay && slices.Equal(ol.view, ol.media) {
			delete(o.lines, l)
		}
	}
	return o.err
}

// checkAll fails unless every line of media, the device's whole media, holds
// an image the oracle allows.
func (o *persistOracle) checkAll(media []byte) error {
	for l := uint64(0); l<<LineShift < uint64(len(media)); l++ {
		var img lineImg
		copy(img[:], media[l<<LineShift:])
		if err := o.allows(l, img); err != nil {
			return err
		}
	}
	return o.err
}

func (o *persistOracle) allows(l uint64, img lineImg) error {
	allowed := []lineImg{o.base[l]}
	if ol := o.lines[l]; ol != nil {
		allowed = ol.media
	}
	if !slices.Contains(allowed, img) {
		return fmt.Errorf("line %#x holds % x, not one of the %d images the oracle allows", l<<LineShift, img, len(allowed))
	}
	return nil
}

// restoreMedia makes media exact, with nothing cached or in flight.
func (o *persistOracle) restoreMedia(media []byte) {
	clear(o.lines)
	clear(o.base)
	each(0, uint64(len(media)), func(l, _, k uint64) {
		var img lineImg
		if copy(img[:], media[l<<LineShift:][:k]); img != (lineImg{}) {
			o.base[l] = img
		}
	})
}

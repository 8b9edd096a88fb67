package pmem

import (
	"slices"
	"sync"
	"unsafe"

	"ffccd/internal/workpool"
)

// The media page table, its one write gate, and the process pools that
// recycle what released devices held (DESIGN.md §7, "Media pages").

// pageLeaf maps leafPages consecutive media pages. A nil page is one the
// device does not hold, and reads as zeros. shared marks pages a checkpoint
// also references: the device never writes such a page in place — writable
// copies it first — and never pools it.
type pageLeaf struct {
	pages  [leafPages]*mediaPage
	shared [leafPages / 64]uint64
}

func (l *pageLeaf) isShared(i uint64) bool { return l.shared[i>>6]>>(i&63)&1 != 0 }

// page returns media page p for reading: zeroPage when the device does not
// hold it.
func (d *Device) page(p uint64) *mediaPage {
	if l := d.leaves[p>>leafShift]; l != nil {
		if pg := l.pages[p&(leafPages-1)]; pg != nil {
			return pg
		}
	}
	return &zeroPage
}

// holds reports whether the device holds page p: whether it may differ from
// zeros.
func (d *Device) holds(p uint64) bool { return d.page(p) != &zeroPage }

// mediaLine returns lineIdx's media bytes for reading.
func (d *Device) mediaLine(lineIdx uint64) *[LineSize]byte {
	return lineOf(d.page(lineIdx>>pageLineShift), lineIdx)
}

// writableLine returns lineIdx's media bytes for writing.
func (d *Device) writableLine(lineIdx uint64) *[LineSize]byte {
	return lineOf(d.writable(lineIdx>>pageLineShift), lineIdx)
}

// Host pages nothing has written yet — fresh media pages and cache-line
// bodies — must be written before they are read: a load from such a page maps
// it read-only, and the write that follows faults it a second time. Go loads
// from a pointer to nil-check it before slicing it or memmoving into it, so
// the helpers below address, clear and copy a page or line without that load.

// lineOf returns lineIdx's bytes within pg, its page.
func lineOf(pg *mediaPage, lineIdx uint64) *[LineSize]byte {
	return (*[LineSize]byte)(unsafe.Add(unsafe.Pointer(pg), (lineIdx&(1<<pageLineShift-1))<<LineShift))
}

// bytesOf returns pg's bytes.
func bytesOf(pg *mediaPage) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(pg)), DirtyPageSize)
}

// copyLine copies a line through a local: `*dst = *src` between two array
// pointers compiles to a nil-check load from dst and a memmove, since the two
// may overlap.
func copyLine(dst, src *[LineSize]byte) {
	line := *src
	*dst = line
}

// writable is the media's one write gate: it returns page p ready to be
// written, allocating it (zeroed) when the device does not hold it and
// copying it when a checkpoint shares it. Every media writer goes through it:
// writeMediaLine, the Sfence drain, Crash, MediaWrite, a partial MediaZero
// and RestoreMedia.
func (d *Device) writable(p uint64) *mediaPage {
	l := d.leaves[p>>leafShift]
	if l == nil {
		l = d.newLeaf(p >> leafShift)
	}
	i := p & (leafPages - 1)
	if pg := l.pages[i]; pg != nil && !l.isShared(i) {
		return pg
	}
	return l.materialize(i)
}

// newLeaf gives the device a leaf k, a pooled one when the pool has any.
func (d *Device) newLeaf(k uint64) *pageLeaf {
	l := takeLeaf()
	d.leaves[k] = l
	return l
}

// materialize gives the leaf a private page i: a copy of the shared page it
// held, or a zeroed one.
func (l *pageLeaf) materialize(i uint64) *mediaPage {
	old := l.pages[i]
	pg := takePage(old == nil)
	if old != nil {
		copy(bytesOf(pg), old[:])
		l.shared[i>>6] &^= 1 << (i & 63)
	}
	l.pages[i] = pg
	return pg
}

// dropPage makes page p read as zeros again; a private page goes back to the
// pool.
func (d *Device) dropPage(p uint64) {
	l := d.leaves[p>>leafShift]
	if l == nil {
		return
	}
	i := p & (leafPages - 1)
	if pg := l.pages[i]; pg != nil {
		if !l.isShared(i) {
			pagePool.Lock()
			putPage(pg)
			pagePool.Unlock()
		}
		l.pages[i] = nil
		l.shared[i>>6] &^= 1 << (i & 63)
	}
}

// dropPages drops every page the device holds, keeping its leaves.
func (d *Device) dropPages() {
	for _, l := range d.leaves {
		if l != nil {
			l.release()
		}
	}
}

// release returns the leaf's private pages to the pool and empties it.
func (l *pageLeaf) release() {
	pagePool.Lock()
	for i, pg := range &l.pages {
		if pg != nil && !l.isShared(uint64(i)) {
			putPage(pg)
		}
	}
	pagePool.Unlock()
	*l = pageLeaf{}
}

// The pools are bounded free lists rather than sync.Pools: a Pool is emptied
// by every GC cycle, and the fork drivers allocate enough between two devices
// to trigger one. Pooled pages and leaves are private — no checkpoint
// references them — so a device that takes one is its only holder. Fresh
// pages come pageSlab at a time, so a machine whose footprint grows makes one
// host allocation per pageSlab pages it writes.
const (
	maxPooledPages  = 1 << 14 // 64 MB
	maxPooledLeaves = 1 << 10 // 4 MB
	pageSlab        = 16
)

var pagePool struct {
	sync.Mutex
	pages  []*mediaPage
	leaves []*pageLeaf
	// materialized counts takePage calls: pages written for the first time
	// or copied from a checkpoint's. returned counts putPage calls.
	materialized, returned uint64
}

// MaterializedPages reports how many media pages this process's devices have
// materialised: allocated for a first write, or copied from a page a
// checkpoint shares before one. A fork materialises only the pages it writes.
func MaterializedPages() uint64 {
	pagePool.Lock()
	defer pagePool.Unlock()
	return pagePool.materialized
}

// ReturnedPages reports how many materialised pages devices have given back:
// released with their device, zeroed again, or dropped by a Restore. A page a
// checkpoint shares is never given back; it goes with the checkpoint. So
// devices that no checkpoint has seen return every page they materialised
// once they are released.
func ReturnedPages() uint64 {
	pagePool.Lock()
	defer pagePool.Unlock()
	return pagePool.returned
}

// takePage returns a private page, pooled when one is, zeroed when zero is
// set.
func takePage(zero bool) *mediaPage {
	pagePool.Lock()
	pagePool.materialized++
	n := len(pagePool.pages)
	if n == 0 {
		slab := new([pageSlab]mediaPage)
		for i := 1; i < pageSlab; i++ {
			pagePool.pages = append(pagePool.pages, &slab[i])
		}
		pagePool.Unlock()
		return &slab[0]
	}
	pg := pagePool.pages[n-1]
	pagePool.pages[n-1] = nil
	pagePool.pages = pagePool.pages[:n-1]
	pagePool.Unlock()
	if zero {
		clear(bytesOf(pg))
	}
	return pg
}

// putPage pools a private page the caller no longer holds. Call with
// pagePool locked.
func putPage(pg *mediaPage) {
	pagePool.returned++
	if len(pagePool.pages) < maxPooledPages {
		pagePool.pages = append(pagePool.pages, pg)
	}
}

func takeLeaf() *pageLeaf {
	pagePool.Lock()
	defer pagePool.Unlock()
	n := len(pagePool.leaves)
	if n == 0 {
		return new(pageLeaf)
	}
	l := pagePool.leaves[n-1]
	pagePool.leaves[n-1] = nil
	pagePool.leaves = pagePool.leaves[:n-1]
	return l
}

// putLeaf pools an empty leaf.
func putLeaf(l *pageLeaf) {
	pagePool.Lock()
	defer pagePool.Unlock()
	if len(pagePool.leaves) < maxPooledLeaves {
		pagePool.leaves = append(pagePool.leaves, l)
	}
}

// cacheArrays are a device's cache state: what one geometry's devices can
// hand each other.
type cacheArrays struct {
	sets       []cacheSet
	tags, ages []uint32
	lines      []byte
}

// arrayPool holds released devices' cache arrays, at most one set per pool
// worker (the most devices a fan-out of single-machine jobs has live at
// once); beyond that the oldest go to the garbage collector.
var arrayPool struct {
	sync.Mutex
	free []cacheArrays
}

// takeArrays returns pooled cache arrays of the geometry, most recently
// released first, as they were left.
func takeArrays(nset, nway int) (cacheArrays, bool) {
	arrayPool.Lock()
	defer arrayPool.Unlock()
	for i := len(arrayPool.free) - 1; i >= 0; i-- {
		if a := arrayPool.free[i]; len(a.sets) == nset && len(a.tags) == nset*nway {
			arrayPool.free = slices.Delete(arrayPool.free, i, i+1)
			return a, true
		}
	}
	return cacheArrays{}, false
}

func putArrays(a cacheArrays) {
	arrayPool.Lock()
	defer arrayPool.Unlock()
	arrayPool.free = append(arrayPool.free, a)
	if len(arrayPool.free) > workpool.Parallelism() {
		arrayPool.free = slices.Delete(arrayPool.free, 0, 1)
	}
}

package pmem

import (
	"encoding/binary"
	"sync"
	"unsafe"

	"ffccd/internal/workpool"
)

// The media page table, its one write gate, and the process pools that
// recycle what released devices held (DESIGN.md §7, "Media pages").

// pageLeaf maps leafPages consecutive media pages. A nil page is one the
// device does not hold, and reads as zeros. shared marks pages a checkpoint
// also references: the device never writes such a page in place — writable
// copies it first — and never pools it; the checkpoint that owns it does,
// once released.
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
	pg := takePage(old == nil, true)
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
			putPage(pg, true)
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
	d.gen++
}

// release returns the leaf's private pages to the pool and empties it.
func (l *pageLeaf) release() {
	pagePool.Lock()
	for i, pg := range &l.pages {
		if pg != nil && !l.isShared(uint64(i)) {
			putPage(pg, true)
		}
	}
	pagePool.Unlock()
	*l = pageLeaf{}
}

// The pools are bounded free lists rather than sync.Pools: a Pool is emptied
// by every GC cycle, and the fork drivers allocate enough between two devices
// to trigger one. Pooled pages and leaves are private — no device or
// unreleased checkpoint references them — so a device that takes one is its
// only holder. Fresh
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
	// materialized counts media pages taken: pages written for the first
	// time or copied from a checkpoint's. returned counts media pages put.
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

// ReturnedPages reports how many materialised pages have been given back:
// by a device that releases, zeroes or drops by a Restore a page no
// checkpoint shares, and by a released checkpoint for the pages it owns (see
// DeviceCheckpoint.Release). So once every device and every checkpoint is
// released, the pages returned equal the pages materialised.
func ReturnedPages() uint64 {
	pagePool.Lock()
	defer pagePool.Unlock()
	return pagePool.returned
}

// takePage returns a private page, pooled when one is, zeroed when zero is
// set; media says whether it is a media page, which MaterializedPages counts.
func takePage(zero, media bool) *mediaPage {
	pagePool.Lock()
	if media {
		pagePool.materialized++
	}
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

// putPage pools a private page the caller no longer holds, counting it in
// ReturnedPages when it is a media page. Call with pagePool locked.
func putPage(pg *mediaPage, media bool) {
	if media {
		pagePool.returned++
	}
	if len(pagePool.pages) < maxPooledPages {
		pagePool.pages = append(pagePool.pages, pg)
	}
}

// bodyStore holds a device's cache-line bodies, 64 to a page from the page
// pool; body pages are not media, so MaterializedPages and ReturnedPages do
// not count them. of[slot] indexes the body of a way that holds one: line
// b&63 of pages[b>>6]. A free body's first four bytes link it to the next.
type bodyStore struct {
	of    []int32
	pages []*mediaPage
	free  int32 // first free body + 1; 0 when none is
	next  int32 // first body not handed out since the last reset
}

func (s *bodyStore) line(b int32) *[LineSize]byte {
	return lineOf(s.pages[b>>pageLineShift], uint64(b))
}

// get returns slot's body.
func (s *bodyStore) get(slot int) *[LineSize]byte { return s.line(s.of[slot]) }

// add gives slot a body holding a copy of src, and returns it.
func (s *bodyStore) add(slot int, src *[LineSize]byte) *[LineSize]byte {
	b := s.free - 1
	if b >= 0 {
		s.free = int32(binary.LittleEndian.Uint32(s.line(b)[:]))
	} else {
		if int(s.next)>>pageLineShift == len(s.pages) {
			s.pages = append(s.pages, takePage(false, false))
		}
		b = s.next
		s.next++
	}
	s.of[slot] = b
	copyLine(s.line(b), src)
	return s.line(b)
}

// drop frees slot's body.
func (s *bodyStore) drop(slot int) {
	binary.LittleEndian.PutUint32(s.get(slot)[:], uint32(s.free))
	s.free = s.of[slot] + 1
}

// reset frees every body, keeping the pages.
func (s *bodyStore) reset() { s.free, s.next = 0, 0 }

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
	sets   []cacheSet
	bodyOf []int32
}

// arrayPool holds released devices' cache arrays, at most one set per pool
// worker (the most devices a fan-out of single-machine jobs has live at
// once); beyond that the oldest go to the garbage collector.
var arrayPool = workpool.FreeList[cacheArrays]{PerWorker: 1}

// takeArrays returns pooled cache arrays of the geometry, most recently
// released first, as they were left.
func takeArrays(nset, nway int) (cacheArrays, bool) {
	return arrayPool.Take(func(a cacheArrays) bool {
		return len(a.sets) == nset && len(a.bodyOf) == nset*nway
	})
}

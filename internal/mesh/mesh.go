// Package mesh implements the Mesh comparator (Powers et al., PLDI'19) used
// in the paper's Redis case study (§7.4): physical-memory compaction without
// reference updates. Two virtual pages whose live objects occupy disjoint
// page offsets are "meshed" — their objects are merged onto one physical
// page and the other virtual page is remapped to it, freeing a physical
// page while every virtual address (and therefore every reference) stays
// valid.
//
// Faithfulness notes: Mesh's randomized allocation and span machinery are
// out of scope; we mesh the pool's 4 KB frames greedily. The virtual→
// physical mapping is maintained in pmop.Pool's frame remap (the analogue of
// Mesh's mprotect/page-table surgery).
//
// Crash consistency. The remap table is the one piece of Mesh state that
// must survive power loss — without it, a recovered machine would read a
// meshed-away frame's stale physical page. RunCycle persists the table into
// the pool's auxiliary metadata slack (pmop.Pool.AuxMetaRange) with a
// two-copy generation scheme: the inactive copy is written and flushed
// first, then the 8-byte generation header flips to it (a line-atomic
// publish under any crash policy). A crash mid-cycle therefore recovers the
// *previous* mapping — safe, because meshPair copies source slots into free
// offsets of the destination's physical frame before the remap flips, so
// under the old mapping those bytes are unreachable garbage. Recover reads
// the table back before core recovery runs (reference marking must read
// through the mapping); RestoreFrameStates re-pins the meshed frame states
// after the allocator rebuild so later cycles cannot re-mesh over resident
// neighbours.
package mesh

import (
	"encoding/binary"
	"fmt"

	"ffccd/internal/alloc"
	"ffccd/internal/pmop"
	"ffccd/internal/sim"
)

// Remap-table persistence layout inside AuxMetaRange:
//
//	[0:8)    header word: meshMagic | generation (0 on fresh media = identity)
//	[8:16)   reserved
//	[16:...) two copies of frames×u32 physical-frame entries; the active copy
//	         is generation%2.
const meshMagic = uint64(0x4D455348) << 32 // "MESH"

func remapLayout(p *pmop.Pool) (base uint64, copyBytes uint64, ok bool) {
	_, frames := p.HeapRange()
	off, size := p.AuxMetaRange()
	copyBytes = frames * 4
	return off, copyBytes, size >= 16+2*copyBytes
}

// Defragmenter meshes offset-disjoint frames of one pool.
type Defragmenter struct {
	p *pmop.Pool

	remap  []uint32 // virtual frame → physical frame
	meshed int      // physical frames released by meshing
	gen    uint64   // persisted remap-table generation (0 = identity)

	// MeshesPerformed counts successful pairings.
	MeshesPerformed int
}

// New creates a defragmenter with an identity mapping.
func New(p *pmop.Pool) *Defragmenter {
	_, frames := p.HeapRange()
	remap := make([]uint32, frames)
	for i := range remap {
		remap[i] = uint32(i)
	}
	d := &Defragmenter{p: p, remap: remap}
	p.SetFrameRemap(remap)
	return d
}

// MeshedFrames returns how many physical frames meshing has released.
func (d *Defragmenter) MeshedFrames() int { return d.meshed }

// PhysFrag returns fragmentation statistics based on *physical* footprint:
// the allocator's footprint minus the frames meshing released.
func (d *Defragmenter) PhysFrag(pageShift uint) alloc.FragStats {
	st := d.p.Heap().Frag(pageShift)
	saved := uint64(d.meshed) * alloc.FrameSize
	if st.FootprintBytes > saved {
		st.FootprintBytes -= saved
	}
	if st.LiveBytes > 0 {
		st.FragRatio = float64(st.FootprintBytes) / float64(st.LiveBytes)
	}
	return st
}

// RunCycle performs one meshing pass under stop-the-world: it pairs
// offset-disjoint, identity-mapped, lightly occupied frames, copies each
// pair onto one physical frame, and updates the virtual mapping. Returns the
// number of physical frames released.
func (d *Defragmenter) RunCycle(ctx *sim.Ctx) int {
	p := d.p
	heap := p.Heap()

	// Candidates: active frames, identity-mapped, at most half full.
	type cand struct {
		frame int
		bits  [4]uint64
		used  int
	}
	var cands []cand
	for _, fi := range heap.Snapshot() {
		if fi.State != alloc.FrameActive || fi.UsedSlots == 0 || fi.UsedSlots > alloc.SlotsPerFrame/2 {
			continue
		}
		if d.remap[fi.Frame] != uint32(fi.Frame) {
			continue
		}
		cands = append(cands, cand{fi.Frame, heap.FrameBitmap(fi.Frame), fi.UsedSlots})
	}

	released := 0
	usedAsTarget := make(map[int]bool)
	for i := 0; i < len(cands); i++ {
		if usedAsTarget[cands[i].frame] {
			continue
		}
		for j := i + 1; j < len(cands); j++ {
			if usedAsTarget[cands[j].frame] {
				continue
			}
			disjoint := true
			for w := 0; w < 4; w++ {
				if cands[i].bits[w]&cands[j].bits[w] != 0 {
					disjoint = false
					break
				}
			}
			if !disjoint {
				continue
			}
			d.meshPair(ctx, cands[i].frame, cands[j].frame, cands[j].bits)
			usedAsTarget[cands[i].frame] = true
			usedAsTarget[cands[j].frame] = true
			released++
			break
		}
	}
	if released > 0 {
		d.meshed += released
		d.MeshesPerformed += released
		// Persist first (inactive copy + durable generation flip), then
		// publish the volatile mapping: a crash inside persist leaves the old
		// generation active and the old remap recoverable.
		d.persist(ctx)
		m := make([]uint32, len(d.remap))
		copy(m, d.remap)
		p.SetFrameRemap(m)
	}
	return released
}

// persist writes the current remap table into the inactive aux-meta copy,
// flushes it, and flips the generation header. Called with d.mu held and the
// world stopped.
func (d *Defragmenter) persist(ctx *sim.Ctx) {
	p := d.p
	base, copyBytes, ok := remapLayout(p)
	if !ok {
		return // pool too small to carry the table; stay volatile
	}
	next := d.gen + 1
	dst := base + 16 + (next%2)*copyBytes
	buf := make([]byte, copyBytes)
	for i, ph := range d.remap {
		binary.LittleEndian.PutUint32(buf[i*4:], ph)
	}
	p.RawStore(ctx, dst, buf)
	p.PersistRange(ctx, dst, copyBytes)
	p.RawStoreU64(ctx, base, meshMagic|(next&0xFFFFFFFF))
	p.PersistRange(ctx, base, 8)
	d.gen = next
}

// Recover rebuilds a Defragmenter from the persisted remap table and
// installs the mapping on the pool. It must run BEFORE core recovery: the
// reference mark pass reads heap bytes through the pool's frame remap, and
// until the mapping is installed a meshed-away frame resolves to its stale
// physical page. Fresh media (or a pool too small for the table) recovers to
// the identity mapping.
func Recover(ctx *sim.Ctx, p *pmop.Pool) (*Defragmenter, error) {
	_, frames := p.HeapRange()
	remap := make([]uint32, frames)
	for i := range remap {
		remap[i] = uint32(i)
	}
	d := &Defragmenter{p: p, remap: remap}
	base, copyBytes, ok := remapLayout(p)
	if ok {
		if hdr := p.RawLoadU64(ctx, base); hdr&^uint64(0xFFFFFFFF) == meshMagic {
			gen := hdr & 0xFFFFFFFF
			buf := make([]byte, copyBytes)
			p.RawLoad(ctx, base+16+(gen%2)*copyBytes, buf)
			for i := range remap {
				ph := binary.LittleEndian.Uint32(buf[i*4:])
				if uint64(ph) >= frames {
					return nil, fmt.Errorf("mesh: corrupt remap entry %d → %d (frames %d)", i, ph, frames)
				}
				remap[i] = ph
				if ph != uint32(i) {
					d.meshed++
				}
			}
			d.gen = gen
		}
	}
	m := make([]uint32, len(remap))
	copy(m, remap)
	p.SetFrameRemap(m)
	return d, nil
}

// RestoreFrameStates re-marks every frame participating in a mesh pairing as
// FrameMeshed. Run it AFTER the allocator rebuild (core recovery leaves
// frames with live objects Active): a destination frame physically hosts its
// meshed partner's slots too, so leaving it Active would let a later cycle
// pair it against a third frame and overwrite the resident neighbour.
func (d *Defragmenter) RestoreFrameStates() {
	heap := d.p.Heap()
	for src, ph := range d.remap {
		if uint32(src) != ph {
			heap.SetState(src, alloc.FrameMeshed)
			heap.SetState(int(ph), alloc.FrameMeshed)
		}
	}
}

// meshPair copies src's occupied slots onto dst's physical frame (same page
// offsets — that is the disjointness invariant) and remaps src to dst.
func (d *Defragmenter) meshPair(ctx *sim.Ctx, dst, src int, srcBits [4]uint64) {
	p := d.p
	heap := p.Heap()
	heapOff := heap.HeapOff()
	dstPhys := uint64(d.remap[dst])
	buf := make([]byte, alloc.SlotSize)
	for s := 0; s < alloc.SlotsPerFrame; s++ {
		if srcBits[s/64]&(1<<(s%64)) == 0 {
			continue
		}
		off := heap.OffsetOf(src, s)
		p.RawLoad(ctx, off, buf) // via src's current physical frame
		// Write directly to dst's physical slot and persist (the remap is
		// not yet updated, so RawStore would hit the old location).
		pa := p.PA(heapOff+dstPhys*alloc.FrameSize) + uint64(s)*alloc.SlotSize
		p.Device().Store(ctx, pa, buf)
		p.Device().Clwb(ctx, pa)
	}
	p.Device().Sfence(ctx)
	d.remap[src] = uint32(dstPhys)
	heap.SetState(dst, alloc.FrameMeshed)
	heap.SetState(src, alloc.FrameMeshed)
}

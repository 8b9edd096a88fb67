package pmop

import (
	"ffccd/internal/alloc"
	"ffccd/internal/pmem"
)

// Persistent GC metadata layout inside the pool's reserved GC region
// (GCMetaRange). The defragmentation engine (internal/core) writes it and
// recovers from it; the crash checker (internal/checker) reads it. Both locate
// it here:
//
//	reached bitmap : 8 bytes per heap frame (one bit per destination
//	                 cacheline, maintained by the RBB — §4.2)
//	moved bitmap   : 32 bytes per heap frame (one bit per slot; set at the
//	                 object's start slot when its move completes)
//	PMFT           : 264 bytes per heap frame (§4.3.1):
//	                   u32 epoch   — entry valid iff equal to the current
//	                                 defragmentation epoch
//	                   u32 destFrame — the major distance (one destination
//	                                 page per relocation page)
//	                   256 × u8 minor-distance map — destination slot for
//	                                 each 16-byte slot; MinorInvalid = not
//	                                 mapped
//
// and, in the region's last whole lines, past the auxiliary slack that
// AuxMetaRange hands to Mesh, one record per pool:
//
//	relocation-frame list: u32 epoch — the epoch whose summary wrote it
//	                       u32 count
//	                       count × u32 relocation frames, ascending
//
// All of it is persisted by the summary phase before compaction begins,
// giving the deterministic relocation the paper requires ("whatever an
// object relocation is performed by any component ... relocating an object
// will always have the same outcome"). The list is what lets recovery read
// only the PMFT entries of the frames an epoch moved: summary clwb's its
// lines before the fences it issues per PMFT entry, so it is durable before
// the phase word flips to compacting — a pool whose phase word names a
// compacting epoch holds that epoch's list.
const (
	ReachedBytesPerFrame = 8
	MovedBytesPerFrame   = alloc.SlotsPerFrame / 8 // 32
	PMFTEntrySize        = 8 + alloc.SlotsPerFrame // 264
	MinorInvalid         = 0xFF

	// gcMetaUsedPerFrame is the part of gcMetaPerFrame the three arrays take;
	// the region's tail holds the relocation-frame list (relocListBytes), and
	// the rest is auxiliary slack (AuxMetaRange).
	gcMetaUsedPerFrame = ReachedBytesPerFrame + MovedBytesPerFrame + PMFTEntrySize
)

// relocListBytes is the GC-metadata tail the relocation-frame list takes: an
// 8-byte header and a u32 per heap frame, in whole cachelines.
func relocListBytes(frames uint64) uint64 {
	return (8 + 4*frames + pmem.LineSize - 1) &^ (pmem.LineSize - 1)
}

// GCMeta is the pool offsets of the persistent GC metadata: the three
// per-frame arrays and the relocation-frame list.
type GCMeta struct {
	Reached, Moved, PMFT, RelocList uint64
}

// AuxMetaRange returns the slack of the GC metadata region: persistent space
// no defragmentation scheme touches, available to auxiliary comparators. It
// runs from the end of the per-frame arrays (reached bitmap, moved bitmap,
// PMFT) to the relocation-frame list, which the engine keeps in the region's
// last 8 + 4×frames bytes (rounded up to whole lines) — so off+size is the
// list's offset. The Mesh comparator persists its virtual→physical frame
// remap at the start of the range. The range sits below the heap, so frame
// remapping never applies to it.
func (p *Pool) AuxMetaRange() (off, size uint64) {
	used := p.heapFrames * gcMetaUsedPerFrame
	end := p.gcMetaSize - relocListBytes(p.heapFrames)
	return p.gcMetaOff + used, end - used
}

// GCMeta returns the pool's metadata offsets.
func (p *Pool) GCMeta() GCMeta {
	base, frames := p.gcMetaOff, p.heapFrames
	return GCMeta{
		Reached:   base,
		Moved:     base + frames*ReachedBytesPerFrame,
		PMFT:      base + frames*(ReachedBytesPerFrame+MovedBytesPerFrame),
		RelocList: base + p.gcMetaSize - relocListBytes(frames),
	}
}

// PMFTEntry returns the pool offset of frame f's PMFT entry.
func (m GCMeta) PMFTEntry(f int) uint64 { return m.PMFT + uint64(f)*PMFTEntrySize }

// MovedBit returns the pool offset of the byte holding the persistent moved
// bit of the object starting at slot of frame f, and the bit's mask.
func (m GCMeta) MovedBit(f, slot int) (off uint64, mask byte) {
	return m.Moved + uint64(f)*MovedBytesPerFrame + uint64(slot/8), 1 << (slot % 8)
}

// The phase word (GCPhase) packs bits [0,8) state, [8,16) scheme and
// [16,48) the epoch counter. Its states:
const (
	PhaseIdle       = 0
	PhaseCompacting = 1
)

// PackGCPhase packs a phase word.
func PackGCPhase(state, scheme, epoch uint64) uint64 {
	return state | scheme<<8 | epoch<<16
}

// UnpackGCPhase unpacks a phase word.
func UnpackGCPhase(w uint64) (state, scheme, epoch uint64) {
	return w & 0xFF, w >> 8 & 0xFF, w >> 16
}

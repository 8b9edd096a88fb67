package core

import (
	"ffccd/internal/alloc"
	"ffccd/internal/pmop"
)

// Persistent GC metadata layout inside the pool's reserved GC region:
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
//	                                 each 16-byte slot; 0xFF = not mapped
//
// and, in the region's last whole lines, past the auxiliary slack that
// pmop.Pool.AuxMetaRange hands to Mesh, one record per pool:
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
	movedBytesPerFrame = alloc.SlotsPerFrame / 8 // 32
	pmftEntrySize      = 8 + alloc.SlotsPerFrame // 264
	minorInvalid       = 0xFF
)

// relocListOff returns the pool offset of the relocation-frame list, where
// the pool's auxiliary metadata range ends.
func relocListOff(p *pmop.Pool) uint64 {
	off, size := p.AuxMetaRange()
	return off + size
}

// metaLayout returns the pool offsets of the three metadata arrays.
func metaLayout(p *pmop.Pool) (reachedOff, movedOff, pmftOff uint64) {
	base, _ := p.GCMetaRange()
	_, frames := p.HeapRange()
	reachedOff = base
	movedOff = reachedOff + frames*8
	pmftOff = movedOff + frames*movedBytesPerFrame
	return
}

// pmftEntryOff returns the pool offset of frame f's PMFT entry.
func pmftEntryOff(p *pmop.Pool, f int) uint64 {
	_, _, pmftOff := metaLayout(p)
	return pmftOff + uint64(f)*pmftEntrySize
}

// movedBitOff returns the byte offset and bit mask of the persistent moved
// bit for the object starting at slot of frame f.
func movedBitOff(p *pmop.Pool, f, slot int) (off uint64, mask byte) {
	_, movedOff, _ := metaLayout(p)
	return movedOff + uint64(f)*movedBytesPerFrame + uint64(slot/8), 1 << (slot % 8)
}

// Phase word packing (pool header's gcPhase field):
// bits [0,8) state, [8,16) scheme, [16,48) epoch counter.
const (
	phaseIdle       = 0
	phaseCompacting = 1
)

func packPhase(state uint64, scheme Scheme, epoch uint64) uint64 {
	return state | uint64(scheme)<<8 | epoch<<16
}

func unpackPhase(w uint64) (state uint64, scheme Scheme, epoch uint64) {
	return w & 0xFF, Scheme(w >> 8 & 0xFF), w >> 16
}

// MetaView exposes the persistent GC metadata layout to external validators
// (internal/checker) without duplicating the offset arithmetic here.
type MetaView struct {
	// ReachedOff, MovedOff, PMFTOff are pool offsets of the three arrays,
	// RelocListOff that of the relocation-frame list.
	ReachedOff, MovedOff, PMFTOff, RelocListOff uint64
	// MovedBytesPerFrame and PMFTEntrySize are the per-frame strides.
	MovedBytesPerFrame, PMFTEntrySize uint64
	// MinorInvalid is the minor-distance byte meaning "slot not mapped".
	MinorInvalid byte
}

// Meta returns the metadata layout view for p.
func Meta(p *pmop.Pool) MetaView {
	r, m, pf := metaLayout(p)
	return MetaView{
		ReachedOff: r, MovedOff: m, PMFTOff: pf, RelocListOff: relocListOff(p),
		MovedBytesPerFrame: movedBytesPerFrame,
		PMFTEntrySize:      pmftEntrySize,
		MinorInvalid:       minorInvalid,
	}
}

// UnpackPhaseWord decodes a pool gcPhase word into (compacting?, scheme,
// epoch) for external validators.
func UnpackPhaseWord(w uint64) (compacting bool, scheme Scheme, epoch uint64) {
	st, sc, ep := unpackPhase(w)
	return st == phaseCompacting, sc, ep
}

// sfccdTombstone is the sentinel written into a moved object's *source*
// header (reserved word at +8) when the application first modifies the
// destination copy under SFCCD. It lets Fig. 7(b)'s content comparison
// distinguish "memcpy never persisted" from "application legitimately
// modified the moved object" — see DESIGN.md §SFCCD clarification.
const sfccdTombstone = 0x544F4D4253544F4E // "TOMBSTON"

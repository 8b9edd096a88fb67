package arch

// Checkpoint/restore for the architectural structures, part of the
// machine-wide checkpoint subsystem (DESIGN.md §7). The experiment driver's
// fork points always sit outside a defragmentation epoch, where both
// structures are disarmed and cold — but the API captures the full hot
// state (dirty RBB entries, resident PMFTLB frames, the cached BFC filter)
// so mid-epoch state can be snapshotted and replayed too, e.g. by
// fault-injection tests that re-run a crash from a restored machine.

// RBBCheckpoint is a deep copy of the Reached Bitmap Buffer state. The
// in-PM reached bitmap itself lives in device media and travels with the
// device checkpoint; this captures only the controller-side buffer.
type RBBCheckpoint struct {
	Base     uint64
	HeapBase uint64
	NFrames  uint64
	On       bool
	Entries  []rbbEntry
	Tick     uint32

	Hits, Misses, Writebacks uint64
}

// Checkpoint captures the RBB state. Call only while the simulation is
// quiescent.
func (r *RBB) Checkpoint() *RBBCheckpoint {
	return &RBBCheckpoint{
		Base:       r.base,
		HeapBase:   r.heapBase,
		NFrames:    r.nfr,
		On:         r.on,
		Entries:    append([]rbbEntry(nil), r.entries...),
		Tick:       r.tick,
		Hits:       r.Hits,
		Misses:     r.Misses,
		Writebacks: r.Writebacks,
	}
}

// Restore overwrites the RBB state from c. The RBB must have the same entry
// count as the checkpoint's source; its device attachment is unchanged (a
// fork restores into an RBB built over the forked device).
func (r *RBB) Restore(c *RBBCheckpoint) {
	if len(c.Entries) != len(r.entries) {
		panic("arch: RBB Restore geometry mismatch")
	}
	r.base = c.Base
	r.heapBase = c.HeapBase
	r.nfr = c.NFrames
	r.on = c.On
	copy(r.entries, c.Entries)
	r.tick = c.Tick
	r.Hits, r.Misses, r.Writebacks = c.Hits, c.Misses, c.Writebacks
}

// CheckLookupUnitCheckpoint is a deep copy of one core's checklookup state.
// The BloomSet and Forwarder are epoch-owned and referenced externally; only
// the unit's cached timing state is captured.
type CheckLookupUnitCheckpoint struct {
	BFCValid bool
	BFCIdx   int
	TLB      []pmftlbEntry
	Tick     uint32

	BFCHits, BFCMisses       uint64
	PMFTLBHits, PMFTLBMisses uint64
}

// Checkpoint captures the unit's state.
func (u *CheckLookupUnit) Checkpoint() *CheckLookupUnitCheckpoint {
	return &CheckLookupUnitCheckpoint{
		BFCValid:     u.bfcValid,
		BFCIdx:       u.bfcIdx,
		TLB:          append([]pmftlbEntry(nil), u.tlb...),
		Tick:         u.tick,
		BFCHits:      u.BFCHits,
		BFCMisses:    u.BFCMisses,
		PMFTLBHits:   u.PMFTLBHits,
		PMFTLBMisses: u.PMFTLBMisses,
	}
}

// Restore overwrites the unit's state from c. The unit must have the same
// PMFTLB entry count as the checkpoint's source.
func (u *CheckLookupUnit) Restore(c *CheckLookupUnitCheckpoint) {
	if len(c.TLB) != len(u.tlb) {
		panic("arch: CheckLookupUnit Restore geometry mismatch")
	}
	u.bfcValid = c.BFCValid
	u.bfcIdx = c.BFCIdx
	copy(u.tlb, c.TLB)
	u.tick = c.Tick
	u.BFCHits, u.BFCMisses = c.BFCHits, c.BFCMisses
	u.PMFTLBHits, u.PMFTLBMisses = c.PMFTLBHits, c.PMFTLBMisses
}

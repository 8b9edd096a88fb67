package alloc

// HeapCheckpoint is a deep copy of the allocator's volatile state. The
// allocator is rebuildable from persistent headers (RebuildFromMark), but
// rebuilding charges simulated mark-phase cycles — the fork-based experiment
// driver instead restores the exact host-side bitmaps so a forked run's
// allocation decisions replay bit-identically (DESIGN.md §7). The per-frame
// tables are captured as far as the heap's reach, not its capacity.
type HeapCheckpoint struct {
	HeapOff    uint64
	Frames     int
	SlotBits   []uint64
	StartBits  []uint64
	FreeSlots  []uint16
	State      []FrameState
	UsedFrames int
	LiveBytes  uint64
	DupBytes   uint64
	Cursor     int
}

// Checkpoint captures the heap state.
func (h *Heap) Checkpoint() *HeapCheckpoint {
	c := &HeapCheckpoint{}
	h.CheckpointInto(c)
	return c
}

// CheckpointInto captures the heap state into c, reusing c's buffers.
func (h *Heap) CheckpointInto(c *HeapCheckpoint) {
	c.HeapOff = h.heapOff
	c.Frames = h.frames
	c.SlotBits = append(c.SlotBits[:0], h.slotBits...)
	c.StartBits = append(c.StartBits[:0], h.startBits...)
	c.FreeSlots = append(c.FreeSlots[:0], h.freeSlots...)
	c.State = append(c.State[:0], h.state...)
	c.UsedFrames = h.usedFrames
	c.LiveBytes = h.liveBytes
	c.DupBytes = h.dupBytes
	c.Cursor = h.cursor
}

// Restore overwrites the heap state from c. The heap must have the same
// geometry (offset and frame count) as the checkpoint's source; the
// checkpoint is only read, so concurrent restores from one checkpoint into
// distinct heaps are safe. A heap that reached further than the checkpoint
// is cut back to the checkpoint's reach. The placement index is not in the
// checkpoint; it is derived again from the restored state.
func (h *Heap) Restore(c *HeapCheckpoint) {
	if c.HeapOff != h.heapOff || c.Frames != h.frames {
		panic("alloc: Restore geometry mismatch")
	}
	h.slotBits = append(h.slotBits[:0], c.SlotBits...)
	h.startBits = append(h.startBits[:0], c.StartBits...)
	h.freeSlots = append(h.freeSlots[:0], c.FreeSlots...)
	h.state = append(h.state[:0], c.State...)
	h.usedFrames = c.UsedFrames
	h.liveBytes = c.LiveBytes
	h.dupBytes = c.DupBytes
	h.cursor = c.Cursor
	h.buildIndex()
}

package sim

// Checkpoint/restore for the per-thread simulation state (clock, TLB,
// pending-flush count). Checkpoints are deep value copies: restoring one into
// a fresh Ctx reproduces the simulated-visible state bit-identically, which
// the fork-based experiment driver relies on (DESIGN.md §7, "Checkpoints
// are deep copies"). The *Into
// variants reuse a previously allocated checkpoint's buffers so a driver that
// re-checkpoints at every candidate fork point pays no steady-state
// allocation.

// setAssocState is a deep copy of one set-associative array's contents.
type setAssocState struct {
	Tags []uint64
	Age  []uint64
	Tick uint64
}

// checkpointInto copies the array's contents into c, on the head of buf, and
// returns the rest of buf.
func (s *setAssoc) checkpointInto(c *setAssocState, buf []uint64) []uint64 {
	n := len(s.tags)
	c.Tags, c.Age = buf[:n:n], buf[n:2*n:2*n]
	copy(c.Tags, s.tags)
	copy(c.Age, s.age)
	c.Tick = s.tick
	return buf[2*n:]
}

func (s *setAssoc) restore(c *setAssocState) {
	copy(s.tags, c.Tags)
	copy(s.age, c.Age)
	s.tick = c.Tick
}

// TLBCheckpoint captures the full translation hierarchy: resident tags, LRU
// ages and ticks for both L1 structures and the unified L2, plus the miss
// counters. The checkpoint of a TLB that has no arrays yet holds none. Its
// arrays are one block from the TLB-array pool, like a TLB's, which Release
// gives back.
type TLBCheckpoint struct {
	L14K, L12M, L2               setAssocState
	Accesses, L1Misses, L2Misses uint64

	buf []uint64
}

// Release gives the checkpoint's arrays back to the TLB-array pool; the
// checkpoint holds none afterwards, like that of a TLB without arrays.
func (c *TLBCheckpoint) Release() {
	if c.buf != nil {
		tlbPool.Put(c.buf)
	}
	c.buf, c.L14K, c.L12M, c.L2 = nil, setAssocState{}, setAssocState{}, setAssocState{}
}

// Checkpoint returns a deep copy of the TLB state.
func (t *TLB) Checkpoint() *TLBCheckpoint {
	c := &TLBCheckpoint{}
	t.CheckpointInto(c)
	return c
}

// CheckpointInto captures the TLB state into c, reusing c's arrays, or
// taking them from the TLB-array pool. Any deferred streak bookkeeping is
// materialized first so the captured arrays and counters are exact.
func (t *TLB) CheckpointInto(c *TLBCheckpoint) {
	t.syncStreak()
	if t.buf == nil {
		c.Release()
	} else {
		if len(c.buf) != len(t.buf) {
			c.Release()
			c.buf = takeTLBArrays(len(t.buf), false) // every word is overwritten below
		}
		t.l2.checkpointInto(&c.L2, t.l12m.checkpointInto(&c.L12M, t.l14k.checkpointInto(&c.L14K, c.buf)))
	}
	c.Accesses, c.L1Misses, c.L2Misses = t.Accesses, t.L1Misses, t.L2Misses
}

// Restore overwrites the TLB state from c. The TLB must have the same
// geometry (entry/way configuration) as the one the checkpoint was taken
// from. A checkpoint without arrays leaves the TLB without any.
func (t *TLB) Restore(c *TLBCheckpoint) {
	if len(c.L14K.Tags) == 0 {
		t.disarm()
	} else {
		if t.buf == nil {
			t.arm(false) // every entry is overwritten below
		}
		t.l14k.restore(&c.L14K)
		t.l12m.restore(&c.L12M)
		t.l2.restore(&c.L2)
	}
	t.Accesses, t.L1Misses, t.L2Misses = c.Accesses, c.L1Misses, c.L2Misses
	// The same-page streak trusts its slot index without revalidation, so a
	// restore (unlike the validated mruIdx/mruTag hints) must disarm it, and
	// any deferred hits belong to the overwritten timeline — drop them.
	t.streakMask = 0
	t.streakLen = 0
}

// Restore overwrites the per-category counters from a Snapshot.
func (c *Clock) Restore(snap [NumCategories]uint64) {
	copy(c.cycles[:], snap[:])
}

// CtxCheckpoint captures one simulation context: its clock's per-category
// cycle counters, attribution category, pending-flush count, and TLB.
type CtxCheckpoint struct {
	Cycles         [NumCategories]uint64
	Cat            Category
	PendingFlushes int
	TLB            TLBCheckpoint
}

// Checkpoint returns a deep copy of the context's simulated state.
func (x *Ctx) Checkpoint() *CtxCheckpoint {
	c := &CtxCheckpoint{}
	x.CheckpointInto(c)
	return c
}

// CheckpointInto captures the context's simulated state into c, reusing c's
// buffers.
func (x *Ctx) CheckpointInto(c *CtxCheckpoint) {
	c.Cycles = x.Clock.Snapshot()
	c.Cat = x.Cat
	c.PendingFlushes = x.PendingFlushes
	x.TLB.CheckpointInto(&c.TLB)
}

// Release gives the checkpoint's TLB arrays back to the TLB-array pool.
func (c *CtxCheckpoint) Release() { c.TLB.Release() }

// Restore overwrites the context's simulated state from c. The context keeps
// its own Clock/TLB instances (their contents are overwritten) and its host
// Shard.
func (x *Ctx) Restore(c *CtxCheckpoint) {
	x.Clock.Restore(c.Cycles)
	x.Cat = c.Cat
	x.PendingFlushes = c.PendingFlushes
	x.TLB.Restore(&c.TLB)
}

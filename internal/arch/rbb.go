// Package arch models the architecture support FFCCD adds (§4): the Reached
// Bitmap Buffer in the memory controller, the relocate-instruction pending
// bits (implemented in pmem), and the checklookup instruction's Bloom Filter
// Cache and PMFT Lookaside Buffer. Every structure uses the Table 1/Table 2
// geometries and latencies.
package arch

import (
	"encoding/binary"
	"ffccd/internal/pmem"
	"ffccd/internal/sim"
)

// FrameShift is log2 of the reached-bitmap granularity: one 64-bit bitmap
// word covers the 64 cachelines of one 4 KB frame.
const FrameShift = 12

// RBB is the Reached Bitmap Buffer (§4.2): a small memory-controller cache
// over the in-PM reached bitmap. Each entry maps a physical frame number to
// a 64-bit bitmap with one bit per destination cacheline; a set bit means the
// cacheline produced by a relocate instruction arrived in the persistence
// domain. The RBB sits inside the ADR domain, so PowerLossFlush preserves its
// contents across a crash.
type RBB struct {
	dev      *pmem.Device
	cfg      *sim.Config
	base     uint64 // in-PM reached bitmap base (8 bytes per frame)
	heapBase uint64 // device address of heap frame 0 (frame index origin)
	nfr      uint64 // frames covered
	on       bool

	entries []rbbEntry
	tick    uint32

	// Counters.
	Hits, Misses, Writebacks uint64
}

type rbbEntry struct {
	valid  bool
	frame  uint64
	bitmap uint64
	age    uint32
}

// NewRBB creates an RBB attached to dev. It is inactive until Configure.
func NewRBB(cfg *sim.Config, dev *pmem.Device) *RBB {
	return &RBB{
		dev:     dev,
		cfg:     cfg,
		entries: make([]rbbEntry, cfg.RBBEntries),
	}
}

// Configure activates the RBB over an in-PM reached bitmap of nframes words
// starting at base, zeroing the bitmap region. heapBase is the device address
// whose frame gets index 0 (lines below it are ignored). Called at the
// beginning of the compacting phase (§4.2: "The structure is created at the
// beginning of the compacting phase").
func (r *RBB) Configure(base, heapBase, nframes uint64) {
	r.dev.MediaZero(base, 8*nframes)
	r.arm(base, heapBase, nframes)
}

// Rearm activates the RBB over an existing reached bitmap without zeroing it
// — the post-crash resume path, where the bitmap holds the pre-crash truth.
func (r *RBB) Rearm(base, heapBase, nframes uint64) { r.arm(base, heapBase, nframes) }

func (r *RBB) arm(base, heapBase, nframes uint64) {
	r.base = base
	r.heapBase = heapBase
	r.nfr = nframes
	r.on = true
	for i := range r.entries {
		r.entries[i] = rbbEntry{}
	}
}

// Deactivate flushes and disables the RBB (end of compaction; the reached
// bitmap is deallocated by the GC).
func (r *RBB) Deactivate() {
	r.flush()
	r.on = false
}

// Active reports whether a compaction epoch has the RBB armed.
func (r *RBB) Active() bool { return r.on }

func (r *RBB) bitmapAddr(frame uint64) uint64 { return r.base + frame*8 }

func (r *RBB) writeback(e *rbbEntry) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], e.bitmap)
	r.dev.MediaWrite(r.bitmapAddr(e.frame), buf[:])
	r.Writebacks++
}

func (r *RBB) flush() {
	for i := range r.entries {
		if r.entries[i].valid {
			r.writeback(&r.entries[i])
			r.entries[i].valid = false
		}
	}
}

// LineReached implements pmem.RBBSink: a pending cacheline arrived in the
// persistence domain. ctx may be nil when invoked from the ADR power-loss
// path.
func (r *RBB) LineReached(ctx *sim.Ctx, lineAddr uint64) {
	if !r.on || lineAddr < r.heapBase {
		return
	}
	frame := (lineAddr - r.heapBase) >> FrameShift
	if frame >= r.nfr {
		return
	}
	bit := uint64(1) << ((lineAddr >> pmem.LineShift) & 63)
	r.tick++

	var victim *rbbEntry
	var oldest uint32 = ^uint32(0)
	for i := range r.entries {
		e := &r.entries[i]
		if e.valid && e.frame == frame {
			e.bitmap |= bit
			e.age = r.tick
			r.Hits++
			if ctx != nil {
				ctx.Charge(r.cfg.RBBLatency)
			}
			return
		}
		if !e.valid {
			if oldest != 0 {
				victim, oldest = e, 0
			}
			continue
		}
		if e.age < oldest {
			victim, oldest = e, e.age
		}
	}
	// Miss: evict, fetch the frame's word from the in-memory bitmap (§4.2
	// step 4), then set the bit.
	r.Misses++
	if victim.valid {
		r.writeback(victim)
	}
	var buf [8]byte
	r.dev.MediaRead(r.bitmapAddr(frame), buf[:])
	victim.valid = true
	victim.frame = frame
	victim.bitmap = binary.LittleEndian.Uint64(buf[:]) | bit
	victim.age = r.tick
	if ctx != nil {
		ctx.Charge(r.cfg.RBBLatency + r.cfg.DRAMLatency)
	}
}

// PowerLossFlush writes every valid entry to the in-PM bitmap. The ADR
// battery powers this on a crash (§4.4); the harness calls it as part of the
// simulated power-failure sequence.
func (r *RBB) PowerLossFlush() {
	if r.on {
		r.flush()
	}
}

// Read returns the merged reached bitmap word for frame (RBB entry if
// resident, else the in-PM copy). Used by the GC's page-release checks and by
// recovery.
func (r *RBB) Read(ctx *sim.Ctx, frame uint64) uint64 {
	for i := range r.entries {
		e := &r.entries[i]
		if e.valid && e.frame == frame {
			if ctx != nil {
				ctx.Charge(r.cfg.RBBLatency)
			}
			return e.bitmap
		}
	}
	var buf [8]byte
	r.dev.MediaRead(r.bitmapAddr(frame), buf[:])
	if ctx != nil {
		ctx.Charge(r.cfg.DRAMLatency)
	}
	return binary.LittleEndian.Uint64(buf[:])
}

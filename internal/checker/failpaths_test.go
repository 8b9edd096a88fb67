package checker_test

// Failure-path tests for CheckGraph: each test plants one specific
// corruption a crash-consistency bug would leave behind — a dangling
// forwarded pointer, a stale moved bit, GC metadata disagreeing with the
// heap — and asserts the checker reports it with a descriptive error.

import (
	"encoding/binary"
	"strings"
	"testing"

	"ffccd/internal/alloc"
	"ffccd/internal/checker"
	"ffccd/internal/core"
	"ffccd/internal/pmop"
	"ffccd/internal/sim"
)

// defragged builds a list, fragments it, and runs one full compaction
// cycle so the pool carries real epoch metadata (phase epoch >= 1).
func defragged(t *testing.T) (*pmop.Pool, *sim.Ctx) {
	t.Helper()
	p, ctx, l := setup(t)
	for i := uint64(0); i < 1500; i++ {
		l.Insert(ctx, i, []byte{byte(i), byte(i >> 8), 0x3C})
	}
	for i := uint64(0); i < 1500; i += 2 {
		l.Delete(ctx, i)
	}
	opt := core.DefaultOptions()
	opt.TriggerRatio, opt.TargetRatio = 1.05, 1.02
	eng := core.NewEngine(p, opt)
	defer eng.Close()
	if !eng.RunCycle(ctx) {
		t.Skip("heap too dense to open an epoch")
	}
	if _, err := checker.CheckGraph(ctx, p); err != nil {
		t.Fatalf("clean post-defrag graph rejected: %v", err)
	}
	return p, ctx
}

// TestDetectsDanglingForwardedPointer simulates a missed reference fixup:
// after a completed epoch, a reachable pointer still aims into a released
// relocation frame (the address its referent was forwarded away from).
func TestDetectsDanglingForwardedPointer(t *testing.T) {
	p, ctx := defragged(t)
	heap := p.Heap()
	free := -1
	for f := 0; f < heap.Frames(); f++ {
		if heap.State(f) == alloc.FrameFree {
			free = f
			break
		}
	}
	if free < 0 {
		t.Skip("no released frame to dangle into")
	}
	head := p.Root(ctx)
	node := p.ReadPtr(ctx, head, 0)
	stale := pmop.MakePtr(p.ID(), heap.OffsetOf(free, 0)+pmop.HeaderSize)
	p.RawStoreU64(ctx, node.Offset()+16, uint64(stale))
	_, err := checker.CheckGraph(ctx, p)
	if err == nil || !strings.Contains(err.Error(), "free frame") && !strings.Contains(err.Error(), "allocation start") {
		t.Fatalf("dangling forwarded pointer undetected: %v", err)
	}
}

// plantStaleMovedBit claims frame for the pool's current epoch with slot
// explicitly unmapped, and sets that slot's moved bit.
func plantStaleMovedBit(t *testing.T, p *pmop.Pool, ctx *sim.Ctx, frame, slot int) (epoch uint64) {
	t.Helper()
	_, _, epoch = pmop.UnpackGCPhase(p.GCPhase(ctx))
	if epoch == 0 {
		t.Fatal("defragged pool has phase epoch 0")
	}
	mv := p.GCMeta()
	entry := mv.PMFTEntry(frame)
	p.RawStoreU64(ctx, entry, epoch) // epoch u32 + destFrame u32 (0)
	p.RawStore(ctx, entry+8+uint64(slot), []byte{pmop.MinorInvalid})
	off, mask := mv.MovedBit(frame, slot)
	p.RawStore(ctx, off, []byte{mask})
	return epoch
}

// TestDetectsStaleMovedBit plants a moved bit for a slot the current
// epoch's PMFT does not map — the residue a lost moved-bitmap reset (or a
// moved-bit write landing on the wrong frame) would leave — on a frame the
// epoch's relocation-frame list names.
func TestDetectsStaleMovedBit(t *testing.T) {
	p, ctx := defragged(t)
	listed := int(p.RawLoadU64(ctx, p.GCMeta().RelocList+8) & 0xFFFFFFFF)
	plantStaleMovedBit(t, p, ctx, listed, 9)
	_, err := checker.CheckGraph(ctx, p)
	if err == nil || !strings.Contains(err.Error(), "stale moved bit") {
		t.Fatalf("stale moved bit undetected: %v", err)
	}
}

// TestDetectsStaleMovedBitWhenListLags covers the checker's full-scan branch:
// when the relocation-frame list is of another epoch than the phase word (a
// summary that crashed before its flip leaves a newer one), every PMFT entry
// of the phase word's epoch is checked — here on a frame the list does not
// name.
func TestDetectsStaleMovedBitWhenListLags(t *testing.T) {
	for _, lag := range []int64{-1, 1} {
		p, ctx := defragged(t)
		list := p.GCMeta().RelocList
		unlisted := p.Heap().Frames() - 1
		epoch := plantStaleMovedBit(t, p, ctx, unlisted, 9)
		hdr := p.RawLoadU64(ctx, list)
		if _, err := checker.CheckGraph(ctx, p); err != nil {
			t.Fatalf("a frame the current list does not name was checked: %v", err)
		}
		p.RawStoreU64(ctx, list, hdr&^0xFFFFFFFF|uint64(int64(epoch)+lag))
		_, err := checker.CheckGraph(ctx, p)
		if err == nil || !strings.Contains(err.Error(), "stale moved bit") {
			t.Fatalf("list epoch %+d of the phase word's: stale moved bit undetected: %v", lag, err)
		}
	}
}

// TestDetectsOverlappingObjects grows a value's header by one slot, so that
// it claims the first slot of the node allocated right after it — the node
// that references it.
func TestDetectsOverlappingObjects(t *testing.T) {
	p, ctx, l := setup(t)
	for i := uint64(0); i < 20; i++ {
		l.Insert(ctx, i, []byte{byte(i)})
	}
	node := p.ReadPtr(ctx, p.Root(ctx), 0)
	val := p.ReadPtr(ctx, node, 8)
	_, payload := p.Header(ctx, val)
	if val.Offset()+uint64(alloc.SlotsFor(payload))*alloc.SlotSize != node.Offset() {
		t.Fatalf("value at %#x does not end right before its node at %#x", val.Offset(), node.Offset())
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(payload+alloc.SlotSize))
	p.RawStore(ctx, val.Offset()-12, b[:])
	_, err := checker.CheckGraph(ctx, p)
	if err == nil || !strings.Contains(err.Error(), "objects overlap") {
		t.Fatalf("overlapping objects undetected: %v", err)
	}
}

// TestDetectsPhaseFrameDisagreement covers the summary-vs-heap metadata
// check: an idle phase word while a frame still claims to be part of an
// epoch (relocation source or destination) is a half-finished terminate.
func TestDetectsPhaseFrameDisagreement(t *testing.T) {
	for _, st := range []alloc.FrameState{alloc.FrameRelocation, alloc.FrameDestination} {
		p, ctx := defragged(t)
		heap := p.Heap()
		victim := -1
		for f := 0; f < heap.Frames(); f++ {
			if heap.State(f) == alloc.FrameActive {
				victim = f
				break
			}
		}
		if victim < 0 {
			t.Fatal("no active frame")
		}
		heap.SetState(victim, st)
		_, err := checker.CheckGraph(ctx, p)
		if err == nil || !strings.Contains(err.Error(), "idle phase but frame") {
			t.Fatalf("state %d disagreement undetected: %v", st, err)
		}
	}
}

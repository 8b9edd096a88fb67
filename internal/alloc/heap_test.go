package alloc

import (
	"testing"
	"testing/quick"
)

func TestAllocBasics(t *testing.T) {
	h := NewHeap(4096, 16)
	off, err := h.Alloc(100) // 100+16 → 8 slots
	if err != nil {
		t.Fatal(err)
	}
	if off != 4096 {
		t.Errorf("first alloc at %d, want 4096", off)
	}
	if !h.IsStart(off) {
		t.Error("start bit missing")
	}
	off2, _ := h.Alloc(16) // 2 slots
	if off2 != 4096+8*SlotSize {
		t.Errorf("second alloc at %d, want adjacent", off2)
	}
	if h.LiveBytes() != 10*SlotSize {
		t.Errorf("live = %d, want %d", h.LiveBytes(), 10*SlotSize)
	}
}

func TestSlotsFor(t *testing.T) {
	cases := map[uint64]int{0: 1, 1: 2, 16: 2, 48: 4, 4080: 256}
	for payload, want := range cases {
		if got := SlotsFor(payload); got != want {
			t.Errorf("SlotsFor(%d) = %d, want %d", payload, got, want)
		}
	}
}

func TestFreeReuse(t *testing.T) {
	h := NewHeap(0, 4)
	off, _ := h.Alloc(112) // 8 slots
	h.Alloc(112)
	h.Free(off, 8)
	off3, _ := h.Alloc(112)
	if off3 != off {
		t.Errorf("freed hole not reused: got %d, want %d", off3, off)
	}
}

func TestHoleTooSmallForcesNewFrame(t *testing.T) {
	// The Figure 2 scenario: enough free space in total, but not contiguous.
	h := NewHeap(0, 8)
	var offs []uint64
	for i := 0; i < SlotsPerFrame/2; i++ { // fill frame 0 with 2-slot objects
		o, err := h.Alloc(16)
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, o)
	}
	// Free alternating objects: 128 scattered free pairs.
	for i := 0; i < len(offs); i += 2 {
		h.Free(offs[i], 2)
	}
	// A 3-slot request cannot fit a 2-slot hole: must open frame 1.
	off, err := h.Alloc(33)
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := h.Locate(off); f != 1 {
		t.Errorf("allocated in frame %d, want new frame 1", f)
	}
	if h.UsedFrames() != 2 {
		t.Errorf("used frames = %d, want 2", h.UsedFrames())
	}
}

func TestFrameFreedWhenEmpty(t *testing.T) {
	h := NewHeap(0, 4)
	off, _ := h.Alloc(100)
	if h.UsedFrames() != 1 {
		t.Fatal("frame not counted")
	}
	h.Free(off, SlotsFor(100))
	if h.UsedFrames() != 0 {
		t.Error("empty frame not released")
	}
	if h.State(0) != FrameFree {
		t.Error("frame state not free")
	}
}

func TestNoAllocationIntoRelocationFrames(t *testing.T) {
	h := NewHeap(0, 2)
	h.Alloc(16)
	h.SetState(0, FrameRelocation)
	off, err := h.Alloc(16)
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := h.Locate(off); f == 0 {
		t.Error("allocated into a relocation frame")
	}
}

func TestPlaceAt(t *testing.T) {
	h := NewHeap(0, 4)
	if err := h.PlaceAt(2, 10, 8); err != nil {
		t.Fatal(err)
	}
	if h.State(2) != FrameDestination {
		t.Error("PlaceAt frame should become destination")
	}
	if err := h.PlaceAt(2, 12, 4); err == nil {
		t.Error("overlapping PlaceAt must fail")
	}
	objs := h.FrameObjects(2)
	if len(objs) != 1 || objs[0] != 10 {
		t.Errorf("frame objects = %v, want [10]", objs)
	}
}

func TestReleaseFrame(t *testing.T) {
	h := NewHeap(0, 2)
	h.Alloc(1000)
	h.Alloc(1000)
	live := h.LiveBytes()
	h.ReleaseFrame(0)
	if h.State(0) != FrameFree {
		t.Error("frame not free after release")
	}
	if h.LiveBytes() >= live {
		t.Error("live bytes not reduced")
	}
}

func TestOutOfMemory(t *testing.T) {
	h := NewHeap(0, 1)
	h.Alloc(4080)
	if _, err := h.Alloc(16); err == nil {
		t.Fatal("expected out of memory")
	}
}

func TestObjectTooLarge(t *testing.T) {
	h := NewHeap(0, 4)
	if _, err := h.Alloc(4081); err == nil {
		t.Fatal("object larger than a frame must fail")
	}
}

func TestFragRatio4K(t *testing.T) {
	h := NewHeap(0, 64)
	// Allocate 16 frames' worth of 8-slot objects then free 3 of every 4.
	var offs []uint64
	for i := 0; i < 16*32; i++ {
		o, err := h.Alloc(112)
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, o)
	}
	before := h.Frag(12)
	if before.FragRatio < 1.0 || before.FragRatio > 1.01 {
		t.Errorf("dense heap fragR = %.3f, want ≈1.0", before.FragRatio)
	}
	for i, o := range offs {
		if i%4 != 0 {
			h.Free(o, 8)
		}
	}
	after := h.Frag(12)
	if after.FragRatio < 3.5 {
		t.Errorf("sparse heap fragR = %.3f, want ≈4.0", after.FragRatio)
	}
}

func TestFragRatioHugePagesWorse(t *testing.T) {
	h := NewHeap(0, 1024)
	var offs []uint64
	for i := 0; i < 512; i++ {
		o, _ := h.Alloc(4000) // ~one object per frame
		offs = append(offs, o)
	}
	for i, o := range offs {
		if i%2 == 0 {
			h.Free(o, SlotsFor(4000))
		}
	}
	small := h.Frag(12).FragRatio
	huge := h.Frag(21).FragRatio
	if huge < small {
		t.Errorf("2MB fragR (%.2f) should be >= 4KB fragR (%.2f)", huge, small)
	}
}

func TestSnapshot(t *testing.T) {
	h := NewHeap(0, 8)
	h.Alloc(112)
	h.Alloc(112)
	snap := h.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot frames = %d, want 1", len(snap))
	}
	if snap[0].UsedSlots != 16 || snap[0].Objects != 2 {
		t.Errorf("snapshot = %+v", snap[0])
	}
}

func TestRebuildFromMark(t *testing.T) {
	h := NewHeap(0, 8)
	a, _ := h.Alloc(112)
	b, _ := h.Alloc(112)
	c, _ := h.Alloc(112)
	_ = b
	// Rebuild keeping only a and c: b becomes reclaimable (a "leak" fixed).
	live := []uint64{a, c}
	h.RebuildFromMark(len(live), func(i int) (uint64, int) { return live[i], 8 })
	if h.LiveBytes() != 2*8*SlotSize {
		t.Errorf("live = %d after rebuild", h.LiveBytes())
	}
	if !h.IsStart(a) || !h.IsStart(c) || h.IsStart(b) {
		t.Error("start bits wrong after rebuild")
	}
	// b's slots must be allocatable again.
	d, err := h.Alloc(112)
	if err != nil || d != b {
		t.Errorf("reclaimed leak not reused: %v %d", err, d)
	}
}

func TestAllocFreeProperty(t *testing.T) {
	// Property: alloc/free sequences never double-allocate a slot and live
	// bytes always equals the sum of outstanding allocations.
	type obj struct {
		off   uint64
		slots int
	}
	f := func(sizes []uint16, frees []uint8) bool {
		h := NewHeap(0, 256)
		var objs []obj
		liveSlots := 0
		for _, sz := range sizes {
			p := uint64(sz%2000) + 1
			off, err := h.Alloc(p)
			if err != nil {
				continue
			}
			n := SlotsFor(p)
			// Check no overlap with existing objects.
			for _, o := range objs {
				if off < o.off+uint64(o.slots)*SlotSize && o.off < off+uint64(n)*SlotSize {
					return false
				}
			}
			objs = append(objs, obj{off, n})
			liveSlots += n
		}
		for _, fi := range frees {
			if len(objs) == 0 {
				break
			}
			i := int(fi) % len(objs)
			h.Free(objs[i].off, objs[i].slots)
			liveSlots -= objs[i].slots
			objs = append(objs[:i], objs[i+1:]...)
		}
		return h.LiveBytes() == uint64(liveSlots)*SlotSize
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

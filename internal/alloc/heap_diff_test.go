package alloc

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// slowLongestRun is the bit-at-a-time longest free run of a frame.
func slowLongestRun(h *Heap, f int) int {
	longest, run := 0, 0
	for s := 0; s < SlotsPerFrame; s++ {
		if h.slotBits[f*wordsPerFrame+s/64]&(1<<(s%64)) != 0 {
			run = 0
			continue
		}
		run++
		longest = max(longest, run)
	}
	return longest
}

// checkFrame checks frame f's counters and index entries against its bitmap
// and state, and the maxima on the path from its leaf to the root.
func checkFrame(h *Heap, f int) error {
	if f >= len(h.state) {
		// Past the tables' reach a frame is pristine, and the index says so:
		// free, with bound 0 where the tree still covers it.
		bound := uint16(0)
		if f < h.leaves {
			bound = h.fit[h.leaves+f]
		}
		if bound != 0 || h.freeBits[f>>6]&(1<<(f&63)) == 0 {
			return fmt.Errorf("frame %d, past the tables' reach of %d: bound %d, free bit %v",
				f, len(h.state), bound, h.freeBits[f>>6]&(1<<(f&63)) != 0)
		}
		return nil
	}
	if f >= h.leaves {
		return fmt.Errorf("frame %d, inside the tables' reach of %d, is past the index's %d leaves", f, len(h.state), h.leaves)
	}
	used, starts := 0, 0
	for w := 0; w < wordsPerFrame; w++ {
		used += bits.OnesCount64(h.slotBits[f*wordsPerFrame+w])
		starts += bits.OnesCount64(h.startBits[f*wordsPerFrame+w] &^ h.slotBits[f*wordsPerFrame+w])
	}
	if int(h.freeSlots[f]) != SlotsPerFrame-used {
		return fmt.Errorf("frame %d: freeSlots %d, bitmap has %d used", f, h.freeSlots[f], used)
	}
	if starts != 0 {
		return fmt.Errorf("frame %d: %d start bits on free slots", f, starts)
	}
	bound, truth := int(h.fit[h.leaves+f]), SlotsPerFrame
	if used != 0 { // an empty frame is one run; most of a large heap is empty
		truth = slowLongestRun(h, f)
	}
	if allocatable(h.state[f]) {
		if bound < truth {
			return fmt.Errorf("frame %d: bound %d below the longest free run %d", f, bound, truth)
		}
	} else if bound != 0 {
		return fmt.Errorf("frame %d: bound %d on a frame in state %d, which takes no allocations", f, bound, h.state[f])
	}
	if got := h.longestRun(f); got != truth {
		return fmt.Errorf("frame %d: longestRun %d, bit-at-a-time %d", f, got, truth)
	}
	if free := h.freeBits[f>>6]&(1<<(f&63)) != 0; free != (h.state[f] == FrameFree) {
		return fmt.Errorf("frame %d: free bit %v in state %d", f, free, h.state[f])
	}
	for i := (h.leaves + f) >> 1; i >= 1; i >>= 1 {
		if m := max(h.fit[2*i], h.fit[2*i+1]); h.fit[i] != m {
			return fmt.Errorf("frame %d: tree node %d holds %d, its children's max is %d", f, i, h.fit[i], m)
		}
	}
	return nil
}

// checkHeap checks every frame, the index's size, every node of its tree and
// its padding, and the heap-wide counters.
func checkHeap(h *Heap) error {
	usedFrames, liveSlots := 0, 0
	for f := 0; f < h.frames; f++ {
		if err := checkFrame(h, f); err != nil {
			return err
		}
		if f >= len(h.state) {
			continue
		}
		if h.state[f] != FrameFree {
			usedFrames++
		}
		liveSlots += SlotsPerFrame - int(h.freeSlots[f])
	}
	if n := len(h.state); n > h.frames || len(h.freeSlots) != n || len(h.slotBits) != n*wordsPerFrame || len(h.startBits) != n*wordsPerFrame {
		return fmt.Errorf("per-frame tables reach %d/%d/%d/%d frames of %d", n, len(h.freeSlots),
			len(h.slotBits)/wordsPerFrame, len(h.startBits)/wordsPerFrame, h.frames)
	}
	if usedFrames != h.usedFrames {
		return fmt.Errorf("usedFrames %d, %d frames are not free", h.usedFrames, usedFrames)
	}
	if uint64(liveSlots)*SlotSize != h.liveBytes {
		return fmt.Errorf("liveBytes %d, bitmaps hold %d slots", h.liveBytes, liveSlots)
	}
	if reach := max(len(h.state), 1); h.leaves < reach || h.leaves >= 2*reach || h.leaves&(h.leaves-1) != 0 || len(h.fit) != 2*h.leaves {
		return fmt.Errorf("index of %d leaves (%d nodes) over a reach of %d frames; want the least power of two at least the reach", h.leaves, len(h.fit), len(h.state))
	}
	for i := h.leaves - 1; i >= 1; i-- {
		if m := max(h.fit[2*i], h.fit[2*i+1]); h.fit[i] != m {
			return fmt.Errorf("tree node %d holds %d, its children's max is %d", i, h.fit[i], m)
		}
	}
	for f := h.frames; f < h.leaves; f++ {
		if h.fit[h.leaves+f] != 0 {
			return fmt.Errorf("padding leaf %d holds %d", f, h.fit[h.leaves+f])
		}
	}
	for f := h.frames; f < len(h.freeBits)*64; f++ {
		if h.freeBits[f>>6]&(1<<(f&63)) != 0 {
			return fmt.Errorf("free bit set past the last frame, at %d", f)
		}
	}
	if h.cursor < 0 || h.cursor >= h.frames {
		return fmt.Errorf("cursor %d outside %d frames", h.cursor, h.frames)
	}
	return nil
}

type liveObj struct {
	off   uint64
	slots int
}

// differ drives a Heap and the reference model through the same operations
// and fails the test at the first step where they differ or an invariant
// breaks.
type differ struct {
	tb   testing.TB
	h    *Heap
	ref  *refHeap
	live []liveObj
	step int

	// fullEvery is how many steps pass between whole-heap comparisons; the
	// frame an operation touched is compared after every step.
	fullEvery int
}

func newDiffer(tb testing.TB, heapOff uint64, frames, fullEvery int) *differ {
	return &differ{tb: tb, h: NewHeap(heapOff, frames), ref: newRefHeap(heapOff, frames), fullEvery: fullEvery}
}

func (d *differ) failf(format string, args ...any) {
	d.tb.Helper()
	d.tb.Fatalf("step %d: %s", d.step, fmt.Sprintf(format, args...))
}

// after compares the touched frame (or nothing, for f < 0) and, every
// fullEvery steps, the whole heap.
func (d *differ) after(f int) {
	d.tb.Helper()
	d.step++
	if f >= 0 && f < d.h.frames {
		if err := checkFrame(d.h, f); err != nil {
			d.failf("%v", err)
		}
		if got, want := d.h.FrameBitmap(f), d.ref.FrameBitmap(f); got != want {
			d.failf("frame %d bitmap %x, reference %x", f, got, want)
		}
		if got, want := d.h.FrameObjects(f), d.ref.FrameObjects(f); !reflect.DeepEqual(got, want) {
			d.failf("frame %d objects %v, reference %v", f, got, want)
		}
		if got, want := d.h.State(f), d.ref.state[f]; got != want {
			d.failf("frame %d state %d, reference %d", f, got, want)
		}
	}
	if d.h.cursor != d.ref.cursor {
		d.failf("cursor %d, reference %d", d.h.cursor, d.ref.cursor)
	}
	if d.h.LiveBytes() != d.ref.liveBytes || d.h.UsedFrames() != d.ref.usedFrames {
		d.failf("live %d used %d, reference %d %d", d.h.LiveBytes(), d.h.UsedFrames(), d.ref.liveBytes, d.ref.usedFrames)
	}
	if d.step%d.fullEvery == 0 {
		d.full()
	}
}

// full compares everything the heap reports with the reference.
func (d *differ) full() {
	d.tb.Helper()
	if err := checkHeap(d.h); err != nil {
		d.failf("%v", err)
	}
	if got, want := d.h.Snapshot(), d.ref.Snapshot(); !reflect.DeepEqual(got, want) {
		d.failf("Snapshot differs from the reference:\n got %v\nwant %v", got, want)
	}
	for _, shift := range []uint{12, 14, 21} {
		if got, want := d.h.Frag(shift), d.ref.Frag(shift); got != want {
			d.failf("Frag(%d) = %+v, reference %+v", shift, got, want)
		}
	}
	for _, n := range []int{0, 1, 7, d.h.frames + 1} {
		if got, want := d.h.FreeFrames([]int{-1}, n), d.ref.FreeFrames(n); got[0] != -1 || !slices.Equal(got[1:], want) {
			d.failf("FreeFrames(%d) = %v, reference %v", n, got, want)
		}
	}
	objects := 0
	for _, fi := range d.ref.Snapshot() {
		objects += fi.Objects
	}
	if got := d.h.Objects(); got != objects {
		d.failf("Objects() = %d, reference snapshot sums to %d", got, objects)
	}
}

func (d *differ) alloc(payload uint64) {
	d.tb.Helper()
	off, err := d.h.Alloc(payload)
	wantOff, wantErr := d.ref.Alloc(payload)
	if off != wantOff || fmt.Sprint(err) != fmt.Sprint(wantErr) {
		d.failf("Alloc(%d) = %d, %v; reference %d, %v", payload, off, err, wantOff, wantErr)
	}
	if err != nil {
		d.after(-1)
		return
	}
	d.live = append(d.live, liveObj{off, SlotsFor(payload)})
	d.after(d.h.FrameOf(off))
}

func (d *differ) free(i int) {
	d.tb.Helper()
	if len(d.live) == 0 {
		return
	}
	i %= len(d.live)
	o := d.live[i]
	d.live[i] = d.live[len(d.live)-1]
	d.live = d.live[:len(d.live)-1]
	d.h.Free(o.off, o.slots)
	d.ref.Free(o.off, o.slots)
	d.after(d.h.FrameOf(o.off))
}

func (d *differ) placeAt(frame, slot, n int) {
	d.tb.Helper()
	err, wantErr := d.h.PlaceAt(frame, slot, n), d.ref.PlaceAt(frame, slot, n)
	if (err == nil) != (wantErr == nil) {
		d.failf("PlaceAt(%d,%d,%d) = %v, reference %v", frame, slot, n, err, wantErr)
	}
	if err == nil {
		d.live = append(d.live, liveObj{d.h.OffsetOf(frame, slot), n})
	}
	d.after(frame)
}

// setState never marks a frame that still holds objects free: no caller does,
// and Alloc would then place over them.
func (d *differ) setState(frame int, st FrameState) {
	d.tb.Helper()
	if st == FrameFree && d.ref.freeSlots[frame] != SlotsPerFrame {
		return
	}
	d.h.SetState(frame, st)
	d.ref.SetState(frame, st)
	d.after(frame)
}

func (d *differ) releaseFrame(frame int) {
	d.tb.Helper()
	d.h.ReleaseFrame(frame)
	d.ref.ReleaseFrame(frame)
	kept := d.live[:0]
	for _, o := range d.live {
		if d.h.FrameOf(o.off) != frame {
			kept = append(kept, o)
		}
	}
	d.live = kept
	d.after(frame)
}

// restoreFresh checkpoints the heap and carries on in a new heap restored
// from it, so every bound is re-derived from freeSlots.
func (d *differ) restoreFresh() {
	d.tb.Helper()
	fresh := NewHeap(d.h.heapOff, d.h.frames)
	fresh.Restore(d.h.Checkpoint())
	d.h = fresh
	d.after(-1)
	d.full()
}

// rebuild runs RebuildFromMark over the live objects but the first drop.
func (d *differ) rebuild(drop int) {
	d.tb.Helper()
	drop = min(drop, len(d.live))
	d.live = d.live[drop:]
	at := func(i int) (uint64, int) { return d.live[i].off, d.live[i].slots }
	d.h.RebuildFromMark(len(d.live), at)
	d.ref.RebuildFromMark(len(d.live), at)
	d.after(-1)
	d.full()
}

// reset empties the heap.
func (d *differ) reset() {
	d.tb.Helper()
	d.h.Reset()
	d.ref.Reset()
	d.live = d.live[:0]
	d.after(-1)
	d.full()
}

// rebuildBelow runs RebuildFromMark over the live objects in frames below
// frame only: a smaller live set than the heap holds, reaching less far.
func (d *differ) rebuildBelow(frame int) {
	d.tb.Helper()
	kept := d.live[:0]
	for _, o := range d.live {
		if d.h.FrameOf(o.off) < frame {
			kept = append(kept, o)
		}
	}
	d.live = kept
	d.rebuild(0)
}

// restoreStale checkpoints the heap, takes it further — fresh frames opened,
// an object and a state change in its last frames — and restores the
// checkpoint into it: whatever it reached in between must be gone, from the
// tables and from the index. The reference sits the excursion out.
func (d *differ) restoreStale(salt int) {
	d.tb.Helper()
	chk := d.h.Checkpoint()
	for i := 0; i < 1+salt%3; i++ {
		_, _ = d.h.Alloc(4080)
	}
	last := d.h.frames - 1
	_ = d.h.PlaceAt(last, salt%200, 1+salt%9)
	d.h.SetState(max(last-1-salt%5, 0), FrameMeshed)
	d.h.Restore(chk)
	d.after(-1)
	d.full()
}

// randomOp applies one operation of the mixed workload: mostly Alloc and
// Free, the rest spread over the GC's and the driver's entry points.
func (d *differ) randomOp(r *rand.Rand, size func() uint64) {
	d.tb.Helper()
	frames := d.h.frames
	switch p := r.Intn(1000); {
	case p < 440:
		d.alloc(size())
	case p < 880:
		d.free(r.Intn(1 << 30))
	case p < 920: // a placement the reference says is free
		f, n := r.Intn(frames), 1+r.Intn(40)
		if s := d.ref.findRun(f, n); s >= 0 {
			d.placeAt(f, s, n)
		}
	case p < 940: // any placement, valid or not
		d.placeAt(r.Intn(frames+2)-1, r.Intn(SlotsPerFrame+8)-4, r.Intn(SlotsPerFrame+8)-4)
	case p < 980:
		d.setState(r.Intn(frames), FrameState(r.Intn(5)))
	case p < 990:
		d.releaseFrame(r.Intn(frames))
	case p < 994:
		d.restoreFresh()
	case p < 996:
		d.restoreStale(r.Intn(1 << 16))
	default:
		d.rebuild(r.Intn(4))
	}
}

// The operations that cut the tables' reach back — Reset, a rebuild to a
// smaller live set, a restore of a checkpoint the heap has outgrown — each
// followed by the mixed workload, on heaps that hold little of what they
// could and on ones that fill up.
func TestHeapReachShrinksAndRegrows(t *testing.T) {
	steps := 24_000
	if testing.Short() {
		steps = 6_000
	}
	for gi, frames := range []int{3, 64, 200, 16384} {
		t.Run(fmt.Sprintf("frames=%d", frames), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(77 + gi)))
			d := newDiffer(t, FrameSize, frames, 1+frames/8)
			for i := 0; i < steps; i++ {
				switch p := r.Intn(1000); {
				case p < 4:
					d.reset()
				case p < 10:
					d.rebuildBelow(r.Intn(frames + 1))
				case p < 20:
					d.restoreStale(r.Intn(1 << 16))
				default:
					d.randomOp(r, func() uint64 { return 1 + uint64(r.Intn(3000)) })
				}
			}
			d.full()
		})
	}
}

// A checkpoint holds what the heap has reached, and a heap restored from it
// reaches no further, wherever it had been.
func TestCheckpointCostsWhatTheHeapHolds(t *testing.T) {
	const frames = 16384
	tableBytes := func(c *HeapCheckpoint) int {
		return 8*(len(c.SlotBits)+len(c.StartBits)) + 2*len(c.FreeSlots) + len(c.State)
	}
	d := newDiffer(t, 0, frames, 1<<30)
	for i := 0; i < 10; i++ {
		d.alloc(4080)
	}
	small := d.h.Checkpoint()
	if got, full := tableBytes(small), frames*(2*wordsPerFrame*8+2+1); got*100 > full {
		t.Errorf("checkpoint of 10 used frames of %d holds %d table bytes, over 1%% of the %d a full capture holds", frames, got, full)
	}
	d.restoreStale(12345)
	if !reflect.DeepEqual(d.h.Checkpoint(), small) {
		t.Error("a heap restored from a checkpoint it had outgrown does not checkpoint the same again")
	}
	for i := 0; i < 300; i++ {
		d.alloc(uint64(16 + i*13%4000))
	}
	d.full()
}

func TestHeapMatchesReferenceWalk(t *testing.T) {
	steps := 60_000
	if testing.Short() {
		steps = 8_000
	}
	geometries := []struct {
		frames int
		max    uint64 // payloads are 1..max bytes
	}{
		{1, 600}, {2, 2000}, {7, 4080}, {64, 900}, {65, 300}, {130, 4200}, {1024, 1200},
	}
	for gi, g := range geometries {
		t.Run(fmt.Sprintf("frames=%d", g.frames), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(41 + gi)))
			d := newDiffer(t, uint64(gi)*FrameSize, g.frames, 1+g.frames/16)
			for i := 0; i < steps/2; i++ {
				d.randomOp(r, func() uint64 { return 1 + uint64(r.Int63n(int64(g.max))) })
			}
			d.full()
		})
	}
}

// The serving regime on the serving machine's geometry: the LRU cap's worth
// of 240–492 B values churned to the steady fragmentation the defragmenter
// triggers at, then the mixed workload on top.
func TestHeapMatchesReferenceWalkFragmented(t *testing.T) {
	const frames, objects = 38400, 20_000
	churn, mixed := 40_000, 20_000
	if testing.Short() {
		churn, mixed = 12_000, 3_000
	}
	r := rand.New(rand.NewSource(7))
	size := func() uint64 { return 240 + uint64(r.Intn(253)) }
	d := newDiffer(t, 0, frames, 4096)
	for i := 0; i < objects; i++ {
		d.alloc(size())
	}
	for i := 0; i < churn; i++ {
		d.free(r.Intn(1 << 30))
		d.alloc(size())
	}
	d.full()
	if fr := d.h.Frag(12).FragRatio; fr < 1.05 || fr > 1.25 {
		t.Errorf("churned to fragR %.3f, want the serving regime's ≈1.1", fr)
	}
	for i := 0; i < mixed; i++ {
		d.randomOp(r, size)
	}
	d.full()
}

// fillFrames allocates 4080-byte objects until the heap is out of frames, so
// every frame is active and full and the cursor is on the last one.
func fillFrames(d *differ) {
	d.tb.Helper()
	for i := 0; i < d.h.frames; i++ {
		d.alloc(4080)
	}
}

// liveIn returns the index in d.live of the object at (frame, 0).
func liveIn(d *differ, frame int) int {
	for i, o := range d.live {
		if o.off == d.h.OffsetOf(frame, 0) {
			return i
		}
	}
	d.tb.Fatalf("no object at frame %d", frame)
	return -1
}

func wantFrame(t *testing.T, d *differ, frame int) {
	t.Helper()
	if got := d.h.FrameOf(d.live[len(d.live)-1].off); got != frame {
		t.Errorf("placed in frame %d, want %d", got, frame)
	}
}

func TestAllocWrapAround(t *testing.T) {
	t.Run("fit only before the cursor", func(t *testing.T) {
		d := newDiffer(t, 0, 6, 1)
		fillFrames(d)
		d.free(liveIn(d, 4)) // frame 4 goes free; the cursor stays on 5
		d.alloc(4080)        // reopens 4, cursor 4
		d.free(liveIn(d, 1))
		d.setState(1, FrameActive)
		d.alloc(100) // nothing in 4, 5, 0: wraps to 1
		wantFrame(t, d, 1)
	})
	t.Run("cursor on the last frame", func(t *testing.T) {
		d := newDiffer(t, 0, 5, 1)
		fillFrames(d)
		if d.h.cursor != 4 {
			t.Fatalf("cursor %d, want 4", d.h.cursor)
		}
		d.free(liveIn(d, 0))
		d.setState(0, FrameActive)
		d.alloc(64) // from the last frame the walk wraps straight to 0
		wantFrame(t, d, 0)
		d.free(liveIn(d, 4))
		d.setState(4, FrameActive)
		d.alloc(4080) // only the last frame has the room
		wantFrame(t, d, 4)
	})
	t.Run("only the cursor frame fits, behind a stale bound", func(t *testing.T) {
		d := newDiffer(t, 0, 4, 1)
		fillFrames(d)
		d.free(liveIn(d, 2))
		d.alloc(1600) // reopens 2 with an exact bound of 155, cursor 2
		d.alloc(1600) // the bound stays 155, 54 slots are left
		if b := d.h.fit[d.h.leaves+2]; b != 155 {
			t.Fatalf("bound %d, want the stale 155", b)
		}
		d.alloc(1000) // 64 slots: the probe fails, tightens, finds nothing, errors
		if b := d.h.fit[d.h.leaves+2]; b != 54 {
			t.Fatalf("bound %d after a failed probe, want the exact 54", b)
		}
		d.alloc(800) // 51 slots fit the cursor frame and nowhere else
		wantFrame(t, d, 2)
	})
	t.Run("stale bound on the last frame", func(t *testing.T) {
		d := newDiffer(t, 0, 4, 1)
		fillFrames(d)
		d.free(liveIn(d, 3))
		d.alloc(2000) // reopens the last frame: bound 130
		d.alloc(1900) // 10 slots left behind a bound of 130
		d.free(liveIn(d, 1))
		d.setState(1, FrameActive)
		d.alloc(1000) // fails on the last frame, must wrap to 1, not stop
		wantFrame(t, d, 1)
	})
}

// Which slot a request gets must not depend on how stale the bounds are: the
// same operations on a heap left to age, one whose index is re-derived from
// the free counts (the loosest bounds) after every step, and one whose every
// bound is made exact after every step, give the same offsets.
func TestPlacementIndependentOfBoundStaleness(t *testing.T) {
	const frames = 48
	aged, loose, exact := newDiffer(t, 0, frames, 64), newDiffer(t, 0, frames, 64), newDiffer(t, 0, frames, 64)
	steps := 30_000
	if testing.Short() {
		steps = 5_000
	}
	seeds := [3]*rand.Rand{}
	for i := range seeds {
		seeds[i] = rand.New(rand.NewSource(99))
	}
	for i := 0; i < steps; i++ {
		for j, d := range []*differ{aged, loose, exact} {
			r := seeds[j]
			d.randomOp(r, func() uint64 { return 1 + uint64(r.Intn(1500)) })
		}
		loose.h.buildIndex()
		for f := range exact.h.state {
			exact.h.reindex(f)
		}
		if !reflect.DeepEqual(aged.live, loose.live) || !reflect.DeepEqual(aged.live, exact.live) {
			t.Fatalf("step %d: live objects differ between aged, loose and exact bounds", i)
		}
	}
}

func TestPlaceAtRejectsBadArguments(t *testing.T) {
	h := NewHeap(0, 3)
	if _, err := h.Alloc(16); err != nil {
		t.Fatal(err)
	}
	h.SetState(1, FrameRelocation)
	h.SetState(2, FrameMeshed)
	before := h.Checkpoint()
	for _, c := range [][3]int{
		{-1, 0, 1}, {3, 0, 1}, // frame out of range
		{0, 10, 0}, {0, 10, -3}, // no slots
		{0, -1, 4},               // negative slot
		{0, 250, 7}, {0, 256, 1}, // past the end of the frame
		{1, 0, 4}, {2, 0, 4}, // relocation and meshed frames take nothing
		{0, 1, 2}, // overlaps the live object
	} {
		if err := h.PlaceAt(c[0], c[1], c[2]); err == nil {
			t.Errorf("PlaceAt(%d,%d,%d) succeeded", c[0], c[1], c[2])
		}
	}
	if !reflect.DeepEqual(h.Checkpoint(), before) {
		t.Error("a rejected PlaceAt changed the heap")
	}
	if err := checkHeap(h); err != nil {
		t.Error(err)
	}
}

package core

// Tests of the relocation-frame list (pmop/gcmeta.go): recovery built from it
// equals recovery built from a full PMFT scan, the list names exactly the
// frames a full scan finds after every summary and recovery, and a crash
// anywhere between the list's first store and the phase flip recovers.

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ffccd/internal/alloc"
	"ffccd/internal/checker"
	"ffccd/internal/pmem"
	"ffccd/internal/pmop"
	"ffccd/internal/sim"
)

// loadEpochByScan is loadEpoch as it was before the relocation-frame list,
// kept verbatim (receiver method renamed) as the reference: it finds the
// epoch's frames by reading every PMFT entry.
func (e *Engine) loadEpochByScan(ctx *sim.Ctx, scheme Scheme, epochNo uint64) (*epochState, error) {
	p := e.pool
	heap := p.Heap()
	ep := &e.epochBuf
	ep.reset(epochNo, scheme)
	entry := e.summaryScratch.entry[:]
	for f := 0; f < heap.Frames(); f++ {
		p.RawLoad(ctx, p.GCMeta().PMFTEntry(f), entry)
		if uint64(binary.LittleEndian.Uint32(entry[0:4])) != epochNo {
			continue
		}
		df := int(binary.LittleEndian.Uint32(entry[4:8]))
		mm := ep.addFrame(f, df)
		copy(mm[:], entry[8:])
		if !slices.Contains(ep.destFrames, df) {
			ep.destFrames = append(ep.destFrames, df)
		}

		// Reconstruct object boundaries: headers in the relocation page are
		// authoritative (persisted at allocation, never modified by a move;
		// SFCCD's tombstone only touches the reserved word).
		for s := 0; s < alloc.SlotsPerFrame; {
			if mm[s] == pmop.MinorInvalid {
				s++
				continue
			}
			srcHdr := heap.OffsetOf(f, s)
			var hb [8]byte
			p.RawLoad(ctx, srcHdr, hb[:])
			payload := uint64(binary.LittleEndian.Uint32(hb[4:8]))
			n := alloc.SlotsFor(payload)
			if n < 1 || s+n > alloc.SlotsPerFrame {
				return nil, fmt.Errorf("core: corrupt header in relocation frame %d slot %d", f, s)
			}
			ep.addObject(s, relocObj{
				srcHdr:  srcHdr,
				dstHdr:  heap.OffsetOf(df, int(mm[s])),
				slots:   n,
				payload: payload,
			})
			s += n
		}
	}
	ep.buildIndexes(p)

	// Rebuild the bloom filters over the relocation pages.
	ep.blooms = e.relocBlooms(ep)
	return ep, nil
}

// peekRelocList reads p's relocation-frame list without simulating the reads.
func peekRelocList(p *pmop.Pool) (epoch uint64, frames []int) {
	off := p.GCMeta().RelocList
	hdr := p.PeekU64(off)
	frames = make([]int, hdr>>32)
	for i := range frames {
		frames[i] = int(p.PeekU64(off+8+4*uint64(i)) & 0xFFFFFFFF)
	}
	return hdr & 0xFFFFFFFF, frames
}

// checkRelocList asserts the list invariant (DESIGN.md §6) on p's persistent
// state, reading the list and the PMFT without simulating the reads: when
// the list is of the phase word's epoch it names, ascending, exactly the
// frames whose PMFT entries carry that epoch; otherwise the pool is idle and
// the list is ahead, left by a summary that crashed before its flip.
func checkRelocList(t *testing.T, p *pmop.Pool) {
	t.Helper()
	state, _, epoch := pmop.UnpackGCPhase(p.GCPhase(sim.NewCtx(p.Config())))
	if epoch == 0 {
		return
	}
	listEpoch, list := peekRelocList(p)
	if listEpoch != epoch {
		if listEpoch < epoch || state != pmop.PhaseIdle {
			t.Fatalf("relocation-frame list of epoch %d, phase word state %d epoch %d", listEpoch, state, epoch)
		}
		return
	}
	var scan []int
	for f := 0; f < p.Heap().Frames(); f++ {
		if p.PeekU64(p.GCMeta().PMFTEntry(f))&0xFFFFFFFF == epoch {
			scan = append(scan, f)
		}
	}
	if !slices.Equal(list, scan) {
		t.Fatalf("epoch %d: relocation-frame list %v, PMFT scan %v", epoch, list, scan)
	}
}

// sameEpoch fails unless the two epoch states hold the same epoch.
func sameEpoch(t *testing.T, got, want *epochState) {
	t.Helper()
	for _, f := range []struct {
		name string
		eq   bool
	}{
		{"epoch", got.epochNo == want.epochNo && got.scheme == want.scheme},
		{"relocFrames", slices.Equal(got.relocFrames, want.relocFrames)},
		{"destFrames", slices.Equal(got.destFrames, want.destFrames)},
		{"objects", slices.Equal(got.objects, want.objects)},
		{"ordOf", slices.Equal(got.ordOf, want.ordOf)},
		{"minor", slices.Equal(got.minor, want.minor)},
		{"destFrame", slices.Equal(got.destFrame, want.destFrame)},
		{"srcObj", slices.Equal(got.srcObj, want.srcObj)},
		{"lastSlotSrc", slices.Equal(got.lastSlotSrc, want.lastSlotSrc)},
		{"byDst", slices.Equal(got.byDst, want.byDst)},
		{"components", slices.Equal(got.compStart, want.compStart) && slices.Equal(got.compOf, want.compOf)},
		{"moved", slices.Equal(got.moved, want.moved) && got.pending == want.pending},
		{"dupBytes", got.dupBytes == want.dupBytes},
		{"blooms", reflect.DeepEqual(got.blooms, want.blooms)},
	} {
		if !f.eq {
			t.Fatalf("epoch built from the list differs from the scan's in %s", f.name)
		}
	}
}

// TestRelocListMatchesFullScan: over randomized heaps, every scheme and both
// page sizes, an epoch interrupted a third of the way rebuilds from the list
// into exactly the state the full PMFT scan rebuilds, and recovery completes
// it with the list still naming what a scan finds.
func TestRelocListMatchesFullScan(t *testing.T) {
	geometries := []struct {
		name                      string
		pageShift                 uint
		n, garbagePer, payloadMax int
	}{
		{"4K", 12, 700, 3, 200},
		{"2M", 21, 900, 40, 240},
	}
	for gi, g := range geometries {
		for _, s := range schemes() {
			if testing.Short() && g.pageShift > 12 && s != SchemeFFCCDCheckLookup {
				continue // the huge-page heaps take a while to build under -race
			}
			t.Run(fmt.Sprintf("%s/%s", g.name, s), func(t *testing.T) {
				seed := int64(1000*gi) + 17*int64(s) + 5
				fx := buildRandomHeap(t, seed, g.pageShift, g.n, g.garbagePer, g.payloadMax)
				opt := DefaultOptions()
				opt.Scheme = s
				e := NewEngine(fx.p, opt)
				ep := e.prepare(fx.ctx)
				if ep == nil {
					t.Fatal("no epoch")
				}
				checkRelocList(t, fx.p)
				e.StepCompaction(fx.ctx, len(ep.objects)/3)
				fx.rt.Device().Crash()
				if e.RBB() != nil {
					e.RBB().PowerLossFlush()
				}
				rt2, err := pmop.Attach(fx.cfg, fx.rt.Device())
				if err != nil {
					t.Fatal(err)
				}
				p2, err := rt2.Open("frag", testRegistry())
				if err != nil {
					t.Fatal(err)
				}
				checkRelocList(t, p2)
				_, scheme, epochNo := pmop.UnpackGCPhase(p2.GCPhase(fx.ctx))
				fromList, err := NewEngine(p2, opt).loadEpoch(fx.ctx, Scheme(scheme), epochNo)
				if err != nil {
					t.Fatal(err)
				}
				fromScan, err := NewEngine(p2, opt).loadEpochByScan(fx.ctx, Scheme(scheme), epochNo)
				if err != nil {
					t.Fatal(err)
				}
				sameEpoch(t, fromList, fromScan)

				e3, err := Recover(fx.ctx, p2, opt)
				if err != nil {
					t.Fatal(err)
				}
				defer e3.Close()
				checkRelocList(t, p2)
				checkVarList(t, p2, fx.ctx, fx.n)
			})
		}
	}
}

// TestCrashFromListStoreToFlip crashes at every site of the summary, from the
// relocation-frame list's first store through the phase flip, under each of
// the three crash policies: every crash recovers, passes both checker steps,
// keeps the list invariant, and the recovered engine runs the next epoch.
func TestCrashFromListStoreToFlip(t *testing.T) {
	policies := []struct {
		name string
		keep pmem.CrashPolicy
	}{
		{"drop", pmem.DropAllInflight},
		{"keep", pmem.KeepAllInflight},
		{"salt", func(line uint64) bool { return (line*0x9E3779B97F4A7C15+7)&1 == 0 }},
	}
	for _, s := range schemes() {
		if testing.Short() && s != SchemeFFCCD {
			continue
		}
		opt := DefaultOptions()
		opt.Scheme = s
		// The census: every site prepare passes after marking is the
		// summary's, from the first PMFT entry's fence (which drains the
		// list) to the flip's closing transition site.
		fx := buildFragmented(t, 200)
		e := NewEngine(fx.p, opt)
		fx.rt.Device().ArmSites(-1)
		if e.prepare(fx.ctx) == nil {
			t.Fatal("no epoch")
		}
		census := fx.rt.Device().DisarmSites()
		if n := fx.p.PeekU64(fx.p.GCMeta().RelocList) >> 32; 8+4*n <= pmem.LineSize {
			t.Fatalf("a %d-frame list fits one line: no torn list to crash into", n)
		}
		if census.ByClass[pmem.SiteEpochTransition] != 2 {
			t.Fatalf("summary's sites do not bracket one flip: %+v", census)
		}
		e.Close()
		for site := int64(0); site < int64(census.Total); site++ {
			for _, pol := range policies {
				t.Run(fmt.Sprintf("%s/site%d/%s", s, site, pol.name), func(t *testing.T) {
					fx := buildFragmented(t, 200)
					dev := fx.rt.Device()
					t.Cleanup(dev.ReleaseMedia) // the next trial's device recycles it
					e := NewEngine(fx.p, opt)
					dev.ArmSites(site)
					crash := pmem.CatchCrash(func() { e.prepare(fx.ctx) })
					dev.DisarmSites()
					if crash == nil {
						t.Fatalf("site %d never fired", site)
					}
					dev.SetCrashPolicy(pol.keep)
					p2, e2 := crashAndRecover(t, fx, e, opt)
					defer e2.Close()
					checkList(t, p2, fx.ctx, fx.n)
					if _, err := checker.CheckGraph(fx.ctx, p2); err != nil {
						t.Fatal(err)
					}
					e2.RunCycle(fx.ctx)
					checkRelocList(t, p2)
					checkList(t, p2, fx.ctx, fx.n)
					if _, err := checker.CheckGraph(fx.ctx, p2); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestCrashedSummaryEntriesStayOut: a summary crashes just before its flip,
// having persisted its list and every PMFT entry; the recovered application
// grows the heap, and the next summary chooses other frames, then crashes
// mid-compaction. The crashed summary's entries must not join the recovered
// epoch — it is numbered past them.
func TestCrashedSummaryEntriesStayOut(t *testing.T) {
	opt := DefaultOptions()
	opt.Scheme = SchemeFFCCD
	build := func() *fixture {
		fx := buildRandomHeap(t, 8, 12, 300, 3, 200)
		t.Cleanup(fx.rt.Device().ReleaseMedia)
		return fx
	}
	fx := build()
	fx.rt.Device().ArmSites(-1)
	NewEngine(fx.p, opt).prepare(fx.ctx)
	flip := fx.rt.Device().DisarmSites().FirstIndex[pmem.SiteEpochTransition]

	fx = build()
	e := NewEngine(fx.p, opt)
	fx.rt.Device().ArmSites(flip)
	if pmem.CatchCrash(func() { e.prepare(fx.ctx) }) == nil {
		t.Fatal("the site before the flip never fired")
	}
	fx.rt.Device().DisarmSites()
	p2, e2 := crashAndRecover(t, fx, e, opt)
	crashedEpoch, crashed := peekRelocList(p2)
	fx.p = p2
	fx.grow(t, rand.New(rand.NewSource(9)), 300, 3, 200)
	ep := e2.prepare(fx.ctx)
	if ep == nil {
		t.Fatal("no second epoch")
	}
	if ep.epochNo <= crashedEpoch {
		t.Fatalf("epoch %d opened over the crashed summary's epoch %d", ep.epochNo, crashedEpoch)
	}
	if !slices.ContainsFunc(crashed, func(f int) bool { return !slices.Contains(ep.relocFrames, f) }) {
		t.Fatalf("the second summary chose every frame the crashed one had %v: nothing to leave out", crashed)
	}
	e2.StepCompaction(fx.ctx, len(ep.objects)/3)
	p3, e3 := crashAndRecover(t, fx, e2, opt)
	defer e3.Close()
	checkVarList(t, p3, fx.ctx, fx.n)
	if _, err := checker.CheckGraph(fx.ctx, p3); err != nil {
		t.Fatal(err)
	}
}

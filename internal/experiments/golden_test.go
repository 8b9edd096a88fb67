package experiments

import (
	"fmt"
	"strings"
	"testing"

	"ffccd/internal/core"
	"ffccd/internal/obsv"
	"ffccd/internal/pins"
	"ffccd/internal/sim"
)

// TestGoldenCycles pins per-category cycle totals, frag ratio and device
// counters of Figure 14/15-shaped runs as the cycles section of
// testdata/pins.txt, keyed "cycles <store>/<n>T/<scheme> shift<s> seed<n>".
// Each line must come out the same from scratch with a collector installed
// (observability never charges a cycle) and from RunSpecsForked: two copies
// of a spec it forks, both forked from one prefix, or one of a baseline or
// multi-thread spec, which it runs from scratch. Any drift means a host-side
// change leaked into simulation semantics; `make pins` rewrites the section
// for an intentional change.
func TestGoldenCycles(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	spec := func(store string, threads int, scheme core.Scheme, shift uint, seed int64) Spec {
		s := Spec{Store: store, Threads: threads, Scheme: scheme, Scale: 0.001, PageShift: shift, Seed: seed}
		if scheme != core.SchemeNone {
			s.Trigger, s.Target = core.NormalParams()
		}
		return s
	}
	specs := []Spec{
		spec("LL", 1, core.SchemeNone, 12, 11),
		spec("LL", 1, core.SchemeEspresso, 12, 11),
		spec("LL", 1, core.SchemeFFCCDCheckLookup, 12, 11),
		spec("SS", 1, core.SchemeNone, 12, 11),
		spec("SS", 1, core.SchemeEspresso, 12, 11),
		spec("SS", 1, core.SchemeFFCCDCheckLookup, 12, 11),
		spec("RBT", 1, core.SchemeFFCCD, 12, 11),
		spec("LL", 1, core.SchemeFFCCDCheckLookup, 16, 3),
		spec("BzTree", 4, core.SchemeFFCCDCheckLookup, 16, 11),
		spec("FPTree", 4, core.SchemeFFCCDCheckLookup, 16, 11),
	}
	SetObsCollector(obsv.NewCollector(0))
	t.Cleanup(func() { SetObsCollector(nil) })
	p := pins.Open(t, "cycles")
	var keys []string
	for _, s := range specs {
		key := fmt.Sprintf("cycles %s/%dT/%s shift%d seed%d", s.Store, s.Threads, s.Scheme, s.PageShift, s.Seed)
		keys = append(keys, key)
		name := fmt.Sprintf("%s_%s_shift%d_seed%d", s.Store, s.Scheme, s.PageShift, s.Seed)
		t.Run(name+"/scratch", func(t *testing.T) {
			t.Parallel()
			out, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			p.Expect(t, key, cyclesLine(out))
		})
		t.Run(name+"/fork", func(t *testing.T) {
			t.Parallel()
			group := []Spec{s, s}
			if s.Scheme == core.SchemeNone || s.Threads > 1 {
				group = group[:1]
			}
			outs, err := RunSpecsForked(group)
			if err != nil {
				t.Fatal(err)
			}
			for _, out := range outs {
				p.Expect(t, key, cyclesLine(out))
			}
		})
	}
	t.Cleanup(func() { p.Close(t, keys) })
}

func cyclesLine(o Outcome) string {
	var b strings.Builder
	for c, n := range o.Cycles {
		fmt.Fprintf(&b, "%s=%d ", sim.Category(c), n)
	}
	d := o.Device
	fmt.Fprintf(&b, "frag=%.9f loads=%d stores=%d media_writes=%d media_reads=%d clwbs=%d sfences=%d relocate_ops=%d pending_reach=%d",
		o.FragRatio(), d.Loads, d.Stores, d.MediaWrites, d.MediaReads, d.Clwbs, d.Sfences, d.RelocateOps, d.PendingReach)
	return b.String()
}

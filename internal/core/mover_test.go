package core

import (
	"testing"

	"ffccd/internal/pmop"
)

// TestMoverCursor opens an epoch, lets the read barrier move every seventh
// object from the highest index down, and then steps the mover one object at
// a time. Each StepCompaction(ctx, 1) must move the lowest-index unmoved
// object and nothing but the unmoved members of its destination-line
// cluster, and EpochPending must reach 0 exactly when StepCompaction returns
// 0.
func TestMoverCursor(t *testing.T) {
	for _, s := range schemes() {
		t.Run(s.String(), func(t *testing.T) {
			fx := buildFragmented(t, 150)
			opt := DefaultOptions()
			opt.Scheme = s
			e := NewEngine(fx.p, opt)
			defer e.Close()
			ep := e.prepare(fx.ctx)
			if ep == nil {
				t.Fatal("no epoch")
			}
			rb := &readBarrier{e: e, ep: ep}
			for i := len(ep.objects) - 1; i >= 0; i -= 7 {
				rb.Resolve(fx.ctx, pmop.MakePtr(fx.p.ID(), ep.objects[i].srcPayload()))
			}
			if e.Stats().BarrierMoves == 0 {
				t.Fatal("the read barrier moved nothing")
			}
			for step := 0; ; step++ {
				pending := e.EpochPending()
				lowest, cluster := -1, 0
				for i := range ep.objects {
					if !ep.isMoved(i) {
						lowest = i
						break
					}
				}
				if lowest >= 0 {
					for _, c := range ep.clusterOf(lowest) {
						if !ep.isMoved(int(c)) {
							cluster++
						}
					}
					if s == SchemeEspresso || s == SchemeSFCCD {
						cluster = 1 // only the fence-free schemes move a cluster at once
					}
				}
				n := e.StepCompaction(fx.ctx, 1)
				if (n == 0) != (pending == 0) {
					t.Fatalf("step %d: StepCompaction returned %d with %d objects pending", step, n, pending)
				}
				if n == 0 {
					break
				}
				if !ep.isMoved(lowest) {
					t.Fatalf("step %d: object %d, the lowest unmoved, did not move", step, lowest)
				}
				if got := pending - e.EpochPending(); got != cluster {
					t.Fatalf("step %d: %d objects moved, want object %d's %d unmoved cluster members", step, got, lowest, cluster)
				}
			}
			if e.EpochPending() != 0 {
				t.Fatalf("StepCompaction returned 0 with %d objects pending", e.EpochPending())
			}
			e.FinishCycle(fx.ctx)
			checkList(t, fx.p, fx.ctx, fx.n)
		})
	}
}

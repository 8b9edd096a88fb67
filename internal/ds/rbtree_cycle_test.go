package ds

import (
	"strings"
	"testing"

	"ffccd/internal/core"
	"ffccd/internal/pmop"
	"ffccd/internal/sim"
)

// A recovered tree whose links form a cycle is an error at reopen, not a walk
// without end: the rightmost node's right link is pointed back at the root
// node, made durable, and the pool reopened and recovered.
func TestRBTreeReopenRejectsCycle(t *testing.T) {
	cfg := sim.DefaultConfig()
	rt := pmop.NewRuntime(&cfg, 32<<20)
	reg := pmop.NewRegistry()
	RegisterTypes(reg)
	p, err := rt.Create("rbt", 16<<20, 12, reg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewCtx(&cfg)
	tree, err := NewRBTree(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	for k := range uint64(8) {
		if err := tree.Insert(ctx, k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	root := p.ReadPtr(ctx, tree.root, 0)
	n := root
	for r := p.ReadPtr(ctx, n, rbRight); !r.IsNull(); r = p.ReadPtr(ctx, n, rbRight) {
		n = r
	}
	p.WritePtr(ctx, n, rbRight, root)
	p.Device().FlushAll(ctx)

	rt2, err := pmop.Attach(&cfg, rt.Device())
	if err != nil {
		t.Fatal(err)
	}
	p2, err := rt2.Open("rbt", reg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.Recover(ctx, p2, core.Options{Scheme: core.SchemeNone})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := NewRBTree(ctx, p2); err == nil || !strings.Contains(err.Error(), "do not form a tree") {
		t.Fatalf("reopening a tree with a cycle: %v", err)
	}
}

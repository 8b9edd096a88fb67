package checker_test

import (
	"strings"
	"testing"

	"ffccd/internal/checker"
	"ffccd/internal/ds"
	"ffccd/internal/sim"
)

// populate inserts n keys into the list and returns the matching acked model.
func populate(t *testing.T, ctx *sim.Ctx, l *ds.List, n uint64) map[uint64][]byte {
	t.Helper()
	model := map[uint64][]byte{}
	for i := uint64(0); i < n; i++ {
		v := []byte{byte(i), byte(i >> 8), 0x5a}
		if err := l.Insert(ctx, i, v); err != nil {
			t.Fatal(err)
		}
		model[i] = v
	}
	return model
}

func TestDurableAcksExactModel(t *testing.T) {
	_, ctx, l := setup(t)
	acked := populate(t, ctx, l, 200)
	got, err := checker.DurableAcks(ctx, l, acked, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(acked) {
		t.Fatalf("verified model has %d keys, want %d", len(got), len(acked))
	}
}

// The in-flight write landed before the crash: the store holds acked+pending
// and the checker must accept it, returning the extended model.
func TestDurableAcksPendingApplied(t *testing.T) {
	_, ctx, l := setup(t)
	acked := populate(t, ctx, l, 100)
	inflight := []byte{0xaa, 0xbb}
	if err := l.Insert(ctx, 500, inflight); err != nil {
		t.Fatal(err)
	}
	pend := &checker.PendingWrite{Key: 500, Val: inflight}

	got, err := checker.DurableAcks(ctx, l, acked, pend)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[500]) != string(inflight) {
		t.Fatalf("verified model missing the applied in-flight write: %v", got[500])
	}
}

// The in-flight write was torn away by the crash: the store holds exactly the
// acked model and the checker must accept it without applying the pending op.
func TestDurableAcksPendingDropped(t *testing.T) {
	_, ctx, l := setup(t)
	acked := populate(t, ctx, l, 100)
	pend := &checker.PendingWrite{Key: 500, Val: []byte{0xaa}}

	got, err := checker.DurableAcks(ctx, l, acked, pend)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got[500]; ok {
		t.Fatal("verified model contains a write that never reached the store")
	}
}

// An in-flight DELETE that landed: the key is gone from the store even though
// the acked model still carries it.
func TestDurableAcksPendingDeleteApplied(t *testing.T) {
	_, ctx, l := setup(t)
	acked := populate(t, ctx, l, 100)
	if _, err := l.Delete(ctx, 42); err != nil {
		t.Fatal(err)
	}
	pend := &checker.PendingWrite{Key: 42, Val: nil}

	got, err := checker.DurableAcks(ctx, l, acked, pend)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got[42]; ok {
		t.Fatal("verified model still carries the deleted key")
	}
}

// A lost acknowledged write is a contract violation even when a pending write
// is on offer — the pending op can't explain a DIFFERENT missing key.
func TestDurableAcksLostAckCaught(t *testing.T) {
	_, ctx, l := setup(t)
	acked := populate(t, ctx, l, 100)
	if _, err := l.Delete(ctx, 7); err != nil { // 7 was acked, then silently lost
		t.Fatal(err)
	}
	pend := &checker.PendingWrite{Key: 500, Val: []byte{0xaa}}

	if _, err := checker.DurableAcks(ctx, l, acked, pend); err == nil {
		t.Fatal("lost acknowledged write not caught")
	} else if !strings.Contains(err.Error(), "durable-ack") {
		t.Fatalf("error does not name the contract: %v", err)
	}
}

// A violation leaves acked as the caller passed it, whichever write was in
// flight: DurableAcks applies the pending write to acked in place to check
// the second variant, and must take it back.
func TestDurableAcksViolationRestoresAcked(t *testing.T) {
	for _, pend := range []*checker.PendingWrite{
		{Key: 500, Val: []byte{0xaa}}, // a new key
		{Key: 9, Val: []byte{0xbb}},   // an overwrite
		{Key: 11},                     // a delete
	} {
		_, ctx, l := setup(t)
		acked := populate(t, ctx, l, 100)
		if _, err := l.Delete(ctx, 7); err != nil { // 7 was acked, then silently lost
			t.Fatal(err)
		}
		want := make(map[uint64][]byte, len(acked))
		for k, v := range acked {
			want[k] = v
		}
		if _, err := checker.DurableAcks(ctx, l, acked, pend); err == nil {
			t.Fatalf("pending %d: lost acknowledged write not caught", pend.Key)
		}
		if len(acked) != len(want) {
			t.Fatalf("pending %d: acked has %d keys after the violation, want %d", pend.Key, len(acked), len(want))
		}
		for k, v := range want {
			if string(acked[k]) != string(v) {
				t.Fatalf("pending %d: acked[%d] = %x after the violation, want %x", pend.Key, k, acked[k], v)
			}
		}
	}
}

// A stale value (the store kept an older version of an acked overwrite) is a
// violation too: acks promise the LAST acknowledged value.
func TestDurableAcksStaleValueCaught(t *testing.T) {
	_, ctx, l := setup(t)
	acked := populate(t, ctx, l, 100)
	acked[3] = []byte{0xde, 0xad} // client was acked this value; store has the old one

	if _, err := checker.DurableAcks(ctx, l, acked, nil); err == nil {
		t.Fatal("stale acknowledged value not caught")
	} else if !strings.Contains(err.Error(), "durable-ack") {
		t.Fatalf("error does not name the contract: %v", err)
	}
}

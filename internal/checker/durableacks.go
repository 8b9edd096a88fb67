package checker

// Durable-ack validation, checker step 1 after a crash. The serving path's
// contract is client-visible: a SET the server *acknowledged* (its
// transaction committed and the completion was handed back to the client in
// virtual time) must survive any later power failure. DurableAcks is that
// statement turned into a pass/fail check, run right after recovery while the
// cache is cold so reads reflect the persistent image. A batch trial's model
// is the same promise: every churn operation that returned.

import (
	"fmt"
	"slices"

	"ffccd/internal/ds"
	"ffccd/internal/sim"
)

// PendingWrite is the one store sub-transaction that may have been in flight
// at the crash (Val nil = delete). Store transactions are atomic, so the
// post-crash image reflects it either fully or not at all; the checker
// accepts both outcomes but nothing in between.
type PendingWrite struct {
	Key uint64
	Val []byte
}

// DurableAcks verifies the serving path's crash contract: every write the
// server acknowledged before the power failure reads back with its
// last-acknowledged value, keys whose last acknowledged operation was a
// delete are absent, and the store holds nothing else (no torn or
// half-relocated object is reachable — CheckStore's length check plus the
// read path's header validation cover that). The check passes against either
// the acked model or acked±pending and returns the variant that verified —
// the model the resumed server continues against. That is acked itself,
// with the pending write applied in place when only that variant verified;
// acked is left as it was when neither does.
func DurableAcks(ctx *sim.Ctx, s ds.Store, acked map[uint64][]byte, pending *PendingWrite) (map[uint64][]byte, error) {
	keys := sortedKeys(acked, 1)
	err := checkKeys(ctx, s, acked, keys)
	if err == nil {
		return acked, nil
	}
	if pending == nil {
		return nil, fmt.Errorf("checker: durable-ack violation: %w", err)
	}
	// Apply the pending write, keeping keys the ascending list of acked's
	// keys, so the second check reads in the order CheckStore would.
	old, had := acked[pending.Key]
	i, _ := slices.BinarySearch(keys, pending.Key)
	switch {
	case pending.Val != nil:
		acked[pending.Key] = pending.Val
		if !had {
			keys = slices.Insert(keys, i, pending.Key)
		}
	case had:
		delete(acked, pending.Key)
		keys = slices.Delete(keys, i, i+1)
	}
	if checkKeys(ctx, s, acked, keys) == nil {
		return acked, nil
	}
	if had {
		acked[pending.Key] = old
	} else {
		delete(acked, pending.Key)
	}
	return nil, fmt.Errorf("checker: durable-ack violation: %w (still failing with the in-flight write applied)", err)
}

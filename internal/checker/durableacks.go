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
// the model the resumed server continues against.
func DurableAcks(ctx *sim.Ctx, s ds.Store, acked map[uint64][]byte, pending *PendingWrite) (map[uint64][]byte, error) {
	err := CheckStore(ctx, s, acked)
	if err == nil {
		return acked, nil
	}
	if pending == nil {
		return nil, fmt.Errorf("checker: durable-ack violation: %w", err)
	}
	alt := make(map[uint64][]byte, len(acked)+1)
	for k, v := range acked {
		alt[k] = v
	}
	if pending.Val != nil {
		alt[pending.Key] = pending.Val
	} else {
		delete(alt, pending.Key)
	}
	if err2 := CheckStore(ctx, s, alt); err2 == nil {
		return alt, nil
	}
	return nil, fmt.Errorf("checker: durable-ack violation: %w (still failing with the in-flight write applied)", err)
}

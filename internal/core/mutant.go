package core

// Mutant names a historical bug of this reproduction that a test can put
// back into every engine, to show that the crash campaign finds it: the
// campaign's sensitivity, measured one known bug at a time. No product code
// sets one.
type Mutant string

const (
	// MutantNoTombstone drops SFCCD's dest-modification tombstone (DESIGN.md
	// §5 items 2 and 6): TX_ADD and pfree of a moved object leave its
	// source header unmarked, so recovery's content compare re-copies the
	// stale source over a destination the application modified or reused.
	MutantNoTombstone Mutant = "sfccd-no-tombstone"
	// MutantUndoAfterFixup runs application undo after recovery's reference
	// pass instead of before it (DESIGN.md §5 item 3), so a reference the
	// undo resurrects is never forwarded.
	MutantUndoAfterFixup Mutant = "undo-after-fixup"
	// MutantReachedEarly publishes each member's reached bits as soon as its
	// own bytes are durable when recovery finishes an FFCCD component
	// (DESIGN.md §5 item 1), so a crash during that repair leaves a
	// line-sharing neighbour's half of a reached line unwritten, and the
	// next recovery trusts the line.
	MutantReachedEarly Mutant = "reached-bit-early"
	// MutantEpochPastPhaseOnly numbers a new epoch past the phase word's
	// alone, not past the relocation-frame list's too, so a summary that
	// crashed before its flip leaves PMFT entries and a list that carry the
	// number of the next epoch to run.
	MutantEpochPastPhaseOnly Mutant = "epoch-past-phase-only"
	// MutantSharedLineTear relocates every object with a relocate operation
	// of its own, not with the objects that share its destination lines
	// (DESIGN.md §5 item 1): a line's reached bit can then be set by one
	// tenant's move while another's bytes on the line are still missing, and
	// recovery trusts the line for both.
	MutantSharedLineTear Mutant = "shared-line-tear"
	// MutantSlot255 reads a minor-distance byte of 0xFF as "not mapped" even
	// for the one source slot of a frame that maps to destination slot 255,
	// so an object placed in its destination frame's last slot is never
	// forwarded and its referents dangle into the released frame.
	MutantSlot255 Mutant = "slot-255-unforwarded"
	// MutantRecoverOnCrashedContext runs a crash trial's recovery on the
	// context of the thread that lost power instead of a fresh one, so
	// recovery inherits the clwbs that thread issued without a fence and its
	// first sfence stalls for them. It costs recovery cycles and corrupts
	// nothing.
	MutantRecoverOnCrashedContext Mutant = "recover-on-crashed-context"
)

// Mutants lists every named mutant.
var Mutants = []Mutant{MutantNoTombstone, MutantUndoAfterFixup, MutantReachedEarly, MutantEpochPastPhaseOnly,
	MutantSharedLineTear, MutantSlot255, MutantRecoverOnCrashedContext}

// mutant is the mutant in effect, "" for none.
var mutant Mutant

// SetMutant puts m into every engine until the next call, "" restoring the
// product. Engines read it on the goroutines that own their machines, so
// call it only while no machine runs.
func SetMutant(m Mutant) { mutant = m }

// Mutated reports whether m is in effect: a crash driver asks it for a
// mutant that lives in the driver rather than in the engine.
func Mutated(m Mutant) bool { return mutant == m }

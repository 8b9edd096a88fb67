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
)

// Mutants lists every named mutant.
var Mutants = []Mutant{MutantNoTombstone, MutantUndoAfterFixup, MutantReachedEarly, MutantEpochPastPhaseOnly}

// mutant is the mutant in effect, "" for none.
var mutant Mutant

// SetMutant puts m into every engine until the next call, "" restoring the
// product. Engines read it on the goroutines that own their machines, so
// call it only while no machine runs.
func SetMutant(m Mutant) { mutant = m }

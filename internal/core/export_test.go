package core

// What the external tests of this package (package core_test, which may
// import the machine package) see of the engine's epoch memory.

// RaceEnabled reports whether the race detector is compiled in.
const RaceEnabled = raceEnabled

// EpochMemOf returns the identity of e's epoch memory; nil once e is released.
func EpochMemOf(e *Engine) any {
	if e.epochMem == nil {
		return nil
	}
	return e.epochMem
}

// EpochTablesInUse counts what e's open epoch has filled: heap frames ordOf
// maps to an ordinal, and the ordinals srcObj and minor hold.
func EpochTablesInUse(e *Engine) (ordOf, srcObj, minor int) {
	ep := &e.epochBuf
	for _, o := range ep.ordOf {
		if o != 0 {
			ordOf++
		}
	}
	return ordOf, len(ep.srcObj), len(ep.minor)
}

// DrainEpochPool empties the free list of epoch memory, so the next
// NewEngine starts on fresh memory.
func DrainEpochPool() {
	for {
		if _, ok := epochPool.Take(nil); !ok {
			return
		}
	}
}

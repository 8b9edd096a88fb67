//go:build !race

package core

// raceEnabled reports whether the race detector is compiled in; allocation-
// count assertions are skipped under -race.
const raceEnabled = false

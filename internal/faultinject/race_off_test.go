//go:build !race

package faultinject

// raceEnabled reports whether the race detector is compiled in: it makes
// every allocation larger, so the trial allocation budgets have a second
// figure for it.
const raceEnabled = false

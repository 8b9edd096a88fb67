//go:build !race

package experiments

// raceEnabled reports whether the race detector is compiled in: it makes
// every allocation larger, so allocation budgets do not hold under it.
const raceEnabled = false

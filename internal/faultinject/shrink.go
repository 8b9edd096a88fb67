package faultinject

// Failure shrinking. Given a failing schedule, Shrink greedily tries
// cheaper variants — fewer churn ops, no tail churn, an earlier (smaller)
// crash site, no nested crash — and keeps any variant that still fails.
// Because scheduled trials are deterministic, "still fails" needs exactly
// one run per candidate; the result is a locally minimal schedule whose
// one-line command is a far better bug report than the original (less churn
// to wade through in a flight-recorder dump, an earlier crash to step to).
// One campaign runs the whole shrink, so a candidate that changes only the
// crash point forks a prefix already built instead of building its own.
//
// Shrinking minimizes the *schedule*, not the error text: a candidate that
// fails with a different checker message still reproduces a bug at a
// smaller schedule, which is what a debugging session wants first.

import "time"

// ShrinkBudget is the default trial budget per shrink.
const ShrinkBudget = 48

// Shrink minimizes a failing schedule, spending at most budget extra trials
// (0 = ShrinkBudget). Returns the smallest still-failing schedule found and
// whether it improves on the input. The input must fail (callers pass
// schedules a campaign just saw fail); if it somehow passes now, ok is false.
func Shrink(s Schedule, topts TrialOptions, timeout time.Duration, budget int) (Schedule, bool) {
	c := new(campaign)
	defer c.release()
	return c.shrink(s, topts, timeout, budget)
}

// shrink is Shrink with its candidates run in campaign c.
func (c *campaign) shrink(s Schedule, topts TrialOptions, timeout time.Duration, budget int) (Schedule, bool) {
	if budget <= 0 {
		budget = ShrinkBudget
	}
	best, improved := s, false
	for progressed := true; progressed && budget > 0; {
		progressed = false
		for _, cand := range best.shrinks() {
			if budget <= 0 {
				break
			}
			if cand == best || cand.cost() >= best.cost() {
				continue
			}
			budget--
			if c.runWatched(cand, topts, timeout).err != nil {
				best, improved, progressed = cand, true, true
				break // restart the move list from the new best
			}
		}
	}
	return best, improved
}

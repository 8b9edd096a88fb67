package faultinject

// Campaigns over deterministic crash schedules, batch and serving alike. The
// driver first runs a census pass (counting crash sites — per shard, for a
// sharded serving deployment), then sweeps the site space — exhaustively when
// it fits the budget, by stratified sampling (every site class's first
// occurrence plus an even spread) when it does not — firing one scheduled
// crash per selected site with a rotating in-flight-line policy. With Nested
// enabled, sites whose recovery exposes its own crash sites get
// crash-during-recovery schedules too. Trials run on a shared worker pool
// (Parallelism()); a per-trial watchdog converts hangs into reported failures
// instead of stalled CI. Every failure carries the one-line command that
// replays it bit-identically.

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"ffccd/internal/pmem"
	"ffccd/internal/workpool"
)

// CampaignOptions tunes a scheduled-crash campaign. The zero value is an
// exhaustive single-crash sweep with default volumes and no watchdog.
type CampaignOptions struct {
	// Seed is the base workload seed (schedules inherit it verbatim).
	Seed int64
	// Ops overrides a batch campaign's per-thread build churn or a serving
	// campaign's op budget per trial; Clients and Keys (serving) the
	// connection count and the keyspace (0 = defaults).
	Ops, Clients, Keys int
	// MaxSites bounds the scheduled sites per campaign; 0 sweeps
	// exhaustively. Every site class's first occurrence is always kept, so
	// the real floor is the number of populated classes. For a sharded
	// campaign the budget is split evenly across shards (minimum one site
	// per shard).
	MaxSites int
	// Shards runs each serving trial as a sharded deployment (0/1 =
	// unsharded). One census pass yields every shard's site census; each
	// shard's site space is then swept with that shard as the crash target
	// while its siblings keep serving.
	Shards int
	// Nested adds crash-during-recovery schedules; MaxNested caps them
	// (0 = same as the number of first-level sites selected).
	Nested    bool
	MaxNested int
	// Timeout is the per-trial watchdog; expiry is reported as a failure
	// (the trial goroutine is abandoned). 0 disables.
	Timeout time.Duration
	// Shrink minimizes each failure's schedule before reporting
	// (ShrinkBudget extra trials per failure).
	Shrink bool
	// Trial carries the per-trial hooks (observability, corruption planting).
	Trial TrialOptions
}

// ServeCampaignOptions is CampaignOptions under the name serving campaigns
// were configured with.
type ServeCampaignOptions = CampaignOptions

// Failure is one failing schedule with its replay artifact.
type Failure struct {
	Repro Schedule
	Err   string
	// Hung marks a watchdog expiry (the trial never returned).
	Hung bool
	// Shrunk is the minimized schedule (set when CampaignOptions.Shrink).
	Shrunk Schedule
}

func (f Failure) String() string {
	kind := "failed"
	if f.Hung {
		kind = "hung"
	}
	s := fmt.Sprintf("%s: %s\n  repro: %s", kind, f.Err, f.Repro.Command())
	if f.Shrunk != nil {
		s += fmt.Sprintf("\n  shrunk: %s", f.Shrunk.Command())
	}
	return s
}

// CampaignOutcome summarises one campaign.
type CampaignOutcome struct {
	// Label names what was crashed: a setting ("LL/1T/ffccd") or a serving
	// scheme ("serve/ffccd").
	Label string
	// SitesTotal is the census site count (summed over shards when sharded);
	// Scheduled the trials actually run (first-level + nested, census
	// excluded).
	SitesTotal uint64
	Scheduled  int
	Passed     int
	// Skipped is set when the census pass opened no epoch (store not
	// fragmented enough) — the setting is vacuously consistent.
	Skipped bool
	// Covered counts, per site class, the first-level crashes that actually
	// fired in that class — the campaign's coverage summary. ShardCovered
	// splits the same counts by crash-target shard (nil when unsharded).
	Covered      [pmem.NumSiteClasses]int
	ShardCovered [][pmem.NumSiteClasses]int
	Failures     []Failure
}

// CoverageString renders the sites-per-class coverage line a campaign summary
// prints; sharded campaigns prefix each shard's counts with its index.
func (o CampaignOutcome) CoverageString() string {
	classes := func(cov [pmem.NumSiteClasses]int) string {
		var parts []string
		for c := pmem.SiteClass(0); c < pmem.NumSiteClasses; c++ {
			if cov[c] > 0 {
				parts = append(parts, fmt.Sprintf("%s:%d", c, cov[c]))
			}
		}
		if len(parts) == 0 {
			return "none"
		}
		return strings.Join(parts, " ")
	}
	if len(o.ShardCovered) == 0 {
		return classes(o.Covered)
	}
	var parts []string
	for s, cov := range o.ShardCovered {
		parts = append(parts, fmt.Sprintf("s%d[%s]", s, classes(cov)))
	}
	return strings.Join(parts, " ")
}

// trialOut is one watched trial's outcome.
type trialOut struct {
	res  Result
	err  error
	hung bool
}

// campaign is what the trials of one campaign share, and nothing outlives it:
// the prefixes of the machines its schedules name, each built once, on first
// use — inside the census pass, so under its watchdog — and read-only from
// then on. A campaign's own schedules name one machine (a serving one has a
// prefix per shard); a shrink adds one per distinct machine its candidates
// name. A schedule run on its own — Run, -repro — is a campaign of one trial.
type campaign struct {
	mu    sync.Mutex
	batch map[batchMachine]*built[*prefix]
	serve map[ServeRepro]*built[[]*servePrefix] // keyed by the line without its crash point and shard
}

// batchMachine is what a batch prefix is a function of.
type batchMachine struct {
	setting Setting
	seed    int64
	ops     int
}

// built is a machine's prefix, or why it could not be built.
type built[T any] struct {
	once sync.Once
	pre  T
	err  error
}

// buildOnce returns the prefix *m holds for the machine key, building it on
// first use. An error building it is the verdict of every trial on that
// machine, and of no other.
func buildOnce[K comparable, T any](c *campaign, m *map[K]*built[T], key K, build func() (T, error)) (T, error) {
	c.mu.Lock()
	if *m == nil {
		*m = make(map[K]*built[T])
	}
	b := (*m)[key]
	if b == nil {
		b = new(built[T])
		(*m)[key] = b
	}
	c.mu.Unlock()
	b.once.Do(func() { b.pre, b.err = build() })
	return b.pre, b.err
}

// prefixOf returns the prefix of the batch machine (setting, seed, ops).
func (c *campaign) prefixOf(setting Setting, seed int64, ops int) (*prefix, error) {
	return buildOnce(c, &c.batch, batchMachine{setting, seed, ops}, func() (*prefix, error) {
		return buildPrefix(setting, seed, ops)
	})
}

// runWatched executes one schedule under the watchdog. On expiry the trial
// goroutine is abandoned (it writes only trial-local simulated state) and the
// expiry is the verdict.
func (c *campaign) runWatched(s Schedule, topts TrialOptions, timeout time.Duration) trialOut {
	if timeout <= 0 {
		res, err := s.runIn(c, topts)
		return trialOut{res: res, err: err}
	}
	ch := make(chan trialOut, 1)
	go func() {
		res, err := s.runIn(c, topts)
		ch <- trialOut{res: res, err: err}
	}()
	select {
	case o := <-ch:
		return o
	case <-time.After(timeout):
		return trialOut{err: fmt.Errorf("watchdog: trial exceeded %s", timeout), hung: true}
	}
}

// runAll runs the schedules on the process-wide worker pool shared with the
// experiments driver, results in schedule order. Every trial runs on a
// simulated machine of its own — a fork of its campaign's read-only prefix —
// so the pool size changes host wall-clock only, never a trial verdict.
func (c *campaign) runAll(scheds []Schedule, co CampaignOptions) []trialOut {
	outs := make([]trialOut, len(scheds))
	_ = workpool.ForEach(len(scheds), func(i int) error {
		outs[i] = c.runWatched(scheds[i], co.Trial, co.Timeout)
		return nil
	})
	return outs
}

// selectSites picks the schedule sites for a census: every site when the
// budget allows, otherwise each class's first occurrence plus an even spread
// across the index space — the stratification that keeps rare classes
// (epoch transitions happen twice per trial, WPQ drains thousands of times)
// in every campaign.
func selectSites(c pmem.SiteCensus, maxSites int) []int64 {
	total := int64(c.Total)
	if total == 0 {
		return nil
	}
	if maxSites <= 0 || total <= int64(maxSites) {
		out := make([]int64, total)
		for i := range out {
			out[i] = int64(i)
		}
		return out
	}
	seen := make(map[int64]bool)
	var out []int64
	add := func(s int64) {
		if s >= 0 && s < total && !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for _, fi := range c.FirstIndex {
		add(fi)
	}
	for k := 0; len(out) < maxSites && k < maxSites; k++ {
		add(int64(k) * total / int64(maxSites))
	}
	slices.Sort(out)
	return out
}

// ExploreSetting runs the scheduled-crash campaign for one batch setting.
func ExploreSetting(setting Setting, co CampaignOptions) CampaignOutcome {
	base := NewRepro(setting, co.Seed)
	if co.Ops > 0 {
		base.Ops = co.Ops
	}
	return new(campaign).explore(setting.String(), base, co)
}

// ExploreServeScheme runs the serving crash campaign for one scheme: online
// crash-recovery-resume trials under open-loop traffic.
func ExploreServeScheme(scheme string, co CampaignOptions) CampaignOutcome {
	base := NewServeRepro(scheme, co.Seed)
	base.Shards = max(co.Shards, 1)
	if co.Clients > 0 {
		base.Clients = co.Clients
	}
	if co.Ops > 0 {
		base.Ops = co.Ops
	}
	if co.Keys > 0 {
		base.Keys = co.Keys
	}
	return new(campaign).explore("serve/"+scheme, base, co)
}

// explore runs the campaign whose census pass is base.
func (c *campaign) explore(label string, base Schedule, co CampaignOptions) CampaignOutcome {
	out := CampaignOutcome{Label: label}

	// Census pass: count the sites (and verify the no-crash run end to end).
	// A sharded pass census-arms every shard, so one run yields each shard's
	// own site space.
	census := c.runWatched(base, co.Trial, co.Timeout)
	if census.err != nil {
		out.Failures = append(out.Failures, Failure{Repro: base, Err: census.err.Error(), Hung: census.hung})
		return out
	}
	if !census.res.Began {
		out.Skipped = true
		return out
	}
	shardCensus := census.res.ShardCensus
	if nsh := len(shardCensus); nsh > 0 {
		out.ShardCovered = make([][pmem.NumSiteClasses]int, nsh)
	} else {
		shardCensus = []pmem.SiteCensus{census.res.Census}
	}
	for _, sc := range shardCensus {
		out.SitesTotal += sc.Total
	}

	firsts, shardOf := firstLevel(base, shardCensus, co)
	firstOuts := c.runAll(firsts, co)

	// Nested schedules: crash-during-recovery at the first recovery-step site
	// and the middle of the recovery's site space, for up to MaxNested
	// crashing first-level sites (evenly spread over the selection).
	var nesteds []Schedule
	if co.Nested {
		budget := co.MaxNested
		if budget <= 0 {
			budget = len(firsts)
		}
		var crashed []int
		for i, f := range firstOuts {
			if f.err == nil && f.res.Crash != nil && f.res.RecoveryCensus.Total > 0 {
				crashed = append(crashed, i)
			}
		}
		stride := 1
		if len(crashed) > budget {
			stride = (len(crashed) + budget - 1) / budget
		}
		for k := 0; k < len(crashed) && len(nesteds) < budget; k += stride {
			i := crashed[k]
			rc := firstOuts[i].res.RecoveryCensus
			sites := []int64{int64(rc.Total) / 2}
			if fi := rc.FirstIndex[pmem.SiteRecoveryStep]; fi >= 0 && fi != sites[0] {
				sites = append(sites, fi)
				slices.Sort(sites)
			}
			for _, s := range sites {
				if len(nesteds) >= budget {
					break
				}
				cp := firsts[i].Point()
				cp.Nested = s
				nesteds = append(nesteds, firsts[i].At(shardOf[i], cp))
			}
		}
	}
	nestedOuts := c.runAll(nesteds, co)

	// Aggregate in schedule order (deterministic under any worker count).
	collect := func(scheds []Schedule, outs []trialOut, firstLevel bool) {
		for i, o := range outs {
			out.Scheduled++
			if o.err == nil {
				out.Passed++
				if firstLevel && o.res.Crash != nil {
					out.Covered[o.res.Crash.Class]++
					if out.ShardCovered != nil {
						out.ShardCovered[shardOf[i]][o.res.Crash.Class]++
					}
				}
				continue
			}
			f := Failure{Repro: scheds[i], Err: o.err.Error(), Hung: o.hung}
			if co.Shrink {
				if min, ok := c.shrink(scheds[i], co.Trial, co.Timeout, ShrinkBudget); ok {
					f.Shrunk = min
				}
			}
			out.Failures = append(out.Failures, f)
		}
	}
	collect(firsts, firstOuts, true)
	collect(nesteds, nestedOuts, false)
	return out
}

// firstLevel plans a campaign's first-level schedules from the census of each
// shard's site space (one census when unsharded): one crash per selected
// site, policy rotating per site, salt derived from the site index. A sharded
// campaign sweeps each shard's site space in shard order, the budget split
// evenly; shardOf[i] is schedule i's crash-target shard.
func firstLevel(base Schedule, shardCensus []pmem.SiteCensus, co CampaignOptions) (firsts []Schedule, shardOf []int) {
	maxPerShard := co.MaxSites
	if maxPerShard > 0 {
		maxPerShard = max(maxPerShard/len(shardCensus), 1)
	}
	for sh, sc := range shardCensus {
		for _, site := range selectSites(sc, maxPerShard) {
			firsts = append(firsts, base.At(sh, CrashPoint{
				Site: site, Nested: -1, Policy: Policies[len(firsts)%len(Policies)],
				Salt: uint64(site)*0x9E3779B97F4A7C15 + uint64(co.Seed) + uint64(sh),
			}))
			shardOf = append(shardOf, sh)
		}
	}
	return firsts, shardOf
}

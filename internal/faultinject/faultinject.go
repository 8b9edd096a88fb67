// Package faultinject reproduces the paper's crash-consistency validation
// (§7.1): crashes are injected at arbitrary points of the concurrent
// compacting phase, the per-scheme recovery runs, and a two-step checker
// validates (1) program data — readability, values, absence of dangling
// pointers, structure topology — and (2) agreement between defragmentation
// metadata and the memory state. The paper's 26 settings (five single-
// threaded microbenchmarks plus BzTree/FPTree at 1, 2, 4, 8 threads, each
// under SFCCD and FFCCD) are enumerated by AllSettings.
//
// Three drivers put a machine in front of a power failure, and they share
// everything after it:
//
//   - RunScheduled (schedule.go): the deterministic batch driver — one
//     goroutine end to end, crash fired at an exact crash-site index (see
//     pmem.SiteClass), optionally a second crash inside recovery. Every
//     failing schedule replays bit-identically from its Repro line. Its
//     machine is forked from a prefix built once per campaign (machine.go):
//     the trials of a campaign differ only after the store is built.
//   - RunServeScheduled (servesched.go): the same for a machine under
//     open-loop serving traffic (redisws.Serve), which recovers online,
//     validates every acknowledged write and resumes serving.
//   - Trial (below): the randomized driver — churn threads are real
//     goroutines, the crash comes after rng.Intn(400) compaction steps under a
//     random in-flight-line policy. It stays because it is the only driver
//     whose application threads run concurrently (the paper's §7.1
//     methodology, and what go test -race exercises on the 2/4/8-thread
//     settings); a scheduled trial is one goroutine by construction. Its
//     crash point is only as fine as a step count.
//
// One batch machine and one churner (machine.go) serve both batch drivers;
// the serving driver builds its machines with redisws.NewMachine. All three
// restart through one sequence (restart.run, machine.go): power failure,
// reopen, recovery with the site recorder armed, and on a crash inside
// recovery a second power failure and an unscheduled recovery.
//
// One campaign (campaign.go) sweeps or samples the site space of any Schedule
// and one shrinker (shrink.go) minimizes failures into repro artifacts.
package faultinject

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"ffccd/internal/core"
	"ffccd/internal/ds"
	"ffccd/internal/obsv"
	"ffccd/internal/pmop"
	"ffccd/internal/sim"
	"ffccd/internal/workpool"
)

// TrialOptions carries per-campaign hooks. The zero value is a plain trial.
// Options travel by value with each campaign, so concurrent campaigns with
// different settings never race.
type TrialOptions struct {
	// Obs, when non-nil, supplies a fresh observability bundle per batch
	// trial. An injected crash fires the bundle's OnCrash hook
	// (flight-recorder dump) at the fault, before recovery runs. Tracing reads
	// simulated clocks but never charges them, so trial outcomes are
	// unaffected.
	Obs func(setting Setting, seed int64) *obsv.Obs

	// AfterRecovery, when non-nil, runs after recovery completes and the
	// store is reopened, before the checker (on the serving path: inside the
	// blackout, before the durable-ack check). Tests use it to plant
	// synthetic corruption or ack loss (proving the failure→repro→replay loop
	// end to end) or to stall (proving the watchdog).
	AfterRecovery func(ctx *sim.Ctx, p *pmop.Pool, s ds.Store)

	// Series, when non-nil, supplies the time series of shard shard of a
	// serving trial (shard in [0, rep.Shards); 0 when unsharded). The run's
	// recovery/backoff overlay intervals land in it.
	Series func(rep ServeRepro, shard int) *obsv.TimeSeries
	// AdmitCap overrides a serving trial's degraded-mode admission-queue
	// bound (0 = redisws default, Clients/4+1).
	AdmitCap int
}

// Host-side fan-out runs on the process-wide worker pool shared with the
// experiments driver (internal/workpool). Every trial runs on a simulated
// machine of its own — a batch campaign's are forks of one read-only built
// prefix — so trials are hermetic; the pool size changes host wall-clock
// only, never a trial verdict. Defaults to GOMAXPROCS,
// overridable with FFCCD_PARALLEL or SetParallelism.

// SetParallelism sets the shared pool's worker count (values < 1 mean
// serial).
func SetParallelism(n int) { workpool.SetParallelism(n) }

// Parallelism returns the shared pool's current worker count.
func Parallelism() int { return int(workpool.Parallelism()) }

// parallelFor runs f(0..n-1) on the shared worker pool. Results must be
// written into index-addressed slots by f, so output order is deterministic
// regardless of worker count; nested fan-outs (campaign sweeps running
// trial grids) share the pool's slots instead of oversubscribing.
func parallelFor(n int, f func(i int)) {
	_ = workpool.ForEach(n, func(i int) error {
		f(i)
		return nil
	})
}

// Setting is one validation configuration.
type Setting struct {
	Store   string
	Threads int
	Scheme  core.Scheme
}

func (s Setting) String() string {
	return fmt.Sprintf("%s/%dT/%s", s.Store, s.Threads, s.Scheme)
}

// ParseSetting parses the String form ("BzTree/4T/ffccd") back into a
// Setting — the format repro artifacts carry.
func ParseSetting(str string) (Setting, error) {
	parts := strings.Split(str, "/")
	if len(parts) != 3 {
		return Setting{}, fmt.Errorf("faultinject: bad setting %q", str)
	}
	s := Setting{Store: parts[0]}
	if !slices.Contains(MicroStores, s.Store) && !slices.Contains(ConcurrentStores, s.Store) {
		return s, fmt.Errorf("faultinject: unknown store %q in %q", s.Store, str)
	}
	if _, err := fmt.Sscanf(parts[1], "%dT", &s.Threads); err != nil || s.Threads < 1 {
		return s, fmt.Errorf("faultinject: bad thread count in %q", str)
	}
	for _, sc := range []core.Scheme{core.SchemeNone, core.SchemeEspresso,
		core.SchemeSFCCD, core.SchemeFFCCD, core.SchemeFFCCDCheckLookup} {
		if sc.String() == parts[2] {
			s.Scheme = sc
			if s.String() != str {
				return s, fmt.Errorf("faultinject: bad setting %q", str)
			}
			return s, nil
		}
	}
	return s, fmt.Errorf("faultinject: unknown scheme %q in %q", parts[2], str)
}

// MicroStores are the five single-threaded microbenchmarks.
var MicroStores = []string{"LL", "AVL", "SS", "BT", "RBT"}

// ConcurrentStores are the concurrent PM data structures.
var ConcurrentStores = []string{"BzTree", "FPTree"}

// AllSettings enumerates the paper's 26 settings.
func AllSettings() []Setting {
	var out []Setting
	for _, scheme := range []core.Scheme{core.SchemeSFCCD, core.SchemeFFCCD} {
		for _, st := range MicroStores {
			out = append(out, Setting{st, 1, scheme})
		}
		for _, st := range ConcurrentStores {
			for _, th := range []int{1, 2, 4, 8} {
				out = append(out, Setting{st, th, scheme})
			}
		}
	}
	return out
}

// buildStore constructs a named store over p.
func buildStore(ctx *sim.Ctx, p *pmop.Pool, name string) (ds.Store, error) {
	switch name {
	case "LL":
		return ds.NewList(ctx, p)
	case "AVL":
		return ds.NewAVL(ctx, p)
	case "SS":
		return ds.NewStringStore(ctx, p, 1024)
	case "BT":
		return ds.NewBPTree(ctx, p)
	case "RBT":
		return ds.NewRBTree(ctx, p)
	case "BzTree":
		return ds.NewBzTree(ctx, p)
	case "FPTree":
		return ds.NewFPTree(ctx, p)
	}
	return nil, fmt.Errorf("faultinject: unknown store %q", name)
}

// keyCapFor bounds the key space for slot-addressed stores.
func keyCapFor(name string) uint64 {
	if name == "SS" {
		return 1024
	}
	return 1 << 30
}

// Trial runs one randomized fault-injection trial and returns an error
// describing the first consistency violation, or nil.
func Trial(setting Setting, seed int64, opts TrialOptions) error {
	m, err := newMachine(setting, false)
	if err != nil {
		return err
	}
	// Every churn goroutine is joined before a return, so the media array can
	// go back for reuse.
	defer m.dev.ReleaseMedia()
	rng := rand.New(rand.NewSource(seed))

	// Build a fragmented store, every thread churning its own key range at
	// once. The per-thread models span both churn sessions, so deletes in the
	// second are reflected.
	churn := newChurner(m, 300)
	if err := churn.churnConcurrently(&m.cfg, 600, func(tid int) int64 { return seed + int64(tid) + 1 }); err != nil {
		return err
	}
	m.dev.FlushAll(m.ctx)

	// Start a defragmentation epoch and advance it a random amount.
	opt := m.engineOptions(opts, seed)
	e := core.NewEngine(m.pool, opt)
	if !e.BeginCycle(m.ctx) {
		// Not fragmented enough this time; that is a (trivially) passing
		// trial — nothing to crash into.
		e.Close()
		return nil
	}
	e.StepCompaction(m.ctx, rng.Intn(400))

	// Concurrent application traffic through the read barrier, then stop.
	if err := churn.churnConcurrently(&m.cfg, 60, func(tid int) int64 { return seed ^ 0x5a5a + int64(tid) }); err != nil {
		return err
	}

	// Crash with a randomly chosen persistence outcome for unfenced lines,
	// restart (which completes the epoch) and check.
	policy := Policies[rng.Intn(len(Policies))]
	var salt uint64
	if policy == PolicySalt {
		salt = rng.Uint64()
	}
	crashPolicy, _ := PolicyFor(policy, salt) // a name out of Policies resolves
	var res Result
	return m.restartAndCheck(&res, crashPolicy, -1, opt, opts, churn)
}

// Outcome summarises a randomized campaign over one setting.
type Outcome struct {
	Setting  Setting
	Trials   int
	Passed   int
	Failures []string
}

// RunSetting executes trials randomized trials for one setting across
// Parallelism() workers. The outcome is deterministic regardless of worker
// count: failures are aggregated in trial order.
func RunSetting(setting Setting, trials int, seed int64, opts TrialOptions) Outcome {
	out := Outcome{Setting: setting, Trials: trials}
	errs := make([]error, trials)
	parallelFor(trials, func(i int) {
		errs[i] = Trial(setting, seed+int64(i)*7919, opts)
	})
	for _, err := range errs {
		if err != nil {
			out.Failures = append(out.Failures, err.Error())
		} else {
			out.Passed++
		}
	}
	return out
}

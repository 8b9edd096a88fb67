// Package faultinject reproduces the paper's crash-consistency validation
// (§7.1): crashes are injected at arbitrary points of the concurrent
// compacting phase, the per-scheme recovery runs, and a two-step checker
// validates (1) program data — readability, values, absence of dangling
// pointers, structure topology — and (2) agreement between defragmentation
// metadata and the memory state. The paper's 26 settings (five single-
// threaded microbenchmarks plus BzTree/FPTree at 1, 2, 4, 8 threads, each
// under SFCCD and FFCCD) are enumerated by AllSettings.
//
// Two drivers put a machine in front of a power failure, and they share
// everything after it. Each runs its machine on one goroutine — the
// application threads of an nT setting and the compactor are simulated
// threads interleaved in a fixed order — so a crash point is an exact
// crash-site index (see pmem.SiteClass), and every failing schedule replays
// bit-identically from its Repro line:
//
//   - RunScheduled (schedule.go): the batch driver. Its machine is forked
//     from a prefix built once per campaign (machine.go): the trials of a
//     campaign differ only after the store is built. Optionally a second
//     crash fires inside recovery.
//   - RunServeScheduled (servesched.go): the same for a machine under
//     open-loop serving traffic (redisws.Serve), which recovers online,
//     validates every acknowledged write and resumes serving. Its machines
//     and their loaded serving state are forked from prefixes loaded once
//     per campaign (redisws.Load): the trials differ only once dispatch
//     begins.
//
// Every machine is a machine.Machine: the batch driver builds its own
// (machine.go, with the churner), the serving driver builds them with
// redisws.NewMachine, and both prefixes are machine images the trials fork.
// Both run one post-crash sequence (restart.run, machine.go): power failure,
// Machine.Reopen, recovery on a fresh context with the site recorder armed
// (on a crash inside recovery, a second power failure and an unscheduled
// recovery), the store reopened, and the two-step checker on a context that
// bills nothing.
//
// One campaign (campaign.go) sweeps or samples the site space of any Schedule
// and one shrinker (shrink.go) minimizes failures into repro artifacts.
package faultinject

import (
	"fmt"
	"slices"
	"strings"

	"ffccd/internal/core"
	"ffccd/internal/ds"
	"ffccd/internal/machine"
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
	// store is reopened, on the recovery context and before the checker (on
	// the serving path: inside the blackout). Tests use it to plant
	// synthetic corruption or ack loss (proving the failure→repro→replay loop
	// end to end) or to stall (proving the watchdog).
	AfterRecovery func(ctx *sim.Ctx, p *pmop.Pool, s ds.Store)

	// Series, when non-nil, supplies the time series of shard shard of a
	// serving trial (shard in [0, rep.Shards); 0 when unsharded). The run's
	// recovery/backoff overlay intervals land in it.
	Series func(rep ServeRepro, shard int) *obsv.TimeSeries
}

// Host-side fan-out runs on the process-wide worker pool shared with the
// experiments driver (internal/workpool). Every trial runs on a simulated
// machine of its own — a fork of its campaign's read-only prefix — so trials
// are hermetic; the pool size changes host wall-clock
// only, never a trial verdict. Defaults to GOMAXPROCS,
// overridable with FFCCD_PARALLEL or workpool.SetParallelism.

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

// ssSlots is the slot count of a trial's SS store, which bounds its keys.
const ssSlots = 1024

// buildStore creates, or on a reopened pool opens, a trial's store.
func buildStore(ctx *sim.Ctx, p *pmop.Pool, name string) (ds.Store, error) {
	return machine.NewStore(ctx, p, name, ssSlots, 0)
}

// keyCapFor bounds the key space for slot-addressed stores.
func keyCapFor(name string) uint64 {
	if name == "SS" {
		return ssSlots
	}
	return 1 << 30
}

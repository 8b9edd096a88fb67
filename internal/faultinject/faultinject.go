// Package faultinject reproduces the paper's crash-consistency validation
// (§7.1): crashes are injected at arbitrary points of the concurrent
// compacting phase, the per-scheme recovery runs, and a two-step checker
// validates (1) program data — readability, values, absence of dangling
// pointers, structure topology — and (2) agreement between defragmentation
// metadata and the memory state. The paper's 26 settings (five single-
// threaded microbenchmarks plus BzTree/FPTree at 1, 2, 4, 8 threads, each
// under SFCCD and FFCCD) are enumerated by AllSettings.
//
// A Setting names a batch store or a serving deployment of ServeSchemes, and
// a schedule (Schedule, from NewRepro) names one of its trials: a machine, its
// traffic and a crash point. There are two kinds of trial machine, and they
// share everything after the power failure. Each runs its machine on one
// goroutine — the application threads of an nT setting and the compactor are
// simulated threads interleaved in a fixed order — so a crash point is an
// exact crash-site index (see pmem.SiteClass), and every failing schedule
// replays bit-identically from its repro line (ParseSchedule, Schedule.Run):
//
//   - Repro (schedule.go): a batch trial. Its machine is forked from a
//     prefix built once per campaign (machine.go): the trials of a campaign
//     differ only after the store is built. Optionally a second crash fires
//     inside recovery.
//   - ServeRepro (servesched.go): the same for a machine under open-loop
//     serving traffic (redisws.Serve), which recovers online, validates every
//     acknowledged write and resumes serving. Its machines and their loaded
//     serving state are forked from prefixes loaded once per campaign
//     (redisws.Load): the trials differ only once dispatch begins.
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
// One campaign (ExploreSetting, campaign.go) sweeps or samples the site space
// of any setting and one shrinker (shrink.go) minimizes failures into repro
// artifacts.
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
	"ffccd/internal/redisws"
	"ffccd/internal/sim"
)

// TrialOptions carries per-campaign hooks. The zero value is a plain trial.
// Options travel by value with each campaign, so concurrent campaigns with
// different settings never race.
type TrialOptions struct {
	// Obs, when non-nil, supplies a fresh observability bundle per trial,
	// installed on the machine that can lose power (a serving trial's
	// crash-target shard): its engine, its device and its recovery. An
	// injected crash fires the bundle's OnCrash hook (flight-recorder dump)
	// at the fault, before recovery runs. Tracing reads simulated clocks but
	// never charges them, so trial outcomes are unaffected.
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

// Setting is one validation configuration: a batch store with its
// application threads under a defragmentation scheme ("BzTree/4T/ffccd"), or a
// serving deployment of one of ServeSchemes ("serve/ffccd"; sharded across N
// machines, "serve/4S/ffccd").
type Setting struct {
	Store   string
	Threads int
	Scheme  core.Scheme
	// Serve is a serving setting's scheme, "" for a batch one: a name of
	// ServeSchemes, as the repro line spells it. Shards is a serving
	// setting's machine count (0 or 1: unsharded).
	Serve  string
	Shards int
}

func (s Setting) String() string {
	switch {
	case s.Serve == "":
		return fmt.Sprintf("%s/%dT/%s", s.Store, s.Threads, s.Scheme)
	case s.Shards > 1:
		return fmt.Sprintf("serve/%dS/%s", s.Shards, s.Serve)
	}
	return "serve/" + s.Serve
}

// maxThreads is the largest thread count of a setting, the largest AllSettings
// runs.
const maxThreads = 8

// ParseSetting parses the String form ("BzTree/4T/ffccd", "serve/4S/ffccd")
// back into a Setting — the form the CLI and repro artifacts carry. Thread
// counts run from 1 to maxThreads; a shard count must give every shard of the
// default keyspace a key.
func ParseSetting(str string) (Setting, error) {
	var s Setting
	bad := func(what string) (Setting, error) { return s, fmt.Errorf("faultinject: %s in setting %q", what, str) }
	parts := strings.Split(str, "/")
	if parts[0] == "serve" {
		if s.Serve = parts[len(parts)-1]; len(parts) == 3 {
			if _, err := fmt.Sscanf(parts[1], "%dS", &s.Shards); err != nil {
				return bad("bad shard count")
			}
		}
		if !slices.Contains(ServeSchemes, s.Serve) {
			return bad("unknown serving scheme")
		}
		if _, err := redisws.ShardKeys(DefaultServeKeys, max(s.Shards, 1)); err != nil {
			return bad(err.Error())
		}
	} else if len(parts) == 3 {
		s.Store = parts[0]
		if !slices.Contains(MicroStores, s.Store) && !slices.Contains(ConcurrentStores, s.Store) {
			return bad("unknown store")
		}
		if _, err := fmt.Sscanf(parts[1], "%dT", &s.Threads); err != nil || s.Threads < 1 || s.Threads > maxThreads {
			return bad("bad thread count")
		}
		schemes := []core.Scheme{core.SchemeNone, core.SchemeEspresso, core.SchemeSFCCD, core.SchemeFFCCD, core.SchemeFFCCDCheckLookup}
		i := slices.IndexFunc(schemes, func(sc core.Scheme) bool { return sc.String() == parts[2] })
		if i < 0 {
			return bad("unknown scheme")
		}
		s.Scheme = schemes[i]
	}
	if s.String() != str {
		return bad("no canonical form")
	}
	return s, nil
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
			out = append(out, Setting{Store: st, Threads: 1, Scheme: scheme})
		}
		for _, st := range ConcurrentStores {
			for _, th := range []int{1, 2, 4, maxThreads} {
				out = append(out, Setting{Store: st, Threads: th, Scheme: scheme})
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

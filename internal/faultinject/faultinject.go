// Package faultinject reproduces the paper's crash-consistency validation
// (§7.1): crashes are injected at arbitrary points of the concurrent
// compacting phase, the per-scheme recovery runs, and a two-step checker
// validates (1) program data — readability, values, absence of dangling
// pointers, structure topology — and (2) agreement between defragmentation
// metadata and the memory state. The paper's 26 settings (five single-
// threaded microbenchmarks plus BzTree/FPTree at 1, 2, 4, 8 threads, each
// under SFCCD and FFCCD) are enumerated by AllSettings.
//
// Two trial drivers coexist:
//
//   - Trial/TrialWith: the original randomized driver — concurrent churn
//     goroutines, a crash after rng.Intn(400) compaction steps, a random
//     in-flight-line policy. Good concurrency coverage, but the crash point
//     is only as fine as a step count.
//   - RunScheduled (schedule.go): the deterministic driver — single-threaded
//     end to end, crash fired at an exact crash-site index (see
//     pmem.SiteClass), optionally a second crash inside recovery. Every
//     failing schedule replays bit-identically from its Repro line.
//
// Campaigns over scheduled trials (campaign.go) sweep or sample the site
// space and shrink failures (shrink.go) into minimal repro artifacts.
package faultinject

import (
	"fmt"
	"math/rand"
	"sync"

	"ffccd/internal/checker"
	"ffccd/internal/core"
	"ffccd/internal/ds"
	"ffccd/internal/obsv"
	"ffccd/internal/pmem"
	"ffccd/internal/pmop"
	"ffccd/internal/sim"
	"ffccd/internal/workpool"
)

// TrialOptions carries per-campaign hooks. The zero value is a plain trial.
// Options travel by value with each campaign, so concurrent campaigns with
// different settings never race (this replaced a package-level factory
// variable).
type TrialOptions struct {
	// Obs, when non-nil, supplies a fresh observability bundle per trial.
	// An injected crash fires the bundle's OnCrash hook (flight-recorder
	// dump) at the fault, before recovery runs. Tracing reads simulated
	// clocks but never charges them, so trial outcomes are unaffected.
	Obs func(setting Setting, seed int64) *obsv.Obs

	// AfterRecovery, when non-nil, runs after recovery completes and before
	// the checker. Tests use it to plant synthetic corruption (proving the
	// campaign's failure→repro→replay loop end to end) or to stall (proving
	// the watchdog).
	AfterRecovery func(ctx *sim.Ctx, p *pmop.Pool)
}

// Host-side fan-out runs on the process-wide worker pool shared with the
// experiments driver (internal/workpool). Every trial builds its own
// simulated machine, so trials are hermetic; the pool size changes host
// wall-clock only, never a trial verdict. Defaults to GOMAXPROCS,
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
	var s Setting
	parts := [3]string{}
	n := 0
	start := 0
	for i := 0; i <= len(str); i++ {
		if i == len(str) || str[i] == '/' {
			if n >= 3 {
				return s, fmt.Errorf("faultinject: bad setting %q", str)
			}
			parts[n] = str[start:i]
			n++
			start = i + 1
		}
	}
	if n != 3 {
		return s, fmt.Errorf("faultinject: bad setting %q", str)
	}
	s.Store = parts[0]
	known := false
	for _, st := range append(append([]string{}, MicroStores...), ConcurrentStores...) {
		if st == s.Store {
			known = true
			break
		}
	}
	if !known {
		return s, fmt.Errorf("faultinject: unknown store %q in %q", s.Store, str)
	}
	if _, err := fmt.Sscanf(parts[1], "%dT", &s.Threads); err != nil || s.Threads < 1 {
		return s, fmt.Errorf("faultinject: bad thread count in %q", str)
	}
	schemeName := parts[2]
	for _, sc := range []core.Scheme{core.SchemeNone, core.SchemeEspresso,
		core.SchemeSFCCD, core.SchemeFFCCD, core.SchemeFFCCDCheckLookup} {
		if sc.String() == schemeName {
			s.Scheme = sc
			if s.String() != str {
				return s, fmt.Errorf("faultinject: bad setting %q", str)
			}
			return s, nil
		}
	}
	return s, fmt.Errorf("faultinject: unknown scheme %q in %q", schemeName, str)
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
func Trial(setting Setting, seed int64) error {
	return TrialWith(setting, seed, TrialOptions{})
}

// TrialWith is Trial with per-campaign options.
func TrialWith(setting Setting, seed int64, opts TrialOptions) error {
	cfg := sim.DefaultConfig()
	cfg.CacheBytes = 256 * 1024
	rt := pmop.NewRuntime(&cfg, 128<<20)
	reg := pmop.NewRegistry()
	ds.RegisterTypes(reg)
	p, err := rt.Create("fi", 64<<20, 12, reg)
	if err != nil {
		return err
	}
	// Every churn goroutine is joined before a return, so the media array can
	// go back for reuse (after the deferred engine Close below).
	defer p.Device().ReleaseMedia()
	ctx := sim.NewCtx(&cfg)
	s, err := buildStore(ctx, p, setting.Store)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))

	// Build a fragmented store with per-thread key ranges. Each thread owns
	// a disjoint range and a persistent thread-local model spanning both
	// churn sessions, so deletes in the second session are reflected.
	models := make([]map[uint64][]byte, setting.Threads)
	for i := range models {
		models[i] = make(map[uint64][]byte)
	}
	churn := func(c *sim.Ctx, tid, ops int, r *rand.Rand) error {
		local := models[tid]
		base := uint64(tid) << 20
		keyCap := keyCapFor(setting.Store)
		for i := 0; i < ops; i++ {
			key := base + r.Uint64()%300
			if key >= keyCap {
				key = key % keyCap
			}
			switch r.Intn(10) {
			case 0, 1, 2, 3, 4, 5:
				v := make([]byte, 16+r.Intn(113))
				for j := range v {
					v[j] = byte(key) ^ byte(j) ^ byte(i)
				}
				if err := s.Insert(c, key, v); err != nil {
					return err
				}
				local[key] = v
			case 6, 7:
				if _, err := s.Delete(c, key); err != nil {
					return err
				}
				delete(local, key)
			default:
				s.Get(c, key)
			}
		}
		return nil
	}

	// Single-threaded ranges must not overlap when threads > 1: each thread
	// owns its base. SS is slot-addressed, so it stays single-threaded in
	// AllSettings (a micro store).
	var wg sync.WaitGroup
	errs := make(chan error, setting.Threads)
	for t := 0; t < setting.Threads; t++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			c := sim.NewCtx(&cfg)
			errs <- churn(c, tid, 600, rand.New(rand.NewSource(seed+int64(tid)+1)))
		}(t)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		if e != nil {
			return e
		}
	}
	p.Device().FlushAll(ctx)

	var obs *obsv.Obs
	if opts.Obs != nil {
		if obs = opts.Obs(setting, seed); obs != nil {
			obs.Tracer.Name(ctx, "driver")
			p.Device().SetObs(obs)
		}
	}

	// Start a defragmentation epoch and advance it a random amount.
	opt := core.DefaultOptions()
	opt.Scheme = setting.Scheme
	opt.TriggerRatio = 1.01
	opt.TargetRatio = 1.05
	opt.Obs = obs
	e := core.NewEngine(p, opt)
	if !e.BeginCycle(ctx) {
		// Not fragmented enough this time; that is a (trivially) passing
		// trial — nothing to crash into.
		e.Close()
		return nil
	}
	steps := rng.Intn(400)
	e.StepCompaction(ctx, steps)

	// Concurrent application traffic through the read barrier, then stop.
	var wg2 sync.WaitGroup
	errs2 := make(chan error, setting.Threads)
	for t := 0; t < setting.Threads; t++ {
		wg2.Add(1)
		go func(tid int) {
			defer wg2.Done()
			c := sim.NewCtx(&cfg)
			errs2 <- churn(c, tid, 60, rand.New(rand.NewSource(seed^0x5a5a+int64(tid))))
		}(t)
	}
	wg2.Wait()
	close(errs2)
	for e2 := range errs2 {
		if e2 != nil {
			return e2
		}
	}

	// Crash with a randomly chosen persistence outcome for unfenced lines.
	switch rng.Intn(3) {
	case 0:
		p.Device().SetCrashPolicy(pmem.DropAllInflight)
	case 1:
		p.Device().SetCrashPolicy(pmem.KeepAllInflight)
	default:
		salt := rng.Uint64()
		p.Device().SetCrashPolicy(func(line uint64) bool {
			return (line*0x9E3779B97F4A7C15+salt)&1 == 0
		})
	}
	p.Device().Crash()

	// Restart: attach, open, recover (completes the epoch).
	rt2, err := pmop.Attach(&cfg, rt.Device())
	if err != nil {
		return err
	}
	reg2 := pmop.NewRegistry()
	ds.RegisterTypes(reg2)
	p2, err := rt2.Open("fi", reg2)
	if err != nil {
		return err
	}
	e2, err := core.Recover(ctx, p2, opt)
	if err != nil {
		return fmt.Errorf("recovery failed: %w", err)
	}
	defer e2.Close()

	if opts.AfterRecovery != nil {
		opts.AfterRecovery(ctx, p2)
	}

	s2, err := buildStore(ctx, p2, setting.Store)
	if err != nil {
		return err
	}
	model := make(map[uint64][]byte)
	for _, m := range models {
		for k, v := range m {
			model[k] = v
		}
	}

	// Checker step 1: program-data consistency against the model.
	if err := checker.CheckStore(ctx, s2, model); err != nil {
		return fmt.Errorf("checker step 1 (%s): %w", setting, err)
	}
	// Checker step 2: GC metadata vs memory state.
	if _, err := checker.CheckGraph(ctx, p2); err != nil {
		return fmt.Errorf("checker step 2 (%s): %w", setting, err)
	}
	return nil
}

// Outcome summarises a campaign over one setting.
type Outcome struct {
	Setting  Setting
	Trials   int
	Passed   int
	Failures []string
}

// RunSetting executes trials fault-injection trials for one setting across
// Parallelism() workers. The outcome is deterministic regardless of worker
// count: failures are aggregated in trial order.
func RunSetting(setting Setting, trials int, seed int64) Outcome {
	return RunSettingWith(setting, trials, seed, TrialOptions{})
}

// RunSettingWith is RunSetting with per-campaign options.
func RunSettingWith(setting Setting, trials int, seed int64, opts TrialOptions) Outcome {
	out := Outcome{Setting: setting, Trials: trials}
	errs := make([]error, trials)
	parallelFor(trials, func(i int) {
		errs[i] = TrialWith(setting, seed+int64(i)*7919, opts)
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

package faultinject

// Deterministic crash schedules. A scheduled trial is single-threaded end to
// end — per-thread churn runs sequentially in thread order — so the sequence
// of crash-site passages (pmem.SiteClass) is a pure function of the Repro.
// The same Repro therefore produces the same site census, the same crash,
// the same post-crash media image, and the same checker verdict on every
// run: a failing trial's Repro line IS the bug report.
//
// Site = -1 runs the trial to completion, counting sites (the census pass a
// campaign uses to enumerate the schedule space). Site >= 0 fires a power
// failure at exactly that site; Nested >= 0 fires a second power failure at
// that site *of the recovery that follows*, after which a final unscheduled
// recovery must succeed — double-recovery idempotence.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"ffccd/internal/checker"
	"ffccd/internal/core"
	"ffccd/internal/ds"
	"ffccd/internal/obsv"
	"ffccd/internal/pmem"
	"ffccd/internal/pmop"
	"ffccd/internal/sim"
)

// Crash policies a schedule can name.
const (
	PolicyDrop = "drop" // no in-flight line survives (most adversarial)
	PolicyKeep = "keep" // every in-flight line survives
	PolicySalt = "salt" // per-line fate from a salted address hash
)

// Policies lists the schedulable crash policies.
var Policies = []string{PolicyDrop, PolicyKeep, PolicySalt}

// PolicyFor resolves a policy name (+ salt for PolicySalt) to the device
// crash policy.
func PolicyFor(name string, salt uint64) (pmem.CrashPolicy, error) {
	switch name {
	case PolicyDrop, "":
		return pmem.DropAllInflight, nil
	case PolicyKeep:
		return pmem.KeepAllInflight, nil
	case PolicySalt:
		return func(line uint64) bool {
			return (line*0x9E3779B97F4A7C15+salt)&1 == 0
		}, nil
	}
	return nil, fmt.Errorf("faultinject: unknown crash policy %q", name)
}

// Default churn volumes for scheduled trials (per thread). Ops builds the
// fragmented store; TailOps interleaves with compaction through the read
// barrier. A Repro with zero Ops gets the defaults; TailOps is kept as-is
// (0 is a meaningful shrink).
const (
	DefaultOps     = 500
	DefaultTailOps = 40
)

// Repro is one deterministic crash schedule — the replayable artifact a
// failing campaign trial emits. All fields marshal explicitly (no omitempty)
// so a shrunk zero survives the JSON round trip.
type Repro struct {
	Setting string `json:"setting"`
	Seed    int64  `json:"seed"`
	Ops     int    `json:"ops"`      // build-churn ops per thread
	TailOps int    `json:"tail_ops"` // compaction-concurrent ops per thread
	Site    int64  `json:"site"`     // crash-site index; -1 = census (no crash)
	Nested  int64  `json:"nested"`   // recovery crash-site index; -1 = none
	Policy  string `json:"policy"`
	Salt    uint64 `json:"salt"`
}

// NewRepro returns a census-pass Repro for one setting with default churn.
func NewRepro(setting Setting, seed int64) Repro {
	return Repro{
		Setting: setting.String(), Seed: seed,
		Ops: DefaultOps, TailOps: DefaultTailOps,
		Site: -1, Nested: -1, Policy: PolicyDrop,
	}
}

// MarshalLine renders the Repro as its canonical one-line JSON.
func (r Repro) MarshalLine() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // plain struct of scalars; cannot happen
	}
	return string(b)
}

// ParseRepro parses MarshalLine output (unknown fields rejected so typos in
// hand-edited repro lines fail loudly).
func ParseRepro(line string) (Repro, error) {
	r := Repro{Site: -1, Nested: -1}
	dec := json.NewDecoder(bytes.NewReader([]byte(line)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return r, fmt.Errorf("faultinject: bad repro line: %w", err)
	}
	if _, err := ParseSetting(r.Setting); err != nil {
		return r, err
	}
	if _, err := PolicyFor(r.Policy, r.Salt); err != nil {
		return r, err
	}
	return r, nil
}

// Command renders the one-line shell command that replays this schedule.
func (r Repro) Command() string {
	return fmt.Sprintf("ffccd-crashtest -repro '%s'", r.MarshalLine())
}

// ScheduleResult reports what a scheduled trial did.
type ScheduleResult struct {
	// Began reports whether a compaction epoch opened (a store can come out
	// of the build churn insufficiently fragmented; such a trial passes
	// vacuously and a campaign skips it).
	Began bool
	// Census counts the sites of the main run — complete when no crash
	// fired, up to the crash otherwise.
	Census pmem.SiteCensus
	// Crash is the injected power failure (nil for a completed census run).
	Crash *pmem.CrashAtSite
	// RecoveryCensus counts the sites of the first post-crash recovery.
	RecoveryCensus pmem.SiteCensus
	// NestedCrash is the power failure injected inside recovery, if any.
	NestedCrash *pmem.CrashAtSite
	// PostCrashHash digests the media image right after the (first) crash;
	// FinalHash digests it after recovery and checking. Equal hashes across
	// runs of the same Repro are the bit-identity witness.
	PostCrashHash, FinalHash uint64
}

// pendingOp is the churn operation in flight at the moment of a scheduled
// crash. Its store transaction is atomic, so post-crash state reflects the
// op either fully or not at all; the checker accepts both.
type pendingOp struct {
	key uint64
	val []byte // nil = delete
}

// catchCrash runs f, converting a scheduled-crash panic into a return value.
// Any other panic propagates.
func catchCrash(f func()) (crash *pmem.CrashAtSite) {
	defer func() {
		if r := recover(); r != nil {
			if c, ok := r.(*pmem.CrashAtSite); ok {
				crash = c
				return
			}
			panic(r)
		}
	}()
	f()
	return nil
}

// RunScheduled executes one deterministic scheduled trial. The returned
// error is the trial verdict (nil = consistent); the ScheduleResult is
// populated as far as the trial got even on failure.
func RunScheduled(rep Repro, opts TrialOptions) (ScheduleResult, error) {
	var res ScheduleResult
	setting, err := ParseSetting(rep.Setting)
	if err != nil {
		return res, err
	}
	if rep.Ops <= 0 {
		rep.Ops = DefaultOps
	}
	if rep.TailOps < 0 {
		rep.TailOps = 0
	}
	policy, err := PolicyFor(rep.Policy, rep.Salt)
	if err != nil {
		return res, err
	}

	cfg := sim.DefaultConfig()
	cfg.CacheBytes = 256 * 1024
	rt := pmop.NewRuntime(&cfg, 128<<20)
	reg := pmop.NewRegistry()
	ds.RegisterTypes(reg)
	p, err := rt.Create("fi", 64<<20, 12, reg)
	if err != nil {
		return res, err
	}
	dev := p.Device()
	// The trial owns its machine: give the media array back on the way out
	// (registered first, so it runs after the engine's deferred Close). This
	// runs on the trial's own goroutine — a watchdog that gives up on a hung
	// trial abandons the machine instead, as the trial may still be writing.
	defer dev.ReleaseMedia()
	if setting.Threads == 1 {
		// A 1T scheduled trial is one goroutine end to end — build, churn,
		// engine stepping (the engine below is built without AutoTrigger, so
		// it has no background goroutine), crash, recovery and checking — so
		// the device's per-access host locks can go, as in experiments.Run.
		dev.SetExclusive(true)
	}
	ctx := sim.NewCtx(&cfg)
	s, err := buildStore(ctx, p, setting.Store)
	if err != nil {
		return res, err
	}

	// Sequential churn in thread order — per-thread RNG streams and disjoint
	// key ranges like the randomized Trial, minus the host-scheduling
	// nondeterminism. The build phase fragments deliberately: insert Ops keys
	// over a wide span, then delete three quarters of them in insertion
	// order. That leaves many quarter-full frames, so BeginCycle's net-gain
	// planner reliably opens an epoch (a dense store compacts to nothing and
	// the whole schedule space would be vacuous).
	models := make([]map[uint64][]byte, setting.Threads)
	for i := range models {
		models[i] = make(map[uint64][]byte)
	}
	var pending *pendingOp
	keyCap := keyCapFor(setting.Store)
	span := uint64(4 * rep.Ops)
	build := func(c *sim.Ctx, tid, ops int, r *rand.Rand) error {
		local := models[tid]
		base := uint64(tid) << 20
		keys := make([]uint64, 0, ops)
		for i := 0; i < ops; i++ {
			key := base + r.Uint64()%span
			if key >= keyCap {
				key = key % keyCap
			}
			v := make([]byte, 16+r.Intn(113))
			for j := range v {
				v[j] = byte(key) ^ byte(j) ^ byte(i)
			}
			if err := s.Insert(c, key, v); err != nil {
				return err
			}
			local[key] = v
			keys = append(keys, key)
		}
		for i, key := range keys {
			if i%4 == 0 {
				continue // survivor — keeps its frame sparsely occupied
			}
			if _, err := s.Delete(c, key); err != nil {
				return err
			}
			delete(local, key)
		}
		return nil
	}
	churn := func(c *sim.Ctx, tid, ops int, r *rand.Rand) error {
		local := models[tid]
		base := uint64(tid) << 20
		for i := 0; i < ops; i++ {
			key := base + r.Uint64()%span
			if key >= keyCap {
				key = key % keyCap
			}
			switch r.Intn(10) {
			case 0, 1, 2, 3, 4, 5:
				v := make([]byte, 16+r.Intn(113))
				for j := range v {
					v[j] = byte(key) ^ byte(j) ^ byte(i)
				}
				pending = &pendingOp{key: key, val: v}
				if err := s.Insert(c, key, v); err != nil {
					return err
				}
				local[key] = v
				pending = nil
			case 6, 7:
				pending = &pendingOp{key: key}
				if _, err := s.Delete(c, key); err != nil {
					return err
				}
				delete(local, key)
				pending = nil
			default:
				s.Get(c, key)
			}
		}
		return nil
	}
	for t := 0; t < setting.Threads; t++ {
		if err := build(ctx, t, rep.Ops, rand.New(rand.NewSource(rep.Seed+int64(t)+1))); err != nil {
			return res, err
		}
	}
	dev.FlushAll(ctx)

	var obs *obsv.Obs
	if opts.Obs != nil {
		if obs = opts.Obs(setting, rep.Seed); obs != nil {
			obs.Tracer.Name(ctx, "driver")
			dev.SetObs(obs)
		}
	}
	opt := core.DefaultOptions()
	opt.Scheme = setting.Scheme
	opt.TriggerRatio = 1.01
	opt.TargetRatio = 1.05
	opt.Obs = obs
	e := core.NewEngine(p, opt)

	// Main run, armed. Compaction steps interleave with tail churn so the
	// read barrier and mid-epoch application transactions are inside the
	// schedulable window, then the epoch terminates.
	tailRngs := make([]*rand.Rand, setting.Threads)
	for t := range tailRngs {
		tailRngs[t] = rand.New(rand.NewSource(rep.Seed ^ 0x5a5a + int64(t)))
	}
	tailLeft := make([]int, setting.Threads)
	for t := range tailLeft {
		tailLeft[t] = rep.TailOps
	}
	var churnErr error
	dev.ArmSites(rep.Site)
	res.Crash = catchCrash(func() {
		if !e.BeginCycle(ctx) {
			return
		}
		res.Began = true
		for {
			moved := e.StepCompaction(ctx, 7)
			tailDone := true
			for t := 0; t < setting.Threads; t++ {
				n := tailLeft[t]
				if n > 5 {
					n = 5
				}
				if n > 0 {
					tailLeft[t] -= n
					if churnErr = churn(ctx, t, n, tailRngs[t]); churnErr != nil {
						return
					}
				}
				if tailLeft[t] > 0 {
					tailDone = false
				}
			}
			if moved == 0 && tailDone {
				break
			}
		}
		e.FinishCycle(ctx)
	})
	res.Census = dev.DisarmSites()
	if churnErr != nil {
		return res, churnErr
	}
	if res.Crash != nil && !res.Began {
		res.Began = true // crashed inside BeginCycle: the epoch was opening
	}

	model := make(map[uint64][]byte)
	for _, m := range models {
		for k, v := range m {
			model[k] = v
		}
	}

	if res.Crash == nil {
		// Completed (census pass, or the armed site was past the end).
		// Check consistency of the completed machine too — free coverage.
		e.Close()
		dev.FlushAll(ctx)
		res.FinalHash = dev.HashMedia()
		if err := checker.CheckStore(ctx, s, model); err != nil {
			return res, fmt.Errorf("census check 1 (%s): %w", setting, err)
		}
		if _, err := checker.CheckGraph(ctx, p); err != nil {
			return res, fmt.Errorf("census check 2 (%s): %w", setting, err)
		}
		return res, nil
	}

	// Power failure at the scheduled site. The panic unwound the driver; the
	// pre-crash engine, pool and contexts are abandoned wholesale (their
	// volatile state is what the crash destroys).
	dev.SetCrashPolicy(policy)
	dev.Crash()
	res.PostCrashHash = dev.HashMedia()

	// First recovery, armed for the nested schedule.
	rt2, err := pmop.Attach(&cfg, rt.Device())
	if err != nil {
		return res, err
	}
	reg2 := pmop.NewRegistry()
	ds.RegisterTypes(reg2)
	p2, err := rt2.Open("fi", reg2)
	if err != nil {
		return res, err
	}
	var e2 *core.Engine
	var recErr error
	dev.ArmSites(rep.Nested)
	res.NestedCrash = catchCrash(func() {
		e2, recErr = core.Recover(ctx, p2, opt)
	})
	res.RecoveryCensus = dev.DisarmSites()
	if recErr != nil {
		return res, fmt.Errorf("recovery failed (%s): %w", setting, recErr)
	}

	if res.NestedCrash != nil {
		// Second power failure, inside recovery. Crash again and run the
		// final, unscheduled recovery — double-recovery idempotence.
		dev.SetCrashPolicy(policy)
		dev.Crash()
		rt3, err := pmop.Attach(&cfg, rt.Device())
		if err != nil {
			return res, err
		}
		reg3 := pmop.NewRegistry()
		ds.RegisterTypes(reg3)
		p3, err := rt3.Open("fi", reg3)
		if err != nil {
			return res, err
		}
		e3, err := core.Recover(ctx, p3, opt)
		if err != nil {
			return res, fmt.Errorf("second recovery failed (%s): %w", setting, err)
		}
		p2, e2 = p3, e3
	}
	defer e2.Close()

	if opts.AfterRecovery != nil {
		opts.AfterRecovery(ctx, p2)
	}

	// Two-step checker, tolerant of the one churn op whose transaction was
	// in flight at the crash: tx atomicity means post-crash state reflects
	// it fully or not at all, so either model must verify.
	s2, err := buildStore(ctx, p2, setting.Store)
	if err != nil {
		return res, err
	}
	if err := checker.CheckStore(ctx, s2, model); err != nil {
		ok := false
		if pending != nil {
			alt := make(map[uint64][]byte, len(model))
			for k, v := range model {
				alt[k] = v
			}
			if pending.val != nil {
				alt[pending.key] = pending.val
			} else {
				delete(alt, pending.key)
			}
			ok = checker.CheckStore(ctx, s2, alt) == nil
		}
		if !ok {
			return res, fmt.Errorf("checker step 1 (%s): %w", setting, err)
		}
	}
	if _, err := checker.CheckGraph(ctx, p2); err != nil {
		return res, fmt.Errorf("checker step 2 (%s): %w", setting, err)
	}
	dev.FlushAll(ctx)
	res.FinalHash = dev.HashMedia()
	return res, nil
}

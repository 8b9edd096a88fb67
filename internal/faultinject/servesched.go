package faultinject

// Deterministic crash schedules for the serving path (redisws.Serve). A
// serving trial is the online analogue of RunScheduled: the same machine runs
// under open-loop traffic, a site census enumerates every persistence-relevant
// event of the dispatch phase, and an armed replay fires a power failure at an
// exact site index — including a nested crash inside the recovery that
// follows. Unlike a batch trial, the run does not end at the crash: the
// dispatcher performs an online crash-recovery-resume (redisws.CrashPlan),
// the durable-ack checker validates every acknowledged write against the
// recovered store, and serving continues with retry/backoff until the
// schedule's op budget is spent. The whole trial — census, crash, recovery,
// resumed tail, final media hash — is a pure function of the ServeRepro line.

import (
	"bytes"
	"encoding/json"
	"fmt"

	"ffccd/internal/alloc"
	"ffccd/internal/checker"
	"ffccd/internal/core"
	"ffccd/internal/ds"
	"ffccd/internal/kv"
	"ffccd/internal/mesh"
	"ffccd/internal/obsv"
	"ffccd/internal/pmem"
	"ffccd/internal/pmop"
	"ffccd/internal/redisws"
	"ffccd/internal/sim"
)

// ServeSchemes are the serving-path defragmentation schemes a schedule can
// name — the four machines of the §7.4 comparison.
var ServeSchemes = []string{"none", "ffccd", "stw", "mesh"}

// Default serving-trial volumes. Small enough for a stratified campaign in CI,
// large enough that the value-size drift at Ops/2 fragments the store and the
// schemes actually defragment inside the schedulable window.
const (
	DefaultServeClients = 8
	DefaultServeOps     = 4000
	DefaultServeKeys    = 800
)

// ServeRepro is one deterministic serving crash schedule — the replayable
// artifact a failing serving campaign emits. All fields marshal explicitly so
// a shrunk zero survives the JSON round trip.
type ServeRepro struct {
	Scheme  string `json:"scheme"`
	Clients int    `json:"clients"`
	Ops     int    `json:"ops"`
	Keys    int    `json:"keys"`
	Seed    int64  `json:"seed"`
	Site    int64  `json:"site"`   // crash-site index; -1 = census (no crash)
	Nested  int64  `json:"nested"` // recovery crash-site index; -1 = none
	Policy  string `json:"policy"`
	Salt    uint64 `json:"salt"`

	// Shards is the sharded-deployment machine count (1 = the unsharded
	// trial; pre-sharding repro lines parse as Shards=1). Shard names the
	// machine the crash schedule targets — Site indexes that shard's own
	// site census, so a one-line repro stays deterministic under sharding.
	Shards int `json:"shards"`
	Shard  int `json:"shard"`
}

// NewServeRepro returns a census-pass schedule for one scheme with default
// volumes.
func NewServeRepro(scheme string, seed int64) ServeRepro {
	return ServeRepro{
		Scheme: scheme, Seed: seed,
		Clients: DefaultServeClients, Ops: DefaultServeOps, Keys: DefaultServeKeys,
		Site: -1, Nested: -1, Policy: PolicyDrop, Shards: 1,
	}
}

func validServeScheme(s string) bool {
	for _, k := range ServeSchemes {
		if k == s {
			return true
		}
	}
	return false
}

// MarshalLine renders the schedule as its canonical one-line JSON.
func (r ServeRepro) MarshalLine() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // plain struct of scalars; cannot happen
	}
	return string(b)
}

// ParseServeRepro parses MarshalLine output (unknown fields rejected so typos
// in hand-edited repro lines fail loudly).
func ParseServeRepro(line string) (ServeRepro, error) {
	r := ServeRepro{Site: -1, Nested: -1, Shards: 1}
	dec := json.NewDecoder(bytes.NewReader([]byte(line)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return r, fmt.Errorf("faultinject: bad serve repro line: %w", err)
	}
	if !validServeScheme(r.Scheme) {
		return r, fmt.Errorf("faultinject: unknown serving scheme %q", r.Scheme)
	}
	if r.Shards < 1 {
		r.Shards = 1
	}
	if r.Shard < 0 || r.Shard >= r.Shards {
		return r, fmt.Errorf("faultinject: shard %d out of range for %d shards", r.Shard, r.Shards)
	}
	if _, err := PolicyFor(r.Policy, r.Salt); err != nil {
		return r, err
	}
	return r, nil
}

// Command renders the one-line shell command that replays this schedule.
func (r ServeRepro) Command() string {
	return fmt.Sprintf("ffccd-crashtest -serve -repro '%s'", r.MarshalLine())
}

// ServeTrialOptions carries per-campaign hooks for serving trials.
type ServeTrialOptions struct {
	// AfterRecovery, when non-nil, runs inside the blackout — after the store
	// reopens, before the durable-ack checker. Tests use it to plant ack-loss
	// bugs (proving the checker catches them) or to stall (proving the
	// watchdog).
	AfterRecovery func(ctx *sim.Ctx, p *pmop.Pool, s ds.Store)
	// Series, when non-nil, supplies a fresh time series per trial (the run's
	// recovery/backoff overlay intervals land in it). Unsharded trials only.
	Series func(rep ServeRepro) *obsv.TimeSeries
	// ShardSeries, when non-nil, supplies one time series per shard of a
	// sharded trial (shard in [0, rep.Shards)).
	ShardSeries func(rep ServeRepro, shard int) *obsv.TimeSeries
	// AdmitCap overrides the degraded-mode admission-queue bound
	// (0 = redisws default, Clients/4+1).
	AdmitCap int
}

// ServeScheduleResult reports what one serving trial did.
type ServeScheduleResult struct {
	// Census counts the dispatch-phase sites — complete when no crash fired,
	// up to the crash otherwise.
	Census pmem.SiteCensus
	// Crash is the injected power failure (nil for a completed census run).
	Crash *pmem.CrashAtSite
	// RecoveryCensus counts the sites of the first post-crash recovery;
	// NestedCrash is the power failure injected inside it, if any.
	RecoveryCensus pmem.SiteCensus
	NestedCrash    *pmem.CrashAtSite
	// RecoveryStages records the core.Recover stage labels of the last
	// completed recovery, in order.
	RecoveryStages []string
	// PostCrashHash digests the media right after the (first) crash;
	// FinalHash digests it after the resumed run quiesces (for a sharded
	// trial, an order-fixed fold of the per-shard hashes). Equal hashes
	// across runs of the same ServeRepro are the bit-identity witness.
	PostCrashHash, FinalHash uint64
	// Serve is the completed serving run (availability metrics included);
	// for a sharded trial it is the deterministic merge and PerShard carries
	// the per-machine rows (nil when Shards <= 1).
	Serve    redisws.ServeResult
	PerShard []redisws.ServeResult
	// ShardCensus is the per-shard dispatch-phase site census of a sharded
	// census pass (index = shard id; nil when Shards <= 1 or Site >= 0).
	ShardCensus []pmem.SiteCensus
	// ShardHashes are the per-shard final media hashes FinalHash folds
	// (nil when Shards <= 1).
	ShardHashes []uint64
}

// serveCoreScheme maps a serving scheme name to the engine scheme recovery
// runs under ("none" and "mesh" have no engine; their recovery is the
// scheme-independent idle path).
func serveCoreScheme(scheme string) core.Scheme {
	switch scheme {
	case "ffccd":
		return core.SchemeFFCCDCheckLookup
	case "stw":
		return core.SchemeEspresso
	}
	return core.SchemeNone
}

// serveEngineOptions is the serving-grid engine configuration (mirrors
// experiments.Serving so scheduled trials crash the same machine the SLO grid
// measures).
func serveEngineOptions(scheme string) core.Options {
	return core.Options{
		Scheme:       serveCoreScheme(scheme),
		TriggerRatio: 1.10,
		TargetRatio:  1.01,
		BatchObjects: 64,
	}
}

// wireServeHooks builds the serving hooks for one scheme over an existing
// machine — at trial start over a fresh engine, after a crash over the
// recovered one. The gcCtx carries across the crash (pause accounting is
// delta-based).
func wireServeHooks(scheme string, p *pmop.Pool, eng *core.Engine, d *mesh.Defragmenter, gcCtx *sim.Ctx) redisws.ServeHooks {
	var hooks redisws.ServeHooks
	switch scheme {
	case "ffccd":
		open := false
		hooks.Maintenance = func(uint64) uint64 {
			if open || p.Heap().Frag(12).FragRatio <= 1.10 {
				return 0
			}
			before := gcCtx.Clock.Cycles(sim.CatMark) + gcCtx.Clock.Cycles(sim.CatSummary)
			if !eng.BeginCycle(gcCtx) {
				return 0
			}
			open = true
			return gcCtx.Clock.Cycles(sim.CatMark) + gcCtx.Clock.Cycles(sim.CatSummary) - before
		}
		hooks.EpochOpen = func() bool { return open }
		hooks.EpochInfo = eng.OpenEpoch
		hooks.Step = func(n int) (bool, uint64) {
			eng.StepCompaction(gcCtx, n)
			if eng.EpochPending() > 0 {
				return true, 0
			}
			t0 := gcCtx.Clock.Total()
			eng.FinishCycle(gcCtx)
			open = false
			return false, gcCtx.Clock.Total() - t0
		}
	case "stw":
		hooks.Maintenance = func(uint64) uint64 {
			if p.Heap().Frag(12).FragRatio <= 1.10 {
				return 0
			}
			pause, _ := eng.RunCycleSTW(gcCtx)
			return pause
		}
	case "mesh":
		hooks.Maintenance = func(uint64) uint64 {
			before := gcCtx.Clock.Total()
			d.RunCycle(gcCtx)
			return gcCtx.Clock.Total() - before
		}
		hooks.Foot = func() alloc.FragStats { return d.PhysFrag(12) }
	}
	return hooks
}

// serveConfigFor builds the serving workload for a schedule: the Figure 16
// fragmentation regime (LRU churn near the cap, value-size drift at Ops/2)
// scaled down to trial volumes.
func serveConfigFor(rep ServeRepro) redisws.ServeConfig {
	cfg := redisws.DefaultServeConfig()
	cfg.Clients = rep.Clients
	cfg.Ops = rep.Ops
	cfg.Keyspace = rep.Keys
	cfg.Seed = rep.Seed
	cfg.MinVal, cfg.MaxVal = 240, 366
	cfg.MinVal2, cfg.MaxVal2 = 367, 492
	cfg.MaxLiveBytes = uint64(rep.Keys) * 300 / 2
	cfg.MaintEvery = rep.Keys / 8
	if cfg.MaintEvery < 1 {
		cfg.MaintEvery = 1
	}
	return cfg
}

// serveMachine is one independent simulated machine of a serving trial: its
// runtime, pool, loader context, store, GC clock domain, scheme engine, and
// hooks. curPool/curEng track the incarnation a crash recovery swapped in.
type serveMachine struct {
	rt    *pmop.Runtime
	pool  *pmop.Pool
	dev   *pmem.Device
	ctx   *sim.Ctx
	store ds.Store
	gcCtx *sim.Ctx
	eng   *core.Engine
	d     *mesh.Defragmenter
	hooks redisws.ServeHooks

	curPool *pmop.Pool
	curEng  *core.Engine
}

// buildServeMachine constructs one trial machine for scheme, sized for keys
// owned keys (the whole keyspace unsharded, the hash-owned subset per shard).
func buildServeMachine(cfg *sim.Config, scheme string, keys int) (*serveMachine, error) {
	poolBytes := uint64(keys)*512*6 + (16 << 20)
	rt := pmop.NewRuntime(cfg, poolBytes*2)
	reg := pmop.NewRegistry()
	ds.RegisterTypes(reg)
	kv.RegisterTypes(reg)
	p, err := rt.Create("serve", poolBytes, 12, reg)
	if err != nil {
		return nil, err
	}
	ctx := sim.NewCtx(cfg)
	s, err := kv.NewEcho(ctx, p, keys/2+64)
	if err != nil {
		return nil, err
	}
	m := &serveMachine{
		rt: rt, pool: p, dev: p.Device(), ctx: ctx, store: s,
		gcCtx: sim.NewCtx(cfg), curPool: p,
	}
	if sc := serveCoreScheme(scheme); sc != core.SchemeNone {
		m.eng = core.NewEngine(p, serveEngineOptions(scheme))
		m.curEng = m.eng
	}
	if scheme == "mesh" {
		m.d = mesh.New(p)
	}
	m.hooks = wireServeHooks(scheme, p, m.eng, m.d, m.gcCtx)
	return m, nil
}

// RunServeScheduled executes one deterministic serving crash trial. The
// returned error is the trial verdict (nil = consistent; recovery failures and
// durable-ack violations are verdicts). The ServeScheduleResult is populated
// as far as the trial got even on failure.
//
// With rep.Shards > 1 the trial runs one machine per shard: the crash plan
// arms only shard rep.Shard — its power failure blacks out that shard while
// the siblings keep serving — and the per-shard results merge
// deterministically. A sharded census pass (Site = -1) census-arms every
// shard, so one run yields each shard's own site census (ShardCensus).
func RunServeScheduled(rep ServeRepro, opts ServeTrialOptions) (ServeScheduleResult, error) {
	var res ServeScheduleResult
	if !validServeScheme(rep.Scheme) {
		return res, fmt.Errorf("faultinject: unknown serving scheme %q", rep.Scheme)
	}
	if rep.Clients <= 0 {
		rep.Clients = DefaultServeClients
	}
	if rep.Ops <= 0 {
		rep.Ops = DefaultServeOps
	}
	if rep.Keys <= 0 {
		rep.Keys = DefaultServeKeys
	}
	if rep.Shards < 1 {
		rep.Shards = 1
	}
	if rep.Shard < 0 || rep.Shard >= rep.Shards {
		return res, fmt.Errorf("faultinject: shard %d out of range for %d shards", rep.Shard, rep.Shards)
	}
	policy, err := PolicyFor(rep.Policy, rep.Salt)
	if err != nil {
		return res, err
	}

	cfg := sim.DefaultConfig()
	cfg.CacheBytes = 256 * 1024
	nsh := rep.Shards
	machines := make([]*serveMachine, nsh)
	shardKeys := make([]int, nsh)
	for i := 0; i < nsh; i++ {
		keys := rep.Keys
		if nsh > 1 {
			keys = len(redisws.OwnedKeys(uint64(rep.Keys), i, nsh))
		}
		shardKeys[i] = keys
		if machines[i], err = buildServeMachine(&cfg, rep.Scheme, keys); err != nil {
			return res, err
		}
	}
	target := machines[rep.Shard]
	if nsh == 1 {
		if opts.Series != nil {
			target.hooks.Series = opts.Series(rep)
		}
	} else if opts.ShardSeries != nil {
		for i := range machines {
			machines[i].hooks.Series = opts.ShardSeries(rep, i)
		}
	}

	// The crash plan arms only the target shard; siblings never lose power.
	// The pre-crash engine is abandoned wholesale at a crash, like the batch
	// driver: its volatile state is exactly what the power failure destroys.
	dev := target.dev
	gcCtx := target.gcCtx
	targetKeys := shardKeys[rep.Shard]
	crashed := false

	target.hooks.Crash = &redisws.CrashPlan{
		AdmitCap: opts.AdmitCap,
		Arm:      func() { dev.ArmSites(rep.Site) },
		Recover: func(crash *pmem.CrashAtSite, acked map[uint64][]byte, pending *redisws.PendingWrite) (*redisws.Recovered, error) {
			crashed = true
			res.Crash = crash
			res.Census = dev.DisarmSites()
			dev.SetCrashPolicy(policy)
			dev.Crash()
			res.PostCrashHash = dev.HashMedia()

			// Restart: attach, open, recover. recCtx bills the blackout — the
			// cycles the server is gone.
			recCtx := sim.NewCtx(&cfg)
			attach := func() (*pmop.Pool, error) {
				rt2, err := pmop.Attach(&cfg, target.rt.Device())
				if err != nil {
					return nil, err
				}
				reg2 := pmop.NewRegistry()
				ds.RegisterTypes(reg2)
				kv.RegisterTypes(reg2)
				return rt2.Open("serve", reg2)
			}
			ropt := serveEngineOptions(rep.Scheme)
			ropt.RecoveryProgress = func(stage string) {
				res.RecoveryStages = append(res.RecoveryStages, stage)
			}
			p2, err := attach()
			if err != nil {
				return nil, err
			}
			// Mesh's remap table must be installed before reference marking
			// reads the heap (see mesh.Recover).
			var d2 *mesh.Defragmenter
			if rep.Scheme == "mesh" {
				if d2, err = mesh.Recover(recCtx, p2); err != nil {
					return nil, fmt.Errorf("mesh recovery (%s): %w", rep.Scheme, err)
				}
			}
			var e2 *core.Engine
			var recErr error
			dev.ArmSites(rep.Nested)
			res.NestedCrash = catchCrash(func() {
				res.RecoveryStages = res.RecoveryStages[:0]
				e2, recErr = core.Recover(recCtx, p2, ropt)
			})
			res.RecoveryCensus = dev.DisarmSites()
			if recErr != nil {
				return nil, fmt.Errorf("recovery failed (%s): %w", rep.Scheme, recErr)
			}
			if res.NestedCrash != nil {
				// Second power failure, inside recovery. Crash again and run
				// the final, unscheduled recovery — double-recovery
				// idempotence on the serving path.
				dev.SetCrashPolicy(policy)
				dev.Crash()
				if p2, err = attach(); err != nil {
					return nil, err
				}
				if rep.Scheme == "mesh" {
					if d2, err = mesh.Recover(recCtx, p2); err != nil {
						return nil, fmt.Errorf("second mesh recovery (%s): %w", rep.Scheme, err)
					}
				}
				res.RecoveryStages = res.RecoveryStages[:0]
				if e2, err = core.Recover(recCtx, p2, ropt); err != nil {
					return nil, fmt.Errorf("second recovery failed (%s): %w", rep.Scheme, err)
				}
			}
			// After the allocator rebuild, re-pin meshed frames so later
			// cycles cannot re-mesh over resident neighbours.
			if d2 != nil {
				d2.RestoreFrameStates()
			}
			s2, err := kv.NewEcho(recCtx, p2, targetKeys/2+64)
			if err != nil {
				return nil, err
			}
			if opts.AfterRecovery != nil {
				opts.AfterRecovery(recCtx, p2, s2)
			}
			// Durable-ack and graph checks run on a non-billed context: the
			// blackout bill is the restart work, not the validation harness.
			chkCtx := sim.NewCtx(&cfg)
			var pw *checker.PendingWrite
			if pending != nil {
				pw = &checker.PendingWrite{Key: pending.Key, Val: pending.Val}
			}
			var model map[uint64][]byte
			if nsh > 1 {
				model, err = checker.DurableAcksShard(chkCtx, rep.Shard, s2, acked, pw)
			} else {
				model, err = checker.DurableAcks(chkCtx, s2, acked, pw)
			}
			if err != nil {
				return nil, fmt.Errorf("durable-ack check (%s): %w", rep.Scheme, err)
			}
			if _, err := checker.CheckGraph(chkCtx, p2); err != nil {
				return nil, fmt.Errorf("post-recovery graph check (%s): %w", rep.Scheme, err)
			}
			target.curPool, target.curEng = p2, e2
			return &redisws.Recovered{
				Store:  s2,
				Pool:   p2,
				Hooks:  wireServeHooks(rep.Scheme, p2, e2, d2, gcCtx),
				Cycles: recCtx.Clock.Total(),
				Model:  model,
			}, nil
		},
	}
	// A sharded census pass census-arms the sibling shards too, so a single
	// run yields every shard's site census. Arming charges no simulated
	// cycles, so sibling behaviour is bit-identical to an armed pass.
	if nsh > 1 && rep.Site < 0 {
		for i := range machines {
			if i == rep.Shard {
				continue
			}
			md := machines[i].dev
			machines[i].hooks.Crash = &redisws.CrashPlan{Arm: func() { md.ArmSites(-1) }}
		}
	}

	shards := make([]redisws.Shard, nsh)
	for i, m := range machines {
		shards[i] = redisws.Shard{Ctx: m.ctx, Pool: m.pool, Store: m.store, Hooks: m.hooks}
	}
	sharded, err := redisws.ServeSharded(shards, redisws.ShardConfigs(serveConfigFor(rep), nsh))
	// Every shard job has returned, so this goroutine is the machines' only
	// user from here on: give their media arrays back on the way out. (Not
	// registered earlier — a panic leaving ServeSharded could leave sibling
	// shards running — and never by a watchdog that gave up on the trial.)
	defer func() {
		for _, m := range machines {
			m.dev.ReleaseMedia()
		}
	}()
	res.Serve = sharded.Merged
	if nsh > 1 {
		res.PerShard = sharded.Shards
	}
	if err != nil {
		return res, err
	}
	if !crashed {
		// Census pass, or the armed site was past the end of the run.
		res.Census = dev.DisarmSites()
	}
	if nsh > 1 && rep.Site < 0 {
		res.ShardCensus = make([]pmem.SiteCensus, nsh)
		for i, m := range machines {
			if i == rep.Shard {
				res.ShardCensus[i] = res.Census
			} else {
				res.ShardCensus[i] = m.dev.DisarmSites()
			}
		}
	}
	for _, m := range machines {
		if m.curEng != nil {
			m.curEng.Close()
		}
		m.dev.FlushAll(m.ctx)
	}
	if nsh == 1 {
		res.FinalHash = dev.HashMedia()
	} else {
		// Fold the per-shard hashes in shard order (FNV-1a over the shard
		// digests) — one bit-identity witness for the whole deployment.
		res.ShardHashes = make([]uint64, nsh)
		h := uint64(1469598103934665603)
		for i, m := range machines {
			hs := m.dev.HashMedia()
			res.ShardHashes[i] = hs
			h ^= hs
			h *= 1099511628211
		}
		res.FinalHash = h
	}
	chkCtx := sim.NewCtx(&cfg)
	for i, m := range machines {
		if _, err := checker.CheckGraph(chkCtx, m.curPool); err != nil {
			if nsh > 1 {
				return res, fmt.Errorf("final graph check (%s, shard %d): %w", rep.Scheme, i, err)
			}
			return res, fmt.Errorf("final graph check (%s): %w", rep.Scheme, err)
		}
	}
	return res, nil
}

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
//
// Like a batch trial, a serving trial pays only for what follows its first
// schedulable site: a campaign builds and loads (redisws.Load: prepopulation,
// warm-up, calibration) each shard's machine once, and every trial forks the
// loaded machines and runs from there (redisws.Loaded.Run).

import (
	"fmt"
	"slices"

	"ffccd/internal/checker"
	"ffccd/internal/machine"
	"ffccd/internal/mesh"
	"ffccd/internal/pmem"
	"ffccd/internal/pmop"
	"ffccd/internal/redisws"
	"ffccd/internal/sim"
	"ffccd/internal/workpool"
)

// ServeSchemes are the serving-path defragmentation schemes a schedule can
// name — the four machines of the §7.4 comparison.
var ServeSchemes = redisws.Schemes

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
	CrashPoint

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
		CrashPoint: CrashPoint{Site: -1, Nested: -1, Policy: PolicyDrop}, Shards: 1,
	}
}

// normalized fills the defaults RunServeScheduled runs under, checks what no
// default can fix, and returns the keys each shard owns.
func (r ServeRepro) normalized() (ServeRepro, []int, error) {
	if !slices.Contains(ServeSchemes, r.Scheme) {
		return r, nil, fmt.Errorf("faultinject: unknown serving scheme %q", r.Scheme)
	}
	if r.Clients <= 0 {
		r.Clients = DefaultServeClients
	}
	if r.Ops <= 0 {
		r.Ops = DefaultServeOps
	}
	if r.Keys <= 0 {
		r.Keys = DefaultServeKeys
	}
	shardKeys, err := redisws.ShardKeys(r.Keys, r.Shards)
	if err != nil {
		return r, nil, err
	}
	if r.Shard < 0 || r.Shard >= r.Shards {
		return r, nil, fmt.Errorf("faultinject: shard %d out of range for %d shards", r.Shard, r.Shards)
	}
	return r, shardKeys, nil
}

// ParseServeRepro parses a serving repro line.
func ParseServeRepro(line string) (ServeRepro, error) {
	r := ServeRepro{CrashPoint: CrashPoint{Site: -1, Nested: -1}, Shards: 1}
	if err := parseLine(line, &r); err != nil {
		return r, err
	}
	if _, _, err := r.normalized(); err != nil {
		return r, err
	}
	if _, err := PolicyFor(r.Policy, r.Salt); err != nil {
		return r, err
	}
	return r, nil
}

func (r ServeRepro) MarshalLine() string { return marshalLine(r) }

func (r ServeRepro) Command() string {
	return fmt.Sprintf("ffccd-crashtest -serve -repro '%s'", r.MarshalLine())
}

func (r ServeRepro) At(shard int, cp CrashPoint) Schedule {
	r.Shard, r.CrashPoint = shard, cp
	return r
}

func (r ServeRepro) Run(opts TrialOptions) (Result, error) { return RunServeScheduled(r, opts) }

// A serving trial forks the loaded machines of its campaign.
func (r ServeRepro) runIn(c *campaign, opts TrialOptions) (Result, error) {
	return c.runServe(r, opts)
}

// Extra shards multiply the machine count, so they weigh heavily.
func (r ServeRepro) cost() int64 {
	return int64(r.Ops)*8 + int64(r.Keys)*2 + int64(r.Clients) + r.Site + max(r.Nested, 0) +
		int64(max(r.Shards-1, 0))*int64(r.Ops)
}

func (r ServeRepro) shrinks() []Schedule {
	var out []Schedule
	add := func(mut func(*ServeRepro)) {
		c := r
		mut(&c)
		c.Ops, c.Keys, c.Clients, c.Shards = max(c.Ops, 16), max(c.Keys, 64), max(c.Clients, 1), max(c.Shards, 1)
		c.Shard = min(c.Shard, c.Shards-1)
		// A deployment that cannot be built fails for a reason of its own.
		if _, _, err := c.normalized(); err == nil {
			out = append(out, c)
		}
	}
	add(func(r *ServeRepro) { r.Shards, r.Shard = 1, 0 })
	add(func(r *ServeRepro) { r.Shards /= 2 })
	add(func(r *ServeRepro) { r.Nested = -1 })
	add(func(r *ServeRepro) { r.Nested /= 2 })
	add(func(r *ServeRepro) { r.Ops /= 2 })
	add(func(r *ServeRepro) { r.Keys /= 2 })
	add(func(r *ServeRepro) { r.Clients /= 2 })
	add(func(r *ServeRepro) { r.Site /= 2 })
	add(func(r *ServeRepro) { r.Ops-- })
	add(func(r *ServeRepro) { r.Site-- })
	return out
}

// servePrefix is one shard of a serving trial's deployment up to its first
// schedulable site: the machine built, loaded and captured. The prefixes are
// a pure function of the serving line without its crash point and crash
// target, so a campaign builds them once and every trial forks them — the
// census pass, each first-level and each nested trial, and the census-armed
// siblings too, since arming charges nothing. Like a batch prefix, nothing
// writes a servePrefix once it is built.
type servePrefix struct {
	img    *machine.Image
	loaded *redisws.Loaded
}

// buildServePrefixes builds, loads and captures the machine of every shard of
// rep (normalized; shard i owns shardKeys[i] keys), and releases each
// machine as soon as it is captured.
func buildServePrefixes(rep ServeRepro, shardKeys []int) ([]*servePrefix, error) {
	cfgs := redisws.ShardConfigs(serveConfigFor(rep), rep.Shards)
	pres := make([]*servePrefix, len(cfgs))
	return pres, workpool.ForEach(len(cfgs), func(i int) error {
		m, err := redisws.NewMachine(trialSimConfig(), rep.Scheme, "serve", shardKeys[i], 16<<20)
		if err != nil {
			return err
		}
		defer m.Release()
		// Loaded under a crash plan, the prefix keeps the durable-ack mirror
		// a trial's crash-target shard needs; its siblings drop it.
		loaded, err := redisws.Load(m.Ctx, m.Pool, m.Store, cfgs[i], redisws.ServeHooks{Crash: &redisws.CrashPlan{}})
		if err != nil {
			return err
		}
		pres[i] = &servePrefix{img: m.Capture(), loaded: loaded}
		return nil
	})
}

// fork materializes the prefix as a serving machine of scheme of the caller's
// own, sharing the prefix's media pages until it writes them. The caller
// releases it like NewMachine's.
func (pre *servePrefix) fork(scheme string) (*redisws.Machine, error) {
	m, err := pre.img.Fork()
	if err != nil {
		return nil, err
	}
	return redisws.Equip(m, scheme), nil
}

// servePrefixOf returns the prefixes of rep's deployment (rep normalized).
func (c *campaign) servePrefixOf(rep ServeRepro, shardKeys []int) ([]*servePrefix, error) {
	key := rep
	key.CrashPoint, key.Shard = CrashPoint{}, 0
	return buildOnce(c, &c.serve, key, func() ([]*servePrefix, error) {
		return buildServePrefixes(rep, shardKeys)
	})
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
	cfg.MaintEvery = max(rep.Keys/8, 1)
	return cfg
}

// RunServeScheduled executes one deterministic serving crash trial, as a
// campaign of one. The returned error is the trial verdict (nil = consistent;
// recovery failures and durable-ack violations are verdicts). The Result is
// populated as far as the trial got even on failure.
//
// With rep.Shards > 1 the trial runs one machine per shard: the crash plan
// arms only shard rep.Shard — its power failure blacks out that shard while
// the siblings keep serving — and the per-shard results merge
// deterministically. A sharded census pass (Site = -1) census-arms every
// shard, so one run yields each shard's own site census (ShardCensus).
func RunServeScheduled(rep ServeRepro, opts TrialOptions) (Result, error) {
	return new(campaign).runServe(rep, opts)
}

// runServe runs rep on machines forked from the campaign's loaded prefixes.
func (c *campaign) runServe(rep ServeRepro, opts TrialOptions) (Result, error) {
	res := Result{Began: true}
	rep, shardKeys, err := rep.normalized()
	if err != nil {
		return res, err
	}
	policy, err := PolicyFor(rep.Policy, rep.Salt)
	if err != nil {
		return res, err
	}
	res.Shard = rep.Shard
	pres, err := c.servePrefixOf(rep, shardKeys)
	if err != nil {
		return res, err
	}

	nsh := rep.Shards
	machines := make([]*redisws.Machine, 0, nsh)
	loaded := make([]*redisws.Loaded, nsh)
	for i, pre := range pres {
		m, err := pre.fork(rep.Scheme)
		if err != nil {
			for _, m := range machines {
				m.Release()
			}
			return res, err
		}
		if opts.Series != nil {
			m.Hooks.Series = opts.Series(rep, i)
		}
		machines, loaded[i] = append(machines, m), pre.loaded
	}

	// The crash plan arms only the target shard; siblings never lose power.
	// The pre-crash engine is abandoned wholesale at a crash, like the batch
	// driver: its volatile state is exactly what the power failure destroys.
	target := machines[rep.Shard]
	dev := target.Device()
	crashed := false
	target.Hooks.Crash = &redisws.CrashPlan{
		Arm: func() { dev.ArmSites(rep.Site) },
		Recover: func(crash *pmem.CrashAtSite, acked map[uint64][]byte, pending *redisws.PendingWrite) (*redisws.Recovered, error) {
			crashed = true
			res.Crash = crash
			res.Census = dev.DisarmSites()

			// recCtx bills the blackout — the cycles the server is gone.
			recCtx := sim.NewCtx(&target.Cfg)
			var d2 *mesh.Defragmenter
			rs := restart{
				label: rep.Scheme, m: target.Machine, policy: policy, nested: rep.Nested,
				ctx: recCtx, opt: redisws.SchemeOptions(rep.Scheme),
			}
			if rep.Scheme == "mesh" {
				// Mesh's remap table must be installed before reference
				// marking reads the heap (see mesh.Recover).
				rs.prepare = func(p *pmop.Pool) (err error) {
					if d2, err = mesh.Recover(recCtx, p); err != nil {
						err = fmt.Errorf("mesh recovery (%s): %w", rep.Scheme, err)
					}
					return err
				}
			}
			if err := rs.run(&res); err != nil {
				return nil, err
			}
			p2, e2 := target.Pool, target.Eng
			// After the allocator rebuild, re-pin meshed frames so later
			// cycles cannot re-mesh over resident neighbours.
			if d2 != nil {
				d2.RestoreFrameStates()
			}
			s2, err := redisws.OpenStore(recCtx, p2, shardKeys[rep.Shard])
			if err != nil {
				return nil, err
			}
			if opts.AfterRecovery != nil {
				opts.AfterRecovery(recCtx, p2, s2)
			}
			// Durable-ack and graph checks run on a non-billed context: the
			// blackout bill is the restart work, not the validation harness.
			chkCtx := sim.NewCtx(&target.Cfg)
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
			return &redisws.Recovered{
				Store:  s2,
				Pool:   p2,
				Hooks:  redisws.SchemeHooks(rep.Scheme, p2, e2, d2, target.GC),
				Cycles: recCtx.Clock.Total(),
				Model:  model,
			}, nil
		},
	}
	// A sharded census pass census-arms the sibling shards too, so a single
	// run yields every shard's site census. Arming charges no simulated
	// cycles, so sibling behaviour is bit-identical to an armed pass.
	if nsh > 1 && rep.Site < 0 {
		for i, m := range machines {
			if md := m.Device(); i != rep.Shard {
				m.Hooks.Crash = &redisws.CrashPlan{Arm: func() { md.ArmSites(-1) }}
			}
		}
	}

	shards := make([]redisws.Shard, nsh)
	for i, m := range machines {
		shards[i] = m.Shard()
	}
	sharded, err := redisws.RunSharded(shards, loaded)
	// Every shard job has returned, so this goroutine is the machines' only
	// user from here on: give their pages and arrays back on the way out. (Not
	// registered earlier — a panic leaving ServeSharded could leave sibling
	// shards running — and never by a watchdog that gave up on the trial.)
	defer func() {
		for _, m := range machines {
			m.Release()
		}
	}()
	res.Serve = &sharded.Merged
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
				res.ShardCensus[i] = m.Device().DisarmSites()
			}
		}
	}
	// FinalHash of a sharded trial folds the per-shard hashes in shard order
	// (FNV-1a over the shard digests) — one bit-identity witness for the
	// whole deployment.
	fold := uint64(1469598103934665603)
	for _, m := range machines {
		if m.Eng != nil {
			m.Eng.Close()
		}
		m.Device().FlushAll(m.Ctx)
	}
	for _, m := range machines {
		h := m.Device().HashMedia()
		res.FinalHash = h
		if nsh > 1 {
			res.ShardHashes = append(res.ShardHashes, h)
			fold = (fold ^ h) * 1099511628211
			res.FinalHash = fold
		}
	}
	chkCtx := sim.NewCtx(&target.Cfg)
	for i, m := range machines {
		if _, err := checker.CheckGraph(chkCtx, m.Pool); err != nil {
			if nsh > 1 {
				return res, fmt.Errorf("final graph check (%s, shard %d): %w", rep.Scheme, i, err)
			}
			return res, fmt.Errorf("final graph check (%s): %w", rep.Scheme, err)
		}
	}
	return res, nil
}

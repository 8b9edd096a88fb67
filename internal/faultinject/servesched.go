package faultinject

// Deterministic crash schedules for the serving path (redisws.Serve). A
// serving trial is the online analogue of a batch one: the same machine runs
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
// loaded machines and their loaded state and runs from there
// (redisws.LoadedImage.Fork, redisws.Loaded.Run).

import (
	"fmt"
	"slices"

	"ffccd/internal/checker"
	"ffccd/internal/ds"
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

// normalized fills the defaults a serving trial runs under, checks what no
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
	if _, err := PolicyFor(r.Policy, r.Salt); err != nil {
		return r, nil, err
	}
	return r, shardKeys, nil
}

func (r ServeRepro) MarshalLine() string { return marshalLine(r) }

func (r ServeRepro) Command() string { return replayCommand(r) }

func (r ServeRepro) At(shard int, cp CrashPoint) Schedule {
	r.Shard, r.CrashPoint = shard, cp
	return r
}

// Run is Schedule.Run. With r.Shards > 1 the trial runs one machine per
// shard: the crash plan arms only shard r.Shard — its power failure blacks
// out that shard while the siblings keep serving — and the per-shard results
// merge deterministically. A sharded census pass (Site = -1) census-arms
// every shard, so one run yields each shard's own site census (ShardCensus).
func (r ServeRepro) Run(opts TrialOptions) (Result, error) { return runAlone(r, opts) }

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
// schedulable site: the machine built and loaded, then captured with its
// loaded serving state. The prefixes are a pure function of the serving line
// without its crash point and crash target, so a campaign builds them once
// and every trial forks them — the census pass, each first-level and each
// nested trial, and the census-armed siblings too, since arming charges
// nothing. Like a batch prefix, nothing writes a servePrefix once it is
// built, and the campaign releases both images with it.
type servePrefix struct {
	img    *machine.Image
	loaded *redisws.LoadedImage
}

// buildServePrefixes builds, loads and captures the machine of every shard of
// rep (normalized; shard i owns shardKeys[i] keys), and releases each
// machine and its loaded state as soon as they are captured.
func buildServePrefixes(rep ServeRepro, shardKeys []int) ([]*servePrefix, error) {
	cfgs := redisws.ShardConfigs(serveConfigFor(rep), rep.Shards)
	pres := make([]*servePrefix, len(cfgs))
	return pres, workpool.ForEach(len(cfgs), func(i int) error {
		m, loaded, err := loadServeMachine(rep.Scheme, shardKeys[i], cfgs[i])
		if err != nil {
			return err
		}
		defer m.Release()
		defer loaded.Release()
		pres[i] = &servePrefix{img: m.Capture(), loaded: loaded.Capture()}
		return nil
	})
}

// loadServeMachine builds the serving machine of scheme that owns keys keys
// and loads it under cfg: the machine and the loaded state a servePrefix
// captures. The caller runs or releases the loaded state and releases the
// machine like NewMachine's.
func loadServeMachine(scheme string, keys int, cfg redisws.ServeConfig) (*redisws.Machine, *redisws.Loaded, error) {
	m, err := redisws.NewMachine(trialSimConfig(), scheme, "serve", keys, 16<<20)
	if err != nil {
		return nil, nil, err
	}
	loaded, err := redisws.Load(m.Ctx, m.Pool, m.Store, cfg)
	if err != nil {
		m.Release()
		return nil, nil, err
	}
	return m, loaded, nil
}

// fork materializes the prefix as a serving machine of scheme of the caller's
// own, sharing the prefix's media pages until it writes them, and the loaded
// state a run continues from on it. The caller runs or releases the loaded
// state and releases the machine like NewMachine's.
func (pre *servePrefix) fork(scheme string) (*redisws.Machine, *redisws.Loaded, error) {
	m, err := pre.img.Fork()
	if err != nil {
		return nil, nil, err
	}
	return redisws.Equip(m, scheme), pre.loaded.Fork(&m.Cfg), nil
}

// servePrefixOf returns the prefixes of rep's deployment (rep normalized).
func (c *campaign) servePrefixOf(rep ServeRepro, shardKeys []int) ([]*servePrefix, error) {
	key := rep
	key.CrashPoint, key.Shard = CrashPoint{}, 0
	return buildOnce(c, &c.serve, key, func() ([]*servePrefix, error) {
		return buildServePrefixes(rep, shardKeys)
	})
}

// serveConfigFor builds the serving workload for a schedule: the §7.4
// regime (redisws.RegimeConfig) at the schedule's trial volumes.
func serveConfigFor(rep ServeRepro) redisws.ServeConfig {
	cfg := redisws.RegimeConfig(rep.Keys)
	cfg.Clients = rep.Clients
	cfg.Ops = rep.Ops
	cfg.Seed = rep.Seed
	return cfg
}

// runServe runs rep on machines forked from the campaign's loaded prefixes.
func (c *campaign) runServe(rep ServeRepro, opts TrialOptions) (Result, error) {
	rep, shardKeys, err := rep.normalized()
	if err != nil {
		return Result{Began: true}, err
	}
	pres, err := c.servePrefixOf(rep, shardKeys)
	if err != nil {
		return Result{Began: true, Shard: rep.Shard}, err
	}
	machines := make([]*redisws.Machine, len(pres))
	loaded := make([]*redisws.Loaded, len(pres))
	for i, pre := range pres {
		if machines[i], loaded[i], err = pre.fork(rep.Scheme); err != nil {
			for j := range machines[:i] {
				machines[j].Release()
				loaded[j].Release()
			}
			return Result{Began: true, Shard: rep.Shard}, err
		}
	}
	return runServeOn(rep, shardKeys, opts, machines, loaded)
}

// runServeOn runs rep (normalized; shard i owns shardKeys[i] keys) on
// machines, one per shard, each from loaded[i], and releases both.
func runServeOn(rep ServeRepro, shardKeys []int, opts TrialOptions, machines []*redisws.Machine, loaded []*redisws.Loaded) (Result, error) {
	res := Result{Began: true, Shard: rep.Shard}
	policy, _ := PolicyFor(rep.Policy, rep.Salt) // normalized has checked the name
	nsh := rep.Shards
	label := rep.Scheme
	if nsh > 1 {
		label = fmt.Sprintf("%s, shard %d", rep.Scheme, rep.Shard)
	}
	if opts.Series != nil {
		for i, m := range machines {
			m.Hooks.Series = opts.Series(rep, i)
		}
	}

	// The crash plan arms only the target shard; siblings never lose power.
	// The pre-crash engine is abandoned wholesale at a crash, like the batch
	// driver: its volatile state is exactly what the power failure destroys.
	// The restart's recovery context bills the blackout — the cycles the
	// server is gone.
	target := machines[rep.Shard]
	dev := target.Device()
	opt := redisws.SchemeOptions(rep.Scheme)
	if opts.Obs != nil {
		if opt.Obs = opts.Obs(Setting{Serve: rep.Scheme, Shards: rep.Shards}, rep.Seed); opt.Obs != nil {
			opt.Obs.Tracer.Name(target.GC, "gc")
			dev.SetObs(opt.Obs)
			if target.Eng != nil {
				target.Eng.SetObs(opt.Obs)
			}
		}
	}
	crashed := false
	target.Hooks.Crash = &redisws.CrashPlan{
		Arm: func() { dev.ArmSites(rep.Site) },
		Recover: func(crash *pmem.CrashAtSite, acked map[uint64][]byte, pending *redisws.PendingWrite) (*redisws.Recovered, error) {
			crashed = true
			res.Crash = crash
			res.Census = dev.DisarmSites()
			var d2 *mesh.Defragmenter
			rs := restart{label: label, m: target.Machine, policy: policy, nested: rep.Nested,
				opt: opt, after: opts.AfterRecovery, model: acked,
				open: func(ctx *sim.Ctx, p *pmop.Pool) (ds.Store, error) {
					// After the allocator rebuild, re-pin meshed frames so
					// later cycles cannot re-mesh over resident neighbours.
					if d2 != nil {
						d2.RestoreFrameStates()
					}
					return redisws.OpenStore(ctx, p, shardKeys[rep.Shard])
				}}
			if pending != nil {
				rs.pending = &checker.PendingWrite{Key: pending.Key, Val: pending.Val}
			}
			if rep.Scheme == "mesh" {
				// Mesh's remap table must be installed before reference
				// marking reads the heap (see mesh.Recover).
				rs.prepare = func(ctx *sim.Ctx, p *pmop.Pool) (err error) {
					if d2, err = mesh.Recover(ctx, p); err != nil {
						err = fmt.Errorf("mesh recovery (%s): %w", rep.Scheme, err)
					}
					return err
				}
			}
			model, cycles, err := rs.run(&res)
			if err != nil {
				return nil, err
			}
			return &redisws.Recovered{Store: target.Store, Pool: target.Pool, Cycles: cycles, Model: model,
				Hooks: redisws.SchemeHooks(rep.Scheme, target.Eng, d2, target.GC)}, nil
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
	// registered earlier — a panic leaving RunSharded could leave sibling
	// shards running — and never by a watchdog that gave up on the trial.)
	defer func() {
		for i, m := range machines {
			m.Release()
			loaded[i].Release()
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
	defer chkCtx.Release()
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

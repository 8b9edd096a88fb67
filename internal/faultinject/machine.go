package faultinject

// The batch trial machine, the prefix a campaign's scheduled trials fork their
// machines from, and the two things every crash driver does with a machine:
// churn it, and restart it after a power failure.

import (
	"fmt"
	"maps"
	"math/rand"

	"ffccd/internal/checker"
	"ffccd/internal/core"
	"ffccd/internal/ds"
	"ffccd/internal/machine"
	"ffccd/internal/pmem"
	"ffccd/internal/pmop"
	"ffccd/internal/sim"
)

// trial is the machine a batch trial runs on, with its setting: a 64 MB pool
// over a 256 KB cache holding one store of the setting.
type trial struct {
	*machine.Machine
	setting Setting
}

// trialSimConfig is the simulated configuration of every trial machine, batch
// and serving: the default one over a 256 KB cache. A serving trial thereby
// crashes the machine the SLO grid (experiments.Serving) measures, over a
// smaller pool and cache.
func trialSimConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.CacheBytes = 256 * 1024
	return cfg
}

// newTrial builds the machine for setting with an empty store. The caller
// releases it once it is done with it.
func newTrial(setting Setting) (*trial, error) {
	m, err := machine.Build(machine.Spec{Name: "fi", PoolBytes: 64 << 20, PageShift: 12, Sim: trialSimConfig()})
	if err != nil {
		return nil, err
	}
	if m.Store, err = buildStore(m.Ctx, m.Pool, setting.Store); err != nil {
		m.Release()
		return nil, err
	}
	return &trial{m, setting}, nil
}

// prefix is the part of a scheduled batch trial that lies before its first
// schedulable site: the machine with every thread's build churn done and
// flushed, quiescent. It is a pure function of (setting, seed, ops), so a
// campaign builds it once and every trial — the census pass, each first-level
// and each nested one — forks its own machine from it. Nothing writes a prefix
// once buildPrefix has returned: forks only read it, also the fork of a trial
// the watchdog gave up on, which may still be running.
type prefix struct {
	setting Setting
	ops     int

	img    *machine.Image
	models []map[uint64][]byte // the churner's, one per thread
}

// buildPrefix builds the machine, runs the build churn of every thread in
// thread order, flushes, and captures the result.
func buildPrefix(setting Setting, seed int64, ops int) (*prefix, error) {
	t, err := newTrial(setting)
	if err != nil {
		return nil, err
	}
	defer t.Release()
	churn := newChurner(t, uint64(4*ops))
	for th := 0; th < setting.Threads; th++ {
		if err := churn.build(t.Ctx, th, ops, rand.New(rand.NewSource(seed+int64(th)+1))); err != nil {
			return nil, err
		}
	}
	t.Device().FlushAll(t.Ctx)
	return &prefix{setting: setting, ops: ops, img: t.Capture(), models: churn.models}, nil
}

// fork materializes the prefix as a machine of the caller's own, sharing the
// prefix's media pages until it writes them, with the churner that goes on
// from the build. The caller releases the machine like newTrial's.
func (pre *prefix) fork() (*trial, *churner, error) {
	m, err := pre.img.Fork()
	if err != nil {
		return nil, nil, err
	}
	t := &trial{m, pre.setting}
	churn := newChurner(t, uint64(4*pre.ops))
	for th := range churn.models {
		churn.models[th] = maps.Clone(pre.models[th])
	}
	return t, churn, nil
}

// engineOptions is the configuration trials defragment and recover under:
// thresholds low enough that any fragmentation opens an epoch. opts.Obs, when
// set, supplies the trial's observability bundle, installed on the device too.
func (t *trial) engineOptions(opts TrialOptions, seed int64) core.Options {
	opt := core.DefaultOptions()
	opt.Scheme = t.setting.Scheme
	opt.TriggerRatio = 1.01
	opt.TargetRatio = 1.05
	if opts.Obs != nil {
		if opt.Obs = opts.Obs(t.setting, seed); opt.Obs != nil {
			opt.Obs.Tracer.Name(t.Ctx, "driver")
			t.Device().SetObs(opt.Obs)
		}
	}
	return opt
}

// pendingOp is a churn operation whose store transaction is in flight. The
// transaction is atomic, so the state after a crash reflects the operation
// either fully or not at all; the checker accepts both.
type pendingOp struct {
	live bool
	key  uint64
	val  []byte // nil = delete
}

// churner drives application traffic against a batch machine's store and
// keeps the model the checker compares the recovered store with. Each
// simulated thread owns a disjoint key range (tid<<20 + [0, span)) and its own
// model and in-flight slot; the driver interleaves the threads' ops.
type churner struct {
	store   ds.Store
	keyCap  uint64
	span    uint64
	models  []map[uint64][]byte
	pending []pendingOp
}

func newChurner(t *trial, span uint64) *churner {
	c := &churner{store: t.Store, keyCap: keyCapFor(t.setting.Store), span: span,
		models: make([]map[uint64][]byte, t.setting.Threads), pending: make([]pendingOp, t.setting.Threads)}
	for i := range c.models {
		c.models[i] = make(map[uint64][]byte)
	}
	return c
}

func (c *churner) key(tid int, r *rand.Rand) uint64 {
	key := uint64(tid)<<20 + r.Uint64()%c.span
	if key >= c.keyCap {
		key %= c.keyCap
	}
	return key
}

// insert stores a fresh 16..128-byte value, a function of key and i, at key.
func (c *churner) insert(ctx *sim.Ctx, tid int, key uint64, i int, r *rand.Rand) error {
	v := make([]byte, 16+r.Intn(113))
	for j := range v {
		v[j] = byte(key) ^ byte(j) ^ byte(i)
	}
	c.pending[tid] = pendingOp{live: true, key: key, val: v}
	if err := c.store.Insert(ctx, key, v); err != nil {
		return err
	}
	c.models[tid][key] = v
	c.pending[tid].live = false
	return nil
}

func (c *churner) remove(ctx *sim.Ctx, tid int, key uint64) error {
	c.pending[tid] = pendingOp{live: true, key: key}
	if _, err := c.store.Delete(ctx, key); err != nil {
		return err
	}
	delete(c.models[tid], key)
	c.pending[tid].live = false
	return nil
}

// churn runs ops operations of thread tid: 60% inserts, 20% deletes, 20%
// reads, over random keys of the thread's range.
func (c *churner) churn(ctx *sim.Ctx, tid, ops int, r *rand.Rand) error {
	for i := 0; i < ops; i++ {
		key := c.key(tid, r)
		var err error
		switch r.Intn(10) {
		case 0, 1, 2, 3, 4, 5:
			err = c.insert(ctx, tid, key, i, r)
		case 6, 7:
			err = c.remove(ctx, tid, key)
		default:
			c.store.Get(ctx, key)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// build fragments deliberately: thread tid inserts ops keys, then deletes
// three quarters of them in insertion order. That leaves many quarter-full
// frames, so BeginCycle's net-gain planner reliably opens an epoch (a dense
// store compacts to nothing and the whole schedule space would be vacuous).
func (c *churner) build(ctx *sim.Ctx, tid, ops int, r *rand.Rand) error {
	keys := make([]uint64, ops)
	for i := range keys {
		keys[i] = c.key(tid, r)
		if err := c.insert(ctx, tid, keys[i], i, r); err != nil {
			return err
		}
	}
	for i, key := range keys {
		if i%4 == 0 {
			continue // survivor — keeps its frame sparsely occupied
		}
		if err := c.remove(ctx, tid, key); err != nil {
			return err
		}
	}
	return nil
}

// model merges the per-thread models; inFlight is the one operation a crash
// interrupted, if any (the threads' ops run one at a time).
func (c *churner) model() (model map[uint64][]byte, inFlight *pendingOp) {
	model = make(map[uint64][]byte)
	for t, m := range c.models {
		for k, v := range m {
			model[k] = v
		}
		if c.pending[t].live {
			inFlight = &c.pending[t]
		}
	}
	return model, inFlight
}

// restart is the one power-failure-and-recovery sequence of every crash
// driver: recovery as an idempotent capsule. The machine's device loses power
// under policy, the machine is reopened and its pool recovered with the site
// recorder armed at nested, and if that fires a second power failure inside
// recovery, the machine is reopened again and an unscheduled recovery must
// finish the job.
type restart struct {
	label  string // names the machine in errors
	m      *machine.Machine
	policy pmem.CrashPolicy
	nested int64    // recovery crash-site index; < 0 only counts the sites
	ctx    *sim.Ctx // bills the recoveries
	opt    core.Options
	// prepare, when non-nil, runs on each reopened pool before core.Recover
	// and outside the nested schedule's site census.
	prepare func(*pmop.Pool) error
}

// run performs the sequence, leaving the recovered pool and engine in the
// machine, and records the post-crash hash, the recovery census, the nested
// crash and the last recovery's stages and cycles in res.
func (r *restart) run(res *Result) error {
	r.opt.RecoveryProgress = func(stage string) { res.RecoveryStages = append(res.RecoveryStages, stage) }
	m, dev := r.m, r.m.Device()
	powerFail := func() {
		dev.SetCrashPolicy(r.policy)
		dev.Crash()
	}
	reopen := func() (err error) {
		if err = m.Reopen(); err == nil && r.prepare != nil {
			err = r.prepare(m.Pool)
		}
		res.RecoveryStages = res.RecoveryStages[:0]
		return err
	}
	powerFail()
	res.PostCrashHash = dev.HashMedia()
	if err := reopen(); err != nil {
		return err
	}
	var err error
	dev.ArmSites(r.nested)
	res.NestedCrash = pmem.CatchCrash(func() { m.Eng, err = core.Recover(r.ctx, m.Pool, r.opt) })
	res.RecoveryCensus = dev.DisarmSites()
	if err != nil {
		return fmt.Errorf("recovery failed (%s): %w", r.label, err)
	}
	if res.NestedCrash != nil {
		powerFail()
		if err := reopen(); err != nil {
			return err
		}
		if m.Eng, err = core.Recover(r.ctx, m.Pool, r.opt); err != nil {
			return fmt.Errorf("second recovery failed (%s): %w", r.label, err)
		}
	}
	res.RecoveryCycles = m.Eng.RecoveryCost().Total()
	return nil
}

// restartAndCheck power-fails the machine, restarts it, reopens the store and
// runs the two-step checker: program data against the churner's model — or,
// when a churn transaction was in flight at the crash, against the model with
// that operation applied — then defragmentation metadata against the memory
// state. It fills res (FinalHash included, once both checks pass).
func (t *trial) restartAndCheck(res *Result, policy pmem.CrashPolicy, nested int64, opt core.Options, opts TrialOptions, c *churner) error {
	err := (&restart{label: t.setting.String(), m: t.Machine, policy: policy, nested: nested, ctx: t.Ctx, opt: opt}).run(res)
	if err != nil {
		return err
	}
	defer t.Eng.Close()
	if t.Store, err = buildStore(t.Ctx, t.Pool, t.setting.Store); err != nil {
		return err
	}
	if opts.AfterRecovery != nil {
		opts.AfterRecovery(t.Ctx, t.Pool, t.Store)
	}
	model, inFlight := c.model()
	if err := checker.CheckStore(t.Ctx, t.Store, model); err != nil {
		if inFlight == nil {
			return fmt.Errorf("checker step 1 (%s): %w", t.setting, err)
		}
		if inFlight.val != nil {
			model[inFlight.key] = inFlight.val
		} else {
			delete(model, inFlight.key)
		}
		if checker.CheckStore(t.Ctx, t.Store, model) != nil {
			return fmt.Errorf("checker step 1 (%s): %w", t.setting, err)
		}
	}
	if _, err := checker.CheckGraph(t.Ctx, t.Pool); err != nil {
		return fmt.Errorf("checker step 2 (%s): %w", t.setting, err)
	}
	t.Device().FlushAll(t.Ctx)
	res.FinalHash = t.Device().HashMedia()
	return nil
}

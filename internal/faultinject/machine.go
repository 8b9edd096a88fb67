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
	"ffccd/internal/pmem"
	"ffccd/internal/pmop"
	"ffccd/internal/sim"
)

// machine is the simulated machine of one batch trial: a 64 MB pool over a
// 256 KB cache holding one store of the setting.
type machine struct {
	setting Setting
	cfg     sim.Config
	pool    *pmop.Pool
	dev     *pmem.Device
	ctx     *sim.Ctx // the driver's context
	store   ds.Store
}

func batchRegistry() *pmop.Registry {
	reg := pmop.NewRegistry()
	ds.RegisterTypes(reg)
	return reg
}

// batchDevBytes is the batch machine's device size; its one pool takes half.
const batchDevBytes = 128 << 20

// blankMachine returns a machine with its configuration and nothing else.
func blankMachine(setting Setting) *machine {
	m := &machine{setting: setting, cfg: sim.DefaultConfig()}
	m.cfg.CacheBytes = 256 * 1024
	return m
}

// newMachine builds the machine for setting with an empty store. The caller
// owns the media: it calls dev.ReleaseMedia once it is done with the machine.
func newMachine(setting Setting) (*machine, error) {
	m := blankMachine(setting)
	var err error
	if m.pool, err = pmop.NewRuntime(&m.cfg, batchDevBytes).Create("fi", batchDevBytes/2, 12, batchRegistry()); err != nil {
		return nil, err
	}
	m.dev = m.pool.Device()
	m.ctx = sim.NewCtx(&m.cfg)
	if m.store, err = buildStore(m.ctx, m.pool, setting.Store); err != nil {
		m.dev.ReleaseMedia()
		return nil, err
	}
	return m, nil
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

	img    pmop.Image
	ctx    sim.CtxCheckpoint
	store  ds.Store            // forks clone its volatile handles
	models []map[uint64][]byte // the churner's, one per thread
}

// buildPrefix builds the machine, runs the build churn of every thread in
// thread order, flushes, and captures the result.
func buildPrefix(setting Setting, seed int64, ops int) (*prefix, error) {
	m, err := newMachine(setting)
	if err != nil {
		return nil, err
	}
	defer m.dev.ReleaseMedia()
	churn := newChurner(m, uint64(4*ops))
	for t := 0; t < setting.Threads; t++ {
		if err := churn.build(m.ctx, t, ops, rand.New(rand.NewSource(seed+int64(t)+1))); err != nil {
			return nil, err
		}
	}
	m.dev.FlushAll(m.ctx)
	pre := &prefix{setting: setting, ops: ops, store: m.store, models: churn.models}
	m.pool.CaptureInto(&pre.img)
	m.ctx.CheckpointInto(&pre.ctx)
	return pre, nil
}

// fork materializes the prefix as a machine of the caller's own, in recycled
// media, with the churner that goes on from the build. The caller releases the
// media like newMachine's.
func (pre *prefix) fork() (*machine, *churner, error) {
	m := blankMachine(pre.setting)
	var err error
	if _, m.pool, err = pre.img.Fork(&m.cfg, "fi", batchRegistry()); err != nil {
		return nil, nil, err
	}
	m.dev = m.pool.Device()
	m.ctx = sim.NewCtx(&m.cfg)
	m.ctx.Restore(&pre.ctx)
	m.store = pre.store.(ds.Forker).Fork(m.pool)
	churn := newChurner(m, uint64(4*pre.ops))
	for t := range churn.models {
		churn.models[t] = maps.Clone(pre.models[t])
	}
	return m, churn, nil
}

// engineOptions is the configuration trials defragment and recover under:
// thresholds low enough that any fragmentation opens an epoch. opts.Obs, when
// set, supplies the trial's observability bundle, installed on the device too.
func (m *machine) engineOptions(opts TrialOptions, seed int64) core.Options {
	opt := core.DefaultOptions()
	opt.Scheme = m.setting.Scheme
	opt.TriggerRatio = 1.01
	opt.TargetRatio = 1.05
	if opts.Obs != nil {
		if opt.Obs = opts.Obs(m.setting, seed); opt.Obs != nil {
			opt.Obs.Tracer.Name(m.ctx, "driver")
			m.dev.SetObs(opt.Obs)
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

func newChurner(m *machine, span uint64) *churner {
	c := &churner{store: m.store, keyCap: keyCapFor(m.setting.Store), span: span,
		models: make([]map[uint64][]byte, m.setting.Threads), pending: make([]pendingOp, m.setting.Threads)}
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
// driver: recovery as an idempotent capsule. The device loses power under
// policy, the pool is reopened and recovered with the site recorder armed at
// nested, and if that fires a second power failure inside recovery, the pool
// is reopened again and an unscheduled recovery must finish the job.
type restart struct {
	label  string // names the machine in errors
	dev    *pmem.Device
	policy pmem.CrashPolicy
	nested int64    // recovery crash-site index; < 0 only counts the sites
	ctx    *sim.Ctx // bills the recoveries
	opt    core.Options
	open   func() (*pmop.Pool, error)
	// prepare, when non-nil, runs on each reopened pool before core.Recover
	// and outside the nested schedule's site census.
	prepare func(*pmop.Pool) error
}

// run performs the sequence and returns the recovered pool and engine,
// recording the post-crash hash, the recovery census, the nested crash and
// the last recovery's stages and cycles in res.
func (r *restart) run(res *Result) (*pmop.Pool, *core.Engine, error) {
	r.opt.RecoveryProgress = func(stage string) { res.RecoveryStages = append(res.RecoveryStages, stage) }
	var p *pmop.Pool
	var e *core.Engine
	powerFail := func() {
		r.dev.SetCrashPolicy(r.policy)
		r.dev.Crash()
	}
	reopen := func() (err error) {
		if p, err = r.open(); err == nil && r.prepare != nil {
			err = r.prepare(p)
		}
		res.RecoveryStages = res.RecoveryStages[:0]
		return err
	}
	powerFail()
	res.PostCrashHash = r.dev.HashMedia()
	if err := reopen(); err != nil {
		return nil, nil, err
	}
	var err error
	r.dev.ArmSites(r.nested)
	res.NestedCrash = pmem.CatchCrash(func() { e, err = core.Recover(r.ctx, p, r.opt) })
	res.RecoveryCensus = r.dev.DisarmSites()
	if err != nil {
		return nil, nil, fmt.Errorf("recovery failed (%s): %w", r.label, err)
	}
	if res.NestedCrash != nil {
		powerFail()
		if err := reopen(); err != nil {
			return nil, nil, err
		}
		if e, err = core.Recover(r.ctx, p, r.opt); err != nil {
			return nil, nil, fmt.Errorf("second recovery failed (%s): %w", r.label, err)
		}
	}
	res.RecoveryCycles = e.RecoveryCost().Total()
	return p, e, nil
}

// restartAndCheck power-fails the machine, restarts it, reopens the store and
// runs the two-step checker: program data against the churner's model — or,
// when a churn transaction was in flight at the crash, against the model with
// that operation applied — then defragmentation metadata against the memory
// state. It fills res (FinalHash included, once both checks pass).
func (m *machine) restartAndCheck(res *Result, policy pmem.CrashPolicy, nested int64, opt core.Options, opts TrialOptions, c *churner) error {
	p, e, err := (&restart{
		label: m.setting.String(), dev: m.dev, policy: policy, nested: nested, ctx: m.ctx, opt: opt,
		open: func() (*pmop.Pool, error) {
			rt, err := pmop.Attach(&m.cfg, m.dev)
			if err != nil {
				return nil, err
			}
			return rt.Open("fi", batchRegistry())
		},
	}).run(res)
	if err != nil {
		return err
	}
	defer e.Close()
	s, err := buildStore(m.ctx, p, m.setting.Store)
	if err != nil {
		return err
	}
	if opts.AfterRecovery != nil {
		opts.AfterRecovery(m.ctx, p, s)
	}
	model, inFlight := c.model()
	if err := checker.CheckStore(m.ctx, s, model); err != nil {
		if inFlight == nil {
			return fmt.Errorf("checker step 1 (%s): %w", m.setting, err)
		}
		if inFlight.val != nil {
			model[inFlight.key] = inFlight.val
		} else {
			delete(model, inFlight.key)
		}
		if checker.CheckStore(m.ctx, s, model) != nil {
			return fmt.Errorf("checker step 1 (%s): %w", m.setting, err)
		}
	}
	if _, err := checker.CheckGraph(m.ctx, p); err != nil {
		return fmt.Errorf("checker step 2 (%s): %w", m.setting, err)
	}
	m.dev.FlushAll(m.ctx)
	res.FinalHash = m.dev.HashMedia()
	return nil
}

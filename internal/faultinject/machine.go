package faultinject

// The batch trial machine, the prefix a campaign's scheduled trials fork their
// machines from, and the two things every crash driver does with a machine:
// churn it, and restart it after a power failure.

import (
	"encoding/binary"
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
	"ffccd/internal/workpool"
)

// trial is the machine a batch trial runs on, with its setting: a 64 MB pool
// over a 256 KB cache holding one store of the setting.
type trial struct {
	*machine.Machine
	setting Setting
	// model is a forked trial's copy of its prefix's model, taken from
	// models; Release gives it back. Nil on a built trial.
	model map[uint64][]byte
}

// models pools forked trials' churner models: a trial copies its prefix's
// model into one instead of cloning it.
var models = workpool.FreeList[map[uint64][]byte]{PerWorker: 1}

// Release gives the machine's pages and arrays back, and a forked trial's
// model to models.
func (t *trial) Release() {
	if t.model != nil {
		models.Put(t.model)
		t.model = nil
	}
	t.Machine.Release()
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
	return &trial{Machine: m, setting: setting}, nil
}

// prefix is the part of a scheduled batch trial that lies before its first
// schedulable site: the machine with every thread's build churn done and
// flushed, quiescent. It is a pure function of (setting, seed, ops), so a
// campaign builds it once and every trial — the census pass, each first-level
// and each nested one — forks its own machine from it. Nothing writes a prefix
// once buildPrefix has returned: forks only read it, also the fork of a trial
// the watchdog gave up on, which may still be running. The campaign releases
// it once its last trial has returned, unless it gave up on one.
type prefix struct {
	setting Setting
	ops     int

	img   *machine.Image
	model map[uint64][]byte // the churner's
}

// release gives the prefix's pages back, and its model to models. Every fork
// of it must have been released.
func (pre *prefix) release() {
	pre.img.Release()
	models.Put(pre.model)
}

// buildTrial builds the machine, runs the build churn of every thread in
// thread order and flushes: the machine a prefix captures. The caller releases
// it like newTrial's.
func buildTrial(setting Setting, seed int64, ops int) (*trial, *churner, error) {
	t, err := newTrial(setting)
	if err != nil {
		return nil, nil, err
	}
	churn := newChurner(t, uint64(4*ops), make(map[uint64][]byte))
	for th := 0; th < setting.Threads; th++ {
		if err := churn.build(t.Ctx, th, ops, rand.New(rand.NewSource(seed+int64(th)+1))); err != nil {
			t.Release()
			return nil, nil, err
		}
	}
	t.Device().FlushAll(t.Ctx)
	return t, churn, nil
}

// buildPrefix builds the machine and captures it.
func buildPrefix(setting Setting, seed int64, ops int) (*prefix, error) {
	t, churn, err := buildTrial(setting, seed, ops)
	if err != nil {
		return nil, err
	}
	defer t.Release()
	return &prefix{setting: setting, ops: ops, img: t.Capture(), model: churn.model}, nil
}

// fork materializes the prefix as a machine of the caller's own, sharing the
// prefix's media pages until it writes them, with the churner that goes on
// from the build, on a pooled copy of the prefix's model. The caller releases
// the machine like newTrial's.
func (pre *prefix) fork() (*trial, *churner, error) {
	m, err := pre.img.Fork()
	if err != nil {
		return nil, nil, err
	}
	model, ok := models.Take(nil)
	if !ok {
		model = make(map[uint64][]byte, len(pre.model))
	}
	clear(model)
	maps.Copy(model, pre.model)
	t := &trial{Machine: m, setting: pre.setting, model: model}
	return t, newChurner(t, uint64(4*pre.ops), model), nil
}

// engineOptions is the configuration trials defragment and recover under: a
// target low enough that any fragmentation opens an epoch (trials call
// BeginCycle themselves, so no trigger is consulted). opts.Obs, when
// set, supplies the trial's observability bundle, installed on the device too.
func (t *trial) engineOptions(opts TrialOptions, seed int64) core.Options {
	opt := core.DefaultOptions()
	opt.Scheme = t.setting.Scheme
	opt.TargetRatio = 1.05
	if opts.Obs != nil {
		if opt.Obs = opts.Obs(t.setting, seed); opt.Obs != nil {
			opt.Obs.Tracer.Name(t.Ctx, "driver")
			t.Device().SetObs(opt.Obs)
		}
	}
	return opt
}

// churner drives application traffic against a batch machine's store and
// keeps the model the checker compares the recovered store with. Each
// simulated thread draws its keys from a range of its own (tid<<20 + [0,
// span), wrapped at the store's key cap, so threads of a slot-addressed store
// share keys); the driver interleaves the threads' ops, one at a time, on one
// goroutine, so one model of the whole store is exact and at most one
// operation's store transaction is in flight. A crash there leaves the
// operation either fully applied or not at all, and the checker accepts both.
type churner struct {
	store    ds.Store
	keyCap   uint64
	span     uint64
	model    map[uint64][]byte
	inFlight *checker.PendingWrite // nil, or &op: the operation under way
	op       checker.PendingWrite
}

// newChurner returns the churner of t's store, which holds what model says.
func newChurner(t *trial, span uint64, model map[uint64][]byte) *churner {
	return &churner{store: t.Store, keyCap: keyCapFor(t.setting.Store), span: span, model: model}
}

func (c *churner) key(tid int, r *rand.Rand) uint64 {
	key := uint64(tid)<<20 + r.Uint64()%c.span
	if key >= c.keyCap {
		key %= c.keyCap
	}
	return key
}

// churnValues holds every value the churner stores: row r is the 128-byte
// value t[r][j] = r^j. Nothing writes it once it is built, so every trial
// shares it, and the store, the model and the in-flight write all hold
// windows of it (Insert stores a copy).
var churnValues [256][128]byte

func init() {
	// Eight bytes at a time: bytes j..j+7 of row r are (j+k)^r, and j+k
	// never carries out of its byte. Every program that links the package
	// pays this at start-up.
	const ones = 0x0101010101010101
	for r := range churnValues {
		for j := 0; j < len(churnValues[r]); j += 8 {
			binary.LittleEndian.PutUint64(churnValues[r][j:], (0x0706050403020100+uint64(j)*ones)^uint64(r)*ones)
		}
	}
}

// insert stores a 16..128-byte value, a function of key and i, at key: the
// value byte j is key^j^i, the head of churnValues' row key^i.
func (c *churner) insert(ctx *sim.Ctx, key uint64, i int, r *rand.Rand) error {
	n := 16 + r.Intn(113)
	v := churnValues[byte(key)^byte(i)][:n:n]
	c.op, c.inFlight = checker.PendingWrite{Key: key, Val: v}, &c.op
	if err := c.store.Insert(ctx, key, v); err != nil {
		return err
	}
	c.model[key] = v
	c.inFlight = nil
	return nil
}

func (c *churner) remove(ctx *sim.Ctx, key uint64) error {
	c.op, c.inFlight = checker.PendingWrite{Key: key}, &c.op
	if _, err := c.store.Delete(ctx, key); err != nil {
		return err
	}
	delete(c.model, key)
	c.inFlight = nil
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
			err = c.insert(ctx, key, i, r)
		case 6, 7:
			err = c.remove(ctx, key)
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
		if err := c.insert(ctx, keys[i], i, r); err != nil {
			return err
		}
	}
	for i, key := range keys {
		if i%4 == 0 {
			continue // survivor — keeps its frame sparsely occupied
		}
		if err := c.remove(ctx, key); err != nil {
			return err
		}
	}
	return nil
}

// restart is the one post-crash sequence of every crash driver — §7.1's
// crash, recover, check, with recovery as an idempotent capsule. The
// machine's device loses power under policy; the machine is reopened and its
// pool recovered on a fresh recovery context with the site recorder armed at
// nested, and if that fires a second power failure inside recovery, the
// machine is reopened again and an unscheduled recovery on the same context
// must finish the job. The store is opened on that context too, so its clock
// bills the whole restart; its clock starts at the power failure, and in a
// trace it is the "recovery" thread. Then the two-step checker runs on a context of its
// own, which bills nothing: step 1 the store against the model — or the model
// with the in-flight write applied — and step 2 the defragmentation metadata
// against the memory state.
type restart struct {
	label  string // names the machine in errors
	m      *machine.Machine
	policy pmem.CrashPolicy
	nested int64 // recovery crash-site index; < 0 only counts the sites
	opt    core.Options
	// prepare, when non-nil, runs on each reopened pool before core.Recover
	// and outside the nested schedule's site census.
	prepare func(*sim.Ctx, *pmop.Pool) error
	// open opens the store on the recovered pool.
	open func(*sim.Ctx, *pmop.Pool) (ds.Store, error)
	// after, when non-nil, runs once the store is open (TrialOptions.AfterRecovery).
	after func(*sim.Ctx, *pmop.Pool, ds.Store)
	// model is what the store held before the crash; pending the write that
	// may have been in flight at it (nil when none was).
	model   map[uint64][]byte
	pending *checker.PendingWrite
}

// run performs the sequence, leaving the recovered pool, engine and store in
// the machine, and records the post-crash hash, the recovery census, the
// nested crash and the last recovery's cycles in res. It returns
// the model that verified and the cycles the recovery context was billed —
// for a server, its blackout.
func (r *restart) run(res *Result) (model map[uint64][]byte, cycles uint64, err error) {
	m, dev := r.m, r.m.Device()
	ctx := sim.NewCtx(&m.Cfg)
	defer ctx.Release()
	start := uint64(0)
	if core.Mutated(core.MutantRecoverOnCrashedContext) {
		ctx, start = m.Ctx, m.Ctx.Clock.Total()
	}
	powerFail := func() {
		dev.SetCrashPolicy(r.policy)
		dev.Crash()
	}
	reopen := func() (err error) {
		if err = m.Reopen(); err == nil && r.prepare != nil {
			err = r.prepare(ctx, m.Pool)
		}
		return err
	}
	powerFail()
	res.PostCrashHash = dev.HashMedia()
	if err := reopen(); err != nil {
		return nil, 0, err
	}
	if r.opt.Obs != nil {
		r.opt.Obs.Tracer.Name(ctx, "recovery")
	}
	dev.ArmSites(r.nested)
	res.NestedCrash = pmem.CatchCrash(func() { m.Eng, err = core.Recover(ctx, m.Pool, r.opt) })
	res.RecoveryCensus = dev.DisarmSites()
	if err != nil {
		return nil, 0, fmt.Errorf("recovery failed (%s): %w", r.label, err)
	}
	if res.NestedCrash != nil {
		powerFail()
		if err := reopen(); err != nil {
			return nil, 0, err
		}
		if m.Eng, err = core.Recover(ctx, m.Pool, r.opt); err != nil {
			return nil, 0, fmt.Errorf("second recovery failed (%s): %w", r.label, err)
		}
	}
	res.RecoveryCycles = m.Eng.RecoveryCost().Total()
	if m.Store, err = r.open(ctx, m.Pool); err != nil {
		return nil, 0, err
	}
	if r.after != nil {
		r.after(ctx, m.Pool, m.Store)
	}
	// The restart is over: the checker's context takes the recovery
	// context's TLB arrays.
	cycles = ctx.Clock.Total() - start
	if ctx != m.Ctx {
		ctx.Release()
	}
	chk := sim.NewCtx(&m.Cfg)
	defer chk.Release()
	if model, err = checker.DurableAcks(chk, m.Store, r.model, r.pending); err != nil {
		return nil, 0, fmt.Errorf("checker step 1 (%s): %w", r.label, err)
	}
	if _, err := checker.CheckGraph(chk, m.Pool); err != nil {
		return nil, 0, fmt.Errorf("checker step 2 (%s): %w", r.label, err)
	}
	return model, cycles, nil
}

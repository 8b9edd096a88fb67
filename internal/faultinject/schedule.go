package faultinject

// Deterministic crash schedules. A schedule is a plain value — a batch Repro
// or a serving ServeRepro, as NewRepro returns for a setting of either kind —
// that names a machine, its traffic and a crash point, and whose one-line JSON
// form is the bug report: running it is a pure function of that line, so the
// same line produces the same site census, the same crash, the same
// post-crash media image and the same verdict on every run. The campaign, the
// watchdog, the shrinker and the CLI see schedules only through the Schedule
// interface.
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
	"strings"

	"ffccd/internal/checker"
	"ffccd/internal/ds"
	"ffccd/internal/pmem"
	"ffccd/internal/pmop"
	"ffccd/internal/redisws"
	"ffccd/internal/sim"
	"ffccd/internal/workpool"
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

// CrashPoint is where and how a schedule loses power. Both repro types embed
// it, so its fields appear in their JSON lines under these names.
type CrashPoint struct {
	Site   int64  `json:"site"`   // crash-site index; -1 = census (no crash)
	Nested int64  `json:"nested"` // recovery crash-site index; -1 = none
	Policy string `json:"policy"`
	Salt   uint64 `json:"salt"`
}

// Point returns the schedule's crash point.
func (cp CrashPoint) Point() CrashPoint { return cp }

// Schedule is one replayable crash trial. Repro and ServeRepro implement it.
type Schedule interface {
	Point() CrashPoint
	// At returns the schedule with its crash point replaced; shard names the
	// machine of a sharded deployment that loses power (ignored otherwise).
	At(shard int, cp CrashPoint) Schedule
	// Run executes the trial, as a campaign of one. The error is the verdict
	// (nil = consistent; recovery failures and durable-ack violations are
	// verdicts); the Result is populated as far as the trial got even on
	// failure.
	Run(TrialOptions) (Result, error)
	// MarshalLine renders the canonical one-line JSON, Command the shell
	// command that replays it.
	MarshalLine() string
	Command() string

	// runIn is Run as one trial of campaign c; Run is a campaign of one.
	runIn(c *campaign, opts TrialOptions) (Result, error)

	// shrinks lists cheaper variants to try, most promising first; cost
	// orders schedules by how much work replaying them takes.
	shrinks() []Schedule
	cost() int64
}

// marshalLine renders a repro struct of scalars as one JSON line.
func marshalLine(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain struct of scalars; cannot happen
	}
	return string(b)
}

// runAlone runs s as a campaign of one trial.
func runAlone(s Schedule, opts TrialOptions) (Result, error) {
	c := new(campaign)
	defer c.release()
	return s.runIn(c, opts)
}

// replayCommand is the shell command that replays s.
func replayCommand(s Schedule) string {
	return fmt.Sprintf("ffccd-crashtest -repro '%s'", s.MarshalLine())
}

// parseLine decodes a repro line into v, rejecting unknown fields so typos in
// hand-edited lines fail loudly.
func parseLine(line string, v any) error {
	dec := json.NewDecoder(bytes.NewReader([]byte(line)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("faultinject: bad repro line: %w", err)
	}
	return nil
}

// ParseSchedule parses a repro line of either kind: a line with a "scheme"
// field is a serving schedule (pre-sharding lines parse as one shard), any
// other a batch one.
func ParseSchedule(line string) (Schedule, error) {
	var kind struct {
		Scheme *string `json:"scheme"`
	}
	if err := json.Unmarshal([]byte(line), &kind); err == nil && kind.Scheme != nil {
		r := ServeRepro{CrashPoint: CrashPoint{Site: -1, Nested: -1}, Shards: 1}
		if err := parseLine(line, &r); err != nil {
			return nil, err
		}
		if _, _, err := r.normalized(); err != nil {
			return nil, err
		}
		return r, nil
	}
	r := Repro{CrashPoint: CrashPoint{Site: -1, Nested: -1}}
	if err := parseLine(line, &r); err != nil {
		return nil, err
	}
	if s, err := ParseSetting(r.Setting); err != nil {
		return nil, err
	} else if s.Serve != "" {
		return nil, fmt.Errorf("faultinject: a batch repro line names the serving setting %q", r.Setting)
	}
	if _, err := PolicyFor(r.Policy, r.Salt); err != nil {
		return nil, err
	}
	return r, nil
}

// Result reports what a scheduled trial did.
type Result struct {
	// Began reports whether the machine had anything to crash into: for a
	// batch trial, whether a compaction epoch opened (a store can come out of
	// the build churn insufficiently fragmented; such a trial passes
	// vacuously and a campaign skips it). Always true for a serving trial.
	Began bool
	// Census counts the sites of the main run (a serving trial's dispatch
	// phase, of the crash-target shard) — complete when no crash fired, up to
	// the crash otherwise.
	Census pmem.SiteCensus
	// Crash is the injected power failure (nil for a completed census run).
	Crash *pmem.CrashAtSite
	// RecoveryCensus counts the sites of the first post-crash recovery;
	// NestedCrash is the power failure injected inside it, if any.
	RecoveryCensus pmem.SiteCensus
	NestedCrash    *pmem.CrashAtSite
	// RecoveryCycles is what the last completed recovery cost
	// (core.RecoveryCost.Total).
	RecoveryCycles uint64
	// PostCrashHash digests the media image right after the (first) crash;
	// FinalHash digests it after recovery and checking (a serving trial:
	// after the resumed run quiesces; sharded: an order-fixed fold of the
	// per-shard hashes). Equal hashes across runs of the same line are the
	// bit-identity witness.
	PostCrashHash, FinalHash uint64

	// Serve is the completed serving run, availability metrics included (nil
	// for a batch trial); for a sharded trial it is the deterministic merge
	// and PerShard carries the per-machine rows (nil when Shards <= 1).
	Serve    *redisws.ServeResult
	PerShard []redisws.ServeResult
	// Shard is the crash-target shard of a sharded trial. ShardCensus is the
	// per-shard dispatch-phase census of a sharded census pass (nil when
	// Shards <= 1 or Site >= 0), ShardHashes the per-shard final media hashes
	// FinalHash folds (nil when Shards <= 1).
	Shard       int
	ShardCensus []pmem.SiteCensus
	ShardHashes []uint64
}

// release gives a serving trial's latency recorders back
// (redisws.LatencyRecorder.Release).
func (r *Result) release() {
	if r.Serve != nil {
		r.Serve.Lat.Release()
	}
	for i := range r.PerShard {
		r.PerShard[i].Lat.Release()
	}
}

// Summary renders the trial on one line, the way ffccd-crashtest -repro
// prints it.
func (r Result) Summary() string {
	var b strings.Builder
	if r.Serve == nil {
		fmt.Fprintf(&b, "began=%v ", r.Began)
	}
	fmt.Fprintf(&b, "sites=%d", r.Census.Total)
	if n := len(r.PerShard); n > 1 {
		fmt.Fprintf(&b, " shards=%d crash_shard=%d", n, r.Shard)
		for s, sc := range r.ShardCensus {
			fmt.Fprintf(&b, " s%d_sites=%d", s, sc.Total)
		}
	}
	if r.Crash != nil {
		fmt.Fprintf(&b, " crash=%q recovery_sites=%d", r.Crash.Error(), r.RecoveryCensus.Total)
		if sv := r.Serve; sv != nil {
			fmt.Fprintf(&b, " blackout=%d ttfa=%d retries=%d rejects=%d admitted=%d",
				sv.BlackoutCycles, sv.TimeToFirstAck, sv.Retries, sv.Rejects, sv.Admitted)
		}
	}
	if r.NestedCrash != nil {
		fmt.Fprintf(&b, " nested_crash=%q", r.NestedCrash.Error())
	}
	fmt.Fprintf(&b, " post_crash_hash=%#x final_hash=%#x", r.PostCrashHash, r.FinalHash)
	return b.String()
}

// Default churn volumes for batch schedules (per thread). Ops builds the
// fragmented store; TailOps interleaves with compaction through the read
// barrier. A Repro with zero Ops gets the default; TailOps is kept as-is
// (0 is a meaningful shrink).
const (
	DefaultOps     = 500
	DefaultTailOps = 40
)

// Repro is one deterministic batch crash schedule — the replayable artifact a
// failing campaign trial emits. All fields marshal explicitly (no omitempty)
// so a shrunk zero survives the JSON round trip.
type Repro struct {
	Setting string `json:"setting"`
	Seed    int64  `json:"seed"`
	Ops     int    `json:"ops"`      // build-churn ops per thread
	TailOps int    `json:"tail_ops"` // compaction-concurrent ops per thread
	CrashPoint
}

// NewRepro returns the census-pass schedule of setting with default volumes:
// a Repro for a batch setting, a ServeRepro for a serving one.
func NewRepro(setting Setting, seed int64) Schedule {
	census := CrashPoint{Site: -1, Nested: -1, Policy: PolicyDrop}
	if setting.Serve != "" {
		return ServeRepro{
			Scheme: setting.Serve, Seed: seed,
			Clients: DefaultServeClients, Ops: DefaultServeOps, Keys: DefaultServeKeys,
			CrashPoint: census, Shards: max(setting.Shards, 1),
		}
	}
	return Repro{
		Setting: setting.String(), Seed: seed,
		Ops: DefaultOps, TailOps: DefaultTailOps,
		CrashPoint: census,
	}
}

func (r Repro) MarshalLine() string { return marshalLine(r) }

func (r Repro) Command() string { return replayCommand(r) }

func (r Repro) At(_ int, cp CrashPoint) Schedule {
	r.CrashPoint = cp
	return r
}

func (r Repro) Run(opts TrialOptions) (Result, error) { return runAlone(r, opts) }

func (r Repro) runIn(c *campaign, opts TrialOptions) (Result, error) {
	return c.runScheduled(r, opts)
}

// normalized fills the defaults a batch trial runs under.
func (r Repro) normalized() Repro {
	if r.Ops <= 0 {
		r.Ops = DefaultOps
	}
	if r.TailOps < 0 {
		r.TailOps = 0
	}
	return r
}

func (r Repro) cost() int64 {
	r = r.normalized()
	return int64(r.Ops)*8 + int64(r.TailOps)*8 + r.Site + max(r.Nested, 0)
}

func (r Repro) shrinks() []Schedule {
	r = r.normalized()
	var out []Schedule
	add := func(mut func(*Repro)) {
		c := r
		mut(&c)
		c.Ops = max(c.Ops, 1)
		out = append(out, c.normalized())
	}
	// Halving moves converge in log(size) accepted steps; the -1 moves polish
	// the end point.
	add(func(r *Repro) { r.Nested = -1 })
	add(func(r *Repro) { r.Nested /= 2 })
	add(func(r *Repro) { r.Ops /= 2 })
	add(func(r *Repro) { r.TailOps = 0 })
	add(func(r *Repro) { r.TailOps /= 2 })
	add(func(r *Repro) { r.Site /= 2 })
	add(func(r *Repro) { r.Ops-- })
	add(func(r *Repro) { r.Site-- })
	if r.Nested > 0 {
		add(func(r *Repro) { r.Nested-- })
	}
	return out
}

// runScheduled runs the batch trial rep on a machine forked from the
// campaign's prefix: the trial executes, and pays for, only what follows the
// build. It runs on one goroutine end to end — the simulated threads' churn,
// each with its own RNG stream and key range, is interleaved in a fixed order
// — so the sequence of crash-site passages is a pure function of the Repro.
func (c *campaign) runScheduled(rep Repro, opts TrialOptions) (Result, error) {
	setting, err := ParseSetting(rep.Setting)
	if err != nil {
		return Result{}, err
	}
	rep = rep.normalized()
	policy, err := PolicyFor(rep.Policy, rep.Salt)
	if err != nil {
		return Result{}, err
	}
	pre, err := c.prefixOf(setting, rep.Seed, rep.Ops)
	if err != nil {
		return Result{}, err
	}
	t, churn, err := pre.fork()
	if err != nil {
		return Result{}, err
	}
	// The trial owns its machine: give its pages and arrays back on the way out.
	// This runs on the trial's own goroutine — a watchdog that gives up on a
	// hung trial abandons the machine instead, as the trial may still be
	// writing.
	defer t.Release()
	return t.runArmed(rep, policy, churn, opts)
}

// rands pools the tail churn's random streams across trials: a math/rand
// source is 4.9 KB, and reseeding one yields the stream a new one seeded
// alike would.
var rands = workpool.FreeList[*rand.Rand]{PerWorker: maxThreads}

// takeRand returns a stream seeded with seed, on a pooled source when there
// is one. The caller puts it back in rands once it is done with it.
func takeRand(seed int64) *rand.Rand {
	if r, ok := rands.Take(nil); ok {
		r.Seed(seed)
		return r
	}
	return rand.New(rand.NewSource(seed))
}

// runArmed is the trial from the built, flushed machine on: everything a
// schedule can crash. One goroutine does the churn, the engine stepping, the
// crash, the recovery and the checking: the threads' tail churn and the
// compaction steps interleave round-robin. rep is normalized, names t's
// setting and loses power under policy.
func (t *trial) runArmed(rep Repro, policy pmem.CrashPolicy, churn *churner, opts TrialOptions) (Result, error) {
	var res Result
	setting, ctx, dev := t.setting, t.Ctx, t.Device()
	opt := t.engineOptions(opts, rep.Seed)
	e := t.NewEngine(opt)

	// Main run, armed. Compaction steps interleave with tail churn so the
	// read barrier and mid-epoch application transactions are inside the
	// schedulable window, then the epoch terminates.
	tailRngs := make([]*rand.Rand, setting.Threads)
	tailLeft := make([]int, setting.Threads)
	for th := range tailRngs {
		tailRngs[th] = takeRand(rep.Seed ^ 0x5a5a + int64(th))
		tailLeft[th] = rep.TailOps
	}
	defer func() {
		for _, r := range tailRngs {
			rands.Put(r)
		}
	}()
	var churnErr error
	dev.ArmSites(rep.Site)
	res.Crash = pmem.CatchCrash(func() {
		if !e.BeginCycle(ctx) {
			return
		}
		res.Began = true
		for {
			moved := e.StepCompaction(ctx, 7)
			tailDone := true
			for th := 0; th < setting.Threads; th++ {
				n := min(tailLeft[th], 5)
				if n > 0 {
					tailLeft[th] -= n
					if churnErr = churn.churn(ctx, th, n, tailRngs[th]); churnErr != nil {
						return
					}
				}
				if tailLeft[th] > 0 {
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

	if res.Crash == nil {
		// Completed (census pass, or the armed site was past the end).
		// Check consistency of the completed machine too — free coverage.
		e.Close()
		dev.FlushAll(ctx)
		res.FinalHash = dev.HashMedia()
		if err := checker.CheckStore(ctx, t.Store, churn.model); err != nil {
			return res, fmt.Errorf("census check 1 (%s): %w", setting, err)
		}
		if _, err := checker.CheckGraph(ctx, t.Pool); err != nil {
			return res, fmt.Errorf("census check 2 (%s): %w", setting, err)
		}
		return res, nil
	}

	// Power failure at the scheduled site (inside BeginCycle the epoch was
	// opening). The panic unwound the driver; the pre-crash engine, pool and
	// contexts are abandoned wholesale — their volatile state is what the
	// crash destroys.
	res.Began = true
	r := restart{label: setting.String(), m: t.Machine, policy: policy, nested: rep.Nested, opt: opt,
		open:  func(ctx *sim.Ctx, p *pmop.Pool) (ds.Store, error) { return buildStore(ctx, p, setting.Store) },
		after: opts.AfterRecovery, model: churn.model, pending: churn.inFlight}
	if _, _, err := r.run(&res); err != nil {
		return res, err
	}
	defer t.Eng.Close()
	dev.FlushAll(ctx)
	res.FinalHash = dev.HashMedia()
	return res, nil
}

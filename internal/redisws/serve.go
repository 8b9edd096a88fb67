package redisws

import (
	"errors"
	"fmt"
	"unsafe"

	"ffccd/internal/alloc"
	"ffccd/internal/ds"
	"ffccd/internal/obsv"
	"ffccd/internal/pmem"
	"ffccd/internal/pmop"
	"ffccd/internal/sim"
	"ffccd/internal/workload"
	"ffccd/internal/workpool"
)

// This file is the serving layer: many simulated client connections against
// one machine, under a deterministic virtual-time scheduler.
//
// Model. Each client is one connection thread with its own sim.Ctx (private
// clock + TLB). Operations arrive open-loop: a Poisson process per client
// (aggregate rate Config.RatePerSec), independent of completions, so an
// overloaded machine builds queueing delay instead of silently slowing the
// offered load — the regime in which STW pauses surface as p999. "Millions
// of users" are represented by the aggregate arrival process; the client
// count is the number of server-side connection contexts, not the user
// population (a Ctx carries a private TLB, so a million Ctxs would model a
// million hardware threads, which is not the machine the paper runs).
//
// Scheduling. The dispatcher always serves the client with the lowest
// virtual start time s = max(arrival, readyAt, stallUntil), ties by client
// id. All randomness (op type, Zipfian key, value size, next interarrival)
// is drawn from one counter-based stream in dispatch order, so the whole
// run is a pure function of the seed.
//
// Batched dispatch. Consecutive dispatches that are read-only, touch
// pairwise-disjoint device cache sets (predicted with non-perturbing peeks),
// and run while no defragmentation epoch is open form one batch: simulated
// concurrency, the GETs of different connections in flight together. Every
// side effect of such a GET is confined to its own cache sets (fills, LRU
// aging, eviction write-backs) or commutes (stat counters), and its cycle
// charges land on the client's private clock, so any execution order gives
// the same simulated outcome; the batch runs in place, one GET after the
// other on the dispatcher, and commits in batch order. Batch formation —
// which ops share a batch — is simulated semantics (it decides dispatch order
// and the ParallelOps/Batches counters); how a batch executes is not. Host
// threads would not pay: a batch averages about five GETs of about a
// microsecond each, less than handing them to a worker pool and dropping the
// device to shared (locked) mode costs. Host parallelism lives between
// machines (ServeSharded), where each shard has a device of its own.
// Anything else — SETs, conflicting GETs, epochs in flight — falls back to
// serial dispatch in virtual-time order.

// ServeConfig parameterizes one serving run.
type ServeConfig struct {
	Clients  int // simulated connection threads
	Ops      int // dispatched operations (after prepopulation)
	Keyspace int // distinct keys; prepopulated 0..Keyspace-1

	// RatePerSec is the aggregate offered load in simulated ops/sec.
	// <= 0 auto-calibrates to targetUtil of the measured service rate.
	RatePerSec float64

	ZipfTheta   float64 // key-popularity skew (default 0.99)
	GetFraction float64 // fraction of GETs, in [0, 1]

	MaxLiveBytes     uint64 // LRU cap; 0 disables eviction
	MinVal, MaxVal   int    // value sizes (240..492 when both are 0; at most MaxValue)
	MinVal2, MaxVal2 int    // post-drift sizes, switched at Ops/2; set both or neither

	Seed       int64
	MaintEvery int // ops between maintenance-hook calls (default Keyspace/4)

	// ShardIndex/ShardCount place this run inside a sharded deployment: the
	// machine owns only the keys of Keyspace whose hash maps to ShardIndex
	// (see OwnedKeys), and exemplar stall causes carry the shard id. With
	// ShardCount <= 1 the run is byte-for-byte the unsharded dispatcher —
	// there is one serving path, not two (pinned by
	// TestServeShardedOneShardMatchesServe).
	ShardIndex int
	ShardCount int
}

// DefaultServeConfig returns a small serving setup (tests and smoke runs
// override what they need).
func DefaultServeConfig() ServeConfig {
	return ServeConfig{
		Clients:     16,
		Ops:         20000,
		Keyspace:    4000,
		ZipfTheta:   0.99,
		GetFraction: 0.9,
		MinVal:      240,
		MaxVal:      492,
		Seed:        7,
	}
}

// PendingWrite is the one store sub-transaction in flight at a crash (Val
// nil = delete). See checker.PendingWrite — redisws keeps its own type so the
// dependency points from the harness into both, not between them.
type PendingWrite struct {
	Key uint64
	Val []byte
}

// Recovered is the machine a CrashPlan.Recover hands back: the reopened
// store and pool, replacement scheme hooks (the pre-crash engine died with
// the power), how many simulated cycles the restart took, and the durable
// key/value model the recovery checker verified (the dispatcher rebuilds its
// LRU table from it and continues acknowledging against it).
type Recovered struct {
	Store ds.Store
	Pool  *pmop.Pool
	// Hooks replace the run's hooks but for Series and Crash, which the run
	// keeps (the time series spans the crash).
	Hooks  ServeHooks
	Cycles uint64
	Model  map[uint64][]byte
}

// CrashPlan schedules a power failure inside a serving run and supplies the
// recovery path. Arm is called once, right before dispatch begins (so a site
// census covers exactly the dispatch phase). When a crash site fires — the
// dispatch goroutine panics with *pmem.CrashAtSite — Serve catches it,
// records the crash at the current completion high-water mark, and calls
// Recover with the acknowledged-write model (the LRU table's live keys, a map
// Recover may edit and return but not keep) and the in-flight transaction.
// Recover's error is the trial verdict and aborts the run; on success the
// dispatcher swaps in the recovered machine and resumes the arrival process.
//
// Degraded-mode semantics during the blackout [crash, crash+Cycles):
// connections whose request was lost with the power (in flight or queued
// server-side) retry with capped exponential backoff in virtual time;
// arrivals during the blackout hit a bounded admission queue — the first
// Clients/4+1 are parked until the server is back, the rest are rejected and
// retry with backoff (from 65536 cycles, doubling, capped at 64× that). All
// of it is simulated serially in deterministic (time, client) order, so
// resumed runs stay bit-identical at any host thread count.
type CrashPlan struct {
	Arm     func()
	Recover func(crash *pmem.CrashAtSite, acked map[uint64][]byte, pending *PendingWrite) (*Recovered, error)
}

// ServeHooks injects a defragmentation scheme into the serving loop, and
// into the closed-loop case study (Run), which calls Maintenance, Step and
// EpochInfo on its own cadence.
type ServeHooks struct {
	// Maintenance runs every MaintEvery dispatched ops at virtual time now;
	// returned cycles stall every client (an STW pause: arrivals during the
	// pause queue behind it).
	Maintenance func(now uint64) uint64
	// Step runs background defrag work after each commit round while an
	// epoch is open (n = ops just committed); it reports whether the epoch
	// is still open, plus any STW pause cycles the step incurred (the
	// terminate phase stops the world to fix references and flush).
	Step func(n int) (open bool, pause uint64)
	// EpochOpen is unread: both serving loops take the open-epoch flag
	// from EpochInfo. It remains because bench/machine.go still sets it.
	EpochOpen func() bool
	// Foot overrides the footprint source (Figure 16's Mesh reports
	// physical frames).
	Foot func() alloc.FragStats

	// Series, when non-nil, receives the run's windowed time series: per-op
	// samples with a full stall-cause record, plus epoch/STW overlay
	// intervals, all in the run's virtual-time domain. The layer is purely
	// observational — it reads committed values and non-perturbing peeks,
	// never charges a simulated cycle, and draws from no RNG stream — so
	// simulated results are bit-identical with or without it (pinned by
	// TestServeWindowsDoNotPerturb).
	Series *obsv.TimeSeries
	// EpochInfo reports the open defragmentation epoch (0, false when idle;
	// nil: never open). While one is open, read barriers are installed, so
	// batched (peek-predicted) dispatch is off. Must charge no cycles;
	// core.Engine.OpenEpoch qualifies.
	EpochInfo func() (epoch uint64, open bool)

	// Crash, when non-nil, arms a scheduled power failure and supplies the
	// online recovery path (see CrashPlan). Nil leaves the serving loop
	// byte-for-byte on its crash-free path.
	Crash *CrashPlan
}

// epochOpen reports whether h's scheme has an epoch open.
func (h *ServeHooks) epochOpen() bool {
	if h.EpochInfo == nil {
		return false
	}
	_, open := h.EpochInfo()
	return open
}

// footprint is h.Foot's reading, or by default p's heap at its page size.
func (h *ServeHooks) footprint(p *pmop.Pool) alloc.FragStats {
	if h.Foot != nil {
		return h.Foot()
	}
	return p.Heap().Frag(p.PageShift())
}

// ServeResult is a completed serving run.
type ServeResult struct {
	Ops, Gets, Sets int
	Hits, Misses    int
	Evictions       int

	// Lat is the per-op latency (arrival → completion, simulated cycles).
	Lat *LatencyRecorder
	// The per-op latency decomposition, summed over the run: service
	// cycles in CatApp (the op's own work), service cycles outside it
	// (barrier fixups, checklookup), dispatch delay from STW pauses, and
	// waiting behind the connection's previous op.
	AppCycles, InterfCycles          uint64
	StallWaitCycles, QueueWaitCycles uint64
	// AppHist, InterfHist, StallHist and QueueHist are unset: neither Run nor
	// MergeServeResults fills them, and nothing in the product reads them.
	// They remain for the benchmark's merge rung, which builds its own.
	AppHist, InterfHist, StallHist, QueueHist *obsv.Histogram

	RateUsed  float64 // offered load actually used (ops/sec)
	Makespan  uint64  // virtual time of the last completion
	SimCycles uint64  // total cycles across the loader and every client clock

	// Dispatch-shape counters (deterministic for a fixed seed).
	ParallelOps, SerialOps, Batches int

	// Crash-resume availability metrics (set when a ServeHooks.Crash schedule
	// fired; all in virtual cycles, deterministic for a fixed repro).
	Crashes        int
	CrashCycle     uint64 // virtual time of the (last) power failure
	ResumeCycle    uint64 // CrashCycle + recovery cycles
	BlackoutCycles uint64 // summed recovery durations
	TimeToFirstAck uint64 // first post-resume completion minus CrashCycle (0 = none)
	Retries        int    // client retries (lost requests + admission rejections)
	Rejects        int    // admission-queue rejections during recovery
	Admitted       int    // requests parked in the admission queue

	Final alloc.FragStats
}

// parallelStore is the optional store interface batched dispatch needs:
// GetFootprint predicts a GET's cache sets with non-perturbing peeks, and
// GetParallel is the read a batched GET runs. The slice GetParallel returns
// belongs to the store until its next call, so the dispatcher only checks
// the hit. kv.Echo implements it. Stores without it serve strictly serially.
type parallelStore interface {
	ds.Store
	GetParallel(ctx *sim.Ctx, key uint64) ([]byte, bool)
	GetFootprint(key uint64, visit func(off, n uint64))
}

// pendingOp is one generated-but-uncommitted operation.
type pendingOp struct {
	cli     int
	key     uint64
	rank    int32 // the key's owned rank, its LRU node
	isGet   bool
	valSize int
	arrival uint64
	// retryAt, when nonzero, is the earliest virtual time the op's retried
	// submission reached the server (crash resume); dispatch clamps to it.
	retryAt uint64
	set     int // batched GETs: the first cache set the footprint stamped (its bucket slot's)
	// filled by execution:
	svc, app uint64
	wpq      uint64 // fence-drain stall cycles within svc (series runs only)
	hit      bool
}

// clientState is one connection thread.
type clientState struct {
	ctx         *sim.Ctx
	nextArrival uint64
	readyAt     uint64
	// stwRef is the end cycle of the STW pause the connection's delay chain
	// currently leads back to (0 = none); see StallCause.STWRef.
	stwRef uint64
	// resubmitAt, when nonzero, is the earliest submission time of the
	// client's next drawn op (set by crash-resume rescheduling, consumed by
	// genOp).
	resubmitAt uint64
}

// clientHeap is a binary min-heap of client ids ordered by (base, id),
// base = max(nextArrival, readyAt). Clients re-enter only after commit, so
// plain push/pop suffices.
type clientHeap struct {
	ids  []int
	base []uint64 // indexed by client id
}

func (h *clientHeap) less(a, b int) bool {
	if h.base[a] != h.base[b] {
		return h.base[a] < h.base[b]
	}
	return a < b
}

func (h *clientHeap) push(id int) {
	h.ids = append(h.ids, id)
	i := len(h.ids) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(h.ids[i], h.ids[p]) {
			break
		}
		h.ids[i], h.ids[p] = h.ids[p], h.ids[i]
		i = p
	}
}

func (h *clientHeap) pop() int {
	top := h.ids[0]
	last := len(h.ids) - 1
	h.ids[0] = h.ids[last]
	h.ids = h.ids[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h.ids) && h.less(h.ids[l], h.ids[m]) {
			m = l
		}
		if r < len(h.ids) && h.less(h.ids[r], h.ids[m]) {
			m = r
		}
		if m == i {
			return top
		}
		h.ids[i], h.ids[m] = h.ids[m], h.ids[i]
		i = m
	}
}

// setMarks detects cache-set conflicts between a candidate op and the
// current batch with O(footprint) stamping, promotion and reset.
type setMarks struct {
	stamp    []uint64
	batchTag uint64
	candTag  uint64
	tag      uint64
	// cand lists the sets the current candidate stamped (each once), so
	// accepting it touches its footprint rather than every set.
	cand []int
}

func newSetMarks(nset int) *setMarks { return &setMarks{stamp: make([]uint64, nset)} }

func (m *setMarks) newBatch() { m.tag++; m.batchTag = m.tag }
func (m *setMarks) newCand()  { m.tag++; m.candTag = m.tag; m.cand = m.cand[:0] }

// lruCache is a serving machine's volatile LRU bookkeeping over its store —
// one list for all clients, as Redis keeps — and its record of acknowledged
// writes: a live key's last committed write stored Value(key, size), and
// pending is the one sub-transaction in flight. set and evict change the
// store and then the table with no crash site between, so at any crash site
// the durable image equals model() or model()±pending.
//
// The list is a table of nodes linked by index, one per owned key: node i is
// the key of rank i (owned.key(i)). head is the most recently used key, tail
// the least. The table is sized by the keys the machine owns, not by the
// keyspace they are drawn from.
type lruCache struct {
	store      ds.Store
	maxLive    uint64 // 0 disables eviction
	owned      ownedKeys
	nodes      []lruNode
	head, tail int32
	liveBytes  uint64
	evictions  int
	pending    *PendingWrite // nil, or &op: the operation under way
	op         PendingWrite
	scratch    map[uint64][]byte // the map model fills; nil until it first runs
}

// lruNode is one owned key's node: the size of its value and its neighbours
// towards the head (prev) and the tail (next), noNode at either end. prev is
// notLive while the key is not live.
type lruNode struct {
	size       uint32
	prev, next int32
}

// A machine holds one lruNode per owned key: keep it at 12 bytes.
var (
	_ [unsafe.Sizeof(lruNode{}) - 12]struct{}
	_ [12 - unsafe.Sizeof(lruNode{})]struct{}
)

const (
	noNode  = -1
	notLive = -2
)

// ownedKeys maps a machine's key ranks to its keys, ascending; nil is the
// identity (an unsharded machine owns the whole keyspace).
type ownedKeys []uint64

func (o ownedKeys) key(rank int32) uint64 {
	if o == nil {
		return uint64(rank)
	}
	return o[rank]
}

// newLRUCache returns empty bookkeeping over keys owned keys, ranks
// [0, keys), whose keys owned maps.
func newLRUCache(store ds.Store, maxLive uint64, owned ownedKeys, keys int) *lruCache {
	c := &lruCache{store: store, maxLive: maxLive, owned: owned, nodes: make([]lruNode, keys),
		head: noNode, tail: noNode}
	for i := range c.nodes {
		c.nodes[i].prev = notLive
	}
	return c
}

// lruTables is the host memory of an lruCache: its node table and the map
// its model fills.
type lruTables struct {
	nodes   []lruNode
	scratch map[uint64][]byte
}

// lruPool pools the tables of released Loaded values for the next clone: a
// fork copies its image's tables into them instead of allocating its own.
var lruPool = workpool.FreeList[lruTables]{PerWorker: 1}

// clone returns a copy of c's node table and counters that shares nothing c
// writes, with no store, on tables from lruPool when one is large enough.
func (c *lruCache) clone() *lruCache {
	d := *c
	d.store, d.pending = nil, nil
	t, ok := lruPool.Take(func(t lruTables) bool { return cap(t.nodes) >= len(c.nodes) })
	if !ok {
		t = lruTables{nodes: make([]lruNode, 0, len(c.nodes))}
	}
	// The clone's model scratch starts empty and allocated, whatever the
	// pool's tables held, so no clone's state depends on which it got.
	if t.scratch == nil {
		t.scratch = map[uint64][]byte{}
	}
	clear(t.scratch)
	d.nodes, d.scratch = append(t.nodes[:0], c.nodes...), t.scratch
	return &d
}

// pushFront makes rank i, whose key is not live, the most recently used key,
// with an n-byte value.
func (c *lruCache) pushFront(i int32, n int) {
	c.nodes[i].size = uint32(n)
	c.link(i)
	c.liveBytes += uint64(n)
}

// link puts the unlinked node i at the head.
func (c *lruCache) link(i int32) {
	n := &c.nodes[i]
	n.prev, n.next = noNode, c.head
	if c.head == noNode {
		c.tail = i
	} else {
		c.nodes[c.head].prev = i
	}
	c.head = i
}

// unlink takes node i out of the list.
func (c *lruCache) unlink(i int32) {
	n := &c.nodes[i]
	if n.prev == noNode {
		c.head = n.next
	} else {
		c.nodes[n.prev].next = n.next
	}
	if n.next == noNode {
		c.tail = n.prev
	} else {
		c.nodes[n.next].prev = n.prev
	}
}

// moveToFront makes node i the most recently used.
func (c *lruCache) moveToFront(i int32) {
	if c.head != i {
		c.unlink(i)
		c.link(i)
	}
}

// set writes the n-byte value (Value) of rank i's key on ctx, makes the key
// the most recently used and evicts down to the cap, also on ctx.
func (c *lruCache) set(ctx *sim.Ctx, i int32, n int) error {
	k := c.owned.key(i)
	v := Value(k, n)
	c.op, c.pending = PendingWrite{Key: k, Val: v}, &c.op
	if err := c.store.Insert(ctx, k, v); err != nil {
		return err
	}
	c.pending = nil
	if nd := &c.nodes[i]; nd.prev != notLive {
		c.liveBytes = c.liveBytes - uint64(nd.size) + uint64(n)
		nd.size = uint32(n)
		c.moveToFront(i)
	} else {
		c.pushFront(i, n)
	}
	return c.evict(ctx)
}

// evict deletes least recently used keys until the live bytes fit the cap.
func (c *lruCache) evict(ctx *sim.Ctx) error {
	if c.maxLive == 0 {
		return nil
	}
	for c.liveBytes > c.maxLive && c.tail != noNode {
		i := c.tail
		k := c.owned.key(i)
		c.op, c.pending = PendingWrite{Key: k}, &c.op
		if _, err := c.store.Delete(ctx, k); err != nil {
			return err
		}
		c.pending = nil
		c.unlink(i)
		c.nodes[i].prev = notLive
		c.liveBytes -= uint64(c.nodes[i].size)
		c.evictions++
	}
	return nil
}

// touch makes rank i's key, when live, the most recently used.
func (c *lruCache) touch(i int32) {
	if c.nodes[i].prev != notLive {
		c.moveToFront(i)
	}
}

// model returns the acknowledged writes: every live key with the value its
// last write stored. The map is the cache's scratch, which the next call
// overwrites.
func (c *lruCache) model() map[uint64][]byte {
	if c.scratch == nil {
		c.scratch = make(map[uint64][]byte, len(c.nodes))
	}
	clear(c.scratch)
	for i := c.head; i != noNode; i = c.nodes[i].next {
		k := c.owned.key(i)
		c.scratch[k] = Value(k, int(c.nodes[i].size))
	}
	return c.scratch
}

// rebuild replaces the bookkeeping with model's keys, ascending (recency
// order died with the power). Owned keys ascend with their ranks, so the walk
// over ranks is that order.
func (c *lruCache) rebuild(model map[uint64][]byte) {
	for i := c.head; i != noNode; {
		n := &c.nodes[i]
		i, n.prev = n.next, notLive
	}
	c.head, c.tail = noNode, noNode
	c.liveBytes = 0
	for i := range int32(len(c.nodes)) {
		if v, ok := model[c.owned.key(i)]; ok {
			c.pushFront(i, len(v))
		}
	}
	c.pending = nil
}

// inPlaceReader is a store that reads a value into a caller's buffer, with
// the loads Get makes: every ds and kv store.
type inPlaceReader interface {
	GetInto(ctx *sim.Ctx, key uint64, buf []byte) ([]byte, bool)
}

// hitReader reads values only for their hit flag: into one buffer, through
// Get only for a store that cannot read in place.
type hitReader struct {
	store ds.Store
	buf   []byte
}

func (h *hitReader) hit(ctx *sim.Ctx, key uint64) bool {
	r, ok := h.store.(inPlaceReader)
	if !ok {
		_, ok = h.store.Get(ctx, key)
		return ok
	}
	h.buf, ok = r.GetInto(ctx, key, h.buf)
	return ok
}

// MaxValue is the largest value a run writes: a config's MaxVal and MaxVal2
// are at most MaxValue.
const MaxValue = 4096

// values holds every value a run writes: t[x] = x, long enough for an
// n-byte window at any offset below 256 when n <= MaxValue. Nothing writes
// it once it is built, so every machine shares it.
var values [255 + MaxValue]byte

func init() {
	for x := range values {
		values[x] = byte(x)
	}
}

// Value returns the n-byte value a write stores at key k, whose byte i is
// k+i: the window of values at k's low byte. Callers must not write it.
func Value(k uint64, n int) []byte {
	o := int(byte(k))
	return values[o : o+n : o+n]
}

// Loaded is a serving run up to its first dispatch, apart from the machine
// itself: the normalized config, where the random stream stands, the
// calibrated offered load, and the live LRU cache (with the evictions so far)
// and client contexts (clock and TLB). Run
// takes the cache and the contexts over, so a Loaded starts one run, on the
// machine Load ran on. A crash campaign, which starts many runs from one
// load, captures it next to the machine (Capture) and runs each trial on a
// fork of both images (LoadedImage.Fork).
type Loaded struct {
	cfg     ServeConfig
	owned   ownedKeys // the shard's keys by rank; nil unsharded (key = rank)
	zipf    Zipf      // its constants; every run draws from a stream of its own
	draws   uint64    // the stream position
	rate    float64
	cache   *lruCache // nil once run or released
	clients []*sim.Ctx
}

// LoadedImage is what a fork needs of a Loaded: its config, stream position
// and rate, a copy of its LRU node table, and every client context's
// checkpoint, whose TLB arrays come from the TLB-array pool. Nothing writes
// an image once it is captured, so any number of goroutines fork one; a fork
// copies the tables into pooled ones, which its Release gives back, and the
// image's own Release gives back the copies it holds.
type LoadedImage struct {
	l       Loaded // its cache is the captured copy; it has no clients
	clients []sim.CtxCheckpoint
}

// Capture returns l's image. l must not have run or been released.
func (l *Loaded) Capture() *LoadedImage {
	img := &LoadedImage{l: *l, clients: make([]sim.CtxCheckpoint, len(l.clients))}
	img.l.cache, img.l.clients = l.cache.clone(), nil
	for i, c := range l.clients {
		c.CheckpointInto(&img.clients[i])
	}
	return img
}

// Fork returns a Loaded of the caller's own that continues from the capture.
// Its client contexts run under cfg, the config of the machine fork it will
// run on.
func (img *LoadedImage) Fork(cfg *sim.Config) *Loaded {
	l := img.l
	l.cache = img.l.cache.clone()
	l.clients = make([]*sim.Ctx, len(img.clients))
	for i := range l.clients {
		l.clients[i] = sim.NewCtx(cfg)
		l.clients[i].Restore(&img.clients[i])
	}
	return &l
}

// Release gives the image's LRU tables and its client checkpoints' TLB
// arrays back to the process pools. Call it once no fork of the image is
// being made; the image forks nothing afterwards. A second call does
// nothing.
func (img *LoadedImage) Release() {
	img.l.Release()
	for i := range img.clients {
		img.clients[i].Release()
	}
	img.clients = nil
}

// Release gives the LRU tables and the client contexts' TLB arrays back to
// the process pools. Run does it when it returns; the owner of a Loaded that
// never runs, such as a captured one, calls it. A released Loaded does not
// run.
func (l *Loaded) Release() {
	if c := l.cache; c != nil {
		lruPool.Put(lruTables{c.nodes, c.scratch})
		l.cache = nil
	}
	for _, c := range l.clients {
		c.Release()
	}
}

// NameClients labels the trace threads of l's client contexts client0,
// client1, … in t, as a flight-recorder dump prints them.
func (l *Loaded) NameClients(t *obsv.Tracer) {
	for i, c := range l.clients {
		t.Name(c, fmt.Sprintf("client%d", i))
	}
}

// Serve runs the serving scenario: Load, then Run. ctx is the loader context
// (prepopulation runs on it, serially; warmup runs on the client contexts).
//
// Serve runs the whole machine on the calling goroutine — the load, the
// warm-up, batched and serial ops, the maintenance/step hooks and a
// crash-resume — as every owner of a simulated machine does: nothing else may
// touch p's device until Serve returns.
func Serve(ctx *sim.Ctx, p *pmop.Pool, store ds.Store, cfg ServeConfig, hooks ServeHooks) (ServeResult, error) {
	l, err := Load(ctx, p, store, cfg)
	if err != nil {
		return ServeResult{}, err
	}
	return l.Run(ctx, p, store, hooks)
}

// maxBatch bounds the GETs of one batch, and the compaction units an epoch
// drained at the end of a run steps at a time.
const maxBatch = 64

// targetUtil is the utilization a run's offered load is calibrated to when
// RatePerSec is unset.
const targetUtil = 0.6

// Load is the part of a serving run before its first dispatch: it
// prepopulates the owned keyspace on ctx, runs the warm-up on fresh client
// contexts and calibrates the offered load. The caller runs the Loaded it
// returns or releases it.
func Load(ctx *sim.Ctx, p *pmop.Pool, store ds.Store, cfg ServeConfig) (*Loaded, error) {
	if cfg.Clients <= 0 || cfg.Ops <= 0 || cfg.Keyspace <= 0 {
		return nil, errors.New("redisws.Load: Clients, Ops and Keyspace must be positive")
	}
	if cfg.ZipfTheta <= 0 {
		cfg.ZipfTheta = 0.99
	}
	if cfg.GetFraction < 0 || cfg.GetFraction > 1 {
		return nil, fmt.Errorf("redisws.Load: GetFraction %v outside [0, 1]", cfg.GetFraction)
	}
	switch {
	case cfg.MinVal <= 0 && cfg.MaxVal <= 0:
		cfg.MinVal, cfg.MaxVal = 240, 492
	case cfg.MinVal <= 0 || cfg.MaxVal < cfg.MinVal:
		return nil, fmt.Errorf("redisws.Load: value sizes %d..%d are inverted or half set", cfg.MinVal, cfg.MaxVal)
	}
	if (cfg.MinVal2 > 0 || cfg.MaxVal2 > 0) && (cfg.MinVal2 <= 0 || cfg.MaxVal2 < cfg.MinVal2) {
		return nil, fmt.Errorf("redisws.Load: drifted value sizes %d..%d are inverted or half set", cfg.MinVal2, cfg.MaxVal2)
	}
	if n := max(cfg.MaxVal, cfg.MaxVal2); n > MaxValue {
		return nil, fmt.Errorf("redisws.Load: values of up to %d bytes configured, at most %d supported", n, MaxValue)
	}
	if cfg.MaintEvery <= 0 {
		cfg.MaintEvery = max(cfg.Keyspace/4, 1)
	}
	l := &Loaded{cfg: cfg}

	// Shard key ownership. Unsharded runs (ShardCount <= 1) take the identity
	// mapping with no slice allocated, so their RNG draws and store traffic
	// are bit-identical to the pre-sharding dispatcher. A sharded run owns
	// the hash-selected subset and draws its Zipf ranks over that subset
	// only — the popularity skew applies within the shard, matching a
	// frontend that hashes each user key to one backend.
	nOwned := uint64(cfg.Keyspace)
	if cfg.ShardCount > 1 {
		l.owned = OwnedKeys(uint64(cfg.Keyspace), cfg.ShardIndex, cfg.ShardCount)
		nOwned = uint64(len(l.owned))
		if nOwned == 0 {
			return nil, errors.New("redisws.Load: shard owns no keys; Keyspace too small for ShardCount")
		}
	}

	rng := workload.NewRNG(cfg.Seed)
	zipf := NewZipf(rng, nOwned, cfg.ZipfTheta)
	cache := newLRUCache(store, cfg.MaxLiveBytes, l.owned, int(nOwned))
	l.cache = cache

	// Prepopulate the owned keyspace on the loader context.
	lo, hi := cfg.MinVal, cfg.MaxVal
	for i := range int32(nOwned) {
		if err := cache.set(ctx, i, lo+rng.Intn(hi-lo+1)); err != nil {
			return nil, err
		}
	}

	// Warmup and calibration. The warmup window runs the first 64 ops per
	// client (at most 8192) of the real mix (GETs and SETs with LRU churn)
	// serially, round-robin across the real client contexts, before arrivals
	// begin: cold per-client TLBs, cache pressure from the churn, and
	// eviction work are all part of the steady-state service time the offered
	// load must be set against (a GET-only probe on the warm loader context
	// underestimates it several-fold and the run saturates). The draws come from the main
	// stream, so every scheme (same seed, same prepopulated machine, no
	// defrag activity yet) measures the same mean and lands on the same
	// rate — equal offered load is what makes the per-scheme tails
	// comparable.
	l.clients = make([]*sim.Ctx, cfg.Clients)
	for i := range l.clients {
		l.clients[i] = sim.NewCtx(p.Config())
	}
	warm := min(64*cfg.Clients, 8192)
	var warmSvc uint64
	reader := hitReader{store: store}
	for i := 0; i < warm; i++ {
		c := l.clients[i%cfg.Clients]
		t0 := c.Clock.Total()
		if rng.Float64() < cfg.GetFraction {
			reader.hit(c, l.owned.key(int32(zipf.Next())))
		} else if err := cache.set(c, int32(zipf.Next()), lo+rng.Intn(hi-lo+1)); err != nil {
			return nil, err
		}
		warmSvc += c.Clock.Total() - t0
	}
	l.rate = cfg.RatePerSec
	if l.rate <= 0 {
		meanSvc := float64(warmSvc) / float64(warm)
		l.rate = targetUtil * float64(cfg.Clients) / meanSvc * sim.CyclesPerSecond
	}

	l.zipf, l.zipf.rng = *zipf, nil
	l.draws = rng.Draws()
	return l, nil
}

// Run is a serving run from l on: it arms hooks.Crash, dispatches the
// config's Ops operations, resumes after a scheduled crash and drains the
// last epoch. ctx, p and store are the machine l was loaded on, or the fork
// of its machine that l's image was forked for. Run takes l's cache and
// client contexts over and releases l when it returns. Like Serve, it owns
// the machine until then.
func (l *Loaded) Run(ctx *sim.Ctx, p *pmop.Pool, store ds.Store, hooks ServeHooks) (ServeResult, error) {
	cfg := l.cfg
	plan := hooks.Crash
	cache := l.cache
	if cache == nil {
		return ServeResult{}, errors.New("redisws.Loaded.Run: the Loaded has run or been released")
	}
	defer l.Release()
	cache.store = store
	rng := workload.NewRNG(cfg.Seed)
	rng.Skip(l.draws)
	zipf := l.zipf
	zipf.rng = rng

	dev := p.Device()
	res := ServeResult{Lat: NewLatencyRecorder(0, 0), RateUsed: l.rate}

	// held[i] is client i's lost-in-flight op awaiting retry after a crash;
	// inFlight is the op currently executing serially; awaitFirstAck marks the
	// window between resume and the first post-resume completion.
	var held []*pendingOp
	var inFlight *pendingOp
	var awaitFirstAck bool
	if plan != nil {
		held = make([]*pendingOp, cfg.Clients)
	}

	ps, _ := store.(parallelStore)
	reader := hitReader{store: store}
	marks := newSetMarks(dev.NumSets())

	clients := make([]clientState, cfg.Clients)
	for i := range clients {
		clients[i].ctx = l.clients[i]
	}
	lo, hi := cfg.MinVal, cfg.MaxVal
	meanInter := float64(cfg.Clients) * sim.CyclesPerSecond / l.rate // cycles, per client

	heap := &clientHeap{base: make([]uint64, cfg.Clients)}
	for i := range clients {
		clients[i].nextArrival = uint64(rng.ExpFloat64() * meanInter)
		heap.base[i] = clients[i].nextArrival
		heap.push(i)
	}

	var (
		stallUntil uint64
		vHigh      uint64 // high-water completion time
		dispatched int
		nextMaint  = cfg.MaintEvery
		epochOpen  bool
		carry      pendingOp // the op that ended the last batch, when carried
		carried    bool
		batch      []pendingOp
		driftAt    = cfg.Ops / 2
	)

	// Time-series instrumentation (nil/zero-cost when hooks.Series is unset).
	series := hooks.Series
	var drainByCli []uint64
	if series != nil {
		// Per-fence stall attribution: the device probe maps the issuing
		// context's shard back to its client.
		drainByCli = make([]uint64, cfg.Clients)
		shard2cli := make(map[uint32]int, cfg.Clients)
		for i := range clients {
			shard2cli[clients[i].ctx.Shard] = i
		}
		dev.SetDrainProbe(func(c *sim.Ctx, cycles uint64) {
			if i, ok := shard2cli[c.Shard]; ok {
				drainByCli[i] += cycles
			}
		})
		defer dev.SetDrainProbe(nil)
	}
	// epTrack mirrors epochOpen transitions into overlay intervals. Only
	// hooks.EpochInfo opens an epoch, so it is set when one opens.
	var epTrack struct {
		open  bool
		start uint64
		id    uint64
	}
	noteEpoch := func(now uint64) {
		if series == nil || epochOpen == epTrack.open {
			return
		}
		if epochOpen {
			epTrack.open, epTrack.start = true, now
			epTrack.id, _ = hooks.EpochInfo()
		} else {
			series.AddInterval(obsv.IntervalEpoch, epTrack.start, now, epTrack.id)
			epTrack.open, epTrack.id = false, 0
		}
	}
	// The footprint visitors are made once per run and leave their results in
	// footSet and footConflict: a visitor made per call escapes to the heap
	// through the store interface on every candidate.
	var (
		footSet      int
		footConflict bool
	)
	visitFirstSet := func(off, n uint64) {
		if footSet < 0 {
			footSet = int(dev.SetOfAddr(p.PA(off &^ (pmem.LineSize - 1))))
		}
	}
	visitStamp := func(off, n uint64) {
		if footConflict {
			return
		}
		for a := off &^ (pmem.LineSize - 1); a < off+n; a += pmem.LineSize {
			set := dev.SetOfAddr(p.PA(a))
			switch marks.stamp[set] {
			case marks.batchTag:
				footConflict = true
				return
			case marks.candTag:
				// dup within this candidate
			default:
				marks.stamp[set] = marks.candTag
				marks.cand = append(marks.cand, set)
			}
		}
	}
	// primarySet resolves a serial op's primary device cache set (its store
	// footprint's first line) with non-perturbing peeks; -1 when unknown.
	primarySet := func(key uint64) int {
		footSet = -1
		ps.GetFootprint(key, visitFirstSet)
		return footSet
	}

	// footprintSets stamps the candidate's predicted cache sets; reports
	// whether it conflicts with the current batch.
	footprintSets := func(key uint64) bool {
		marks.newCand()
		footConflict = false
		ps.GetFootprint(key, visitStamp)
		return footConflict
	}
	// acceptCand promotes the candidate's stamps into the batch.
	acceptCand := func() {
		for _, set := range marks.cand {
			marks.stamp[set] = marks.batchTag
		}
	}

	// genOp pops the lowest-virtual-time client and draws its operation. A
	// held (crash-lost, retried) op is replayed as drawn — no fresh randomness,
	// so the post-resume stream stays aligned with the repro's seed.
	genOp := func() pendingOp {
		id := heap.pop()
		c := &clients[id]
		if held != nil && held[id] != nil {
			op := *held[id]
			held[id] = nil
			return op
		}
		op := pendingOp{cli: id, arrival: c.nextArrival, retryAt: c.resubmitAt}
		c.resubmitAt = 0
		op.isGet = rng.Float64() < cfg.GetFraction
		op.rank = int32(zipf.Next())
		op.key = l.owned.key(op.rank)
		if !op.isGet {
			op.valSize = lo + rng.Intn(hi-lo+1)
		}
		c.nextArrival += uint64(rng.ExpFloat64() * meanInter)
		return op
	}

	// execGet runs one batched GET on its client's private context.
	execGet := func(op *pendingOp) {
		c := &clients[op.cli]
		t0 := c.ctx.Clock.Total()
		a0 := c.ctx.Clock.Cycles(sim.CatApp)
		var d0 uint64
		if drainByCli != nil {
			d0 = drainByCli[op.cli]
		}
		_, op.hit = ps.GetParallel(c.ctx, op.key)
		op.svc = c.ctx.Clock.Total() - t0
		op.app = c.ctx.Clock.Cycles(sim.CatApp) - a0
		if drainByCli != nil {
			op.wpq = drainByCli[op.cli] - d0
		}
	}

	// commit applies one executed op in dispatch order: latency accounting,
	// LRU update, and the client's re-entry into the virtual-time heap.
	commit := func(op *pendingOp, batched bool) {
		c := &clients[op.cli]
		base := op.arrival
		if c.readyAt > base {
			base = c.readyAt
		}
		start := base
		if stallUntil > start {
			start = stallUntil
		}
		if op.retryAt > start {
			start = op.retryAt
		}
		comp := start + op.svc
		c.readyAt = comp
		if comp > vHigh {
			vHigh = comp
		}
		if awaitFirstAck {
			res.TimeToFirstAck = comp - res.CrashCycle
			awaitFirstAck = false
		}

		queueWait := base - op.arrival // waiting behind this connection's previous op
		stallWait := start - base
		res.Lat.Observe(comp - op.arrival)
		res.AppCycles += op.app
		res.InterfCycles += op.svc - op.app
		res.StallWaitCycles += stallWait
		res.QueueWaitCycles += queueWait

		if series != nil {
			pureApp := op.app
			if op.wpq <= pureApp {
				pureApp -= op.wpq
			} else {
				// Fence stalls charged outside CatApp (barrier relocations on
				// the client's clock); leave them in WPQDrain only.
				pureApp = 0
			}
			cause := obsv.StallCause{
				Scheme:    series.Scheme(),
				Phase:     "idle",
				App:       pureApp,
				WPQDrain:  op.wpq,
				Interf:    op.svc - op.app,
				STWWait:   stallWait,
				QueueWait: queueWait,
				CacheSet:  -1,
				Key:       op.key,
				Shard:     cfg.ShardIndex,
			}
			if epochOpen {
				cause.Phase, cause.Epoch = "compacting", epTrack.id
			}
			switch {
			case batched:
				cause.CacheSet = op.set
			case ps != nil:
				cause.CacheSet = primarySet(op.key)
			}
			// Chain attribution: a stalled op dispatched at the pause end; a
			// queued op inherits its connection's pending attribution.
			switch {
			case stallWait > 0:
				cause.STWRef = start
				c.stwRef = start
			case queueWait > 0 && c.stwRef != 0:
				cause.STWRef = c.stwRef
			default:
				c.stwRef = 0
			}
			series.ObserveOp(obsv.OpSample{
				Arrival: op.arrival, Start: start, Complete: comp,
				App: op.app, Interf: op.svc - op.app, Stall: stallWait, Queue: queueWait,
				Cause: cause,
			})
		}

		if op.isGet {
			res.Gets++
			if op.hit {
				res.Hits++
				cache.touch(op.rank)
			} else {
				res.Misses++
			}
		} else {
			res.Sets++
		}
		res.Ops++
		dispatched++
		heap.base[op.cli] = c.nextArrival
		if c.readyAt > heap.base[op.cli] {
			heap.base[op.cli] = c.readyAt
		}
		heap.push(op.cli)
	}

	// execSerial runs a SET (or a GET that could not batch) on the dispatch
	// goroutine.
	execSerial := func(op *pendingOp) error {
		c := &clients[op.cli]
		inFlight = op
		t0 := c.ctx.Clock.Total()
		a0 := c.ctx.Clock.Cycles(sim.CatApp)
		var d0 uint64
		if drainByCli != nil {
			d0 = drainByCli[op.cli]
		}
		// A SET's evictions run on the owning client's clock: the deletes are
		// that connection's work.
		if op.isGet {
			op.hit = reader.hit(c.ctx, op.key)
		} else if err := cache.set(c.ctx, op.rank, op.valSize); err != nil {
			return err
		}
		op.svc = c.ctx.Clock.Total() - t0
		op.app = c.ctx.Clock.Cycles(sim.CatApp) - a0
		if drainByCli != nil {
			op.wpq = drainByCli[op.cli] - d0
		}
		res.SerialOps++
		commit(op, false)
		inFlight = nil
		return nil
	}

	afterRound := func(n int) {
		if hooks.Step != nil && epochOpen {
			var pause uint64
			epochOpen, pause = hooks.Step(n)
			if pause > 0 && vHigh+pause > stallUntil {
				if series != nil {
					// The terminate pause of the epoch being stepped.
					series.AddInterval(obsv.IntervalSTW, vHigh, vHigh+pause, epTrack.id)
				}
				stallUntil = vHigh + pause
			}
			noteEpoch(vHigh)
		}
	}

	// dispatch runs the serving loop to completion (or until a crash site
	// fires, unwinding through it as a *pmem.CrashAtSite panic).
	dispatch := func() error {
		epochOpen = hooks.epochOpen()
		noteEpoch(vHigh)
		for dispatched < cfg.Ops {
			if dispatched >= nextMaint {
				nextMaint += cfg.MaintEvery
				if hooks.Maintenance != nil {
					if pause := hooks.Maintenance(vHigh); pause > 0 {
						if vHigh+pause > stallUntil {
							if series != nil {
								series.AddInterval(obsv.IntervalSTW, vHigh, vHigh+pause, epTrack.id)
							}
							stallUntil = vHigh + pause
						}
					}
				}
				epochOpen = hooks.epochOpen()
				noteEpoch(vHigh)
			}
			if cfg.MinVal2 > 0 && dispatched >= driftAt {
				lo, hi = cfg.MinVal2, cfg.MaxVal2
			}

			// Collect a batch of commuting GETs in virtual-time order.
			batch = batch[:0]
			marks.newBatch()
			canBatch := ps != nil && !epochOpen
			for dispatched+len(batch) < cfg.Ops {
				var op pendingOp
				if carried {
					op, carried = carry, false
				} else if len(heap.ids) > 0 {
					op = genOp()
				} else {
					break // every client is already in the batch
				}
				if canBatch && op.isGet && len(batch) < maxBatch && !footprintSets(op.key) {
					acceptCand()
					op.set = marks.cand[0]
					batch = append(batch, op)
					continue
				}
				carry, carried = op, true
				break
			}

			if len(batch) > 0 {
				for i := range batch {
					execGet(&batch[i])
					commit(&batch[i], true)
				}
				res.ParallelOps += len(batch)
				res.Batches++
				afterRound(len(batch))
			} else if carried {
				carried = false
				if err := execSerial(&carry); err != nil {
					return err
				}
				afterRound(1)
			}
		}

		// Drain any open epoch so Final reflects a quiesced machine.
		if hooks.Step != nil {
			for epochOpen {
				epochOpen, _ = hooks.Step(maxBatch)
			}
			noteEpoch(vHigh)
		}
		return nil
	}

	// resumeFromCrash swaps in the recovered machine and restarts the arrival
	// process with degraded-mode admission: lost requests (in flight or queued
	// server-side when the power failed) retry with capped exponential backoff;
	// blackout-era submissions hit a bounded admission queue — the first
	// admitCap park until resume, the rest are rejected into backoff. The whole
	// reschedule is simulated serially in (time, client) order, so the resumed
	// run is a pure function of the repro at any host thread count.
	resumeFromCrash := func(crash *pmem.CrashAtSite) error {
		crashAt := vHigh
		rec, err := plan.Recover(crash, cache.model(), cache.pending)
		if err != nil {
			return err
		}
		// Swap the machine. The recovered pool reopens the same device, so the
		// drain probe and set geometry carry over.
		store, cache.store, reader.store = rec.Store, rec.Store, rec.Store
		ps, _ = store.(parallelStore)
		if rec.Pool != nil {
			p = rec.Pool
			dev = p.Device()
		}
		rec.Hooks.Series, rec.Hooks.Crash = hooks.Series, hooks.Crash
		hooks = rec.Hooks
		// The pre-crash epoch (if any) died with the power: close its overlay.
		epochOpen = false
		noteEpoch(crashAt)

		resumeAt := crashAt + rec.Cycles
		res.Crashes++
		res.CrashCycle = crashAt
		res.ResumeCycle = resumeAt
		res.BlackoutCycles += rec.Cycles
		if series != nil {
			series.AddInterval(obsv.IntervalRecovery, crashAt, resumeAt, 0)
		}
		awaitFirstAck = true
		if resumeAt > stallUntil {
			stallUntil = resumeAt
		}

		// Rebuild the volatile LRU from the verified durable model.
		cache.rebuild(rec.Model)

		// Degraded-mode reschedule.
		const backBase, backCap uint64 = 65536, 65536 << 6
		admitCap := cfg.Clients/4 + 1
		backoff := func(tries int) uint64 {
			b := backBase
			for i := 0; i < tries && b < backCap; i++ {
				b <<= 1
			}
			if b > backCap {
				b = backCap
			}
			return b
		}
		type attempt struct {
			cli   int
			t     uint64 // when this submission (re)reaches the server
			tries int
			op    *pendingOp // non-nil: a drawn op lost in flight
		}
		var atts []attempt
		lost := func(op pendingOp) {
			res.Retries++
			atts = append(atts, attempt{cli: op.cli, t: crashAt + backoff(0), tries: 1, op: &op})
		}
		if inFlight != nil {
			lost(*inFlight)
			inFlight = nil
		}
		if carried {
			lost(carry)
			carried = false
		}
		for _, id := range heap.ids {
			c := &clients[id]
			if c.nextArrival <= crashAt {
				// Submitted before the failure; lost with the server's queue.
				res.Retries++
				atts = append(atts, attempt{cli: id, t: crashAt + backoff(0), tries: 1})
			} else {
				atts = append(atts, attempt{cli: id, t: c.nextArrival})
			}
		}
		heap.ids = heap.ids[:0]
		// finalize re-enters a client into the dispatch heap; submitAt > 0 is
		// the time its submission reached the server (0 = parked in the
		// admission queue; stallUntil already clamps its start to resumeAt).
		finalize := func(a attempt, submitAt uint64) {
			c := &clients[a.cli]
			var base uint64
			if a.op != nil {
				op := *a.op
				op.retryAt = submitAt
				held[a.cli] = &op
				base = op.arrival
			} else {
				c.resubmitAt = submitAt
				base = c.nextArrival
			}
			if submitAt > base {
				base = submitAt
			}
			if c.readyAt > base {
				base = c.readyAt
			}
			heap.base[a.cli] = base
			heap.push(a.cli)
		}
		admitted := 0
		for len(atts) > 0 {
			mi := 0
			for i := 1; i < len(atts); i++ {
				if atts[i].t < atts[mi].t || (atts[i].t == atts[mi].t && atts[i].cli < atts[mi].cli) {
					mi = i
				}
			}
			a := atts[mi]
			atts[mi] = atts[len(atts)-1]
			atts = atts[:len(atts)-1]
			switch {
			case a.t >= resumeAt:
				finalize(a, a.t)
			case admitted < admitCap:
				admitted++
				res.Admitted++
				finalize(a, 0)
			default:
				res.Rejects++
				res.Retries++
				if series != nil {
					series.AddInterval(obsv.IntervalBackoff, a.t, a.t+backoff(a.tries), uint64(a.cli))
				}
				a.t += backoff(a.tries)
				a.tries++
				atts = append(atts, a)
			}
		}
		return nil
	}

	if plan != nil && plan.Arm != nil {
		plan.Arm()
	}
	for {
		var crash *pmem.CrashAtSite
		var err error
		if plan != nil {
			crash = pmem.CatchCrash(func() { err = dispatch() })
		} else {
			err = dispatch()
		}
		if err != nil {
			return res, err
		}
		if crash == nil {
			break
		}
		if err := resumeFromCrash(crash); err != nil {
			return res, err
		}
	}

	res.Evictions = cache.evictions
	res.Makespan = vHigh
	res.SimCycles = ctx.Clock.Total()
	for i := range clients {
		res.SimCycles += clients[i].ctx.Clock.Total()
	}
	res.Final = hooks.footprint(p)
	return res, nil
}

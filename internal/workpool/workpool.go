// Package workpool is the one bounded worker pool every host-side fan-out in
// this repo shares. The experiment driver (RunSpecs, the fork driver's
// per-group fan-out), the fault-injection campaign (trial sweeps, repetition
// grids) and any future driver all draw helper goroutines from the same
// budget, so nested fan-outs — RunSpecsForked fanning a fork group out from
// inside its per-cell fan-out, a campaign running trials from inside a
// repetition sweep — share GOMAXPROCS slots instead of multiplying them.
//
// The pool is work-stealing: every ForEach registers its iteration range as
// a job on a process-wide list, and a helper whose own fan-out runs dry
// steals iterations from any other in-flight fan-out before giving its slot
// back. This is what saturates a many-core host when sibling fan-outs finish
// unevenly (one fork group down to its last slow scheme while another has a
// queue) — under the old FIFO token handoff, helpers were pinned to the
// fan-out that spawned them and cores idled.
//
// The nesting rule that makes the pool deadlock-free is unchanged: the
// calling goroutine ALWAYS participates in its own fan-out, and helpers are
// only taken when a pool slot is free (a non-blocking acquire). An inner
// ForEach that finds the pool exhausted simply runs serially on its caller —
// which already holds a slot — so no fan-out ever *needs* a helper to make
// progress, and a fan-out only ever waits for its own iterations (stolen or
// not), never for another fan-out's completion.
//
// Parallelism is purely a host concern: every unit of work in this repo
// builds its own hermetic simulated machine, so the pool size changes
// wall-clock time only, never a simulated result.
package workpool

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
)

// job is one ForEach fan-out. Its work queue is the index range [0, n),
// claimed through the atomic next counter — claiming is what both the
// caller's own loop and stealing helpers do, so "the deque" is bounded by
// construction (indices past n claim nothing). Completion is tracked
// separately from claiming: the goroutine that finishes the last iteration
// closes fin, releasing the caller.
type job struct {
	n    int
	f    func(i int) error
	errs []error
	next atomic.Int64
	done atomic.Int64
	fin  chan struct{}
}

// claim takes the next unclaimed iteration, if any.
func (j *job) claim() (int, bool) {
	i := int(j.next.Add(1) - 1)
	return i, i < j.n
}

// run executes one claimed iteration and signals completion of the job when
// it was the last.
func (j *job) run(i int) {
	j.errs[i] = j.f(i)
	if j.done.Add(1) == int64(j.n) {
		close(j.fin)
	}
}

var (
	mu   sync.Mutex
	size atomic.Int64
	// tokens holds size-1 helper slots (the caller of a fan-out is the
	// implicit size-th worker). Holding a token is the right to run one
	// helper goroutine; a helper returns its token when no fan-out anywhere
	// has claimable work left.
	tokens chan struct{}
	// gen is bumped by SetParallelism; helpers retire at their next steal
	// attempt when their generation is stale, so a shrunk pool converges to
	// its new budget instead of old helpers stealing indefinitely.
	gen atomic.Uint64
	// jobs is the work-stealing substrate: every in-flight ForEach, in
	// registration order (helpers drain older fan-outs first).
	jobs []*job
)

func init() {
	SetParallelism(parallelFromEnv(os.Getenv("FFCCD_PARALLEL"), runtime.GOMAXPROCS(0), os.Stderr))
}

// parallelFromEnv resolves an FFCCD_PARALLEL override against a default.
// Invalid values (non-numeric, zero, negative) are reported once on warn and
// ignored — a silently-swallowed typo here used to mean a silently serial
// bench run.
func parallelFromEnv(s string, def int, warn io.Writer) int {
	if s == "" {
		return def
	}
	v, err := strconv.Atoi(s)
	if err != nil || v <= 0 {
		fmt.Fprintf(warn, "workpool: ignoring invalid FFCCD_PARALLEL=%q (want a positive integer), using %d\n", s, def)
		return def
	}
	return v
}

// SetParallelism sets the pool size (values < 1 mean serial). It takes
// effect for fan-outs that start afterwards; helpers already running finish
// against the budget they were spawned under.
func SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	mu.Lock()
	defer mu.Unlock()
	size.Store(int64(n))
	gen.Add(1)
	tokens = make(chan struct{}, n-1)
	for i := 0; i < n-1; i++ {
		tokens <- struct{}{}
	}
}

// Parallelism returns the current pool size.
func Parallelism() int { return int(size.Load()) }

// deregister removes j from the stealing list.
func deregister(j *job) {
	mu.Lock()
	for i, other := range jobs {
		if other == j {
			jobs[i] = jobs[len(jobs)-1]
			jobs[len(jobs)-1] = nil
			jobs = jobs[:len(jobs)-1]
			break
		}
	}
	mu.Unlock()
}

// steal claims one iteration from any in-flight fan-out, oldest first.
func steal() (*job, int, bool) {
	mu.Lock()
	defer mu.Unlock()
	for _, j := range jobs {
		if i, ok := j.claim(); ok {
			return j, i, true
		}
	}
	return nil, 0, false
}

// helper runs claimed work until no fan-out anywhere has claimable
// iterations — or its pool generation is retired by SetParallelism — then
// hands its slot back on ch (the token channel it was spawned under; a later
// SetParallelism retires the old channel wholesale, so the return never
// blocks and never refills the new pool).
func helper(ch chan struct{}, g uint64) {
	for {
		if gen.Load() != g {
			ch <- struct{}{}
			return
		}
		j, i, ok := steal()
		if !ok {
			ch <- struct{}{}
			return
		}
		j.run(i)
	}
}

// ForEach runs f(0..n-1), writing results into index-addressed slots so the
// outcome is deterministic regardless of worker count, and returns the first
// error in index order. The caller works too; helper goroutines are added
// only while pool slots are free, so total workers across all concurrent
// (and nested) ForEach calls never exceed Parallelism(). Helpers outlive the
// fan-out that spawned them: when one fan-out drains they steal from any
// other, so a slot freed by an uneven group immediately serves whoever still
// has work.
func ForEach(n int, f func(i int) error) error {
	if n <= 0 {
		return nil
	}
	j := &job{n: n, f: f, errs: make([]error, n), fin: make(chan struct{})}
	// A serial pool (size 1) never has helpers, so the job is not published
	// for stealing — this also guarantees strictly in-order execution on the
	// caller, which a straggling helper from a just-resized pool could
	// otherwise perturb.
	mu.Lock()
	ch := tokens
	g := gen.Load()
	stealable := size.Load() > 1
	if stealable {
		jobs = append(jobs, j)
	}
	mu.Unlock()

spawn:
	for helpers := 0; helpers < n-1; helpers++ {
		select {
		case <-ch:
			go helper(ch, g)
		default:
			// Pool exhausted: no helper spawned here, but a helper freed
			// elsewhere can still steal into this job via the list.
			break spawn
		}
	}

	// The caller is its own fan-out's first worker.
	for {
		i, ok := j.claim()
		if !ok {
			break
		}
		j.run(i)
	}
	// Own claims exhausted; iterations stolen by helpers may still be in
	// flight. Wait for *this job's* completion only — never another
	// fan-out's.
	<-j.fin
	if stealable {
		deregister(j)
	}

	for _, err := range j.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// FreeList is a bounded, process-wide free list of host memory that
// simulated machines on different pool workers hand each other: cache
// arrays, TLB arrays, an engine's epoch tables. It holds at most PerWorker ×
// Parallelism() entries; Take returns the most recently put one that fits,
// and beyond the bound Put leaves the oldest to the garbage collector. What
// an entry holds is host memory only, so whether a machine gets a recycled
// entry or a new one never changes a simulated result. Declare one as a
// package variable with PerWorker set; the zero value of the rest is ready.
type FreeList[T any] struct {
	// PerWorker is the most entries the list keeps per pool worker: about
	// how many a worker's job releases at once.
	PerWorker int

	mu   sync.Mutex
	free []T
}

// Take removes and returns the most recently put entry for which fits
// reports true (every entry when fits is nil); ok is false when none does.
func (l *FreeList[T]) Take(fits func(T) bool) (v T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := len(l.free) - 1; i >= 0; i-- {
		if v = l.free[i]; fits == nil || fits(v) {
			l.free = slices.Delete(l.free, i, i+1)
			return v, true
		}
	}
	var zero T
	return zero, false
}

// Put adds v to the list, dropping the oldest entry past the bound.
func (l *FreeList[T]) Put(v T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.free = append(l.free, v)
	if len(l.free) > l.PerWorker*Parallelism() {
		l.free = slices.Delete(l.free, 0, 1)
	}
}

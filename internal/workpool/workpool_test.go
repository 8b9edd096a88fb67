package workpool

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// withParallelism runs body under a temporary pool size, restoring the
// previous size afterwards (the pool is process-global).
func withParallelism(t *testing.T, n int, body func()) {
	t.Helper()
	old := Parallelism()
	SetParallelism(n)
	defer SetParallelism(old)
	body()
}

func TestForEachCoversAllIndices(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		withParallelism(t, p, func() {
			const n = 100
			var hits [n]atomic.Int32
			if err := ForEach(n, func(i int) error {
				hits[i].Add(1)
				return nil
			}); err != nil {
				t.Fatalf("p=%d: unexpected error: %v", p, err)
			}
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("p=%d: index %d ran %d times", p, i, got)
				}
			}
		})
	}
}

func TestForEachFirstErrorInIndexOrder(t *testing.T) {
	withParallelism(t, 4, func() {
		want := errors.New("boom-3")
		err := ForEach(10, func(i int) error {
			if i == 7 {
				return errors.New("boom-7")
			}
			if i == 3 {
				return want
			}
			return nil
		})
		if err != want {
			t.Fatalf("got %v, want the index-3 error", err)
		}
	})
}

func TestForEachZeroAndNegative(t *testing.T) {
	if err := ForEach(0, func(int) error { return fmt.Errorf("ran") }); err != nil {
		t.Fatalf("n=0: %v", err)
	}
	if err := ForEach(-5, func(int) error { return fmt.Errorf("ran") }); err != nil {
		t.Fatalf("n<0: %v", err)
	}
}

// TestNestedForEachRespectsBudget is the pool's reason to exist: an outer
// fan-out whose workers each start an inner fan-out must never run more
// than Parallelism() units at once, and must not deadlock.
func TestNestedForEachRespectsBudget(t *testing.T) {
	const p = 3
	withParallelism(t, p, func() {
		var cur, peak atomic.Int32
		unit := func() {
			c := cur.Add(1)
			for {
				old := peak.Load()
				if c <= old || peak.CompareAndSwap(old, c) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			cur.Add(-1)
		}
		err := ForEach(4, func(int) error {
			return ForEach(4, func(int) error {
				unit()
				return nil
			})
		})
		if err != nil {
			t.Fatalf("nested ForEach: %v", err)
		}
		if got := peak.Load(); got > p {
			t.Fatalf("peak concurrency %d exceeds pool size %d", got, p)
		}
	})
}

// TestParallelFromEnv pins FFCCD_PARALLEL parsing: valid values override the
// default, invalid ones (non-numeric, zero, negative, trailing junk) warn
// once on the writer and fall back — never silently.
func TestParallelFromEnv(t *testing.T) {
	cases := []struct {
		in       string
		want     int
		wantWarn bool
	}{
		{"", 8, false},
		{"4", 4, false},
		{"1", 1, false},
		{"0", 8, true},
		{"-3", 8, true},
		{"abc", 8, true},
		{"4x", 8, true},
		{"3.5", 8, true},
		{" 2", 8, true},
	}
	for _, c := range cases {
		var warn strings.Builder
		got := parallelFromEnv(c.in, 8, &warn)
		if got != c.want {
			t.Errorf("parallelFromEnv(%q) = %d, want %d", c.in, got, c.want)
		}
		if c.wantWarn != (warn.Len() > 0) {
			t.Errorf("parallelFromEnv(%q): warning emitted = %v, want %v (output %q)",
				c.in, warn.Len() > 0, c.wantWarn, warn.String())
		}
		if c.wantWarn && !strings.Contains(warn.String(), "FFCCD_PARALLEL") {
			t.Errorf("parallelFromEnv(%q) warning %q does not name the variable", c.in, warn.String())
		}
	}
}

// TestStealingAcrossFanOuts is the work-stealing pool's reason to exist: a
// helper freed when one fan-out drains must migrate to a sibling fan-out
// that still has work, instead of idling behind the old FIFO token handoff.
// With pool size 2 (one helper slot): fan-out A takes the helper and parks;
// fan-out B starts helper-less and grinds serially; releasing A must let its
// helper steal into B, making B's iterations overlap. (If A happens to lose
// the token race the overlap arrives even earlier — the test never
// false-fails on scheduling, it only false-passes the stealing aspect.)
func TestStealingAcrossFanOuts(t *testing.T) {
	withParallelism(t, 2, func() {
		aRelease := make(chan struct{})
		var overlapped atomic.Bool
		var inB atomic.Int32
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // A: two parked iterations (caller + the pool's one helper)
			defer wg.Done()
			_ = ForEach(2, func(int) error { <-aRelease; return nil })
		}()
		time.Sleep(10 * time.Millisecond) // let A claim the helper slot
		bFirst := make(chan struct{})
		var once sync.Once
		go func() { // B: long serial grind until a stolen helper joins
			defer wg.Done()
			_ = ForEach(16, func(int) error {
				once.Do(func() { close(bFirst) })
				if inB.Add(1) > 1 {
					overlapped.Store(true)
				}
				time.Sleep(2 * time.Millisecond)
				inB.Add(-1)
				return nil
			})
		}()
		<-bFirst
		close(aRelease) // A drains; its helper must rescan and steal into B
		wg.Wait()
		if !overlapped.Load() {
			t.Fatal("helper freed by a drained fan-out never stole into the running sibling")
		}
	})
}

// TestFanOutReturnsWhileSiblingStillRunning pins the deadlock-freedom
// invariant the fork driver relies on (PR-5): a fan-out waits only for its
// OWN iterations, so a fast fan-out completes while a concurrently started
// slow one is still mid-flight — even when the slow one holds every helper.
func TestFanOutReturnsWhileSiblingStillRunning(t *testing.T) {
	withParallelism(t, 4, func() {
		slowRunning := make(chan struct{})
		release := make(chan struct{})
		var slowDone atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			var once sync.Once
			_ = ForEach(4, func(int) error {
				once.Do(func() { close(slowRunning) })
				<-release
				return nil
			})
			slowDone.Store(true)
		}()
		<-slowRunning
		// The sibling fan-out must complete even though the slow group
		// occupies the pool: the caller is its own worker.
		done := make(chan struct{})
		go func() {
			_ = ForEach(16, func(int) error { return nil })
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("fast fan-out blocked on a sibling fan-out's completion")
		}
		if slowDone.Load() {
			t.Fatal("slow fan-out finished early; assertion vacuous")
		}
		close(release)
		wg.Wait()
	})
}

// TestNestedStressRandomized3Deep is the randomized deadlock-freedom stress
// for the work-stealing deques: 3-deep nested ForEach trees with random
// fan-out widths and sleep times, run at several pool sizes under -race (it
// is part of the short suite `make race` runs). Budget and completion are
// asserted; a deadlock shows up as the 60s watchdog firing.
func TestNestedStressRandomized3Deep(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range []int{1, 2, 3, 5} {
		withParallelism(t, p, func() {
			var cur, peak atomic.Int32
			var leaves atomic.Int64
			var wantLeaves atomic.Int64
			watchdog := time.AfterFunc(60*time.Second, func() {
				panic(fmt.Sprintf("nested stress deadlocked at pool size %d", p))
			})
			defer watchdog.Stop()

			width := func() int { return 1 + rng.Intn(4) }
			outer, mid, inner := width()+1, width(), width()
			wantLeaves.Store(int64(outer * mid * inner))
			err := ForEach(outer, func(o int) error {
				return ForEach(mid, func(m int) error {
					return ForEach(inner, func(i int) error {
						c := cur.Add(1)
						for {
							old := peak.Load()
							if c <= old || peak.CompareAndSwap(old, c) {
								break
							}
						}
						// Deterministic per-leaf jitter (rng is not
						// goroutine-safe; leaves run concurrently).
						jitter := time.Duration((o*31+m*17+i*7)%750) * time.Microsecond
						time.Sleep(250*time.Microsecond + jitter)
						leaves.Add(1)
						cur.Add(-1)
						return nil
					})
				})
			})
			if err != nil {
				t.Fatalf("p=%d: %v", p, err)
			}
			if got := leaves.Load(); got != wantLeaves.Load() {
				t.Fatalf("p=%d: ran %d leaves, want %d", p, got, wantLeaves.Load())
			}
			if got := peak.Load(); got > int32(p) {
				t.Fatalf("p=%d: peak concurrency %d exceeds pool size", p, got)
			}
		})
	}
}

func TestSerialPoolRunsInline(t *testing.T) {
	withParallelism(t, 1, func() {
		var mu sync.Mutex
		order := make([]int, 0, 5)
		if err := ForEach(5, func(i int) error {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, v := range order {
			if v != i {
				t.Fatalf("serial pool ran out of order: %v", order)
			}
		}
	})
}

// TestFreeList: Take returns the most recently put entry that fits, and Put
// keeps at most PerWorker × Parallelism() entries, dropping the oldest.
// Workers of one fan-out share the list.
func TestFreeList(t *testing.T) {
	withParallelism(t, 2, func() {
		l := FreeList[int]{PerWorker: 2}
		for v := 1; v <= 6; v++ {
			l.Put(v)
		}
		odd := func(v int) bool { return v%2 == 1 }
		for _, want := range []int{5, 3} {
			if v, ok := l.Take(odd); !ok || v != want {
				t.Fatalf("Take(odd) = %d, %v; want %d", v, ok, want)
			}
		}
		if v, ok := l.Take(odd); ok {
			t.Fatalf("Take(odd) = %d past the bound: 1 should have been dropped", v)
		}
		for _, want := range []int{6, 4} {
			if v, ok := l.Take(nil); !ok || v != want {
				t.Fatalf("Take(nil) = %d, %v; want %d", v, ok, want)
			}
		}
		if _, ok := l.Take(nil); ok {
			t.Fatal("an emptied list still holds an entry")
		}

		var taken atomic.Int64
		if err := ForEach(64, func(i int) error {
			l.Put(i)
			if _, ok := l.Take(nil); ok {
				taken.Add(1)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if taken.Load() == 0 {
			t.Fatal("no worker took an entry back")
		}
	})
}

package core_test

import (
	"runtime"
	"testing"

	"ffccd/internal/core"
	"ffccd/internal/ds"
	"ffccd/internal/machine"
	"ffccd/internal/pmem"
	"ffccd/internal/sim"
)

// inheritSpec is the geometry of the machines TestInheritedEpochMemoryIsInvisible
// builds.
func inheritSpec() machine.Spec {
	cfg := sim.DefaultConfig()
	cfg.CacheBytes = 256 * 1024
	return machine.Spec{Name: "inherit", PoolBytes: 64 << 20, PageShift: 12, Sim: cfg}
}

// fragmentedMachine builds a machine whose AVL store was churned once.
func fragmentedMachine(t *testing.T, keys int) *machine.Machine {
	t.Helper()
	m, err := machine.Build(inheritSpec())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Release)
	if m.Store, err = ds.NewAVL(m.Ctx, m.Pool); err != nil {
		t.Fatal(err)
	}
	churn(t, m, keys, 0)
	return m
}

// churn inserts round's batch of keys values of mixed sizes and deletes two
// of every three, which leaves the batch's frames about a third full.
func churn(t *testing.T, m *machine.Machine, keys, round int) {
	t.Helper()
	base := round * keys
	for k := base; k < base+keys; k++ {
		if err := m.Store.Insert(m.Ctx, uint64(k), make([]byte, 16+k*37%200)); err != nil {
			t.Fatal(err)
		}
	}
	for k := base; k < base+keys; k++ {
		if k%3 == 0 {
			continue
		}
		if _, err := m.Store.Delete(m.Ctx, uint64(k)); err != nil {
			t.Fatal(err)
		}
	}
}

// allocated returns the host bytes f allocates.
func allocated(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// outcome is everything a run shows of the simulated machine.
type outcome struct {
	app, gc [sim.NumCategories]uint64
	engine  core.EngineStats
	device  pmem.Stats
	hash    uint64
}

func outcomeOf(m *machine.Machine) outcome {
	return outcome{
		app:    m.Ctx.Clock.Snapshot(),
		gc:     m.Eng.GCClock().Snapshot(),
		engine: m.Eng.Stats(),
		device: m.Device().Stats(),
		hash:   m.Device().HashMedia(),
	}
}

// TestInheritedEpochMemoryIsInvisible runs engine B on the epoch memory
// engine A handed on, and B's twin, on an identically built machine, on
// fresh memory: every clock category of the application and engine contexts,
// the engine and device counters and the media must agree after B's
// recovery or first epoch and after a second epoch. A runs on a larger heap
// than B, on a smaller one, or on B's own machine, killed mid-epoch by a
// power failure and handed on through Machine.Reopen to the engine recovery
// makes. Where A's tables are at least B's, B's first epoch (or recovery) on
// them must allocate under an eighth of what its twin's does.
func TestInheritedEpochMemoryIsInvisible(t *testing.T) {
	opt := core.DefaultOptions()
	opt.TargetRatio = 1 // compact whatever has a net gain
	cases := []struct {
		name         string
		aKeys, bKeys int
		kill         bool // A is B's machine's engine, killed mid-epoch; B is recovery's
	}{
		{"A-larger", 6000, 1500, false},
		{"A-smaller", 600, 3000, false},
		{"A-killed", 3000, 3000, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// Both of B's machines are built before any engine runs.
			heir, twin := fragmentedMachine(t, c.bKeys), fragmentedMachine(t, c.bKeys)

			// firstEpoch opens B's first epoch: its recovery after A was
			// killed, or a cycle.
			firstEpoch := func(m *machine.Machine) {
				if c.kill {
					eng, err := core.Recover(m.Ctx, m.Pool, opt)
					if err != nil {
						t.Fatal(err)
					}
					m.Eng = eng
					if m.Store, err = ds.NewAVL(m.Ctx, m.Pool); err != nil {
						t.Fatal(err)
					}
					return
				}
				if !m.NewEngine(opt).RunCycle(m.Ctx) {
					t.Fatal("B's first epoch did not open")
				}
			}
			// runA runs A and returns its epoch memory, handed on.
			runA := func(m *machine.Machine) any {
				eng := m.NewEngine(opt)
				if !c.kill {
					if !eng.RunCycle(m.Ctx) {
						t.Fatal("A's epoch did not open")
					}
					mem := core.EpochMemOf(eng)
					eng.Close()
					m.Release()
					return mem
				}
				if !eng.BeginCycle(m.Ctx) || eng.StepCompaction(m.Ctx, 40) != 40 {
					t.Fatal("A's epoch did not open with 40 objects to move")
				}
				if ordOf, srcObj, minor := core.EpochTablesInUse(eng); ordOf == 0 || srcObj == 0 || minor == 0 {
					t.Fatalf("A's open epoch fills ordOf %d, srcObj %d, minor %d", ordOf, srcObj, minor)
				}
				mem := core.EpochMemOf(eng)
				m.Device().Crash()
				if err := m.Reopen(); err != nil {
					t.Fatal(err)
				}
				return mem
			}

			if c.kill {
				runA(twin)
			}
			core.DrainEpochPool()
			fresh := allocated(func() { firstEpoch(twin) })
			if core.EpochMemOf(twin.Eng) == nil {
				t.Fatal("the twin's engine has no epoch memory")
			}

			a := heir
			if !c.kill {
				a = fragmentedMachine(t, c.aKeys)
			}
			mem := runA(a)
			inherited := allocated(func() { firstEpoch(heir) })
			t.Logf("B's first epoch allocated %d B on A's memory, %d B on fresh memory", inherited, fresh)
			if c.aKeys >= c.bKeys && !core.RaceEnabled && inherited > fresh/8 {
				t.Errorf("B's first epoch allocated %d B on A's memory, over an eighth of the %d B on fresh memory", inherited, fresh)
			}
			if got := core.EpochMemOf(heir.Eng); got != mem {
				t.Fatal("B did not inherit A's epoch memory")
			}

			for round := 1; ; round++ {
				if got, want := outcomeOf(heir), outcomeOf(twin); got != want {
					t.Fatalf("after epoch %d: on A's memory\n%+v\non fresh memory\n%+v", round, got, want)
				}
				if round == 2 {
					break
				}
				for _, m := range []*machine.Machine{heir, twin} {
					churn(t, m, c.bKeys, round)
					if !m.Eng.RunCycle(m.Ctx) {
						t.Fatalf("epoch %d did not open", round+1)
					}
				}
			}
			heir.Eng.Close()
			twin.Eng.Close()
		})
	}
}

// TestCloseHandsEpochMemoryOn: Close is an engine's last call. An engine that
// is only closed hands its epoch memory to the next NewEngine, whose first
// epoch then allocates under an eighth of what a twin's on fresh memory does
// and shows the twin's outcome. A second Close does nothing, a cycle after
// Close panics, and the counters stay readable.
func TestCloseHandsEpochMemoryOn(t *testing.T) {
	opt := core.DefaultOptions()
	opt.TargetRatio = 1 // compact whatever has a net gain
	heir, twin := fragmentedMachine(t, 1500), fragmentedMachine(t, 1500)
	firstEpoch := func(m *machine.Machine) {
		if !m.NewEngine(opt).RunCycle(m.Ctx) {
			t.Fatal("the first epoch did not open")
		}
	}
	core.DrainEpochPool()
	fresh := allocated(func() { firstEpoch(twin) })

	a := fragmentedMachine(t, 6000)
	eng := a.NewEngine(opt)
	if !eng.RunCycle(a.Ctx) {
		t.Fatal("A's epoch did not open")
	}
	mem, stats := core.EpochMemOf(eng), eng.Stats()
	eng.Close()
	eng.Close() // a second call does nothing
	if core.EpochMemOf(eng) != nil || eng.Stats() != stats {
		t.Fatalf("after Close: epoch memory kept %v, stats %+v, before %+v", core.EpochMemOf(eng) != nil, eng.Stats(), stats)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("BeginCycle ran on a closed engine")
			}
		}()
		eng.BeginCycle(a.Ctx)
	}()
	a.Release() // its media pages go back to the pool, as in the cases above

	inherited := allocated(func() { firstEpoch(heir) })
	t.Logf("the first epoch allocated %d B on a closed engine's memory, %d B on fresh memory", inherited, fresh)
	if got := core.EpochMemOf(heir.Eng); got != mem {
		t.Fatal("the next engine did not inherit the closed engine's epoch memory")
	}
	if !core.RaceEnabled && inherited > fresh/8 {
		t.Errorf("the first epoch allocated %d B on a closed engine's memory, over an eighth of the %d B on fresh memory", inherited, fresh)
	}
	if got, want := outcomeOf(heir), outcomeOf(twin); got != want {
		t.Fatalf("on a closed engine's memory\n%+v\non fresh memory\n%+v", got, want)
	}
	heir.Eng.Close()
	twin.Eng.Close()
}

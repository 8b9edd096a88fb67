package redisws

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"ffccd/internal/pmem"
	"ffccd/internal/sim"
	"ffccd/internal/workpool"
)

// loadedRun is what one serving run of a shard leaves: its result, its
// device's counters, and the clocks of its loader context and (when the test
// can see them) its clients.
type loadedRun struct {
	Res     ServeResult
	Dev     pmem.Stats
	Loader  [sim.NumCategories]uint64
	Clients [][sim.NumCategories]uint64
}

// finish reads what the run of l (nil: Serve's) left on m and releases m.
func finish(m *Machine, res ServeResult, l *Loaded) loadedRun {
	r := loadedRun{Res: res, Dev: m.Device().Stats(), Loader: m.Ctx.Clock.Snapshot()}
	if l != nil {
		for _, c := range l.clients {
			r.Clients = append(r.Clients, c.Clock.Snapshot())
		}
	}
	m.Release()
	return r
}

// A campaign runs Load, captures the loaded state next to the machine, and
// runs every trial on a fork of both. Two forks of one capture, run at once on
// forks of the machine image, must do exactly what Serve does on a twin
// machine, and what the captured Loaded does when it runs on the machine it
// was loaded on: the same result, device counters and clocks.
func TestForkedLoadedRunsMatchServe(t *testing.T) {
	base := DefaultServeConfig()
	base.Clients, base.Ops, base.Keyspace = 6, 1500, 600
	base.MaxLiveBytes = 600 * 150
	base.MinVal, base.MaxVal = 240, 366
	base.MinVal2, base.MaxVal2 = 367, 492
	base.MaintEvery = 150
	base.Seed = 13
	for _, scheme := range []string{"ffccd", "stw"} {
		for _, shards := range []int{1, 3} {
			keys, err := ShardKeys(base.Keyspace, shards)
			if err != nil {
				t.Fatal(err)
			}
			for i, cfg := range ShardConfigs(base, shards) {
				twin := func() *Machine {
					m, err := NewMachine(sim.DefaultConfig(), scheme, "twin", keys[i], 16<<20)
					if err != nil {
						t.Fatal(err)
					}
					return m
				}
				a := twin()
				res, err := Serve(a.Ctx, a.Pool, a.Store, cfg, a.Hooks)
				if err != nil {
					t.Fatal(err)
				}
				served := finish(a, res, nil)

				b := twin()
				l, err := Load(b.Ctx, b.Pool, b.Store, cfg)
				if err != nil {
					t.Fatal(err)
				}
				img, limg := b.Capture(), l.Capture()
				var forks [2]loadedRun
				if err := workpool.ForEach(len(forks), func(k int) error {
					fm, err := img.Fork()
					if err != nil {
						return err
					}
					m := Equip(fm, scheme)
					fl := limg.Fork(&m.Cfg)
					res, err := fl.Run(m.Ctx, m.Pool, m.Store, m.Hooks)
					forks[k] = finish(m, res, fl)
					return err
				}); err != nil {
					t.Fatal(err)
				}
				if res, err = l.Run(b.Ctx, b.Pool, b.Store, b.Hooks); err != nil {
					t.Fatal(err)
				}
				live := finish(b, res, l)

				if served.Res.Ops != cfg.Ops || served.Res.Evictions == 0 {
					t.Fatalf("%s shard %d/%d: %d ops, %d evictions: the run is too thin to compare", scheme, i, shards,
						served.Res.Ops, served.Res.Evictions)
				}
				served.Clients = live.Clients // Serve keeps its clients to itself
				for what, got := range map[string]loadedRun{"live": live, "fork 0": forks[0], "fork 1": forks[1]} {
					if !reflect.DeepEqual(got, served) {
						t.Errorf("%s %s of shard %d/%d differs from Serve's run:\n got  %+v\n want %+v",
							scheme, what, i, shards, got, served)
					}
				}
				if len(live.Clients) != cfg.Clients {
					t.Errorf("%s shard %d/%d: %d client clocks, want %d", scheme, i, shards, len(live.Clients), cfg.Clients)
				}
			}
		}
	}
}

// Load's input errors name Load, also when a campaign calls it directly.
func TestLoadErrorsNameLoad(t *testing.T) {
	bad := DefaultServeConfig()
	bad.Clients = 0
	if _, err := Load(nil, nil, nil, bad); err == nil || !strings.HasPrefix(err.Error(), "redisws.Load: ") {
		t.Errorf("no clients: %v", err)
	}
	// A GET share outside [0, 1], a Zipf exponent or offered rate the run
	// cannot use, an inverted or half-set value range and an inverted or
	// half-set drift range are errors, not replaced by defaults or a run that
	// never drifts; an unset range still takes its default.
	for name, edit := range map[string]func(*ServeConfig){
		"GetFraction 1.5":   func(c *ServeConfig) { c.GetFraction = 1.5 },
		"GetFraction -0.1":  func(c *ServeConfig) { c.GetFraction = -0.1 },
		"GetFraction NaN":   func(c *ServeConfig) { c.GetFraction = math.NaN() },
		"ZipfTheta 1":       func(c *ServeConfig) { c.ZipfTheta = 1 },
		"ZipfTheta NaN":     func(c *ServeConfig) { c.ZipfTheta = math.NaN() },
		"ZipfTheta +Inf":    func(c *ServeConfig) { c.ZipfTheta = math.Inf(1) },
		"ZipfTheta -Inf":    func(c *ServeConfig) { c.ZipfTheta = math.Inf(-1) },
		"RatePerSec NaN":    func(c *ServeConfig) { c.RatePerSec = math.NaN() },
		"RatePerSec +Inf":   func(c *ServeConfig) { c.RatePerSec = math.Inf(1) },
		"values 300..200":   func(c *ServeConfig) { c.MinVal, c.MaxVal = 300, 200 },
		"values unset..300": func(c *ServeConfig) { c.MinVal, c.MaxVal = 0, 300 },
		"drift 500..400":    func(c *ServeConfig) { c.MinVal2, c.MaxVal2 = 500, 400 },
		"drift 367..unset":  func(c *ServeConfig) { c.MinVal2, c.MaxVal2 = 367, 0 },
		"drift unset..492":  func(c *ServeConfig) { c.MinVal2, c.MaxVal2 = 0, 492 },
	} {
		cfg := DefaultServeConfig()
		edit(&cfg)
		if _, err := Load(nil, nil, nil, cfg); err == nil || !strings.HasPrefix(err.Error(), "redisws.Load: ") {
			t.Errorf("%s: %v", name, err)
		}
	}
	m, err := NewMachine(sim.DefaultConfig(), "none", "unset", 16, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	unset := DefaultServeConfig()
	unset.Keyspace, unset.Ops = 16, 16
	unset.MinVal, unset.MaxVal = 0, 0
	l, err := Load(m.Ctx, m.Pool, m.Store, unset)
	if err != nil {
		t.Fatalf("unset value sizes: %v", err)
	}
	if l.cfg.MinVal != 240 || l.cfg.MaxVal != 492 {
		t.Errorf("unset value sizes became %d..%d, want 240..492", l.cfg.MinVal, l.cfg.MaxVal)
	}
	l.Release()
	// One key between two shards: one of them owns none.
	empty := 0
	for i := range 2 {
		cfg := DefaultServeConfig()
		cfg.Keyspace, cfg.ShardIndex, cfg.ShardCount = 1, i, 2
		if len(OwnedKeys(1, i, 2)) > 0 {
			continue
		}
		empty++
		if _, err := Load(nil, nil, nil, cfg); err == nil || !strings.HasPrefix(err.Error(), "redisws.Load: ") {
			t.Errorf("shard %d owns no key: %v", i, err)
		}
	}
	if empty != 1 {
		t.Fatalf("%d of 2 shards own no key of one", empty)
	}
}

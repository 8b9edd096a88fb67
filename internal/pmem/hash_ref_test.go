package pmem

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"ffccd/internal/sim"
	"ffccd/internal/workpool"
)

// refHashMedia is HashMedia as it was before the dirty-page walk: every word
// of the media, one multiplication each. Kept verbatim as the oracle the
// sparse walk must match bit for bit.
func refHashMedia(media []byte) uint64 {
	const prime = 0x100000001b3
	h := uint64(0xcbf29ce484222325)
	b := media
	for len(b) >= 8 {
		w := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
		h = (h ^ w) * prime
		b = b[8:]
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * prime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// checkPageTable asserts the device's own bookkeeping invariants: a shared
// mark names a page the device holds, and the valid-way count is every set's
// fill summed.
func checkPageTable(t *testing.T, d *Device, when string) {
	t.Helper()
	for k, l := range d.leaves {
		if l == nil {
			continue
		}
		for i, pg := range &l.pages {
			if pg == nil && l.isShared(uint64(i)) {
				t.Fatalf("%s: page %d is marked shared but not held", when, k<<leafShift+i)
			}
		}
	}
	fill := 0
	for i := range d.sets {
		fill += int(d.sets[i].fill)
	}
	if d.valid != fill {
		t.Fatalf("%s: the device counts %d valid ways, its sets fill %d", when, d.valid, fill)
	}
}

func checkHash(t *testing.T, d *Device, when string) {
	t.Helper()
	if got, want := d.HashMedia(), refHashMedia(d.SnapshotMedia()); got != want {
		t.Fatalf("%s: HashMedia %#016x, dense reference %#016x", when, got, want)
	}
	checkPageTable(t, d, when)
}

// TestHashMediaMatchesDenseReference drives random sequences of every
// operation that writes media (or drops pages) and compares the page walk
// with the dense loop along the way. Sizes cover a media smaller than a word,
// an unaligned tail, a media the cache holds whole, exactly whole pages, a
// page count that is not a multiple of a leaf, and a device large enough that
// unheld runs span many leaves.
//
// The same steps drive the persistence oracle (oracle_test.go), which is also
// the device's RBB sink: after every crash, under each of the three policies,
// and after every FlushAll, each line the steps touched must hold an image
// the oracle allows, and at every dense check every line must. Where the
// cache holds the whole media nothing is evicted and the oracle knows which
// lines are dirty; elsewhere it allows every write-back an eviction could
// have made. Mutations each fail it (checked by hand): a bodiless
// load reading media ahead of the in-flight copy; a crash landing every
// in-flight line whatever the policy; a clwb dropping the relocate pending
// bit; a fence reporting every line it drains to the RBB.
func TestHashMediaMatchesDenseReference(t *testing.T) {
	cases := []struct {
		size  uint64
		steps int
		every int
	}{
		{7, 400, 1},
		{5000, 1500, 7},
		{16 << 10, 3000, 25},
		{1 << 20, 3000, 50},
		{1<<20 + 4096 + 13, 3000, 50},
		{64 << 20, 2000, 500},
	}
	for ci, tc := range cases {
		t.Run(fmt.Sprint(tc.size), func(t *testing.T) {
			if testing.Short() { // the dense pass is slow under -race
				if tc.every *= 5; tc.every > tc.steps {
					tc.every = tc.steps
				}
			}
			cfg := sim.DefaultConfig()
			cfg.CacheBytes = 16 * 1024 // small cache: natural evictions write media too
			cfg.CacheWays = 4
			ctx := sim.NewCtx(&cfg)
			rng := rand.New(rand.NewSource(int64(1000 + ci)))
			d := NewDevice(&cfg, tc.size)
			defer func() { d.ReleaseMedia() }()
			o := newPersistOracle(tc.size > uint64(cfg.CacheBytes)) // the device's RBB sink too
			d.SetRBB(o)
			checkHash(t, d, "fresh")

			// The cache works in whole lines, so cached operations stay below
			// the last whole line; MediaWrite reaches the unaligned tail.
			cached := tc.size &^ (LineSize - 1)
			// span picks [addr, addr+n) below limit, biased towards a few hot
			// regions so most of a large device stays clean.
			span := func(limit uint64, maxN int) (addr, n uint64) {
				n = uint64(rng.Intn(maxN) + 1)
				if n > limit {
					n = limit
				}
				room := limit - n + 1
				if rng.Intn(4) != 0 && room > 1<<16 {
					region := uint64(rng.Intn(4)) * (room / 4)
					return region + uint64(rng.Intn(1<<16)), n
				}
				return uint64(rng.Int63n(int64(room))), n
			}
			// recent remembers where the last stores, relocates and media
			// writes landed, so most clwbs find a dirty line, most fences have
			// lines to drain (a fence is then the only thing that dirties the
			// line's page) and most zeroed pages hold data.
			var recent [16]uint64
			// zeroSpan picks a MediaZero span: anywhere (mostly clean pages on
			// a large device), or whole pages or part of one page at a recent
			// write (mostly dirty ones).
			zeroSpan := func() (addr, n uint64) {
				if rng.Intn(3) == 0 {
					return span(tc.size, 5000)
				}
				page := recent[rng.Intn(len(recent))] &^ (DirtyPageSize - 1)
				end := min(page+DirtyPageSize, tc.size)
				if rng.Intn(2) == 0 {
					return page, min(uint64(1+rng.Intn(3))*DirtyPageSize, tc.size-page)
				}
				addr = page + uint64(rng.Int63n(int64(end-page)))
				return addr, 1 + uint64(rng.Int63n(int64(end-addr)))
			}
			var cp *DeviceCheckpoint
			var ocp *persistOracle
			var err error // what the oracle finds wrong with the step
			for step := 1; step <= tc.steps; step++ {
				zeroed := false // a dense check after every MediaZero on the small devices
				op := rng.Intn(100)
				if cached == 0 && op < 75 {
					op = 75 // no whole line to cache: media writes only
				}
				switch {
				case op < 40:
					addr, n := span(cached, 300)
					if rng.Intn(3) == 0 { // over a recent write, maybe in flight
						addr = min(recent[rng.Intn(len(recent))], cached-n)
					}
					data := make([]byte, n)
					rng.Read(data)
					d.Store(ctx, addr, data)
					o.store(addr, data)
					recent[step%len(recent)] = addr
				case op < 55:
					addr := recent[rng.Intn(len(recent))]
					if rng.Intn(5) == 0 {
						addr, _ = span(cached, 1)
					}
					d.Clwb(ctx, addr)
					o.clwb(addr)
				case op < 65:
					d.Sfence(ctx)
					err = o.sfence()
				case op < 75:
					dst, n := span(cached, 200)
					src, _ := span(cached-n+1, 1)
					d.Relocate(ctx, dst, src, n)
					o.relocate(dst, src, n)
					recent[step%len(recent)] = dst
				case op < 82:
					if rng.Intn(4) == 0 {
						addr, n := zeroSpan()
						d.MediaZero(addr, n)
						o.mediaWrite(addr, make([]byte, n))
						zeroed = true
						break
					}
					addr, n := span(tc.size, 5000)
					data := make([]byte, n)
					rng.Read(data)
					d.MediaWrite(addr, data)
					o.mediaWrite(addr, data)
					recent[step%len(recent)] = addr
				case op < 85:
					d.FlushAll(ctx)
					err = o.flushAll(d)
				case op < 90:
					policy := DropAllInflight
					switch rng.Intn(3) {
					case 1:
						policy = KeepAllInflight
					case 2:
						salt := rng.Uint64()
						policy = func(line uint64) bool {
							return (line*0x9E3779B97F4A7C15+salt)&1 == 0
						}
					}
					d.SetCrashPolicy(policy)
					d.Crash()
					err = o.crash(d, func(l uint64) bool { return policy(l << LineShift) })
				case op < 91:
					if tc.size <= 1<<21 { // a dense image: keep it off the big device
						img := d.SnapshotMedia()
						img[rng.Intn(len(img))] ^= 0x5a
						d.RestoreMedia(img)
						o.restoreMedia(img)
					}
				case op < 95:
					cp, ocp = d.Checkpoint(), o.clone()
				case op < 98:
					if cp != nil {
						// Into the same device: zeroes the pages dirtied since.
						d.Restore(cp)
						*o = *ocp.clone()
					}
				default:
					if cp != nil {
						// Into a fresh device; the old one's pages and arrays go
						// back for reuse.
						nd := NewDevice(&cfg, tc.size)
						nd.SetRBB(o)
						nd.Restore(cp)
						d.ReleaseMedia()
						d = nd
						*o = *ocp.clone()
					}
				}
				if err == nil && (step%tc.every == 0 || zeroed && tc.size <= 2<<20) {
					checkHash(t, d, fmt.Sprintf("step %d", step))
					err = o.checkAll(d.SnapshotMedia())
				}
				if err != nil {
					t.Fatalf("step %d: the persistence oracle: %v", step, err)
				}
			}
			d.FlushAll(ctx)
			checkHash(t, d, "final")
			if err := o.flushAll(d); err != nil {
				t.Fatalf("final flush: the persistence oracle: %v", err)
			}
			if ev := d.Stats().Evictions; !o.evicts && ev != 0 {
				t.Fatalf("a cache larger than the media evicted %d lines", ev)
			}
		})
	}
}

// TestHashMediaCleanRuns pins the closed form on hand-placed dirty pages:
// first page, last whole page, the partial tail, neighbours, and pages on
// either side of a bitmap word boundary.
func TestHashMediaCleanRuns(t *testing.T) {
	cfg := sim.DefaultConfig()
	const size = 200*DirtyPageSize + 100
	for _, pages := range [][]uint64{
		{}, {0}, {199}, {200}, {0, 1, 2}, {63, 64}, {5, 64, 128, 199, 200}, {127}, {198, 199, 200},
	} {
		d := NewDevice(&cfg, size)
		for _, p := range pages {
			d.MediaWrite(p<<DirtyPageShift+17, []byte{byte(p) + 1, 2, 3})
		}
		checkHash(t, d, fmt.Sprint("dirty pages ", pages))
		d.ReleaseMedia()
	}
}

func TestPowHashPrime(t *testing.T) {
	want := uint64(1)
	for n := uint64(0); n < 2000; n++ {
		if got := powHashPrime(n); got != want {
			t.Fatalf("powHashPrime(%d) = %#x, want %#x", n, got, want)
		}
		want *= hashPrime
	}
	// A large exponent against its own factorisation.
	const a, b = 512 * 32768, 12345
	if got, want := powHashPrime(a+b), powHashPrime(a)*powHashPrime(b); got != want {
		t.Fatalf("powHashPrime(a+b) = %#x, want %#x", got, want)
	}
}

// denseModel is a device's media as one dense array, with the cache and the
// in-flight lines as maps of lines. It needs no cache geometry because it is
// only driven on media the cache holds without evicting: every line stays
// resident from its first access until a crash, so media changes only by a
// flush, a fence, a crash or a direct media write.
type denseModel struct {
	media    []byte
	cached   map[uint64]*modelLine
	inflight map[uint64][LineSize]byte
}

type modelLine struct {
	data  [LineSize]byte
	dirty bool
}

func newDenseModel(size uint64) *denseModel {
	return &denseModel{media: make([]byte, size), cached: map[uint64]*modelLine{}, inflight: map[uint64][LineSize]byte{}}
}

func (m *denseModel) clone() *denseModel {
	c := &denseModel{media: bytes.Clone(m.media), cached: map[uint64]*modelLine{}, inflight: maps.Clone(m.inflight)}
	for l, ml := range m.cached {
		c.cached[l] = &modelLine{ml.data, ml.dirty}
	}
	return c
}

// line returns lineIdx's cached copy, filling it from the in-flight copy or
// media.
func (m *denseModel) line(lineIdx uint64) *modelLine {
	ml, ok := m.cached[lineIdx]
	if !ok {
		ml = &modelLine{}
		if fl, ok := m.inflight[lineIdx]; ok {
			ml.data = fl
		} else {
			copy(ml.data[:], m.media[lineIdx<<LineShift:])
		}
		m.cached[lineIdx] = ml
	}
	return ml
}

func (m *denseModel) load(addr, n uint64) []byte {
	out := make([]byte, 0, n)
	for end := addr + n; addr < end; {
		next := min(addr|(LineSize-1)+1, end)
		out = append(out, m.line(addr >> LineShift).data[addr&(LineSize-1):][:next-addr]...)
		addr = next
	}
	return out
}

func (m *denseModel) store(addr uint64, data []byte) {
	for len(data) > 0 {
		ml := m.line(addr >> LineShift)
		n := copy(ml.data[addr&(LineSize-1):], data)
		ml.dirty = true
		addr += uint64(n)
		data = data[n:]
	}
}

func (m *denseModel) clwb(addr uint64) {
	if ml, ok := m.cached[addr>>LineShift]; ok && ml.dirty {
		m.inflight[addr>>LineShift] = ml.data
		ml.dirty = false
	}
}

func (m *denseModel) sfence() {
	for l, data := range m.inflight {
		copy(m.media[l<<LineShift:], data[:])
	}
	clear(m.inflight)
}

func (m *denseModel) flushAll() {
	for l, ml := range m.cached {
		if ml.dirty {
			copy(m.media[l<<LineShift:], ml.data[:])
			delete(m.inflight, l)
			ml.dirty = false
		}
	}
	m.sfence()
}

func (m *denseModel) crash(policy CrashPolicy) {
	clear(m.cached)
	for l, data := range m.inflight {
		if policy(l << LineShift) {
			copy(m.media[l<<LineShift:], data[:])
		}
	}
	clear(m.inflight)
}

// checkpointImage assembles the media a checkpoint references.
func checkpointImage(c *DeviceCheckpoint) []byte {
	img := make([]byte, c.MediaLen)
	for k, p := range c.Pages {
		copy(img[uint64(p)<<DirtyPageShift:], c.Refs[k][:])
	}
	return img
}

// cowNode is one device under test with its dense model.
type cowNode struct {
	name string
	d    *Device
	m    *denseModel
	ctx  *sim.Ctx
}

// frozenCheckpoint is a checkpoint with the model of the device it captured.
type frozenCheckpoint struct {
	c *DeviceCheckpoint
	m *denseModel
}

// cowSize is the media of the copy-on-write tests: an unaligned tail, and
// under the default cache (3072 sets of 16 ways) at most two lines per set,
// so nothing is ever evicted and denseModel applies.
const cowSize = 256<<10 + 4096 + 13

// check compares n's media and digest with its model's.
func (n *cowNode) check() error {
	img := n.d.SnapshotMedia()
	if !bytes.Equal(img, n.m.media) {
		i := 0
		for img[i] == n.m.media[i] {
			i++
		}
		return fmt.Errorf("%s's media differs from its model first at byte %#x", n.name, i)
	}
	if got, want := n.d.HashMedia(), refHashMedia(n.m.media); got != want {
		return fmt.Errorf("%s's HashMedia %#x, its model's %#x", n.name, got, want)
	}
	return nil
}

func (f *frozenCheckpoint) check(t *testing.T, when string) {
	t.Helper()
	if !bytes.Equal(checkpointImage(f.c), f.m.media) {
		t.Fatalf("%s: a captured checkpoint changed", when)
	}
}

// step applies one random operation to n, device and model alike, and names
// it. recent holds addresses of recent writes, so clwbs find dirty lines and
// zeroes find held pages. A load that differs from the model is an error.
func (n *cowNode) step(rng *rand.Rand, recent []uint64) (string, error) {
	cached := uint64(cowSize) &^ (LineSize - 1) // cached operations stay on whole lines
	span := func(limit uint64, maxN int) (uint64, uint64) {
		size := min(uint64(1+rng.Intn(maxN)), limit)
		return uint64(rng.Int63n(int64(limit - size + 1))), size
	}
	remember := func(addr uint64) { recent[rng.Intn(len(recent))] = addr }
	switch op := rng.Intn(100); {
	case op < 25:
		addr, size := span(cached, 300)
		data := make([]byte, size)
		rng.Read(data)
		n.d.Store(n.ctx, addr, data)
		n.m.store(addr, data)
		remember(addr)
		return "Store", nil
	case op < 40:
		addr := recent[rng.Intn(len(recent))] % cached
		n.d.Clwb(n.ctx, addr)
		n.m.clwb(addr)
		return "Clwb", nil
	case op < 48:
		n.d.Sfence(n.ctx)
		n.m.sfence()
		return "Sfence", nil
	case op < 56:
		dst, size := span(cached, 200)
		src, _ := span(cached-size+1, 1)
		n.d.Relocate(n.ctx, dst, src, size)
		n.m.store(dst, n.m.load(src, size))
		remember(dst)
		return "Relocate", nil
	case op < 62:
		addr, size := span(cached, 100)
		got := make([]byte, size)
		n.d.Load(n.ctx, addr, got)
		if want := n.m.load(addr, size); !bytes.Equal(got, want) {
			return "Load", fmt.Errorf("%s: Load %#x+%d differs from the model", n.name, addr, size)
		}
		return "Load", nil
	case op < 74:
		addr, size := span(cowSize, 5000)
		data := make([]byte, size)
		rng.Read(data)
		n.d.MediaWrite(addr, data)
		copy(n.m.media[addr:], data)
		remember(addr)
		return "MediaWrite", nil
	case op < 84:
		page := recent[rng.Intn(len(recent))] &^ (DirtyPageSize - 1)
		addr, size := page, min(uint64(1+rng.Intn(2))*DirtyPageSize, cowSize-page) // whole pages
		if rng.Intn(2) == 0 {
			end := min(page+DirtyPageSize, cowSize)
			addr = page + uint64(rng.Int63n(int64(end-page)))
			size = 1 + uint64(rng.Int63n(int64(end-addr)))
		}
		n.d.MediaZero(addr, size)
		clear(n.m.media[addr : addr+size])
		return "MediaZero", nil
	case op < 88:
		n.d.FlushAll(n.ctx)
		n.m.flushAll()
		return "FlushAll", nil
	default:
		salt := rng.Uint64()
		policy := []CrashPolicy{DropAllInflight, KeepAllInflight, func(line uint64) bool {
			return (line*0x9E3779B97F4A7C15+salt)>>63 == 0
		}}[rng.Intn(3)]
		n.d.SetCrashPolicy(policy)
		n.d.Crash()
		n.m.crash(policy)
		return "Crash", nil
	}
}

// fork restores f into a fresh device.
func (f *frozenCheckpoint) fork(cfg *sim.Config, name string) *cowNode {
	d := NewDeviceForRestore(cfg, cowSize)
	d.Restore(f.c)
	return &cowNode{name, d, f.m.clone(), sim.NewCtx(cfg)}
}

// TestCopyOnWriteMatchesDenseModels drives a source device and two forks of
// its checkpoint through random media writes, whole and partial zeroes,
// stores, flushes, fences, relocates and crashes under every policy, with
// re-captures that fork again from any of them, and after every step checks
// each device's media and digest against its own dense model, and every
// captured checkpoint against the media it captured.
//
// A write that skips the copy of a shared page (writable returning
// l.pages[i] whatever its shared mark) fails it: the write shows through in
// the checkpoint and in the other devices.
func TestCopyOnWriteMatchesDenseModels(t *testing.T) {
	cfg := sim.DefaultConfig()
	rng := rand.New(rand.NewSource(41))
	src := &cowNode{"source", NewDevice(&cfg, cowSize), newDenseModel(cowSize), sim.NewCtx(&cfg)}
	recent := make([]uint64, 16)
	for i := 0; i < 200; i++ {
		if _, err := src.step(rng, recent); err != nil {
			t.Fatal(err)
		}
	}
	frozen := []*frozenCheckpoint{{src.d.Checkpoint(), src.m.clone()}}
	nodes := []*cowNode{src, frozen[0].fork(&cfg, "fork 1"), frozen[0].fork(&cfg, "fork 2")}
	steps := 3000
	if testing.Short() {
		steps = 800
	}
	for s := 1; s <= steps; s++ {
		n := nodes[rng.Intn(len(nodes))]
		op, err := n.step(rng, recent)
		what := n.name + " " + op
		if rng.Intn(60) == 0 {
			// Re-capture from any device, and fork one of the forks from the
			// new checkpoint, onto its own device or a fresh one.
			f := &frozenCheckpoint{n.d.Checkpoint(), n.m.clone()}
			frozen = append(frozen[max(0, len(frozen)-3):], f)
			k := 1 + rng.Intn(2)
			if rng.Intn(2) == 0 {
				nodes[k].d.Restore(f.c)
				nodes[k].m = f.m.clone()
			} else {
				nodes[k].d.ReleaseMedia()
				nodes[k] = f.fork(&cfg, nodes[k].name)
			}
			what += fmt.Sprintf(", re-captured and forked into %s", nodes[k].name)
		}
		when := fmt.Sprintf("step %d (%s)", s, what)
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		for _, n := range nodes {
			if err := n.check(); err != nil {
				t.Fatalf("%s: %v", when, err)
			}
			checkPageTable(t, n.d, when)
		}
		for _, f := range frozen {
			f.check(t, when)
		}
	}
	for _, n := range nodes {
		if ev := n.d.Stats().Evictions; ev != 0 {
			t.Fatalf("%s evicted %d lines: the dense model does not apply", n.name, ev)
		}
		n.d.ReleaseMedia()
	}
	for _, f := range frozen {
		f.check(t, "after release")
	}
}

// TestForksOfOneCheckpointOnWorkers runs four forks of one checkpoint at once
// on the worker pool, each against its own model. Under the race detector
// with four workers (make race) it is the check that forks only read the
// pages they share, and restore the image's dirty and stale line bodies into
// body pages they take from the page pool at once.
func TestForksOfOneCheckpointOnWorkers(t *testing.T) {
	cfg := sim.DefaultConfig()
	rng := rand.New(rand.NewSource(43))
	src := &cowNode{"source", NewDevice(&cfg, cowSize), newDenseModel(cowSize), sim.NewCtx(&cfg)}
	recent := make([]uint64, 16)
	for i := 0; i < 400; i++ {
		if _, err := src.step(rng, recent); err != nil {
			t.Fatal(err)
		}
	}
	// End on a stale line, which media changed under, and a dirty one.
	src.d.FlushAll(src.ctx)
	src.m.flushAll()
	src.d.Load(src.ctx, LineSize, make([]byte, 1))
	src.m.load(LineSize, 1)
	src.d.MediaWrite(LineSize, []byte{2})
	src.m.media[LineSize] = 2
	src.d.Store(src.ctx, 0, []byte{1})
	src.m.store(0, []byte{1})
	f := &frozenCheckpoint{src.d.Checkpoint(), src.m.clone()}
	var dirty, stale int
	for _, slot := range f.c.Slots {
		if f.c.Sets[slot/src.d.nway].dirty>>(slot%src.d.nway)&1 != 0 {
			dirty++
		} else {
			stale++
		}
	}
	if dirty == 0 || stale == 0 {
		t.Fatalf("the checkpoint holds %d dirty and %d stale bodies, want some of each", dirty, stale)
	}
	src.d.ReleaseMedia()
	steps := 600
	if testing.Short() {
		steps = 200
	}
	if err := workpool.ForEach(4, func(i int) error {
		n := f.fork(&cfg, fmt.Sprintf("fork %d", i))
		defer n.d.ReleaseMedia()
		rng := rand.New(rand.NewSource(int64(100 + i)))
		recent := slices.Clone(recent)
		for s := 0; s < steps; s++ {
			op, err := n.step(rng, recent)
			if err == nil {
				err = n.check()
			}
			if err != nil {
				return fmt.Errorf("step %d (%s): %v", s, op, err)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	f.check(t, "after four forks")
}

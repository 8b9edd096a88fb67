package checker_test

import (
	"encoding/binary"
	"strings"
	"testing"

	"ffccd/internal/alloc"
	"ffccd/internal/checker"
	"ffccd/internal/ds"
	"ffccd/internal/machine"
	"ffccd/internal/sim"
)

// storeKinds are the stores machine.NewStore builds: each reads in place.
var storeKinds = []string{"LL", "AVL", "SS", "BT", "RBT", "BzTree", "FPTree", "Echo", "pmemkv"}

// getOnly hides a store's GetInto, so CheckStore reads it through Get.
type getOnly struct{ ds.Store }

// valueMarker tags the first 8 bytes of every value loadedImage stores, so
// a test can find a value object in the pool.
const valueMarker = 0xC0DE << 32

// markedValue is the 32-byte value loadedImage stores at key k.
func markedValue(k uint64) []byte {
	v := make([]byte, 32)
	binary.LittleEndian.PutUint64(v, valueMarker|k)
	for i := 8; i < len(v); i++ {
		v[i] = byte(k) ^ byte(i)
	}
	return v
}

// loadedImage captures a machine whose store of kind holds keys 0..keys-1,
// each inserted once, and returns it with the matching model.
func loadedImage(t *testing.T, kind string, keys uint64) (*machine.Image, map[uint64][]byte) {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.CacheBytes = 256 * 1024
	m, err := machine.Build(machine.Spec{Name: "chk", PoolBytes: 16 << 20, PageShift: 12, Sim: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	if m.Store, err = machine.NewStore(m.Ctx, m.Pool, kind, 1024, 256); err != nil {
		t.Fatal(err)
	}
	model := make(map[uint64][]byte, keys)
	for k := uint64(0); k < keys; k++ {
		model[k] = markedValue(k)
		if err := m.Store.Insert(m.Ctx, k, model[k]); err != nil {
			t.Fatal(err)
		}
	}
	return m.Capture(), model
}

// fork forks img and releases the fork when the test ends.
func fork(t *testing.T, img *machine.Image) *machine.Machine {
	t.Helper()
	m, err := img.Fork()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Release)
	return m
}

// flipValueByte flips byte 8 of key k's value object in m's pool, found by
// its marker with non-perturbing peeks and written through the pool.
func flipValueByte(t *testing.T, m *machine.Machine, k uint64) {
	t.Helper()
	off, frames := m.Pool.HeapRange()
	for end := off + frames*alloc.FrameSize; off < end; off += 8 {
		if m.Pool.PeekU64(off) == valueMarker|k {
			var b [1]byte
			m.Pool.RawLoad(m.Ctx, off+8, b[:])
			m.Pool.RawStore(m.Ctx, off+8, []byte{^b[0]})
			return
		}
	}
	t.Fatalf("no value of key %d in the pool", k)
}

// TestCheckStoreFindsEveryFault runs CheckStore on every store kind, reading
// in place and through Get: a clean store passes; a key the store dropped is
// lost, a byte flipped in a value through the pool corrupts its key, and a
// key the model lacks shows as a length mismatch.
func TestCheckStoreFindsEveryFault(t *testing.T) {
	const keys = 150
	faults := []struct {
		name  string
		plant func(*testing.T, *machine.Machine, map[uint64][]byte)
		want  string // "" passes
	}{
		{"clean", func(*testing.T, *machine.Machine, map[uint64][]byte) {}, ""},
		{"dropped", func(t *testing.T, m *machine.Machine, _ map[uint64][]byte) {
			if ok, err := m.Store.Delete(m.Ctx, 77); !ok || err != nil {
				t.Fatalf("delete: %v %v", ok, err)
			}
		}, "key 77 lost"},
		{"flipped", func(t *testing.T, m *machine.Machine, _ map[uint64][]byte) { flipValueByte(t, m, 77) }, "key 77 corrupted"},
		{"extra", func(_ *testing.T, _ *machine.Machine, model map[uint64][]byte) { delete(model, 77) },
			"store length 150, model 149"},
	}
	for _, kind := range storeKinds {
		img, model := loadedImage(t, kind, keys)
		for _, f := range faults {
			for _, reader := range []string{"GetInto", "Get"} {
				m := fork(t, img)
				want := make(map[uint64][]byte, len(model))
				for k, v := range model {
					want[k] = v
				}
				f.plant(t, m, want)
				s := m.Store
				if reader == "Get" {
					s = getOnly{s}
				}
				err := checker.CheckStore(m.Ctx, s, want)
				switch {
				case f.want == "" && err != nil:
					t.Errorf("%s %s via %s: %v", kind, f.name, reader, err)
				case f.want != "" && (err == nil || !strings.Contains(err.Error(), f.want)):
					t.Errorf("%s %s via %s: got %v, want %q", kind, f.name, reader, err, f.want)
				}
			}
		}
	}
}

// TestCheckStoreReadsInPlaceLikeGet pins that reading in place is host work
// only: on two forks of one machine of every store kind, CheckStore through
// GetInto and through Get leaves equal clocks, device counters, op counts
// and media.
func TestCheckStoreReadsInPlaceLikeGet(t *testing.T) {
	for _, kind := range storeKinds {
		img, model := loadedImage(t, kind, 150)
		a, b := fork(t, img), fork(t, img)
		if err := checker.CheckStore(a.Ctx, a.Store, model); err != nil {
			t.Fatalf("%s in place: %v", kind, err)
		}
		if err := checker.CheckStore(b.Ctx, getOnly{b.Store}, model); err != nil {
			t.Fatalf("%s through Get: %v", kind, err)
		}
		if ca, cb := a.Ctx.Clock.Total(), b.Ctx.Clock.Total(); ca != cb {
			t.Errorf("%s: %d cycles in place, %d through Get", kind, ca, cb)
		}
		if sa, sb := a.Device().Stats(), b.Device().Stats(); sa != sb {
			t.Errorf("%s: device stats %+v in place, %+v through Get", kind, sa, sb)
		}
		if oa, ob := a.Pool.Ops.Load(), b.Pool.Ops.Load(); oa != ob {
			t.Errorf("%s: %d ops in place, %d through Get", kind, oa, ob)
		}
		a.Device().FlushAll(a.Ctx)
		b.Device().FlushAll(b.Ctx)
		if ha, hb := a.Device().HashMedia(), b.Device().HashMedia(); ha != hb {
			t.Errorf("%s: media hash %#x in place, %#x through Get", kind, ha, hb)
		}
	}
}

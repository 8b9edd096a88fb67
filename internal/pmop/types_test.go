package pmop

import "testing"

// TestFreezeLookup pins the registry's lookup answers in both directions (id
// and name), including misses: id 0, ids past the last and unknown names. The
// name dates from the Freeze step the registry once had; lookups now read the
// registry as registered.
func TestFreezeLookup(t *testing.T) {
	reg := NewRegistry()
	idA := reg.Register(TypeInfo{Name: "a", Kind: KindFixed, Size: 16, PtrOffsets: []uint64{8}})
	idB := reg.Register(TypeInfo{Name: "b", Kind: KindBytes})
	if idA != 1 || idB != 2 {
		t.Fatalf("ids = %d, %d, want 1, 2", idA, idB)
	}
	for _, id := range []TypeID{idA, idB} {
		if ti, ok := reg.Lookup(id); !ok || ti.ID != id {
			t.Fatalf("Lookup(%d) = %v, %v", id, ti, ok)
		}
	}
	if ti, ok := reg.LookupName("a"); !ok || ti.ID != idA {
		t.Fatalf("LookupName(a) = %v, %v", ti, ok)
	}
	if ti, ok := reg.LookupName("b"); !ok || ti.ID != idB {
		t.Fatalf("LookupName(b) = %v, %v", ti, ok)
	}
	for _, id := range []TypeID{0, 3, 999} {
		if _, ok := reg.Lookup(id); ok {
			t.Fatalf("Lookup(%d) of an unregistered id succeeded", id)
		}
	}
	if _, ok := reg.LookupName("ghost"); ok {
		t.Fatal("LookupName of an unregistered name succeeded")
	}
}

// TestRegisterAfterFreeze pins registration once the registry has answered
// lookups: the id space keeps growing in registration order, re-registering
// a name returns its id without growing the id space or replacing its layout,
// and earlier types stay visible.
func TestRegisterAfterFreeze(t *testing.T) {
	reg := NewRegistry()
	idA := reg.Register(TypeInfo{Name: "a", Kind: KindFixed, Size: 16, PtrOffsets: []uint64{8}})
	if _, ok := reg.Lookup(idA); !ok {
		t.Fatalf("Lookup(%d) missed", idA)
	}

	idC := reg.Register(TypeInfo{Name: "c", Kind: KindFixed, Size: 8, PtrOffsets: []uint64{0}})
	if idC != idA+1 {
		t.Fatalf("id after %d = %d, want %d", idA, idC, idA+1)
	}
	if ti, ok := reg.Lookup(idC); !ok || ti.Name != "c" {
		t.Fatalf("later type not visible: %v, %v", ti, ok)
	}

	// Idempotent re-registration: application code re-runs its type
	// registrations against a registry that already holds them.
	if again := reg.Register(TypeInfo{Name: "a", Kind: KindBytes}); again != idA {
		t.Fatalf("re-registering a = id %d, want %d", again, idA)
	}
	if again := reg.Register(TypeInfo{Name: "c", Kind: KindBytes}); again != idC {
		t.Fatalf("re-registering c = id %d, want %d", again, idC)
	}
	if idD := reg.Register(TypeInfo{Name: "d", Kind: KindBytes}); idD != idC+1 {
		t.Fatalf("id after re-registrations = %d, want %d", idD, idC+1)
	}
	if ti, ok := reg.Lookup(idA); !ok || ti.Name != "a" || ti.Kind != KindFixed || len(ti.PtrOffsets) != 1 {
		t.Fatalf("re-registration replaced a's layout: %+v, %v", ti, ok)
	}
}

// TestRegisterBadOffsetPanics keeps the offset validation panic, and a
// Register that panics registers nothing.
func TestRegisterBadOffsetPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Register(TypeInfo{Name: "ok", Kind: KindBytes})
	defer func() {
		if recover() == nil {
			t.Fatal("Register with misaligned pointer offset did not panic")
		}
		if _, ok := reg.LookupName("bad"); ok {
			t.Fatal("panicking Register registered the bad type")
		}
		if _, ok := reg.Lookup(2); ok {
			t.Fatal("panicking Register took an id")
		}
	}()
	reg.Register(TypeInfo{Name: "bad", Kind: KindFixed, Size: 16, PtrOffsets: []uint64{3}})
}

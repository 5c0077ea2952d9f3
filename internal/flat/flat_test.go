package flat

import (
	"math/rand"
	"sort"
	"testing"
)

func TestTableZeroValue(t *testing.T) {
	var tb Table[int]
	if tb.Len() != 0 || len(tb.keys) != 0 {
		t.Fatalf("zero table: len=%d cap=%d", tb.Len(), len(tb.keys))
	}
	if tb.Ptr(0) != nil || tb.Ptr(42) != nil {
		t.Fatal("Ptr on empty table must be nil")
	}
	if tb.Delete(42) {
		t.Fatal("Delete on empty table must report absent")
	}
	if ks := tb.Keys(nil); len(ks) != 0 {
		t.Fatalf("Keys on empty table: %v", ks)
	}
	tb.Reset() // must not panic
}

// Key 0 is a real line address in the simulator; the table must not
// treat it as a sentinel.
func TestTableZeroKey(t *testing.T) {
	var tb Table[string]
	p, created := tb.Upsert(0)
	if !created {
		t.Fatal("first Upsert(0) must create")
	}
	*p = "zero"
	if p := tb.Ptr(0); p == nil || *p != "zero" {
		t.Fatalf("Ptr(0) = %v", p)
	}
	if !tb.Delete(0) {
		t.Fatal("Delete(0) must report present")
	}
	if tb.Ptr(0) != nil {
		t.Fatal("key 0 must be gone after delete")
	}
}

func TestTableGrowthKeepsEntries(t *testing.T) {
	var tb Table[uint64]
	const n = 10_000
	for i := uint64(0); i < n; i++ {
		p, created := tb.Upsert(i * 64) // line-address-shaped keys
		if !created {
			t.Fatalf("key %d already present", i*64)
		}
		*p = i
	}
	if tb.Len() != n {
		t.Fatalf("len = %d, want %d", tb.Len(), n)
	}
	for i := uint64(0); i < n; i++ {
		if p := tb.Ptr(i * 64); p == nil || *p != i {
			t.Fatalf("Ptr(%d) = %v", i*64, p)
		}
	}
}

func TestTableTombstoneReuse(t *testing.T) {
	var tb Table[int]
	for i := uint64(0); i < 100; i++ {
		tb.Upsert(i)
	}
	for i := uint64(0); i < 100; i += 2 {
		tb.Delete(i)
	}
	if tb.Len() != 50 {
		t.Fatalf("len = %d, want 50", tb.Len())
	}
	// Odd keys must survive the tombstones in their probe chains.
	for i := uint64(1); i < 100; i += 2 {
		if tb.Ptr(i) == nil {
			t.Fatalf("key %d lost after deletes", i)
		}
	}
	// Re-inserting a deleted key must reuse a slot and find it again.
	p, created := tb.Upsert(42)
	if !created {
		t.Fatal("re-insert of deleted key must create")
	}
	*p = 7
	if p := tb.Ptr(42); p == nil || *p != 7 {
		t.Fatalf("reinserted value = %v", p)
	}
}

func TestTableKeysSorted(t *testing.T) {
	var tb Table[int]
	keys := []uint64{512, 0, 1 << 40, 64, 128, 9, 3}
	for _, k := range keys {
		tb.Upsert(k)
	}
	tb.Delete(128)
	got := tb.Keys(nil)
	want := []uint64{0, 3, 9, 64, 512, 1 << 40}
	if len(got) != len(want) {
		t.Fatalf("Keys = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Keys = %v, want %v", got, want)
		}
	}
	// Buffer reuse must not allocate once capacity is reached.
	buf := make([]uint64, 0, 16)
	if n := testing.AllocsPerRun(10, func() { buf = tb.Keys(buf) }); n != 0 {
		t.Fatalf("Keys with reused buffer allocated %.0f times", n)
	}
}

func TestTableReset(t *testing.T) {
	var tb Table[int]
	for i := uint64(0); i < 64; i++ {
		tb.Upsert(i)
	}
	cap0 := len(tb.keys)
	tb.Reset()
	if tb.Len() != 0 || len(tb.keys) != cap0 {
		t.Fatalf("after Reset: len=%d cap=%d (want 0, %d)", tb.Len(), len(tb.keys), cap0)
	}
	for i := uint64(0); i < 64; i++ {
		if tb.Ptr(i) != nil {
			t.Fatalf("key %d survived Reset", i)
		}
	}
	// Refill within capacity must not allocate.
	if n := testing.AllocsPerRun(5, func() {
		tb.Reset()
		for i := uint64(0); i < 64; i++ {
			tb.Upsert(i)
		}
	}); n != 0 {
		t.Fatalf("Reset+refill allocated %.0f times", n)
	}
}

// TestTableOracle fuzzes a random op sequence against map semantics.
func TestTableOracle(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tb Table[uint32]
		oracle := map[uint64]uint32{}
		// Small key space forces heavy collision/tombstone traffic.
		keyOf := func() uint64 { return uint64(rng.Intn(257)) * 64 }
		for op := 0; op < 20_000; op++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3: // upsert
				k, v := keyOf(), rng.Uint32()
				p, created := tb.Upsert(k)
				if _, ok := oracle[k]; created == ok {
					t.Fatalf("seed %d op %d: Upsert(%d) created=%v, oracle has=%v", seed, op, k, created, ok)
				}
				*p = v
				oracle[k] = v
			case 4, 5: // delete
				k := keyOf()
				_, ok := oracle[k]
				if got := tb.Delete(k); got != ok {
					t.Fatalf("seed %d op %d: Delete(%d) = %v, oracle %v", seed, op, k, got, ok)
				}
				delete(oracle, k)
			case 6: // reset, occasionally
				if rng.Intn(50) == 0 {
					tb.Reset()
					oracle = map[uint64]uint32{}
				}
			default: // lookup
				k := keyOf()
				p := tb.Ptr(k)
				ov, ook := oracle[k]
				if (p != nil) != ook || (p != nil && *p != ov) {
					t.Fatalf("seed %d op %d: Ptr(%d) = %v, oracle %d,%v", seed, op, k, p, ov, ook)
				}
			}
		}
		// Full-state check: length, every entry, ordered key walk.
		if tb.Len() != len(oracle) {
			t.Fatalf("seed %d: len = %d, oracle %d", seed, tb.Len(), len(oracle))
		}
		for k, v := range oracle {
			if p := tb.Ptr(k); p == nil || *p != v {
				t.Fatalf("seed %d: Ptr(%d) = %v, oracle %d", seed, k, p, v)
			}
		}
		want := make([]uint64, 0, len(oracle))
		for k := range oracle {
			want = append(want, k)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		got := tb.Keys(nil)
		if len(got) != len(want) {
			t.Fatalf("seed %d: Keys len %d, want %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: Keys[%d] = %d, want %d", seed, i, got[i], want[i])
			}
		}
		n := 0
		tb.Range(func(k uint64, v *uint32) bool {
			if ov, ok := oracle[k]; !ok || *v != ov {
				t.Fatalf("seed %d: Range visited (%d,%d) not in oracle", seed, k, *v)
			}
			n++
			return true
		})
		if n != len(oracle) {
			t.Fatalf("seed %d: Range visited %d entries, oracle %d", seed, n, len(oracle))
		}
	}
}

package kv

import (
	"strings"
	"testing"

	"lrp/internal/isa"
	"lrp/internal/lfds"
	"lrp/internal/mech"
	"lrp/internal/memsys"
	"lrp/internal/mm"
	"lrp/internal/recovery"
	"lrp/internal/workload"
)

func testSys(t *testing.T, cores int) *memsys.System {
	t.Helper()
	// TestConfig tracks happens-before, which also keeps the NVM persist
	// log the recovery tests rebuild their FinalImage from.
	return memsys.MustNew(memsys.TestConfig(cores).WithMechanism(mech.LRP))
}

func testParams() workload.KVParams {
	return workload.KVParams{Tenants: 2, KeysPerTenant: 64}.Normalized(128)
}

// TestStoreSequentialBasics exercises the full service surface on one
// thread: set/get/delete/cas/scan with tombstone and tenant-isolation
// semantics.
func TestStoreSequentialBasics(t *testing.T) {
	sys := testSys(t, 1)
	st := New(sys, testParams())
	sys.RunOne(func(c *memsys.Ctx) {
		if _, ok := st.Get(c, 0, 5); ok {
			t.Error("empty store returned key 5")
		}
		st.Set(c, 0, 5, 100, 3)
		if id, ok := st.Get(c, 0, 5); !ok || id != 100 {
			t.Errorf("Get(0,5) = %d,%v after Set 100", id, ok)
		}
		if _, ok := st.Get(c, 1, 5); ok {
			t.Error("tenant 1 sees tenant 0's key")
		}
		// Overwrite.
		st.Set(c, 0, 5, 101, 1)
		if id, _ := st.Get(c, 0, 5); id != 101 {
			t.Errorf("Get(0,5) = %d after overwrite 101", id)
		}
		// Delete tombstones; a second delete misses.
		if !st.Delete(c, 0, 5) {
			t.Error("Delete(0,5) missed a live key")
		}
		if _, ok := st.Get(c, 0, 5); ok {
			t.Error("key 5 alive after delete")
		}
		if st.Delete(c, 0, 5) {
			t.Error("second Delete(0,5) succeeded")
		}
		if st.Delete(c, 0, 6) {
			t.Error("Delete of never-set key succeeded")
		}
		// Set resurrects a tombstoned key.
		st.Set(c, 0, 5, 102, 2)
		if id, ok := st.Get(c, 0, 5); !ok || id != 102 {
			t.Errorf("Get(0,5) = %d,%v after resurrection", id, ok)
		}
		// CAS: success swaps, repeat with the stale expectation fails.
		cell, cur, exp, live := st.Read(c, 0, 5)
		if !live || exp != 102 {
			t.Fatalf("Read(0,5) = exp %d, live %v", exp, live)
		}
		if !st.Swap(c, cell, cur, 0, 5, 103, 2) {
			t.Error("CAS with fresh observation failed")
		}
		if st.Swap(c, cell, cur, 0, 5, 104, 2) {
			t.Error("CAS with stale observation succeeded")
		}
		if id, _ := st.Get(c, 0, 5); id != 103 {
			t.Errorf("Get(0,5) = %d after CAS to 103", id)
		}
		if _, _, _, live := st.Read(c, 0, 99); live {
			t.Error("Read of absent key reported live")
		}
	})
}

// TestStoreScan checks ordered scans see exactly the live keys at and
// after the start key, skipping tombstones, within one tenant.
func TestStoreScan(t *testing.T) {
	sys := testSys(t, 1)
	st := New(sys, testParams())
	sys.RunOne(func(c *memsys.Ctx) {
		for _, k := range []uint64{2, 4, 6, 8, 10} {
			st.Set(c, 0, k, k*10, 1)
		}
		st.Set(c, 1, 5, 999, 1) // other tenant: invisible
		if n := st.Scan(c, 0, 1, 100); n != 5 {
			t.Errorf("full scan saw %d live keys, want 5", n)
		}
		if n := st.Scan(c, 0, 5, 100); n != 3 {
			t.Errorf("scan from 5 saw %d live keys, want 3 (6,8,10)", n)
		}
		if n := st.Scan(c, 0, 1, 2); n != 2 {
			t.Errorf("bounded scan saw %d live keys, want 2", n)
		}
		st.Delete(c, 0, 6)
		if n := st.Scan(c, 0, 1, 100); n != 4 {
			t.Errorf("scan after delete saw %d live keys, want 4", n)
		}
		if n := st.Scan(c, 1, 1, 100); n != 1 {
			t.Errorf("tenant 1 scan saw %d live keys, want 1", n)
		}
	})
}

// TestRecoverQuiescent runs a mutation mix to quiescence under LRP and
// checks the final durable image recovers strictly with exactly the
// live keys.
func TestRecoverQuiescent(t *testing.T) {
	sys := testSys(t, 1)
	st := New(sys, testParams())
	want := map[uint64]uint64{}
	sys.RunOne(func(c *memsys.Ctx) {
		for k := uint64(1); k <= 20; k++ {
			st.Set(c, 0, k, 100+k, int(k%5)+1)
			want[globalKey(0, k)] = 100 + k
		}
		for k := uint64(1); k <= 20; k += 3 {
			st.Delete(c, 0, k)
			delete(want, globalKey(0, k))
		}
		st.Set(c, 1, 7, 777, 2)
		want[globalKey(1, 7)] = 777
		cell, cur, _, _ := st.Read(c, 0, 2)
		st.Swap(c, cell, cur, 0, 2, 202, 1)
		want[globalKey(0, 2)] = 202
	})
	sys.Drain()
	img := sys.NVM().FinalImage(nil)
	rep := st.Recover(img)
	if err := rep.Err(); err != nil {
		t.Fatalf("strict recovery at quiescence: %v", err)
	}
	if len(rep.Set.Members) != len(want) {
		t.Fatalf("recovered %d keys, want %d", len(rep.Set.Members), len(want))
	}
	for gk, id := range want {
		if got := rep.Set.Members[gk]; got != id {
			t.Errorf("key %d recovered as valId %d, want %d", gk, got, id)
		}
	}
}

// TestRecoverQuarantinesTornRecords corrupts each record field class in
// the durable image and checks the walker quarantines the key instead
// of resurrecting a torn value.
func TestRecoverQuarantinesTornRecords(t *testing.T) {
	sys := testSys(t, 1)
	st := New(sys, testParams())
	sys.RunOne(func(c *memsys.Ctx) {
		for k := uint64(1); k <= 8; k++ {
			st.Set(c, 0, k, 100+k, 2)
		}
	})
	sys.Drain()
	img := sys.NVM().FinalImage(nil)
	if err := st.Recover(img).Err(); err != nil {
		t.Fatalf("baseline image dirty: %v", err)
	}

	// Locate key 3's record in the image.
	var rec isa.Addr
	sys.RunOne(func(c *memsys.Ctx) {
		node := st.shards[0].idx.FindNode(c, globalKey(0, 3))
		if node == 0 {
			t.Fatal("key 3 missing")
		}
		rec = isa.Addr(c.Load(lfds.NodeValCell(node)))
	})

	cases := []struct {
		name   string
		mutate func(m *mm.Memory)
		expect string
	}{
		{"zeroed length", func(m *mm.Memory) { m.Write(rec+recWords, 0) }, "length 0 out of range"},
		{"huge length", func(m *mm.Memory) { m.Write(rec+recWords, MaxValWords+1) }, "out of range"},
		{"zeroed valId", func(m *mm.Memory) { m.Write(rec+recValID, 0) }, "valId uninitialized"},
		{"flipped checksum", func(m *mm.Memory) { m.Write(rec+recSum, m.Read(rec+recSum)^1) }, "checksum mismatch"},
		{"torn payload", func(m *mm.Memory) { m.Write(rec+recData, 0) }, "payload word 0 torn"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			torn := img.Clone()
			tc.mutate(torn)
			rep := st.Recover(torn)
			found := false
			for _, q := range rep.Quarantined {
				if strings.Contains(q.Reason, tc.expect) {
					found = true
				}
			}
			if !found {
				t.Fatalf("no quarantine matching %q; got %v", tc.expect, rep.Quarantined)
			}
			if _, ok := rep.Set.Members[globalKey(0, 3)]; ok {
				t.Fatal("torn key 3 recovered as live")
			}
		})
	}
}

// TestRecoverTombstoneAbsent checks a tombstoned key is healthy-absent
// in recovery: no quarantine, not a member.
func TestRecoverTombstoneAbsent(t *testing.T) {
	sys := testSys(t, 1)
	st := New(sys, testParams())
	sys.RunOne(func(c *memsys.Ctx) {
		st.Set(c, 0, 4, 104, 1)
		st.Set(c, 0, 5, 105, 1)
		st.Delete(c, 0, 4)
	})
	sys.Drain()
	img := sys.NVM().FinalImage(nil)
	rep := st.Recover(img)
	if err := rep.Err(); err != nil {
		t.Fatalf("tombstoned image dirty: %v", err)
	}
	if _, ok := rep.Set.Members[globalKey(0, 4)]; ok {
		t.Error("tombstoned key recovered live")
	}
	if id := rep.Set.Members[globalKey(0, 5)]; id != 105 {
		t.Errorf("key 5 recovered as %d, want 105", id)
	}
}

// TestRecoverSkiplistSuperset checks a key present in the ordered index
// but never published in the hashmap (the legal crash state between a
// Set's two publishes) recovers clean and absent.
func TestRecoverSkiplistSuperset(t *testing.T) {
	sys := testSys(t, 1)
	st := New(sys, testParams())
	sys.RunOne(func(c *memsys.Ctx) {
		st.Set(c, 0, 9, 109, 1)
		// Simulate the pre-publish half of a Set: ordered-index entry
		// only, exactly what Set writes before the hashmap publish.
		st.shards[0].ord.Insert(c, globalKey(0, 10), recovery.DefaultVal(globalKey(0, 10)))
	})
	sys.Drain()
	img := sys.NVM().FinalImage(nil)
	rep := st.Recover(img)
	if err := rep.Err(); err != nil {
		t.Fatalf("superset image dirty: %v", err)
	}
	if _, ok := rep.Set.Members[globalKey(0, 10)]; ok {
		t.Error("unpublished key recovered live")
	}
}

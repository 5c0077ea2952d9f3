package recovery_test

import (
	"testing"

	"lrp/internal/isa"
	"lrp/internal/lfds"
	"lrp/internal/mech"
	"lrp/internal/memsys"
	"lrp/internal/mm"
	"lrp/internal/recovery"
)

// The walks under test are the structures' own Recover methods (package
// lfds); these tests drive them through the report types defined here.
// Hand-made images write their nodes at 0x2000 and up, clear of the
// anchors a fresh machine places at the start of its static region.

func sys(t *testing.T) *memsys.System {
	t.Helper()
	return memsys.MustNew(memsys.TestConfig(2).WithMechanism(mech.LRP))
}

// populate runs inserts/deletes and returns the expected member set.
func populate(s *memsys.System, set lfds.Set) map[uint64]uint64 {
	want := map[uint64]uint64{}
	s.Run([]memsys.Program{
		func(c *memsys.Ctx) {
			for k := uint64(1); k <= 30; k++ {
				set.Insert(c, k, recovery.DefaultVal(k))
			}
			for k := uint64(2); k <= 30; k += 3 {
				set.Delete(c, k)
			}
		},
		func(c *memsys.Ctx) {
			for k := uint64(31); k <= 60; k++ {
				set.Insert(c, k, recovery.DefaultVal(k))
			}
		},
	})
	for k := uint64(1); k <= 60; k++ {
		if k <= 30 && k%3 == 2 {
			continue
		}
		want[k] = recovery.DefaultVal(k)
	}
	return want
}

// recovered fails the test unless rep is clean and returns its contents.
func recovered(t *testing.T, rep *recovery.Report) *recovery.SetState {
	t.Helper()
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	return rep.Set
}

func checkMembers(t *testing.T, got *recovery.SetState, want map[uint64]uint64) {
	t.Helper()
	if len(got.Members) != len(want) {
		t.Fatalf("recovered %d members, want %d", len(got.Members), len(want))
	}
	for k, v := range want {
		if got.Members[k] != v {
			t.Fatalf("key %d: recovered %d want %d", k, got.Members[k], v)
		}
	}
}

func TestWalkListCleanShutdown(t *testing.T) {
	s := sys(t)
	l := lfds.NewLinkedList(s)
	want := populate(s, l)
	s.Drain()
	img := s.NVM().FinalImage(nil)
	checkMembers(t, recovered(t, l.Recover(img)), want)
}

func TestWalkHashMapCleanShutdown(t *testing.T) {
	s := sys(t)
	h := lfds.NewHashMap(s, 8)
	want := populate(s, h)
	s.Drain()
	img := s.NVM().FinalImage(nil)
	checkMembers(t, recovered(t, h.Recover(img)), want)
}

func TestWalkBSTCleanShutdown(t *testing.T) {
	s := sys(t)
	b := lfds.NewBST(s)
	s.RunOne(func(c *memsys.Ctx) { b.Init(c) })
	want := populate(s, b)
	s.Drain()
	img := s.NVM().FinalImage(nil)
	checkMembers(t, recovered(t, b.Recover(img)), want)
}

func TestWalkSkipListCleanShutdown(t *testing.T) {
	s := sys(t)
	sl := lfds.NewSkipList(s)
	want := populate(s, sl)
	s.Drain()
	img := s.NVM().FinalImage(nil)
	checkMembers(t, recovered(t, sl.Recover(img)), want)
}

func TestWalkQueueCleanShutdown(t *testing.T) {
	s := sys(t)
	q := lfds.NewQueue(s)
	s.RunOne(func(c *memsys.Ctx) { q.Init(c) })
	s.Run([]memsys.Program{
		func(c *memsys.Ctx) {
			for v := uint64(1); v <= 20; v++ {
				q.Enqueue(c, v)
			}
			q.Dequeue(c)
			q.Dequeue(c)
		},
	})
	s.Drain()
	img := s.NVM().FinalImage(nil)
	rep := q.Recover(img)
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	st := rep.Queue
	if len(st.Values) != 18 {
		t.Fatalf("recovered %d values, want 18", len(st.Values))
	}
	for i, v := range st.Values {
		if v != uint64(i+3) {
			t.Fatalf("value[%d] = %d, want %d", i, v, i+3)
		}
	}
}

// Corruption detection on hand-built bad images.

func TestWalkListDetectsGarbageNode(t *testing.T) {
	img := mm.NewMemory()
	l := lfds.NewLinkedList(sys(t))
	node := isa.Addr(0x2000)
	img.Write(l.Head(), uint64(node))
	// Node linked but never initialized: the ARP failure mode.
	wantCorruption(t, l.Recover(img).Err(), "uninitialized key")
	// Now a bad value.
	img.Write(node+0, 5)
	img.Write(node+8, 99) // not DefaultVal(5)
	wantCorruption(t, l.Recover(img).Err(), "integrity convention")
	img.Write(node+8, recovery.DefaultVal(5))
	if err := l.Recover(img).Err(); err != nil {
		t.Fatalf("clean node rejected: %v", err)
	}
}

func TestWalkListDetectsOrderViolation(t *testing.T) {
	img := mm.NewMemory()
	l := lfds.NewLinkedList(sys(t))
	n1, n2 := isa.Addr(0x2000), isa.Addr(0x3000)
	img.Write(l.Head(), uint64(n1))
	img.Write(n1+0, 9)
	img.Write(n1+8, recovery.DefaultVal(9))
	img.Write(n1+16, uint64(n2))
	img.Write(n2+0, 4) // out of order
	img.Write(n2+8, recovery.DefaultVal(4))
	wantCorruption(t, l.Recover(img).Err(), "key order violated")
}

func TestWalkListDetectsCycle(t *testing.T) {
	img := mm.NewMemory()
	l := lfds.NewLinkedList(sys(t))
	n1 := isa.Addr(0x2000)
	img.Write(l.Head(), uint64(n1))
	img.Write(n1+0, 1)
	img.Write(n1+8, recovery.DefaultVal(1))
	img.Write(n1+16, uint64(n1)) // self loop — also an order violation
	tightSteps(t, 100)
	wantCorruption(t, l.Recover(img).Err(), "key order violated")
}

func TestWalkHashMapDetectsWrongBucket(t *testing.T) {
	img := mm.NewMemory()
	h := lfds.NewHashMap(sys(t), 2)
	buckets, _ := h.Buckets()
	node := isa.Addr(0x2000)
	img.Write(buckets, uint64(node)) // bucket 0
	img.Write(node+0, 7)             // hashes to bucket 1
	img.Write(node+8, recovery.DefaultVal(7))
	wantCorruption(t, h.Recover(img).Err(), "found in bucket 0, hashes to 1")
}

func TestWalkBSTDetectsMissingChild(t *testing.T) {
	img := mm.NewMemory()
	b := lfds.NewBST(sys(t))
	internal := isa.Addr(0x2000)
	leaf := isa.Addr(0x3000)
	img.Write(b.Root(), uint64(internal))
	img.Write(internal+0, 10)
	img.Write(internal+16, uint64(leaf))
	// right child missing: the internal node's writes only partially
	// persisted before it was linked.
	img.Write(leaf+0, 5)
	img.Write(leaf+8, recovery.DefaultVal(5))
	wantCorruption(t, b.Recover(img).Err(), "missing child")
}

func TestWalkBSTDetectsRouteEscape(t *testing.T) {
	img := mm.NewMemory()
	b := lfds.NewBST(sys(t))
	internal := isa.Addr(0x2000)
	l, r := isa.Addr(0x3000), isa.Addr(0x4000)
	img.Write(b.Root(), uint64(internal))
	img.Write(internal+0, 10)
	img.Write(internal+16, uint64(l))
	img.Write(internal+24, uint64(r))
	img.Write(l+0, 15) // should be < 10
	img.Write(l+8, recovery.DefaultVal(15))
	img.Write(r+0, 20)
	img.Write(r+8, recovery.DefaultVal(20))
	wantCorruption(t, b.Recover(img).Err(), "escapes route bounds")
}

func TestWalkBSTEmptyImage(t *testing.T) {
	img := mm.NewMemory()
	rep := lfds.NewBST(sys(t)).Recover(img)
	if err := rep.Err(); err != nil || len(rep.Set.Members) != 0 {
		t.Fatalf("empty image: %v %v", rep, err)
	}
}

// The skip list's index levels are volatile annotations: the crash-image
// walker reads only the bottom level, so an image whose index disagrees
// with it is still accepted.

func TestWalkSkipListDetectsPhantomIndexNode(t *testing.T) {
	img := mm.NewMemory()
	sl := lfds.NewSkipList(sys(t))
	head := sl.Head() // 16-level tower
	node := isa.Addr(0x2000)
	// Node linked at level 1 but not level 0.
	img.Write(head+8, uint64(node))
	img.Write(node+0, 5)
	img.Write(node+8, recovery.DefaultVal(5))
	img.Write(node+16, 2) // height 2
	rep := sl.Recover(img)
	if err := rep.Err(); err != nil {
		t.Fatalf("bottom-only walker should accept: %v", err)
	}
	if n := len(rep.Set.Members); n != 0 {
		t.Fatalf("recovered %d members from an index-only node, want 0", n)
	}
}

func TestWalkSkipListDetectsHeightLie(t *testing.T) {
	img := mm.NewMemory()
	sl := lfds.NewSkipList(sys(t))
	head := sl.Head()
	node := isa.Addr(0x2000)
	img.Write(head, uint64(node))
	img.Write(head+8, uint64(node))
	img.Write(node+0, 5)
	img.Write(node+8, recovery.DefaultVal(5))
	img.Write(node+16, 1) // height 1, yet reachable at level 1
	rep := sl.Recover(img)
	if err := rep.Err(); err != nil {
		t.Fatalf("bottom-only walker should accept: %v", err)
	}
	if n := len(rep.Set.Members); n != 1 {
		t.Fatalf("recovered %d members, want 1", n)
	}
}

func TestWalkQueueDetectsUninitializedNode(t *testing.T) {
	img := mm.NewMemory()
	q := lfds.NewQueue(sys(t))
	head, tail := q.Anchors()
	dummy, n1 := isa.Addr(0x2000), isa.Addr(0x3000)
	img.Write(head, uint64(dummy))
	img.Write(tail, uint64(dummy))
	img.Write(dummy+8, uint64(n1)) // linked but val never persisted
	wantCorruption(t, q.Recover(img).Err(), "uninitialized value")
}

func TestWalkQueueTailBeforeHead(t *testing.T) {
	img := mm.NewMemory()
	q := lfds.NewQueue(sys(t))
	_, tail := q.Anchors()
	img.Write(tail, uint64(0x2000))
	wantCorruption(t, q.Recover(img).Err(), "tail persisted before head")
}

func TestWalkQueueEmptyImage(t *testing.T) {
	img := mm.NewMemory()
	rep := lfds.NewQueue(sys(t)).Recover(img)
	if err := rep.Err(); err != nil || len(rep.Queue.Values) != 0 {
		t.Fatalf("empty image: %v %v", rep, err)
	}
}

func TestWalkQueueUnreachableTail(t *testing.T) {
	img := mm.NewMemory()
	q := lfds.NewQueue(sys(t))
	head, tail := q.Anchors()
	dummy := isa.Addr(0x2000)
	img.Write(head, uint64(dummy))
	img.Write(tail, uint64(0x9000)) // points nowhere in the chain
	wantCorruption(t, q.Recover(img).Err(), "tail points outside")
}

func TestCorruptionError(t *testing.T) {
	c := recovery.Corruption{Structure: "linkedlist", Node: 0x2000, Reason: "boom"}
	if c.Error() == "" {
		t.Fatal("empty error")
	}
}

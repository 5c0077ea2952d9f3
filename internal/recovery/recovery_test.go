package recovery

import (
	"testing"

	"lrp/internal/isa"
	"lrp/internal/lfds"
	"lrp/internal/memsys"
	"lrp/internal/mm"
	"lrp/internal/persist"
)

func sys(t *testing.T) *memsys.System {
	t.Helper()
	return memsys.MustNew(memsys.TestConfig(2).WithMechanism(persist.LRP))
}

// populate runs inserts/deletes and returns the expected member set.
func populate(s *memsys.System, set lfds.Set) map[uint64]uint64 {
	want := map[uint64]uint64{}
	s.Run([]memsys.Program{
		func(c *memsys.Ctx) {
			for k := uint64(1); k <= 30; k++ {
				set.Insert(c, k, DefaultVal(k))
			}
			for k := uint64(2); k <= 30; k += 3 {
				set.Delete(c, k)
			}
		},
		func(c *memsys.Ctx) {
			for k := uint64(31); k <= 60; k++ {
				set.Insert(c, k, DefaultVal(k))
			}
		},
	})
	for k := uint64(1); k <= 60; k++ {
		if k <= 30 && k%3 == 2 {
			continue
		}
		want[k] = DefaultVal(k)
	}
	return want
}

// recovered fails the test unless rep is clean and returns its contents.
func recovered(t *testing.T, rep *Report) *SetState {
	t.Helper()
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	return rep.Set
}

func checkMembers(t *testing.T, got *SetState, want map[uint64]uint64) {
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
	checkMembers(t, recovered(t, ReportList(img, l.Head())), want)
}

func TestWalkHashMapCleanShutdown(t *testing.T) {
	s := sys(t)
	h := lfds.NewHashMap(s, 8)
	want := populate(s, h)
	s.Drain()
	img := s.NVM().FinalImage(nil)
	base, n := h.Buckets()
	checkMembers(t, recovered(t, ReportHashMap(img, base, n, h.BucketOf)), want)
}

func TestWalkBSTCleanShutdown(t *testing.T) {
	s := sys(t)
	b := lfds.NewBST(s)
	s.RunOne(func(c *memsys.Ctx) { b.Init(c) })
	want := populate(s, b)
	s.Drain()
	img := s.NVM().FinalImage(nil)
	checkMembers(t, recovered(t, ReportBST(img, b.Root(), lfds.BSTSentinel)), want)
}

func TestWalkSkipListCleanShutdown(t *testing.T) {
	s := sys(t)
	sl := lfds.NewSkipList(s)
	want := populate(s, sl)
	s.Drain()
	img := s.NVM().FinalImage(nil)
	st, err := WalkSkipListIndex(img, sl.Head(), lfds.MaxHeight)
	if err != nil {
		t.Fatal(err)
	}
	checkMembers(t, st, want)
	// The bottom-only walker recovers the same membership.
	checkMembers(t, recovered(t, ReportSkipList(img, sl.Head(), lfds.MaxHeight)), want)
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
	head, tail := q.Anchors()
	rep := ReportQueue(img, head, tail)
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
	head := isa.Addr(0x1000)
	node := isa.Addr(0x2000)
	img.Write(head, uint64(node))
	// Node linked but never initialized: the ARP failure mode.
	wantCorruption(t, ReportList(img, head).Err(), "uninitialized key")
	// Now a bad value.
	img.Write(node+0, 5)
	img.Write(node+8, 99) // not DefaultVal(5)
	wantCorruption(t, ReportList(img, head).Err(), "integrity convention")
	img.Write(node+8, DefaultVal(5))
	if err := ReportList(img, head).Err(); err != nil {
		t.Fatalf("clean node rejected: %v", err)
	}
}

func TestWalkListDetectsOrderViolation(t *testing.T) {
	img := mm.NewMemory()
	head := isa.Addr(0x1000)
	n1, n2 := isa.Addr(0x2000), isa.Addr(0x3000)
	img.Write(head, uint64(n1))
	img.Write(n1+0, 9)
	img.Write(n1+8, DefaultVal(9))
	img.Write(n1+16, uint64(n2))
	img.Write(n2+0, 4) // out of order
	img.Write(n2+8, DefaultVal(4))
	wantCorruption(t, ReportList(img, head).Err(), "key order violated")
}

func TestWalkListDetectsCycle(t *testing.T) {
	img := mm.NewMemory()
	head := isa.Addr(0x1000)
	n1 := isa.Addr(0x2000)
	img.Write(head, uint64(n1))
	img.Write(n1+0, 1)
	img.Write(n1+8, DefaultVal(1))
	img.Write(n1+16, uint64(n1)) // self loop — also an order violation
	wantCorruption(t, ReportList(img, head).Err(), "key order violated")
}

func TestWalkHashMapDetectsWrongBucket(t *testing.T) {
	img := mm.NewMemory()
	buckets := isa.Addr(0x1000)
	node := isa.Addr(0x2000)
	img.Write(buckets, uint64(node)) // bucket 0
	img.Write(node+0, 7)
	img.Write(node+8, DefaultVal(7))
	bucketOf := func(k uint64) uint64 { return 1 } // everything hashes to 1
	wantCorruption(t, ReportHashMap(img, buckets, 2, bucketOf).Err(), "found in bucket 0, hashes to 1")
}

func TestWalkBSTDetectsMissingChild(t *testing.T) {
	img := mm.NewMemory()
	root := isa.Addr(0x1000)
	internal := isa.Addr(0x2000)
	leaf := isa.Addr(0x3000)
	img.Write(root, uint64(internal))
	img.Write(internal+0, 10)
	img.Write(internal+16, uint64(leaf))
	// right child missing: the internal node's writes only partially
	// persisted before it was linked.
	img.Write(leaf+0, 5)
	img.Write(leaf+8, DefaultVal(5))
	wantCorruption(t, ReportBST(img, root, lfds.BSTSentinel).Err(), "missing child")
}

func TestWalkBSTDetectsRouteEscape(t *testing.T) {
	img := mm.NewMemory()
	root := isa.Addr(0x1000)
	internal := isa.Addr(0x2000)
	l, r := isa.Addr(0x3000), isa.Addr(0x4000)
	img.Write(root, uint64(internal))
	img.Write(internal+0, 10)
	img.Write(internal+16, uint64(l))
	img.Write(internal+24, uint64(r))
	img.Write(l+0, 15) // should be < 10
	img.Write(l+8, DefaultVal(15))
	img.Write(r+0, 20)
	img.Write(r+8, DefaultVal(20))
	wantCorruption(t, ReportBST(img, root, lfds.BSTSentinel).Err(), "escapes route bounds")
}

func TestWalkBSTEmptyImage(t *testing.T) {
	img := mm.NewMemory()
	rep := ReportBST(img, 0x1000, lfds.BSTSentinel)
	if err := rep.Err(); err != nil || len(rep.Set.Members) != 0 {
		t.Fatalf("empty image: %v %v", rep, err)
	}
}

func TestWalkSkipListDetectsPhantomIndexNode(t *testing.T) {
	img := mm.NewMemory()
	head := isa.Addr(0x1000) // 16-level tower
	node := isa.Addr(0x2000)
	// Node linked at level 1 but not level 0.
	img.Write(head+8, uint64(node))
	img.Write(node+0, 5)
	img.Write(node+8, DefaultVal(5))
	img.Write(node+16, 2) // height 2
	_, err := WalkSkipListIndex(img, head, lfds.MaxHeight)
	wantCorruption(t, err, "not on the bottom level")
	// The crash-image walker ignores the (volatile) index.
	if err := ReportSkipList(img, head, lfds.MaxHeight).Err(); err != nil {
		t.Fatalf("bottom-only walker should accept: %v", err)
	}
}

func TestWalkSkipListDetectsHeightLie(t *testing.T) {
	img := mm.NewMemory()
	head := isa.Addr(0x1000)
	node := isa.Addr(0x2000)
	img.Write(head, uint64(node))
	img.Write(head+8, uint64(node))
	img.Write(node+0, 5)
	img.Write(node+8, DefaultVal(5))
	img.Write(node+16, 1) // height 1, yet reachable at level 1
	_, err := WalkSkipListIndex(img, head, lfds.MaxHeight)
	wantCorruption(t, err, "reachable at level 1")
}

func TestWalkQueueDetectsUninitializedNode(t *testing.T) {
	img := mm.NewMemory()
	head, tail := isa.Addr(0x1000), isa.Addr(0x1008)
	dummy, n1 := isa.Addr(0x2000), isa.Addr(0x3000)
	img.Write(head, uint64(dummy))
	img.Write(tail, uint64(dummy))
	img.Write(dummy+8, uint64(n1)) // linked but val never persisted
	wantCorruption(t, ReportQueue(img, head, tail).Err(), "uninitialized value")
}

func TestWalkQueueTailBeforeHead(t *testing.T) {
	img := mm.NewMemory()
	head, tail := isa.Addr(0x1000), isa.Addr(0x1008)
	img.Write(tail, uint64(0x2000))
	wantCorruption(t, ReportQueue(img, head, tail).Err(), "tail persisted before head")
}

func TestWalkQueueEmptyImage(t *testing.T) {
	img := mm.NewMemory()
	rep := ReportQueue(img, 0x1000, 0x1008)
	if err := rep.Err(); err != nil || len(rep.Queue.Values) != 0 {
		t.Fatalf("empty image: %v %v", rep, err)
	}
}

func TestWalkQueueUnreachableTail(t *testing.T) {
	img := mm.NewMemory()
	head, tail := isa.Addr(0x1000), isa.Addr(0x1008)
	dummy := isa.Addr(0x2000)
	img.Write(head, uint64(dummy))
	img.Write(tail, uint64(0x9000)) // points nowhere in the chain
	wantCorruption(t, ReportQueue(img, head, tail).Err(), "tail points outside")
}

func TestCorruptionError(t *testing.T) {
	c := Corruption{"linkedlist", 0x2000, "boom"}
	if c.Error() == "" {
		t.Fatal("empty error")
	}
}

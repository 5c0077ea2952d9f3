package recovery_test

import (
	"fmt"
	"strings"
	"testing"

	"lrp/internal/isa"
	"lrp/internal/lfds"
	"lrp/internal/mm"
	"lrp/internal/recovery"
)

// Images below are built by hand, word by word, to model the damage a
// faulty NVM can leave: pointer cycles, nodes linked before their
// initialization persisted (zero key), torn lines (value fails the
// integrity convention), truncated images and garbage pointers. Every
// walker must diagnose them without panicking or looping, and Err must
// name the first violation in walk order.

// listNode writes a [key, val, next] list node at addr.
func listNode(img *mm.Memory, addr isa.Addr, key, val, next uint64) {
	img.Write(addr+0, key)
	img.Write(addr+8, val)
	img.Write(addr+16, next)
}

// healthyList builds head -> n1(5) -> n2(9) -> nil and returns the list
// and the node addresses.
func healthyList(t *testing.T, img *mm.Memory) (l *lfds.LinkedList, n1, n2 isa.Addr) {
	l = lfds.NewLinkedList(sys(t))
	n1, n2 = isa.Addr(0x2000), isa.Addr(0x3000)
	img.Write(l.Head(), uint64(n1))
	listNode(img, n1, 5, recovery.DefaultVal(5), uint64(n2))
	listNode(img, n2, 9, recovery.DefaultVal(9), 0)
	return l, n1, n2
}

func wantCorruption(t *testing.T, err error, substr string) {
	t.Helper()
	if err == nil {
		t.Fatalf("walk accepted a corrupt image (want %q)", substr)
	}
	c, ok := err.(recovery.Corruption)
	if !ok {
		t.Fatalf("error %v is not a Corruption", err)
	}
	if !strings.Contains(c.Reason, substr) {
		t.Fatalf("corruption %q does not mention %q", c.Reason, substr)
	}
}

// tightSteps lowers the walk step bound for the duration of a test, so
// cycle tests assert the bound without walking millions of steps.
func tightSteps(t *testing.T, n int) {
	t.Helper()
	old := lfds.WalkStepBound
	lfds.WalkStepBound = n
	t.Cleanup(func() { lfds.WalkStepBound = old })
}

func TestListPointerCycleBounded(t *testing.T) {
	img := mm.NewMemory()
	l, n1, n2 := healthyList(t, img)
	img.Write(n2+16, uint64(n1)) // n2.next -> n1: cycle
	// The sortedness check catches the revisit of n1 (key 5 after 9)
	// before the step bound can: every list cycle revisits a key.
	tightSteps(t, 100)
	rep := l.Recover(img)
	wantCorruption(t, rep.Err(), "key order violated")

	// The walk skips order violations and keeps going, so the cycle runs
	// until the step bound truncates it.
	if rep.Clean() || rep.Abandoned != 1 {
		t.Fatalf("hardened walk did not truncate the cycle: %v", rep)
	}
	if c := rep.Quarantined[len(rep.Quarantined)-1]; !strings.Contains(c.Reason, "step bound") {
		t.Fatalf("cycle not attributed to the step bound: %v", c)
	}
}

func TestQueuePointerCycleBounded(t *testing.T) {
	img := mm.NewMemory()
	q := lfds.NewQueue(sys(t))
	head, tail := q.Anchors()
	d, n1, n2 := isa.Addr(0x2000), isa.Addr(0x3000), isa.Addr(0x4000)
	img.Write(head, uint64(d))
	img.Write(tail, uint64(n2))
	img.Write(d+8, uint64(n1))
	img.Write(n1+0, 7)
	img.Write(n1+8, uint64(n2))
	img.Write(n2+0, 8)
	img.Write(n2+8, uint64(n1)) // n2.next -> n1: cycle with valid values
	tightSteps(t, 100)
	rep := q.Recover(img)
	wantCorruption(t, rep.Err(), "step bound")
	if rep.Clean() || rep.Abandoned != 1 {
		t.Fatalf("hardened queue walk did not truncate the cycle: %v", rep)
	}
}

func TestZeroKeyNode(t *testing.T) {
	img := mm.NewMemory()
	l, n1, _ := healthyList(t, img)
	n3 := isa.Addr(0x4000)
	// n3 was linked in but its initialization never persisted.
	img.Write(n1+16, uint64(n3))
	rep := l.Recover(img)
	wantCorruption(t, rep.Err(), "uninitialized key")
	if rep.Clean() {
		t.Fatal("hardened walk reported a clean image")
	}
	if len(rep.Quarantined) == 0 || rep.Quarantined[0].Node != n3 {
		t.Fatalf("quarantine missed node %v: %v", n3, rep.Quarantined)
	}
	// The walk continues past the quarantined node (its next is nil
	// here): n1 must still be recovered.
	if rep.Set.Members[5] != recovery.DefaultVal(5) {
		t.Fatal("healthy prefix lost")
	}
}

func TestTornLineNode(t *testing.T) {
	img := mm.NewMemory()
	l, _, n2 := healthyList(t, img)
	// n2's line tore: the key word persisted, the value word did not.
	img.Write(n2+8, 0)
	rep := l.Recover(img)
	wantCorruption(t, rep.Err(), "integrity convention")
	if rep.Clean() || len(rep.Quarantined) != 1 || rep.Quarantined[0].Node != n2 {
		t.Fatalf("torn node not quarantined: %v", rep)
	}
	if rep.Set.Members[5] != recovery.DefaultVal(5) {
		t.Fatal("healthy node lost with the torn one")
	}
}

func TestTruncatedImage(t *testing.T) {
	// The image ends (reads as zero) where a node should be: the link
	// persisted, the pointed-to page never did.
	img := mm.NewMemory()
	l, n1, _ := healthyList(t, img)
	img.Write(n1+16, uint64(isa.Addr(0x7000))) // beyond the written image
	rep := l.Recover(img)
	wantCorruption(t, rep.Err(), "uninitialized key")
	if rep.Clean() {
		t.Fatal("hardened walk reported a truncated image clean")
	}
	if rep.Set.Members[5] != recovery.DefaultVal(5) {
		t.Fatal("healthy prefix lost")
	}
}

func TestMisalignedPointerDoesNotPanic(t *testing.T) {
	img := mm.NewMemory()
	l, n1, _ := healthyList(t, img)
	// Garbage pointer with bit 2 set: stripping the mark bits leaves it
	// misaligned, so an unguarded walker would fault the image read.
	img.Write(n1+16, uint64(0x5004))
	rep := l.Recover(img)
	wantCorruption(t, rep.Err(), "misaligned")
	if rep.Clean() || rep.Abandoned != 1 {
		t.Fatalf("misaligned pointer not quarantined: %v", rep)
	}
}

func TestBSTCorruptions(t *testing.T) {
	node := func(img *mm.Memory, a isa.Addr, key, val, left, right uint64) {
		img.Write(a+0, key)
		img.Write(a+8, val)
		img.Write(a+16, left)
		img.Write(a+24, right)
	}
	t.Run("cycle", func(t *testing.T) {
		tightSteps(t, 100) // the BST walk recurses per step
		img := mm.NewMemory()
		b := lfds.NewBST(sys(t))
		in, leaf := isa.Addr(0x2000), isa.Addr(0x3000)
		node(img, in, 10, 0, uint64(leaf), uint64(in)) // right child is itself
		node(img, leaf, 5, recovery.DefaultVal(5), 0, 0)
		img.Write(b.Root(), uint64(in))
		rep := b.Recover(img)
		// Re-entering the subtree through the cycle routes the leaf out of
		// its bounds before the step bound can trip.
		wantCorruption(t, rep.Err(), "escapes route bounds")
		if rep.Set.Members[5] != recovery.DefaultVal(5) {
			t.Fatal("healthy leaf lost")
		}
	})
	t.Run("missing-child", func(t *testing.T) {
		img := mm.NewMemory()
		b := lfds.NewBST(sys(t))
		in, leaf := isa.Addr(0x2000), isa.Addr(0x3000)
		node(img, in, 10, 0, uint64(leaf), 0) // right link never persisted
		node(img, leaf, 5, recovery.DefaultVal(5), 0, 0)
		img.Write(b.Root(), uint64(in))
		rep := b.Recover(img)
		wantCorruption(t, rep.Err(), "missing child")
		if rep.Clean() || rep.Abandoned != 1 {
			t.Fatalf("missing child not quarantined: %v", rep)
		}
	})
}

func TestHardenedMatchesStrictOnHealthyImage(t *testing.T) {
	img := mm.NewMemory()
	l, _, _ := healthyList(t, img)
	rep := l.Recover(img)
	if !rep.Clean() || rep.Err() != nil {
		t.Fatalf("hardened walk not clean on healthy image: %v", rep)
	}
	checkMembers(t, rep.Set, map[uint64]uint64{5: recovery.DefaultVal(5), 9: recovery.DefaultVal(9)})
	if rep.Set.Nodes != 2 {
		t.Fatalf("walk counted %d nodes, want 2", rep.Set.Nodes)
	}
}

// TestHashMapMisplacedKeysQuarantinedInKeyOrder: a bucket chain whose
// keys all hash elsewhere is quarantined key by key in ascending order
// (chain order), so the report and its Err are reproducible.
func TestHashMapMisplacedKeysQuarantinedInKeyOrder(t *testing.T) {
	img := mm.NewMemory()
	h := lfds.NewHashMap(sys(t), 2)
	buckets, _ := h.Buckets()
	// Bucket 0 holds every key, but they all hash to bucket 1.
	var keys []uint64
	for k := uint64(1); len(keys) < 16; k++ {
		if h.BucketOf(k) == 1 {
			keys = append(keys, k)
		}
	}
	for i, key := range keys {
		node := isa.Addr(0x2000 + 0x100*i)
		var next uint64
		if i+1 < len(keys) {
			next = uint64(node + 0x100)
		}
		listNode(img, node, key, recovery.DefaultVal(key), next)
	}
	img.Write(buckets, 0x2000)
	// Repeat the walk: an iteration-order dependence shows up on some run.
	for run := 0; run < 4; run++ {
		rep := h.Recover(img)
		if len(rep.Quarantined) != len(keys) || len(rep.Set.Members) != 0 {
			t.Fatalf("want %d misplaced keys quarantined, got %v", len(keys), rep)
		}
		for i, c := range rep.Quarantined {
			want := fmt.Sprintf("key %d found in bucket 0, hashes to 1", keys[i])
			if c.Reason != want || c.Node != buckets {
				t.Fatalf("run %d: quarantine[%d] = %v, want %q", run, i, c, want)
			}
		}
		wantCorruption(t, rep.Err(), fmt.Sprintf("key %d found in bucket 0", keys[0]))
	}
}

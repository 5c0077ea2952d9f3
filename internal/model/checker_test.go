package model

import (
	"testing"

	"lrp/internal/engine"
)

// persistAll marks the given stamps persisted at the given time.
func persistAll(tr *Tracker, t engine.Time, ss ...Stamp) {
	for _, s := range ss {
		tr.SetPersisted(s, t)
	}
}

// The paper's Figure 1 scenario: T0 writes node fields (W1), releases a
// CAS linking the node (Rel), T1 acquires the link (Acq) and writes its
// own node (W4). RP requires W1 p→ Rel p→ W4.
func fig1(tr *Tracker) (w1, rel, w4 Stamp) {
	w1 = tr.OnWrite(0, 0x100)    // node A1 fields
	rel = tr.OnRelease(0, 0x200) // CAS(N1.Next)
	tr.OnAcquire(1, 0x200)       // T1 reads N1.Next
	w4 = tr.OnWrite(1, 0x300)    // node B2 fields
	return
}

func TestCutConsistentWhenOrdered(t *testing.T) {
	tr := NewTracker(2)
	w1, rel, w4 := fig1(tr)
	persistAll(tr, 10, w1)
	persistAll(tr, 20, rel)
	persistAll(tr, 30, w4)
	for _, crash := range []engine.Time{5, 15, 25, 35} {
		if v := tr.CheckCut(crash, RP); v != nil {
			t.Fatalf("crash@%v: unexpected violations %v", crash, v)
		}
	}
}

func TestCutReleaseBeforeOwnWritesViolatesRP(t *testing.T) {
	tr := NewTracker(2)
	w1, rel, _ := fig1(tr)
	// The ARP failure mode: the release persists, W1 does not.
	persistAll(tr, 10, rel)
	persistAll(tr, 50, w1)
	v := tr.CheckCut(20, RP)
	if len(v) == 0 {
		t.Fatal("expected RP violation")
	}
	if v[0].Rule != "po-before-release" {
		t.Fatalf("rule = %q", v[0].Rule)
	}
	// ...but this is perfectly legal under ARP semantics: the paper's gap.
	if v := tr.CheckCut(20, ARP); v != nil {
		t.Fatalf("ARP should allow this cut, got %v", v)
	}
}

func TestCutW4BeforeW1ViolatesBoth(t *testing.T) {
	tr := NewTracker(2)
	w1, rel, w4 := fig1(tr)
	_ = w1
	persistAll(tr, 10, rel)
	persistAll(tr, 15, w4)
	// W4 persisted; W1 (before the acquired release) did not.
	for _, sem := range []Semantics{RP, ARP} {
		if v := tr.CheckCut(20, sem); len(v) == 0 {
			t.Fatalf("%v: expected violation", sem)
		}
	}
}

func TestCutW4RequiresReleaseUnderRPOnly(t *testing.T) {
	tr := NewTracker(2)
	w1, rel, w4 := fig1(tr)
	_ = rel
	// W1 and W4 persisted, the release itself did not.
	persistAll(tr, 10, w1)
	persistAll(tr, 15, w4)
	if v := tr.CheckCut(20, RP); len(v) == 0 {
		t.Fatal("RP requires the acquired release to persist before W4")
	}
	if v := tr.CheckCut(20, ARP); v != nil {
		t.Fatalf("ARP does not order the release itself, got %v", v)
	}
}

func TestCutUnorderedPlainWritesMayReorder(t *testing.T) {
	// Two plain writes of one thread to different addresses with no
	// release between them are unordered: persisting the later one first
	// is fine under RP. This is exactly the reordering LRP exploits.
	tr := NewTracker(1)
	a := tr.OnWrite(0, 0x100)
	b := tr.OnWrite(0, 0x140)
	persistAll(tr, 10, b)
	if v := tr.CheckCut(20, RP); v != nil {
		t.Fatalf("unordered writes should be free to reorder, got %v", v)
	}
	persistAll(tr, 30, a)
	if v := tr.CheckCut(40, RP); v != nil {
		t.Fatalf("fully persisted: %v", v)
	}
}

func TestCutSameAddressOrder(t *testing.T) {
	tr := NewTracker(1)
	w1 := tr.OnWrite(0, 0x100)
	w2 := tr.OnWrite(0, 0x100)
	_ = w1
	persistAll(tr, 10, w2)
	v := tr.CheckCut(20, RP)
	if len(v) == 0 || v[0].Rule != "same-address-po" {
		t.Fatalf("expected same-address violation, got %v", v)
	}
	// ARP keeps same-address order too.
	if v := tr.CheckCut(20, ARP); len(v) == 0 {
		t.Fatal("ARP also orders same-address writes")
	}
}

func TestCutTransitiveThroughChains(t *testing.T) {
	// T0: W_a, Rel_x. T1: Acq_x, W_b, Rel_y. T2: Acq_y, W_c.
	// W_a must persist before W_c.
	tr := NewTracker(3)
	wa := tr.OnWrite(0, 0x100)
	rx := tr.OnRelease(0, 0x200)
	tr.OnAcquire(1, 0x200)
	wb := tr.OnWrite(1, 0x300)
	ry := tr.OnRelease(1, 0x400)
	tr.OnAcquire(2, 0x400)
	wc := tr.OnWrite(2, 0x500)
	persistAll(tr, 10, rx, wb, ry, wc)
	// Everything except wa persisted.
	v := tr.CheckCut(20, RP)
	if len(v) == 0 {
		t.Fatal("expected transitive violation: wa missing")
	}
	found := false
	for _, viol := range v {
		if viol.Missing == wa {
			found = true
		}
	}
	if !found {
		t.Fatalf("violations %v do not name wa", v)
	}
}

func TestAcquireOfPlainWriteDoesNotSync(t *testing.T) {
	tr := NewTracker(2)
	w := tr.OnWrite(0, 0x100)
	tr.OnWrite(0, 0x200) // plain write to the flag address
	tr.OnAcquire(1, 0x200)
	w4 := tr.OnWrite(1, 0x300)
	_ = w
	persistAll(tr, 10, w4)
	// No synchronizes-with edge, so no cross-thread requirement.
	if v := tr.CheckCut(20, RP); v != nil {
		t.Fatalf("acquire of a plain write must not synchronize, got %v", v)
	}
	if tr.threads[1].acq.Get(0) != 0 {
		t.Fatal("clock advanced without a release")
	}
}

func TestReleaseOverwrittenByPlainWrite(t *testing.T) {
	tr := NewTracker(2)
	tr.OnRelease(0, 0x200)
	tr.OnWrite(0, 0x200) // plain overwrite
	tr.OnAcquire(1, 0x200)
	if tr.threads[1].acq.Get(0) != 0 {
		t.Fatal("acquire of overwritten release must not synchronize")
	}
}

func TestHappensBefore(t *testing.T) {
	tr := NewTracker(2)
	w1, rel, w4 := fig1(tr)
	if !tr.HappensBefore(w1, rel) {
		t.Fatal("w1 hb rel")
	}
	if !tr.HappensBefore(w1, w4) || !tr.HappensBefore(rel, w4) {
		t.Fatal("transitive hb through sw")
	}
	if tr.HappensBefore(w4, w1) || tr.HappensBefore(rel, w1) {
		t.Fatal("hb must not be symmetric")
	}
}

func TestHappensBeforePlainUnordered(t *testing.T) {
	tr := NewTracker(1)
	a := tr.OnWrite(0, 0x100)
	b := tr.OnWrite(0, 0x140)
	if tr.HappensBefore(a, b) || tr.HappensBefore(b, a) {
		t.Fatal("plain writes to different addresses are unordered")
	}
	c := tr.OnWrite(0, 0x100)
	if !tr.HappensBefore(a, c) {
		t.Fatal("same-address chain broken")
	}
}

func TestPersistedCount(t *testing.T) {
	tr := NewTracker(2)
	w1, rel, w4 := fig1(tr)
	persistAll(tr, 10, w1, rel)
	_ = w4
	p, total := tr.PersistedCount(15)
	if p != 2 || total != 3 {
		t.Fatalf("got %d/%d", p, total)
	}
}

func TestSetPersistedKeepsEarliest(t *testing.T) {
	tr := NewTracker(1)
	w := tr.OnWrite(0, 0x100)
	tr.SetPersisted(w, 100)
	tr.SetPersisted(w, 50)
	if tr.DurableAt(w) != 50 {
		t.Fatalf("DurableAt = %v", tr.DurableAt(w))
	}
	tr.SetPersisted(w, 70) // later persist must not move it back
	if tr.DurableAt(w) != 50 {
		t.Fatalf("DurableAt moved to %v", tr.DurableAt(w))
	}
	tr.SetPersisted(Stamp{}, 10) // zero stamp is a no-op
}

func TestRMWAcquireChain(t *testing.T) {
	// T0 releases; T1 performs an acquire-RMW on the same location and
	// then writes. The released value must persist before T1's write.
	tr := NewTracker(2)
	w0 := tr.OnWrite(0, 0x100)
	rel := tr.OnRelease(0, 0x200)
	tr.OnAcquire(1, 0x200)        // read half of the RMW
	rmw := tr.OnRelease(1, 0x200) // write half (release-RMW linking)
	w1 := tr.OnWrite(1, 0x300)
	persistAll(tr, 10, rmw, w1)
	_, _ = w0, rel
	v := tr.CheckCut(20, RP)
	if len(v) == 0 {
		t.Fatal("RMW chain must require the acquired release (and w0)")
	}
}

func TestSemanticsString(t *testing.T) {
	if RP.String() != "RP" || ARP.String() != "ARP" {
		t.Fatal("Semantics String broken")
	}
	if Semantics(9).String() == "" {
		t.Fatal("unknown semantics should still print")
	}
	v := Violation{Write: Stamp{0, 1}, Missing: Stamp{1, 2}, Rule: "x"}
	if v.String() == "" || (Stamp{0, 1}).String() == "" {
		t.Fatal("String methods broken")
	}
}

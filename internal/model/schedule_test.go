package model

import (
	"math/rand"
	"testing"

	"lrp/internal/engine"
	"lrp/internal/isa"
)

// wantBad checks the schedule's verdict at each instant against the
// CheckCut oracle and against the expected answer.
func wantBad(t *testing.T, tr *Tracker, sem Semantics, want bool, at ...engine.Time) {
	t.Helper()
	cs := tr.NewHBNeed().CutSchedule(sem)
	for _, crash := range at {
		oracle := len(tr.CheckCut(crash, sem)) > 0
		if got := cs.Bad(crash); got != oracle || got != want {
			t.Errorf("%v t=%d: Bad=%v, CheckCut bad=%v, want %v", sem, crash, got, oracle, want)
		}
	}
}

func TestCutScheduleNeedEqualsPersistIsConsistent(t *testing.T) {
	// w2 needs its same-address predecessor w1. When both persist at the
	// same instant the interval [p_w2, need) is empty.
	tr := NewTracker(1)
	w1 := tr.OnWrite(0, 0x100)
	w2 := tr.OnWrite(0, 0x100)
	persistAll(tr, 10, w1, w2)
	for _, sem := range []Semantics{RP, ARP} {
		wantBad(t, tr, sem, false, 0, 9, 10, 11, engine.Infinity)
	}
	// One cycle later and the single instant 10 is inconsistent.
	tr = NewTracker(1)
	w1 = tr.OnWrite(0, 0x100)
	w2 = tr.OnWrite(0, 0x100)
	persistAll(tr, 11, w1)
	persistAll(tr, 10, w2)
	for _, sem := range []Semantics{RP, ARP} {
		wantBad(t, tr, sem, false, 9, 11, 12)
		wantBad(t, tr, sem, true, 10)
	}
}

func TestCutScheduleNeverPersistedPredecessorIsOpenEnded(t *testing.T) {
	tr := NewTracker(1)
	tr.OnWrite(0, 0x100) // never persists
	w2 := tr.OnWrite(0, 0x100)
	persistAll(tr, 10, w2)
	for _, sem := range []Semantics{RP, ARP} {
		wantBad(t, tr, sem, false, 0, 9)
		wantBad(t, tr, sem, true, 10, 11, 1<<40, engine.Infinity-1)
	}
}

func TestCutScheduleARPFirstWriteRelease(t *testing.T) {
	// T0's first write is its release, so under ARP the acquirer needs
	// T0's writes 1..relSeq-1 = none: W4 may persist before the release.
	tr := NewTracker(2)
	rel := tr.OnRelease(0, 0x200)
	tr.OnAcquire(1, 0x200)
	w4 := tr.OnWrite(1, 0x300)
	persistAll(tr, 10, w4)
	persistAll(tr, 30, rel)
	wantBad(t, tr, ARP, false, 0, 10, 20, 30, 40)
	wantBad(t, tr, RP, true, 10, 20, 29)
	wantBad(t, tr, RP, false, 9, 30, 40)
}

func TestCutSchedulePoBeforeReleaseRPOnly(t *testing.T) {
	tr := NewTracker(2)
	w1, rel, _ := fig1(tr)
	persistAll(tr, 10, rel)
	persistAll(tr, 50, w1)
	wantBad(t, tr, RP, true, 10, 20, 49)
	wantBad(t, tr, RP, false, 9, 50)
	wantBad(t, tr, ARP, false, 9, 10, 20, 49, 50)
}

func TestCutScheduleMergesSpans(t *testing.T) {
	// Three same-address chains violating on [10,20), [15,30) and
	// [30,40) merge into one span; [50,60) stays apart.
	tr := NewTracker(1)
	for i, iv := range [][2]engine.Time{{10, 20}, {15, 30}, {30, 40}, {50, 60}} {
		addr := isa.Addr(0x100 + 0x40*i)
		prev := tr.OnWrite(0, addr)
		w := tr.OnWrite(0, addr)
		persistAll(tr, iv[1], prev)
		persistAll(tr, iv[0], w)
	}
	if got := len(tr.NewHBNeed().CutSchedule(RP).spans); got != 2 {
		t.Fatalf("%d spans, want 2", got)
	}
	wantBad(t, tr, RP, true, 10, 19, 20, 29, 30, 39, 50, 59)
	wantBad(t, tr, RP, false, 9, 40, 49, 60)
}

// TestCutScheduleMatchesCheckCutRandom drives random trackers (plain
// writes, releases and acquires over a few addresses, persist times
// drawn from a small range with some writes never persisting) and
// compares the schedule with CheckCut at every instant in range.
func TestCutScheduleMatchesCheckCutRandom(t *testing.T) {
	cases := 300
	if testing.Short() {
		cases = 50
	}
	for seed := int64(1); seed <= int64(cases); seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(4)
		tr := NewTracker(n)
		var ws []Stamp
		for op := 0; op < 4+r.Intn(30); op++ {
			tid, addr := r.Intn(n), isa.Addr(0x40*r.Intn(5))
			switch r.Intn(4) {
			case 0:
				ws = append(ws, tr.OnRelease(tid, addr))
			case 1:
				tr.OnAcquire(tid, addr)
			default:
				ws = append(ws, tr.OnWrite(tid, addr))
			}
		}
		for _, w := range ws {
			if r.Intn(6) != 0 {
				tr.SetPersisted(w, engine.Time(r.Intn(40)))
			}
		}
		for _, sem := range []Semantics{RP, ARP} {
			cs := tr.NewHBNeed().CutSchedule(sem)
			for crash := engine.Time(-1); crash <= 41; crash++ {
				if got, want := cs.Bad(crash), len(tr.CheckCut(crash, sem)) > 0; got != want {
					t.Fatalf("seed=%d sem=%v t=%d: Bad=%v, CheckCut bad=%v", seed, sem, crash, got, want)
				}
			}
		}
	}
}

// TestTornReleaseBeforePredecessorAck: a torn persist that carries a
// release's word puts the release in the crash image from the persist's
// start, before the release's own ack and before the ack of a plain
// write program-ordered ahead of it. From that start until the
// predecessor acks, the cut is inconsistent under RP (po-before-release),
// and both CheckCut and CutSchedule must say so; ARP lets a release
// lead its own plain writes.
func TestTornReleaseBeforePredecessorAck(t *testing.T) {
	tr := NewTracker(1)
	w := tr.OnWrite(0, 0x100)
	rel := tr.OnRelease(0, 0x148) // word 1 of line 0x140
	tr.SetPersisted(w, 100)
	tr.SetPersisted(rel, 120)
	tr.SetTorn(rel, 40, 1<<2) // a tear without the release's word
	if got := tr.DurableAt(rel); got != 120 {
		t.Fatalf("a tear that misses the word moved DurableAt to %d", got)
	}
	tr.SetTorn(rel, 40, 1<<1|1<<5)
	if got := tr.DurableAt(rel); got != 40 {
		t.Fatalf("DurableAt = %d, want the torn start 40", got)
	}
	wantBad(t, tr, RP, false, 0, 39, 100, 120)
	wantBad(t, tr, RP, true, 40, 41, 99)
	wantBad(t, tr, ARP, false, 39, 40, 99, 100)
	if vs := tr.CheckCut(40, RP); len(vs) != 1 || vs[0].Write != rel || vs[0].Missing != w || vs[0].Rule != "po-before-release" {
		t.Fatalf("CheckCut(40, RP) = %v, want %v missing %v (po-before-release)", vs, rel, w)
	}
	if p, total := tr.PersistedCount(40); p != 1 || total != 2 {
		t.Fatalf("PersistedCount(40) = %d/%d, want 1/2", p, total)
	}
}

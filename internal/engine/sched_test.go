package engine

import (
	"sort"
	"testing"
)

func TestLeaderboardOrdering(t *testing.T) {
	var lb Leaderboard
	lb.Reset(8)
	clocks := []Time{50, 10, 30, 10, 70, 10, 0, 30}
	for tid, c := range clocks {
		lb.Push(tid, c)
	}
	if lb.Len() != 8 {
		t.Fatalf("Len = %d, want 8", lb.Len())
	}
	// Expected grant order: (clock, tid) lexicographic.
	type ent struct {
		clock Time
		tid   int
	}
	want := make([]ent, len(clocks))
	for tid, c := range clocks {
		want[tid] = ent{c, tid}
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].clock != want[j].clock {
			return want[i].clock < want[j].clock
		}
		return want[i].tid < want[j].tid
	})
	for i, w := range want {
		if tid, c, ok := lb.Peek(); !ok || tid != w.tid || c != w.clock {
			t.Fatalf("Peek %d = (%d, %v, %v), want (%d, %v)", i, tid, c, ok, w.tid, w.clock)
		}
		tid, c := lb.PopMin()
		if tid != w.tid || c != w.clock {
			t.Fatalf("PopMin %d = (%d, %v), want (%d, %v)", i, tid, c, w.tid, w.clock)
		}
	}
	if _, _, ok := lb.Peek(); ok {
		t.Fatal("Peek on empty leaderboard reported ok")
	}
}

func TestLeaderboardResetReuses(t *testing.T) {
	var lb Leaderboard
	lb.Reset(4)
	for tid := 0; tid < 4; tid++ {
		lb.Push(tid, Time(tid))
	}
	lb.Reset(4)
	if lb.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", lb.Len())
	}
	// Re-push after Reset must behave like a fresh leaderboard, including
	// a thread that was mid-heap when Reset hit.
	lb.Push(2, 5)
	lb.Push(0, 5)
	if tid, c := lb.PopMin(); tid != 0 || c != 5 {
		t.Fatalf("PopMin = (%d, %v), want (0, 5cy)", tid, c)
	}
}

func TestLeaderboardRandomized(t *testing.T) {
	r := NewRand(42)
	const n = 64
	var lb Leaderboard
	for round := 0; round < 50; round++ {
		lb.Reset(n)
		live := map[int]Time{}
		for tid := 0; tid < n; tid++ {
			c := Time(r.Intn(16)) // dense range forces ties
			lb.Push(tid, c)
			live[tid] = c
		}
		var prev Time = -1
		prevTid := -1
		for lb.Len() > 0 {
			tid, c := lb.PopMin()
			if want, ok := live[tid]; !ok || want != c {
				t.Fatalf("round %d: popped (%d, %v), live[%d] = (%v, %v)", round, tid, c, tid, live[tid], ok)
			}
			delete(live, tid)
			if c < prev || (c == prev && tid < prevTid) {
				t.Fatalf("round %d: (%v, %d) popped after (%v, %d)", round, c, tid, prev, prevTid)
			}
			prev, prevTid = c, tid
		}
		if len(live) != 0 {
			t.Fatalf("round %d: %d entries never popped", round, len(live))
		}
	}
}

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

// TestLeaderboardRandomized interleaves Push, PopMin and ReplaceMin at
// random and checks every result against a sorted reference of the
// enrolled (clock, tid) entries.
func TestLeaderboardRandomized(t *testing.T) {
	r := NewRand(42)
	const n = 64
	type ent struct {
		clock Time
		tid   int
	}
	less := func(a, b ent) bool {
		return a.clock < b.clock || (a.clock == b.clock && a.tid < b.tid)
	}
	var lb Leaderboard
	for round := 0; round < 50; round++ {
		lb.Reset(n)
		var ref []ent // enrolled entries, sorted by (clock, tid)
		insert := func(e ent) {
			i := sort.Search(len(ref), func(i int) bool { return less(e, ref[i]) })
			ref = append(ref, ent{})
			copy(ref[i+1:], ref[i:])
			ref[i] = e
		}
		out := make([]int, 0, n) // unenrolled tids
		for tid := 0; tid < n; tid++ {
			out = append(out, tid)
		}
		// enrollOne takes a random unenrolled tid at a clock drawn from a
		// dense range, which forces ties.
		enrollOne := func() ent {
			i := r.Intn(len(out))
			e := ent{Time(r.Intn(16)), out[i]}
			out[i] = out[len(out)-1]
			out = out[:len(out)-1]
			return e
		}
		for step := 0; step < 400; step++ {
			op := r.Intn(3)
			switch {
			case len(ref) == 0 || (op == 0 && len(out) > 0):
				e := enrollOne()
				lb.Push(e.tid, e.clock)
				insert(e)
			case op == 1 || len(out) == 0:
				tid, c := lb.PopMin()
				if want := ref[0]; tid != want.tid || c != want.clock {
					t.Fatalf("round %d step %d: PopMin = (%d, %v), want (%d, %v)", round, step, tid, c, want.tid, want.clock)
				}
				ref = ref[1:]
				out = append(out, tid)
			default:
				e := enrollOne()
				tid, c := lb.ReplaceMin(e.tid, e.clock)
				if want := ref[0]; tid != want.tid || c != want.clock {
					t.Fatalf("round %d step %d: ReplaceMin(%d, %v) = (%d, %v), want (%d, %v)",
						round, step, e.tid, e.clock, tid, c, want.tid, want.clock)
				}
				ref = ref[1:]
				out = append(out, tid)
				insert(e)
			}
			if lb.Len() != len(ref) {
				t.Fatalf("round %d step %d: Len = %d, want %d", round, step, lb.Len(), len(ref))
			}
			if tid, c, ok := lb.Peek(); ok != (len(ref) > 0) || (ok && (tid != ref[0].tid || c != ref[0].clock)) {
				t.Fatalf("round %d step %d: Peek = (%d, %v, %v), want %v", round, step, tid, c, ok, ref)
			}
		}
		// Drain: the rest pops in (clock, tid) order.
		for _, want := range ref {
			if tid, c := lb.PopMin(); tid != want.tid || c != want.clock {
				t.Fatalf("round %d drain: PopMin = (%d, %v), want (%d, %v)", round, tid, c, want.tid, want.clock)
			}
		}
	}
}

// An enrolled tid must not enroll again, through Push or ReplaceMin.
func TestLeaderboardDoubleEnrollPanics(t *testing.T) {
	for _, tc := range []struct {
		name   string
		enroll func(*Leaderboard)
	}{
		{"Push", func(lb *Leaderboard) { lb.Push(1, 9) }},
		{"ReplaceMin", func(lb *Leaderboard) { lb.ReplaceMin(1, 9) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var lb Leaderboard
			lb.Reset(4)
			lb.Push(0, 1)
			lb.Push(1, 5)
			defer func() {
				if recover() == nil {
					t.Fatalf("%s of an enrolled tid did not panic", tc.name)
				}
			}()
			tc.enroll(&lb)
		})
	}
}

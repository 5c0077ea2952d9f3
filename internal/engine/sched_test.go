package engine

import (
	"fmt"
	"sort"
	"testing"
)

// The leaderboard is the kernel's grant order over its threads: smallest
// clock first, ties to the smaller tid. engine.Tournament keeps it; the
// TestLeaderboard tests check that order, the TestTournament ones the
// tree's storage.

// TestLeaderboardOrdering retires the winner over and over, with no
// replay in between, and requires the threads to come out in (clock, tid)
// order, tied clocks included.
func TestLeaderboardOrdering(t *testing.T) {
	clocks := []Time{50, 10, 30, 10, 70, 10, 0, 30}
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
	var tr Tournament
	tid, ok := tr.Reset(clocks), true
	for i, w := range want {
		if !ok || tid != w.tid {
			t.Fatalf("grant %d = (%d, %v), want thread %d at %v", i, tid, ok, w.tid, w.clock)
		}
		tid, ok = tr.Retire(tid)
	}
	if ok {
		t.Fatalf("Retire of the last live thread reported ok, winner %d", tid)
	}
}

// TestLeaderboardRandomized holds the tournament to a linear min-scan
// over (clock, tid), for every leaf count from 1 to 64 — powers of two
// and not. A replay is valid only on the current winner's leaf, so each
// round resets the tree at random clocks and then replays only the
// winner, as the scheduler does: to a new clock a few cycles on (forcing
// ties, and letting the winner stay first or fall behind) or to done.
// After Reset and after every step, the winner returned must be the
// min-scan's thread, and Retire must report ok exactly while some thread
// is live.
func TestLeaderboardRandomized(t *testing.T) {
	r := NewRand(42)
	var tr Tournament
	for n := 1; n <= 64; n++ {
		for round := 0; round < 20; round++ {
			name := fmt.Sprintf("n=%d round %d", n, round)
			clocks := make([]Time, n)
			for i := range clocks {
				clocks[i] = Time(r.Intn(8))
			}
			live := make([]bool, n)
			for i := range live {
				live[i] = true
			}
			// scan is the reference: the live thread with the smallest
			// (clock, tid), ties to the smaller tid.
			scan := func() (tid int, ok bool) {
				tid = -1
				for i := range clocks {
					if live[i] && (tid < 0 || clocks[i] < clocks[tid]) {
						tid = i
					}
				}
				return tid, tid >= 0
			}
			check := func(step int, what string, gotTid int, gotOK bool) {
				t.Helper()
				wantTid, wantOK := scan()
				if gotOK != wantOK || (wantOK && gotTid != wantTid) {
					t.Fatalf("%s step %d: %s = (%d, %v), min-scan (%d, %v); clocks %v live %v",
						name, step, what, gotTid, gotOK, wantTid, wantOK, clocks, live)
				}
			}
			tid, ok := tr.Reset(clocks), true
			check(-1, "Reset", tid, ok)
			for step := 0; ok; step++ {
				if r.Intn(4) == 0 {
					live[tid] = false
					tid, ok = tr.Retire(tid)
					check(step, "Retire", tid, ok)
				} else {
					clocks[tid] += Time(r.Intn(4))
					tid = tr.Replay(tid, clocks[tid])
					check(step, "Replay", tid, true)
				}
			}
		}
	}
}

// TestTournamentResetReuses pins that a warmed tree rebuilds without
// allocating, at its largest size and at every smaller one, and that a
// Reset fully replaces the previous run's keys.
func TestTournamentResetReuses(t *testing.T) {
	var tr Tournament
	big := make([]Time, 64)
	if tid := tr.Reset(big); tid != 0 {
		t.Fatalf("Reset = %d, want 0 (all clocks tied)", tid)
	}
	tr.Retire(0)
	small := []Time{9, 3, 3}
	allocs := testing.AllocsPerRun(10, func() {
		tr.Reset(big)
		tr.Reset(small)
	})
	if allocs != 0 {
		t.Fatalf("warmed Reset allocated %.1f objects per call, want 0", allocs)
	}
	// Threads retire in (clock, tid) order, 1 and 2 tied at 3 cycles:
	// nothing of the 64-leaf tree survives.
	tid := tr.Reset(small)
	if tid != 1 {
		t.Fatalf("Reset = %d, want 1", tid)
	}
	for _, want := range []int{2, 0} {
		next, ok := tr.Retire(tid)
		if !ok || next != want {
			t.Fatalf("Retire(%d) = (%d, %v), want (%d, true)", tid, next, ok, want)
		}
		tid = next
	}
	if _, ok := tr.Retire(0); ok {
		t.Fatal("Retire of the last live thread reported ok")
	}
}

package engine

// Tournament is the scheduling kernel's index of thread clocks: a loser
// tree whose leaves are a run's threads, ordered by (clock, tid), so its
// winner is always the thread the virtual-time scheduler must grant next
// — smallest clock, ties broken by smaller thread id, exactly the order
// the historical linear scan produced.
//
// Each key is one uint64 packing (clock << tidBits) | tid, so the
// lexicographic (clock, tid) order is a single integer compare. A thread
// that has finished, and each padding leaf up to the next power of two,
// holds the all-ones done key, which orders after every live key. Each
// internal node stores the loser of the match played there; the winner
// is not stored but returned, by Reset and by each update.
//
// The tree supports one update: Replay and Retire change the current
// winner's leaf, and are valid only on that leaf. The winner's path then
// holds, at each level, the winner of the sibling subtree, so replaying
// the path — one min/max swap per level, with no data-dependent branch —
// is a complete re-selection. The scheduler needs nothing more: while a
// thread runs, only its own key changes, and it is the winner.
//
// All storage is retained across Reset, so a Tournament embedded in a
// long-lived machine allocates only when the thread count grows.
type Tournament struct {
	// node[1:leaves] are the losers of the matches, node[leaves:] the
	// leaf keys as of Reset; node[0] is unused.
	node   []uint64
	leaves int
}

// tidBits is the width of the tid field in a packed key: 2^10 threads,
// leaving 54 bits of clock — ~1.8e16 cycles, far past any grid (a
// million-op 64-core cell retires in ~1e9 cycles).
const tidBits = 10

const (
	maxTournamentTids = 1 << tidBits
	tidMask           = maxTournamentTids - 1
	doneKey           = ^uint64(0)
)

// Reset rebuilds the tree over threads 0..len(clocks)-1 at the given
// clocks, all live, and returns the winner. clocks must not be empty; a
// single thread makes a tree with no levels.
func (t *Tournament) Reset(clocks []Time) (winner int) {
	n := len(clocks)
	if n > maxTournamentTids {
		panic("engine: Tournament thread count exceeds packed-key width")
	}
	leaves := 1
	for leaves < n {
		leaves <<= 1
	}
	if cap(t.node) < 2*leaves {
		t.node = make([]uint64, 2*leaves)
	}
	t.node, t.leaves = t.node[:2*leaves], leaves
	for i := range leaves {
		key := doneKey
		if i < n {
			key = uint64(clocks[i])<<tidBits | uint64(i)
		}
		t.node[leaves+i] = key
	}
	// Bottom-up, each internal node first holds its subtree's winner;
	// top-down, it then takes the loser of its children's match, whose
	// winners are still in place below it.
	for j := leaves - 1; j > 0; j-- {
		t.node[j] = min(t.node[2*j], t.node[2*j+1])
	}
	w := t.node[1]
	for j := 1; j < leaves; j++ {
		t.node[j] = max(t.node[2*j], t.node[2*j+1])
	}
	return int(w & tidMask)
}

// Replay moves the current winner, tid, to clock and returns the new
// winner, which is tid itself while (clock, tid) still orders first.
// tid must be the current winner.
func (t *Tournament) Replay(tid int, clock Time) (winner int) {
	return int(t.replay(tid, uint64(clock)<<tidBits|uint64(tid)) & tidMask)
}

// Retire marks the current winner, tid, done and returns the new winner;
// ok is false when every thread is done. tid must be the current winner.
func (t *Tournament) Retire(tid int) (winner int, ok bool) {
	w := t.replay(tid, doneKey)
	return int(w & tidMask), w != doneKey
}

// replay plays key up tid's path, leaving each match's loser behind, and
// returns the new winner's key.
func (t *Tournament) replay(tid int, key uint64) uint64 {
	for j := (t.leaves + tid) >> 1; j > 0; j >>= 1 {
		l := t.node[j]
		t.node[j] = max(l, key)
		key = min(l, key)
	}
	return key
}

package engine

// Leaderboard is the scheduling kernel's index of live thread clocks: a
// binary min-heap ordered by (clock, tid), so the root is always the
// thread the virtual-time scheduler must grant next — smallest clock,
// ties broken by smaller thread id, exactly the order the historical
// linear scan produced.
//
// Each entry is one uint64 packing (clock << tidBits) | tid, so the
// lexicographic (clock, tid) order is a single integer compare and a
// sift step moves one word instead of two parallel slots — the heap is
// hot enough on park-heavy grids that halving its memory traffic is
// visible in the bench grid. Sifts move a hole rather than swapping, so
// each step is one word write. A per-tid enrolled flag guards Push and
// ReplaceMin against enrolling a thread twice without any bookkeeping per
// sift step.
//
// All storage is retained across Reset, so a Leaderboard embedded in a
// long-lived machine allocates only on first use (and when the core
// count grows).
type Leaderboard struct {
	keys     []uint64 // heap-ordered packed (clock, tid) entries
	enrolled []bool   // tid → whether the tid is in keys
}

// tidBits is the width of the tid field in a packed key: 2^10 threads,
// leaving 54 bits of clock — ~1.8e16 cycles, far past any grid (a
// million-op 64-core cell retires in ~1e9 cycles).
const tidBits = 10

const maxLeaderboardTids = 1 << tidBits

// Reset prepares the leaderboard for threads 0..n-1, all unenrolled.
func (lb *Leaderboard) Reset(n int) {
	if n > maxLeaderboardTids {
		panic("engine: Leaderboard thread count exceeds packed-key width")
	}
	lb.keys = lb.keys[:0]
	if cap(lb.enrolled) < n {
		lb.enrolled = make([]bool, n)
	}
	lb.enrolled = lb.enrolled[:n]
	clear(lb.enrolled)
}

// Len returns the number of enrolled threads.
func (lb *Leaderboard) Len() int { return len(lb.keys) }

// enroll marks tid enrolled and returns its packed key. The tid must be
// within the Reset range and not currently enrolled.
func (lb *Leaderboard) enroll(tid int, clock Time) uint64 {
	if lb.enrolled[tid] {
		panic("engine: Leaderboard enrolls an enrolled tid")
	}
	lb.enrolled[tid] = true
	return uint64(clock)<<tidBits | uint64(tid)
}

// unpack splits a packed key, marking its tid unenrolled.
func (lb *Leaderboard) unpack(k uint64) (tid int, clock Time) {
	tid = int(k & (maxLeaderboardTids - 1))
	lb.enrolled[tid] = false
	return tid, Time(k >> tidBits)
}

// Push enrolls thread tid at the given clock. The tid must be within the
// Reset range and not currently enrolled.
func (lb *Leaderboard) Push(tid int, clock Time) {
	k := lb.enroll(tid, clock)
	lb.keys = append(lb.keys, k)
	lb.up(len(lb.keys)-1, k)
}

// Peek returns the minimum (clock, tid) entry without removing it.
// ok is false when the leaderboard is empty.
func (lb *Leaderboard) Peek() (tid int, clock Time, ok bool) {
	if len(lb.keys) == 0 {
		return -1, 0, false
	}
	k := lb.keys[0]
	return int(k & (maxLeaderboardTids - 1)), Time(k >> tidBits), true
}

// PopMin removes and returns the minimum (clock, tid) entry. The
// leaderboard must be non-empty.
func (lb *Leaderboard) PopMin() (tid int, clock Time) {
	tid, clock = lb.unpack(lb.keys[0])
	last := len(lb.keys) - 1
	k := lb.keys[last]
	lb.keys = lb.keys[:last]
	if last > 0 {
		lb.down(0, k)
	}
	return tid, clock
}

// ReplaceMin removes and returns the minimum (clock, tid) entry and
// enrolls thread tid at clock, in one sift: PopMin followed by Push, at
// the cost of one. The returned entry is the minimum before the
// enrollment, even when (clock, tid) orders before it. The leaderboard
// must be non-empty, and tid not currently enrolled.
func (lb *Leaderboard) ReplaceMin(tid int, clock Time) (minTid int, minClock Time) {
	k := lb.enroll(tid, clock)
	minTid, minClock = lb.unpack(lb.keys[0])
	lb.down(0, k)
	return minTid, minClock
}

// up places key k, whose slot is the hole at i, moving larger ancestors
// down into the hole until k's parent orders before it.
func (lb *Leaderboard) up(i int, k uint64) {
	for i > 0 {
		parent := (i - 1) / 2
		if k >= lb.keys[parent] {
			break
		}
		lb.keys[i] = lb.keys[parent]
		i = parent
	}
	lb.keys[i] = k
}

// down places key k into the hole at i, moving smaller children up into
// the hole until both children order after k.
func (lb *Leaderboard) down(i int, k uint64) {
	n := len(lb.keys)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		min := l
		if r := l + 1; r < n && lb.keys[r] < lb.keys[l] {
			min = r
		}
		if lb.keys[min] >= k {
			break
		}
		lb.keys[i] = lb.keys[min]
		i = min
	}
	lb.keys[i] = k
}

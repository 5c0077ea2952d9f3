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
// visible in the bench grid. A tid→slot index guards Push against
// enrolling a thread twice.
//
// All storage is retained across Reset, so a Leaderboard embedded in a
// long-lived machine allocates only on first use (and when the core
// count grows).
type Leaderboard struct {
	keys []uint64 // heap-ordered packed (clock, tid) entries
	slot []int32  // tid → heap index, -1 when the tid is not enrolled
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
	if cap(lb.slot) < n {
		lb.slot = make([]int32, n)
	}
	lb.slot = lb.slot[:n]
	for i := range lb.slot {
		lb.slot[i] = -1
	}
}

// Len returns the number of enrolled threads.
func (lb *Leaderboard) Len() int { return len(lb.keys) }

// Push enrolls thread tid at the given clock. The tid must be within the
// Reset range and not currently enrolled.
func (lb *Leaderboard) Push(tid int, clock Time) {
	if lb.slot[tid] != -1 {
		panic("engine: Leaderboard.Push of enrolled tid")
	}
	i := len(lb.keys)
	lb.keys = append(lb.keys, uint64(clock)<<tidBits|uint64(tid))
	lb.slot[tid] = int32(i)
	lb.up(i)
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
	k := lb.keys[0]
	t := int32(k & (maxLeaderboardTids - 1))
	last := len(lb.keys) - 1
	lb.swap(0, last)
	lb.keys = lb.keys[:last]
	lb.slot[t] = -1
	if last > 0 {
		lb.down(0)
	}
	return int(t), Time(k >> tidBits)
}

func (lb *Leaderboard) swap(i, j int) {
	lb.keys[i], lb.keys[j] = lb.keys[j], lb.keys[i]
	lb.slot[lb.keys[i]&(maxLeaderboardTids-1)] = int32(i)
	lb.slot[lb.keys[j]&(maxLeaderboardTids-1)] = int32(j)
}

func (lb *Leaderboard) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if lb.keys[i] >= lb.keys[parent] {
			break
		}
		lb.swap(i, parent)
		i = parent
	}
}

func (lb *Leaderboard) down(i int) {
	n := len(lb.keys)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		min := l
		if r := l + 1; r < n && lb.keys[r] < lb.keys[l] {
			min = r
		}
		if lb.keys[min] >= lb.keys[i] {
			return
		}
		lb.swap(i, min)
		i = min
	}
}

package engine

// CompletionSet tracks the completion times of in-flight asynchronous
// operations (outstanding persists, pending write-backs). It answers the
// two questions the LRP persist engine needs: "how many operations are
// still pending at time t?" (the pending-persists counter) and "when will
// everything currently in flight have completed?" (the time a full drain
// must wait for).
//
// The min-heap is hand-rolled over []Time rather than container/heap:
// the interface-based API boxes every pushed and popped value, which put
// two heap allocations on every persist issue/retire pair.
//
// Callers do not query it in clock order: the owner's clock retires
// completions (DrainUpTo, ReleaseSlots), and a downgrade then runs the
// owner's persist engine at the requester's earlier clock. So hi keeps
// the largest completion ever added, retired or not, and MaxTime answers
// from it rather than from the completions still held.
type CompletionSet struct {
	h  []Time
	hi Time
}

// Add records an operation that completes at time t.
func (c *CompletionSet) Add(t Time) {
	if t > c.hi {
		c.hi = t
	}
	c.h = append(c.h, t)
	i := len(c.h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if c.h[p] <= c.h[i] {
			break
		}
		c.h[p], c.h[i] = c.h[i], c.h[p]
		i = p
	}
}

// popMin removes and returns the earliest completion. Callers check
// emptiness first.
func (c *CompletionSet) popMin() Time {
	min := c.h[0]
	n := len(c.h) - 1
	c.h[0] = c.h[n]
	c.h = c.h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && c.h[r] < c.h[l] {
			m = r
		}
		if c.h[i] <= c.h[m] {
			break
		}
		c.h[i], c.h[m] = c.h[m], c.h[i]
		i = m
	}
	return min
}

// DrainUpTo discards completions at or before now and returns how many
// were discarded. Callers use the count to decrement pending counters.
func (c *CompletionSet) DrainUpTo(now Time) int {
	n := 0
	for len(c.h) > 0 && c.h[0] <= now {
		c.popMin()
		n++
	}
	return n
}

// Len reports the number of tracked operations (complete or not).
func (c *CompletionSet) Len() int { return len(c.h) }

// MaxTime returns the latest completion time ever added — retired
// completions included — or now if none is later than now. Waiting for
// a full drain means advancing the clock to this value.
func (c *CompletionSet) MaxTime(now Time) Time {
	return Max(now, c.hi)
}

// ReleaseSlots returns the earliest time at which at most maxOutstanding
// tracked operations remain incomplete, discarding the completions that
// retire on the way. It models backpressure on a bounded queue of
// in-flight operations: a caller that needs a free slot at time now must
// wait until the returned time.
func (c *CompletionSet) ReleaseSlots(now Time, maxOutstanding int) Time {
	c.DrainUpTo(now)
	t := now
	for len(c.h) > maxOutstanding {
		t = c.h[0]
		c.popMin()
	}
	if t < now {
		t = now
	}
	return t
}

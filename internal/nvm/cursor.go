package nvm

import (
	"cmp"
	"slices"

	"lrp/internal/engine"
	"lrp/internal/isa"
	"lrp/internal/mm"
)

// Cursor replays the persist log as a single durable image advanced
// monotonically through crash instants. It is the only reconstruction of
// the durable image: single crash images and FinalImage use a fresh
// cursor advanced once. Exhaustive crash-boundary sweeps visit thousands
// of instants; a cursor applies only the persists that completed since
// the previous instant, plus a small torn overlay for the lines in
// flight (which it undoes on the next advance that starts or completes a
// persist).
//
// The cursor keeps one order of the log: by Done, ties in log order.
// Every persist takes Latency(), so Start = Done − Latency() and the
// same order lists the starts in order too. The persists in flight at
// the current instant — started but not completed — are therefore one
// run of it, order[nextDone:nextSta], already in completion order.
//
// The image returned by AdvanceTo aliases the cursor's working memory: it
// is valid until the next AdvanceTo call. Callers that need a snapshot
// must Clone it.
type Cursor struct {
	sub *Subsystem
	img *mm.Memory
	at  engine.Time

	order    []int32 // log indexes by (Done, log index)
	nextDone int     // order[:nextDone] have completed
	nextSta  int     // order[:nextSta] have started

	saved []savedWord
	torn  uint64 // torn persists in the current overlay
}

type savedWord struct {
	addr isa.Addr
	old  uint64
}

// NewCursor builds a cursor over the subsystem's persist log, starting
// from base (nil: all-zero initial image) at time -infinity.
func (s *Subsystem) NewCursor(base *mm.Memory) *Cursor {
	c := &Cursor{sub: s, at: -1 << 62}
	if base != nil {
		c.img = base.Clone()
	} else {
		c.img = mm.NewMemory()
	}
	c.order = make([]int32, len(s.log))
	for i := range c.order {
		c.order[i] = int32(i)
	}
	log := s.log
	slices.SortFunc(c.order, func(a, b int32) int {
		return cmp.Or(cmp.Compare(log[a].Done, log[b].Done), cmp.Compare(a, b))
	})
	return c
}

// AdvanceTo moves the cursor to the crash instant and returns the durable
// image there: every persist with Done ≤ crash applied over base in
// completion order, ties by log order (which matches per-controller FIFO
// order for same-line events). The instant must not precede the previous
// call's.
//
// With a fault plane that injects tearing, a persist still in flight at
// the crash (Start ≤ crash < Done) additionally contributes a
// deterministic subset of its 8-byte words — the word-granularity failure
// atomicity real persistent memory guarantees, instead of the idealized
// whole-line atomicity. Torn subsets land on top of the durable prefix.
//
// The advance is one write batch of the image (mm.Memory.BeginBatch):
// a line the image watches is reported written only if its content at
// the new instant differs from what it held before, so a torn overlay
// that is undone and laid again unchanged touches nothing.
func (c *Cursor) AdvanceTo(crash engine.Time) *mm.Memory {
	if crash < c.at {
		panic("nvm: cursor must advance monotonically")
	}
	log := c.sub.log
	// With no persist started or completed since the previous instant,
	// the durable prefix and the in-flight set are unchanged, and so is
	// the torn overlay (a tear depends only on its event): the image
	// stands as it is. Its tears are counted again, as at every instant.
	if !c.moves(crash) {
		if c.torn > 0 {
			c.sub.cnt.Tears.Add(c.torn)
		}
		c.at = crash
		return c.img
	}
	c.img.BeginBatch()
	// Undo the previous instant's torn overlay, newest write first, so
	// overlapping saves restore correctly.
	for i := len(c.saved) - 1; i >= 0; i-- {
		c.img.Write(c.saved[i].addr, c.saved[i].old)
	}
	c.saved = c.saved[:0]
	c.torn = 0

	// Apply persists that completed since the previous instant, in
	// completion order (ties by log order).
	for c.nextDone < len(c.order) && log[c.order[c.nextDone]].Done <= crash {
		e := &log[c.order[c.nextDone]]
		c.img.WriteLine(e.Line, e.Words)
		c.nextDone++
	}
	for c.nextSta < len(c.order) && log[c.order[c.nextSta]].Start <= crash {
		c.nextSta++
	}

	// Overlay the torn word subsets of in-flight persists, in completion
	// order, saving the overwritten words for the next advance.
	if f := c.sub.faults; f != nil {
		for _, i := range c.order[c.nextDone:c.nextSta] {
			e := &log[i]
			mask, torn := f.TornWords(e.Line, e.Done)
			if !torn {
				continue
			}
			c.torn++
			for w := 0; w < isa.WordsPerLine; w++ {
				if mask&(1<<w) == 0 {
					continue
				}
				a := e.Line + isa.Addr(w*isa.WordSize)
				c.saved = append(c.saved, savedWord{addr: a, old: c.img.Swap(a, e.Words[w])})
			}
		}
		// Atomic: chunked sweeps advance several cursors over one
		// subsystem concurrently.
		if c.torn > 0 {
			c.sub.cnt.Tears.Add(c.torn)
		}
	}
	c.img.EndBatch()
	c.at = crash
	return c.img
}

// moves reports whether a persist starts or completes in (c.at, crash].
func (c *Cursor) moves(crash engine.Time) bool {
	log := c.sub.log
	return c.nextDone < len(c.order) && log[c.order[c.nextDone]].Done <= crash ||
		c.nextSta < len(c.order) && log[c.order[c.nextSta]].Start <= crash
}

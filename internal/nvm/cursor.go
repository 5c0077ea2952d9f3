package nvm

import (
	"sort"

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
// flight (which it undoes on the next advance).
//
// The image returned by AdvanceTo aliases the cursor's working memory: it
// is valid until the next AdvanceTo call. Callers that need a snapshot
// must Clone it.
type Cursor struct {
	sub *Subsystem
	img *mm.Memory
	at  engine.Time

	byDone   []cursorEvent
	byStart  []cursorEvent
	nextDone int
	nextSta  int

	inflight []cursorEvent
	saved    []savedWord
}

type cursorEvent struct {
	ev  Event
	idx int // position in the persist log (tie-break for equal times)
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
	c.byDone = make([]cursorEvent, len(s.log))
	for i, e := range s.log {
		c.byDone[i] = cursorEvent{ev: e, idx: i}
	}
	c.byStart = append([]cursorEvent(nil), c.byDone...)
	sort.SliceStable(c.byDone, func(i, j int) bool { return c.byDone[i].ev.Done < c.byDone[j].ev.Done })
	sort.SliceStable(c.byStart, func(i, j int) bool { return c.byStart[i].ev.Start < c.byStart[j].ev.Start })
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
func (c *Cursor) AdvanceTo(crash engine.Time) *mm.Memory {
	if crash < c.at {
		panic("nvm: cursor must advance monotonically")
	}
	// Undo the previous instant's torn overlay, newest write first, so
	// overlapping saves restore correctly.
	for i := len(c.saved) - 1; i >= 0; i-- {
		c.img.Write(c.saved[i].addr, c.saved[i].old)
	}
	c.saved = c.saved[:0]

	// Apply persists that completed since the previous instant, in
	// completion order (ties by log order).
	for c.nextDone < len(c.byDone) && c.byDone[c.nextDone].ev.Done <= crash {
		e := c.byDone[c.nextDone].ev
		c.img.WriteLine(e.Line, e.Words)
		c.nextDone++
	}

	// Track the in-flight set: started but not yet completed.
	for c.nextSta < len(c.byStart) && c.byStart[c.nextSta].ev.Start <= crash {
		c.inflight = append(c.inflight, c.byStart[c.nextSta])
		c.nextSta++
	}
	live := c.inflight[:0]
	for _, e := range c.inflight {
		if e.ev.Done > crash {
			live = append(live, e)
		}
	}
	c.inflight = live

	// Overlay the torn word subsets of in-flight persists, in completion
	// order, saving the overwritten words for the next advance.
	if f := c.sub.faults; f != nil && len(c.inflight) > 0 {
		sort.Slice(c.inflight, func(i, j int) bool {
			a, b := c.inflight[i], c.inflight[j]
			if a.ev.Done != b.ev.Done {
				return a.ev.Done < b.ev.Done
			}
			return a.idx < b.idx
		})
		for _, ce := range c.inflight {
			mask, torn := f.TornWords(ce.ev.Line, ce.ev.Done)
			if !torn {
				continue
			}
			// Atomic: chunked sweeps advance several cursors over one
			// subsystem concurrently.
			c.sub.cnt.Tears.Add(1)
			for i := 0; i < isa.WordsPerLine; i++ {
				if mask&(1<<i) == 0 {
					continue
				}
				a := ce.ev.Line + isa.Addr(i*isa.WordSize)
				c.saved = append(c.saved, savedWord{addr: a, old: c.img.Read(a)})
				c.img.Write(a, ce.ev.Words[i])
			}
		}
	}
	c.at = crash
	return c.img
}

// At returns the cursor's current crash instant.
func (c *Cursor) At() engine.Time { return c.at }

package cache

import (
	"fmt"
	"math/bits"

	"lrp/internal/isa"
)

// L1 is one core's private set-associative cache. Lines live in one
// dense slot array (slot = set*ways + way), and a per-slot bitmap
// indexes the lines holding unpersisted writes so the persist engine's
// scan walks words of bits instead of every line (the full Scan over
// all valid lines dominated the host profile before this).
type L1 struct {
	lines   []Line
	setMask uint64
	ways    int
	tick    uint64

	// pend is a may-be-pending bitmap over slots: MarkPending sets a
	// line's bit; clearing is lazy (ScanPending drops bits whose line no
	// longer needs persisting). Invariant: Pending ⇒ bit set. The
	// superset direction keeps every Pending transition site out of the
	// clear path — Invalidate, Fill and ClearPersistMeta need no bitmap
	// bookkeeping.
	pend []uint64
}

// NewL1 builds a cache of the given total size in bytes with the given
// associativity. Size must be a power-of-two multiple of ways*LineSize.
func NewL1(sizeBytes, ways int) *L1 {
	if sizeBytes <= 0 || ways <= 0 {
		panic("cache: bad L1 geometry")
	}
	lines := sizeBytes / isa.LineSize
	nsets := lines / ways
	if nsets == 0 || nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("cache: L1 set count %d not a power of two", nsets))
	}
	return &L1{
		lines:   make([]Line, nsets*ways),
		setMask: uint64(nsets - 1),
		ways:    ways,
		pend:    make([]uint64, (nsets*ways+63)/64),
	}
}

// setBase returns the first slot index of the line's set.
func (c *L1) setBase(line isa.Addr) int {
	return int((uint64(line)>>isa.LineShift)&c.setMask) * c.ways
}

// Lookup returns the line holding the given line address, or nil.
// It does not touch LRU state; use Access for demand hits.
func (c *L1) Lookup(line isa.Addr) *Line {
	base := c.setBase(line)
	for w := 0; w < c.ways; w++ {
		l := &c.lines[base+w]
		if l.State != Invalid && l.Addr == line {
			return l
		}
	}
	return nil
}

// Access looks up a line for a demand access, updating LRU in the same
// probe. It returns nil on a miss.
func (c *L1) Access(line isa.Addr) *Line {
	base := c.setBase(line)
	for w := 0; w < c.ways; w++ {
		l := &c.lines[base+w]
		if l.State != Invalid && l.Addr == line {
			c.tick++
			l.lru = c.tick
			return l
		}
	}
	return nil
}

// Victim returns the line that would be evicted to make room for a fill
// of the given address: an Invalid way if one exists, else the LRU way.
// It never returns nil. The caller inspects the victim (writeback,
// persist) and then calls Fill.
func (c *L1) Victim(line isa.Addr) *Line {
	base := c.setBase(line)
	victim := &c.lines[base]
	for w := 0; w < c.ways; w++ {
		l := &c.lines[base+w]
		if l.State == Invalid {
			return l
		}
		if l.lru < victim.lru {
			victim = l
		}
	}
	return victim
}

// Fill installs a new line into the given way slot (as returned by
// Victim), replacing any occupant. All persistency metadata starts
// clean; the caller sets coherence state. The caller must have retired
// (persisted or taken) any stamps the old occupant held.
func (c *L1) Fill(slot *Line, line isa.Addr, st State) {
	c.tick++
	*slot = Line{Addr: line, State: st, lru: c.tick}
}

// Invalidate drops the line if present, returning its prior contents for
// the caller to act on (writeback of Modified data, persist decisions).
// The returned copy owns any stamp chain the line held.
func (c *L1) Invalidate(line isa.Addr) (Line, bool) {
	l := c.Lookup(line)
	if l == nil {
		return Line{}, false
	}
	old := *l
	// The copy above carries the stamp-list handle; zero the slot so
	// reuse cannot alias the chain.
	*l = Line{}
	return old, true
}

// MarkPending marks the line as holding unpersisted writes and records
// it in the scan bitmap. l must be a slot of this cache. This is the
// only way production code may set Line.Pending.
func (c *L1) MarkPending(l *Line) {
	if l.Pending {
		return
	}
	l.Pending = true
	slot := c.slotOf(l)
	c.pend[slot>>6] |= 1 << (uint(slot) & 63)
}

// slotOf recovers the slot index of a line pointer by probing its set.
func (c *L1) slotOf(l *Line) int {
	base := c.setBase(l.Addr)
	for w := 0; w < c.ways; w++ {
		if &c.lines[base+w] == l {
			return base + w
		}
	}
	panic("cache: MarkPending on a line not owned by this L1")
}

// ScanPending calls f on every line holding unpersisted writes, in slot
// order (set-major). It walks the pending bitmap —
// words of bits rather than every line — and lazily clears bits whose
// line was since invalidated, refilled or persisted.
func (c *L1) ScanPending(f func(*Line)) {
	for wi, word := range c.pend {
		if word == 0 {
			continue
		}
		keep := word
		for b := word; b != 0; b &= b - 1 {
			slot := wi<<6 + bits.TrailingZeros64(b)
			l := &c.lines[slot]
			if l.State != Invalid && l.Pending {
				f(l)
				// f may have persisted the line (cleared Pending):
				// re-check so the bit doesn't go stale until next scan.
				if l.Pending {
					continue
				}
			}
			keep &^= 1 << (uint(slot) & 63)
		}
		c.pend[wi] = keep
	}
}

package cache

import (
	"fmt"
	"slices"

	"lrp/internal/flat"
	"lrp/internal/isa"
)

// llcLine is one resident LLC line: its address plus a dirty bit. (Data
// content lives in the architectural memory image; see package doc.)
type llcLine struct {
	addr  isa.Addr
	dirty bool
	lru   uint64
}

// LLC is the shared, banked last-level cache. A set exists only once a
// line maps to it, located through a flat set index — so a 64 MiB LLC
// costs memory proportional to its working set only (a dense per-set
// array alone would be megabytes), and the hot probe is one
// open-addressing lookup instead of a map access. A set's block holds
// only its resident lines, in fill order, and grows by append up to ways:
// the LLC never invalidates a line, so a set's free ways are always the
// ones after its last resident line, and filling the first free way is
// appending. A Figure 5
// cell touches a few thousand sets and keeps about one line in each, so
// materializing every set as a full ways-block would cost ways× the
// memory for the same hits and evictions.
type LLC struct {
	// sets maps set index → the set's resident lines, in fill order.
	sets  flat.Table[[]llcLine]
	nsets uint64
	ways  int
	tick  uint64
	banks int
}

// NewLLC builds a shared cache of sizeBytes with the given associativity,
// spread over banks tiles (bank selection is by line address).
func NewLLC(sizeBytes, ways, banks int) *LLC {
	if sizeBytes <= 0 || ways <= 0 || banks <= 0 {
		panic("cache: bad LLC geometry")
	}
	lines := sizeBytes / isa.LineSize
	nsets := lines / ways
	if nsets == 0 || nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("cache: LLC set count %d not a power of two", nsets))
	}
	return &LLC{
		nsets: uint64(nsets),
		ways:  ways,
		banks: banks,
	}
}

// Bank returns the bank index serving a line address.
func (c *LLC) Bank(line isa.Addr) int {
	return int((uint64(line) >> isa.LineShift) % uint64(c.banks))
}

// setIndex hashes the line address into a set. Real LLCs hash high
// address bits into the index so that large power-of-two strides (e.g.,
// per-thread heap arenas) do not collapse onto a few sets; a plain
// modulo would alias every thread's allocation stream.
func (c *LLC) setIndex(line isa.Addr) uint64 {
	l := uint64(line) >> isa.LineShift
	l ^= l >> 17
	l *= 0x9e3779b97f4a7c15
	l ^= l >> 29
	return l % c.nsets
}

// setFor returns the resident lines of the line's set (nil when the set
// holds none).
func (c *LLC) setFor(line isa.Addr) []llcLine {
	if p := c.sets.Ptr(c.setIndex(line)); p != nil {
		return *p
	}
	return nil
}

// Access performs a demand lookup, updating LRU. It reports whether the
// line hit.
func (c *LLC) Access(line isa.Addr) bool {
	s := c.setFor(line)
	for i := range s {
		if s[i].addr == line {
			c.tick++
			s[i].lru = c.tick
			return true
		}
	}
	return false
}

// Fill inserts a line (clean). It returns the evicted line address and
// whether that line was dirty, if an eviction occurred. A set with a free
// way appends the line; a full set replaces its least recently used line
// (ticks are unique, so the victim is too).
func (c *LLC) Fill(line isa.Addr) (evicted isa.Addr, evictedDirty, hadEviction bool) {
	p, _ := c.sets.Upsert(c.setIndex(line))
	s := *p
	victim := 0
	for i := range s {
		if s[i].addr == line {
			// Already present (refill after writeback): keep it.
			c.tick++
			s[i].lru = c.tick
			return 0, false, false
		}
		if s[i].lru < s[victim].lru {
			victim = i
		}
	}
	c.tick++
	if len(s) < c.ways {
		*p = append(s, llcLine{addr: line, lru: c.tick})
		return 0, false, false
	}
	v := &s[victim]
	evicted, evictedDirty = v.addr, v.dirty
	*v = llcLine{addr: line, lru: c.tick}
	return evicted, evictedDirty, true
}

// MarkDirty marks a present line dirty (an L1 wrote data back that has
// not been persisted to memory). No-op if the line is absent.
func (c *LLC) MarkDirty(line isa.Addr) {
	s := c.setFor(line)
	for i := range s {
		if s[i].addr == line {
			s[i].dirty = true
			return
		}
	}
}

// MarkClean clears the dirty bit (the line's data was persisted).
func (c *LLC) MarkClean(line isa.Addr) {
	s := c.setFor(line)
	for i := range s {
		if s[i].addr == line {
			s[i].dirty = false
			return
		}
	}
}

// DirtyLines returns the addresses of all dirty lines (NOP drain), in
// ascending address order. The table walk visits sets in probe order —
// deterministic for a given simulation but not canonical — so the sort
// pins the order output-feeding consumers see.
func (c *LLC) DirtyLines() []isa.Addr {
	var out []isa.Addr
	c.sets.Range(func(_ uint64, s *[]llcLine) bool {
		for i := range *s {
			if (*s)[i].dirty {
				out = append(out, (*s)[i].addr)
			}
		}
		return true
	})
	slices.Sort(out)
	return out
}

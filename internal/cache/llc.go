package cache

import (
	"fmt"
	"slices"

	"lrp/internal/flat"
	"lrp/internal/isa"
)

// llcLine is one LLC line: presence plus a dirty bit. (Data content lives
// in the architectural memory image; see package doc.)
type llcLine struct {
	addr  isa.Addr
	valid bool
	dirty bool
	lru   uint64
}

// LLC is the shared, banked last-level cache. Sets materialize lazily as
// contiguous ways-blocks located through a flat set index — so a 64 MiB
// LLC costs memory proportional to its working set only (a dense per-set
// array alone would be megabytes), and the hot probe is one
// open-addressing lookup instead of a map access. Each block is its own
// allocation: a shared growing arena would churn copy garbage as the
// working set expands, which the bench gate's bytes_per_op would see.
type LLC struct {
	// sets maps set index → the set's materialized ways-block.
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

// setFor returns the line's ways-block, materializing it when create is
// set.
func (c *LLC) setFor(line isa.Addr, create bool) []llcLine {
	idx := c.setIndex(line)
	if p := c.sets.Ptr(idx); p != nil {
		return *p
	}
	if !create {
		return nil
	}
	s := make([]llcLine, c.ways)
	p, _ := c.sets.Upsert(idx)
	*p = s
	return s
}

// Access performs a demand lookup, updating LRU. It reports whether the
// line hit.
func (c *LLC) Access(line isa.Addr) bool {
	s := c.setFor(line, false)
	for i := range s {
		if s[i].valid && s[i].addr == line {
			c.tick++
			s[i].lru = c.tick
			return true
		}
	}
	return false
}

// Fill inserts a line (clean). It returns the evicted line address and
// whether that line was dirty, if an eviction occurred.
func (c *LLC) Fill(line isa.Addr) (evicted isa.Addr, evictedDirty, hadEviction bool) {
	s := c.setFor(line, true)
	victim := 0
	for i := range s {
		if s[i].valid && s[i].addr == line {
			// Already present (refill after writeback): keep it.
			c.tick++
			s[i].lru = c.tick
			return 0, false, false
		}
		if !s[i].valid {
			victim = i
			break
		}
		if s[i].lru < s[victim].lru {
			victim = i
		}
	}
	v := &s[victim]
	if v.valid {
		evicted, evictedDirty, hadEviction = v.addr, v.dirty, true
	}
	c.tick++
	*v = llcLine{addr: line, valid: true, lru: c.tick}
	return evicted, evictedDirty, hadEviction
}

// MarkDirty marks a present line dirty (an L1 wrote data back that has
// not been persisted to memory). No-op if the line is absent.
func (c *LLC) MarkDirty(line isa.Addr) {
	s := c.setFor(line, false)
	for i := range s {
		if s[i].valid && s[i].addr == line {
			s[i].dirty = true
			return
		}
	}
}

// MarkClean clears the dirty bit (the line's data was persisted).
func (c *LLC) MarkClean(line isa.Addr) {
	s := c.setFor(line, false)
	for i := range s {
		if s[i].valid && s[i].addr == line {
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
			if (*s)[i].valid && (*s)[i].dirty {
				out = append(out, (*s)[i].addr)
			}
		}
		return true
	})
	slices.Sort(out)
	return out
}

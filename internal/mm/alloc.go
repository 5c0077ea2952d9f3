package mm

import (
	"fmt"

	"lrp/internal/isa"
)

// Address-space layout. The static region hosts data-structure anchors
// (list heads, bucket arrays); each hardware thread then owns a private
// arena so allocation is contention-free and deterministic regardless of
// interleaving.
const (
	// StaticBase is the start of the static/global region.
	StaticBase isa.Addr = 0x0000_1000
	// StaticSize is the size of the static region in bytes (64 MiB,
	// enough for a 1M-bucket hash table plus anchors).
	StaticSize = 64 << 20
	// ArenaBase is the start of the first per-thread arena.
	ArenaBase isa.Addr = 0x1000_0000
	// ArenaSize is the size of each per-thread arena in bytes (256 MiB
	// of virtual space; pages materialize lazily).
	ArenaSize = 256 << 20
)

// Arena is a bump allocator over a contiguous region of the simulated
// address space. Freed memory is never reused: log-free algorithms are
// vulnerable to ABA on pointer reuse, and the paper's workloads likewise
// run without a reclaimer inside the measured window. Allocations are
// cache-line aligned so a node's fields and the lines of other nodes
// never share a line (this mirrors the padded nodes in Synchrobench and
// keeps false sharing out of the persistency measurements).
type Arena struct {
	base  isa.Addr
	limit isa.Addr
	next  isa.Addr
}

// NewArena creates an allocator over [base, base+size).
func NewArena(base isa.Addr, size uint64) *Arena {
	if base%isa.LineSize != 0 {
		panic("mm: arena base must be line-aligned")
	}
	return &Arena{base: base, limit: base + isa.Addr(size), next: base}
}

// arenaStagger offsets consecutive arenas by a line-aligned amount that
// is not a multiple of any cache's set span. Without it, every thread's
// bump allocator would walk the same set indexes in lockstep (arena
// bases 256MiB apart are congruent modulo any power-of-two set span),
// manufacturing pathological set conflicts in the shared LLC.
const arenaStagger = 37 * isa.LineSize

// ThreadArena returns the standard arena for hardware thread tid.
func ThreadArena(tid int) *Arena {
	if tid < 0 {
		panic("mm: negative thread id")
	}
	base := ArenaBase + isa.Addr(uint64(tid)*ArenaSize) + isa.Addr(tid*arenaStagger)
	return NewArena(base, ArenaSize-64*arenaStagger)
}

// StaticArena returns the allocator for the static region.
func StaticArena() *Arena { return NewArena(StaticBase.Line(), StaticSize) }

// Alloc reserves space for nwords contiguous words, line-aligned, and
// returns the base address. It panics if the arena is exhausted, which
// indicates a misconfigured experiment rather than a recoverable error.
func (a *Arena) Alloc(nwords int) isa.Addr {
	if nwords <= 0 {
		panic("mm: allocation must be positive")
	}
	bytes := isa.Addr(nwords * isa.WordSize)
	// Round the footprint up to whole lines to keep allocations disjoint
	// at line granularity.
	bytes = (bytes + isa.LineSize - 1) &^ (isa.LineSize - 1)
	if a.next+bytes > a.limit {
		panic(fmt.Sprintf("mm: arena exhausted (base %v, limit %v)", a.base, a.limit))
	}
	p := a.next
	a.next += bytes
	return p
}

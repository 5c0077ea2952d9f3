package cache

import (
	"fmt"
	"math/bits"

	"lrp/internal/flat"
	"lrp/internal/isa"
)

// NoOwner marks a directory entry with no Modified/Exclusive holder.
const NoOwner = -1

// DirEntry is a full-map directory entry: which core (if any) holds the
// line exclusively and which cores share it. The simulated machine has at
// most 64 cores so the sharer set is a single word.
type DirEntry struct {
	Owner   int
	Sharers uint64
}

// HasSharers reports whether any core holds a Shared copy.
func (e *DirEntry) HasSharers() bool { return e.Sharers != 0 }

// ForEachSharer calls fn for each sharing core in ascending id order,
// without allocating (the invalidation hot path).
func (e *DirEntry) ForEachSharer(fn func(core int)) {
	for b := e.Sharers; b != 0; b &= b - 1 {
		fn(bits.TrailingZeros64(b))
	}
}

// Directory is the full-map coherence directory co-located with the LLC
// banks. Entries materialize on first touch, held inline in an
// open-addressing flat table — no per-entry heap allocation, no pointer
// chase on the hot lookup.
//
// Pointer validity: a *DirEntry from Entry/Peek is valid only until the
// next entry materializes (table growth moves entries). The coherence
// protocol re-fetches entries across any call that can create one.
type Directory struct {
	entries flat.Table[DirEntry]
	cores   int
}

// NewDirectory creates a directory for the given core count (≤64).
func NewDirectory(cores int) *Directory {
	if cores <= 0 || cores > 64 {
		panic(fmt.Sprintf("cache: directory supports 1..64 cores, got %d", cores))
	}
	return &Directory{cores: cores}
}

// Len returns the number of entries. Entries are never dropped, so this
// is also the number of lines that ever materialized one.
func (d *Directory) Len() int { return d.entries.Len() }

// Entry returns the entry for a line, creating an empty one on demand.
// The common hit takes one probe; creation is outlined off the hot path.
func (d *Directory) Entry(line isa.Addr) *DirEntry {
	if e := d.entries.Ptr(uint64(line)); e != nil {
		return e
	}
	return d.createEntry(line)
}

//go:noinline
func (d *Directory) createEntry(line isa.Addr) *DirEntry {
	e, _ := d.entries.Upsert(uint64(line))
	e.Owner = NoOwner
	return e
}

// Peek returns the entry if it exists, without creating it.
func (d *Directory) Peek(line isa.Addr) *DirEntry {
	return d.entries.Ptr(uint64(line))
}

// SetOwner records core as the exclusive owner, clearing all sharers.
func (d *Directory) SetOwner(line isa.Addr, core int) {
	d.check(core)
	e := d.Entry(line)
	e.Owner = core
	e.Sharers = 0
}

// AddSharer records core as holding a Shared copy.
func (d *Directory) AddSharer(line isa.Addr, core int) {
	d.check(core)
	e := d.Entry(line)
	e.Sharers |= 1 << uint(core)
}

// ClearOwner demotes the owner (downgrade to Shared keeps it as sharer).
func (d *Directory) ClearOwner(line isa.Addr, keepAsSharer bool) {
	e := d.Entry(line)
	if e.Owner != NoOwner && keepAsSharer {
		e.Sharers |= 1 << uint(e.Owner)
	}
	e.Owner = NoOwner
}

// RemoveSharer drops core from the sharer set (an invalidation message).
func (d *Directory) RemoveSharer(line isa.Addr, core int) {
	d.check(core)
	if e := d.entries.Ptr(uint64(line)); e != nil {
		e.Sharers &^= 1 << uint(core)
	}
}

// DropCore removes any record of core holding the line (eviction).
func (d *Directory) DropCore(line isa.Addr, core int) {
	d.check(core)
	e := d.entries.Ptr(uint64(line))
	if e == nil {
		return
	}
	if e.Owner == core {
		e.Owner = NoOwner
	}
	e.Sharers &^= 1 << uint(core)
}

func (d *Directory) check(core int) {
	if core < 0 || core >= d.cores {
		panic(fmt.Sprintf("cache: core %d out of range [0,%d)", core, d.cores))
	}
}

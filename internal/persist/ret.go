package persist

import (
	"fmt"

	"lrp/internal/engine"
	"lrp/internal/isa"
	"lrp/internal/obs"
)

// RETEntry associates a released cache line with its release epoch.
type RETEntry struct {
	Line  isa.Addr
	Epoch uint32
	// At is the (virtual) time the entry was allocated; the observability
	// layer derives entry residency from it. Zero when the caller used the
	// untimed Add.
	At engine.Time
}

// RET is the Release Epoch Table (§5.2.1): a small content-addressable
// table holding the release epoch of every L1 line that currently holds a
// not-yet-persisted release. The paper provisions 32 entries per L1 and
// triggers the persist of the oldest release when occupancy reaches a
// watermark, so the table can never fill.
type RET struct {
	capacity  int
	watermark int
	// entries in insertion order; the front is the oldest release.
	entries []RETEntry

	// core and o feed the observability layer (occupancy at insert,
	// residency at squash). o is nil unless SetObserver was called.
	core int
	o    *obs.Observer
}

// NewRET builds a table with the given capacity and watermark. The
// watermark must be in (0, capacity].
func NewRET(capacity, watermark int) *RET {
	if capacity <= 0 || watermark <= 0 || watermark > capacity {
		panic(fmt.Sprintf("persist: bad RET geometry cap=%d watermark=%d", capacity, watermark))
	}
	return &RET{capacity: capacity, watermark: watermark}
}

// SetObserver attaches the observability layer, attributing this table's
// events to the given core.
func (r *RET) SetObserver(core int, o *obs.Observer) {
	r.core = core
	r.o = o
}

// Len reports current occupancy.
func (r *RET) Len() int { return len(r.entries) }

// Cap reports capacity.
func (r *RET) Cap() int { return r.capacity }

// AtWatermark reports whether occupancy has reached the persist-trigger
// watermark; the caller must persist (and Remove) the Oldest entry before
// inserting more.
func (r *RET) AtWatermark() bool { return len(r.entries) >= r.watermark }

// Add allocates an entry for a released line at an unspecified time.
func (r *RET) Add(line isa.Addr, epoch uint32) { r.AddAt(line, epoch, 0) }

// AddAt allocates an entry for a released line at time now. A line can
// hold at most one unpersisted release (a second release to the same line
// first persists the previous one), so AddAt panics on duplicates — that
// indicates a mechanism bug, not a program error.
func (r *RET) AddAt(line isa.Addr, epoch uint32, now engine.Time) {
	if len(r.entries) >= r.capacity {
		panic("persist: RET overflow — watermark not honored")
	}
	for _, e := range r.entries {
		if e.Line == line {
			panic(fmt.Sprintf("persist: duplicate RET entry for %v", line))
		}
	}
	r.entries = append(r.entries, RETEntry{Line: line, Epoch: epoch, At: now})
	if r.o != nil {
		r.o.RETAdd(r.core, len(r.entries))
	}
}

// Remove squashes the entry for a line (the release persisted) at an
// unspecified time. It reports whether an entry existed.
func (r *RET) Remove(line isa.Addr) bool { return r.RemoveAt(line, 0) }

// RemoveAt squashes the entry for a line at time now, reporting the
// entry's residency to the observability layer.
func (r *RET) RemoveAt(line isa.Addr, now engine.Time) bool {
	for i, e := range r.entries {
		if e.Line == line {
			r.entries = append(r.entries[:i], r.entries[i+1:]...)
			if r.o != nil {
				r.o.RETRemove(r.core, now-e.At)
			}
			return true
		}
	}
	return false
}

// Oldest returns the entry with the smallest epoch (the first-inserted on
// ties, which is also insertion order since epochs are monotonic).
func (r *RET) Oldest() (RETEntry, bool) {
	if len(r.entries) == 0 {
		return RETEntry{}, false
	}
	best := r.entries[0]
	for _, e := range r.entries[1:] {
		if e.Epoch < best.Epoch {
			best = e
		}
	}
	return best, true
}

// Clear empties the table (epoch overflow flush). Residency of the
// squashed entries is not reported: an overflow flush squashes the whole
// table at once and would only skew the per-entry distribution.
func (r *RET) Clear() { r.entries = r.entries[:0] }
